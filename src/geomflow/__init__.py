"""Numerical laboratory for conformal metrics u*(flat chart) on surfaces.

Closed-form solution families of du/dt = lap(log u), discrete curvature and
asymptotic invariants, flow integration, blow-up rescaling analysis, and
isometric embedding of rotationally symmetric metrics. The package root
holds only __version__ and the closed-form family names (FAMILIES and one
constant per family), which the command line reads without loading numpy;
import the submodules (geomflow.exact, ...) for the rest.
"""

__version__ = "0.1.0"

CIGAR = "Cigar"
ROSENAU = "Rosenau"
SPHERE = "Sphere"
FLAT = "Flat"
DS_SOLITON = "DSSoliton"
FAMILIES = (CIGAR, ROSENAU, SPHERE, FLAT, DS_SOLITON)
