"""Numerical laboratory for conformal metrics u*(flat chart) on surfaces.

Closed-form solution families of du/dt = lap(log u), discrete curvature and
asymptotic invariants, flow integration, blow-up rescaling analysis, and
isometric embedding of rotationally symmetric metrics. The package root
holds only __version__; import the submodules (geomflow.exact, ...).
"""

__version__ = "0.1.0"
