"""Refinement rows: a reported quantity must not get worse when the data is refined.

Each row refines one artifact quantity in space or in snapshot count and
asserts its observed order, or that its distance from the limit does not grow.
"""

import math

import numpy as np

from geomflow import exact, geometry, solver

TWO_PI = 2.0 * math.pi


def test_rosenau_diagnostics_converge_at_second_order_in_the_snapshot_spacing():
    # diagnostics.json of a Rosenau run -2 -> -1 (n = 4000, cfl 0.4). Measured:
    # f_defect 4.30e-3, 1.08e-3, 2.71e-4, 6.83e-5 and length_evolution_defect
    # 8.16e-3, 2.20e-3, 5.78e-4, 1.48e-4 at 5, 9, 17 and 33 snapshots
    grid = exact.sample_grid(exact.rosenau(), -2.0, n=4000, extent=20.0)
    f_defects, length_defects = [], []
    for count in (5, 9, 17, 33):
        traj = solver.evolve(grid, -1.0, cfl=0.4, output_times=np.linspace(-2.0, -1.0, count))
        report = solver.diagnostics(traj)
        f_defects.append(report.f_defect)
        length_defects.append(report.length_evolution_defect)
    for defects in (f_defects, length_defects):
        ratios = [coarse / fine for coarse, fine in zip(defects, defects[1:])]
        assert all(3.0 <= ratio <= 5.0 for ratio in ratios), (defects, ratios)


def test_cigar_invariants_approach_their_limits_under_grid_refinement():
    # invariants.csv of the cigar r0 = 4 at extent 50. Measured: |tau - 2 pi|
    # 3.49e-3, 2.76e-3, 2.57e-3 and |circumference - 2 pi| 9.9e-6, 5.7e-6, 3.6e-6
    # at n = 2001, 4001, 8001; tau's gap tends to a finite-extent limit, not 0
    tau_gaps, circumference_gaps = [], []
    for n in (2001, 4001, 8001):
        report = geometry.invariant_report(exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=50.0))
        tau_gaps.append(abs(report.tau - TWO_PI))
        circumference_gaps.append(abs(report.circumference - TWO_PI))
    for gaps in (tau_gaps, circumference_gaps):
        assert all(fine <= coarse for coarse, fine in zip(gaps, gaps[1:])), gaps
