"""Refinement rows: a reported quantity must not get worse when the data is refined.

Each row refines one artifact quantity in space or in snapshot count and
asserts its observed order, or that its distance from the limit does not grow.
"""

import math

import numpy as np

from geomflow import embedding, exact, geometry, solver

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


def test_cigar_r_max_stays_at_the_tip_curvature_under_grid_refinement():
    # invariants.csv r_max of the cigar r0 = 4 at extent 50, the O(h^6) axis row.
    # Measured r_max - 4: -8.7e-9, -1.3e-10, -8.1e-13, -2.0e-12, 1.2e-10 and
    # -5.2e-10 at n = 2001 ... 64001: from n = 8001 on the axis row's rounding,
    # about eps / h^2, outgrows its truncation, so the row asserts a band, not a
    # non-increase
    for n in (2001, 4001, 8001, 16001, 32001, 64001):
        report = geometry.invariant_report(exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=50.0))
        assert abs(report.r_max - 4.0) <= 1e-8, (n, report.r_max)


def test_cigar_embedded_circumference_settles_under_grid_refinement():
    # embed.json circumference of the cigar r0 = 4 at extent 50. Measured above
    # 2 pi: 1.2573e-6, 1.2560e-6, 1.2561e-6, 1.2562e-6 and 1.2562e-6 at
    # n = 2001 ... 32001, the finite-extent tail; the distance to the finest
    # level reads 1.1e-9, 2.5e-10, 6.9e-11 and 2.9e-11
    circumferences = []
    for n in (2001, 4001, 8001, 16001, 32001):
        grid = exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=50.0)
        surface = embedding.embed(embedding.profile_from_metric(grid))
        circumferences.append(embedding.circumference_and_width(surface)[0])
    assert all(1.2555e-6 <= c - TWO_PI <= 1.2575e-6 for c in circumferences), circumferences
    gaps = [abs(c - circumferences[-1]) for c in circumferences[:-1]]
    assert all(fine <= coarse for coarse, fine in zip(gaps, gaps[1:])), gaps
