"""Built-in acceptance suite: eleven numbered checks over fixed fixtures.

Each criterion returns a record of labeled checks with the measured value
printed next to the requirement. Records carry no wall-clock data; runtime
budgets are reported only as within/exceeded so that consecutive runs of
the suite render byte-identical output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import embedding, exact, rescaling, serialize, solver
from .geometry import (
    TWO_PI,
    average_curvature_k,
    cigar_cylinder_grid,
    curvature_bump_grid,
    invariant_report,
    laplacian_field,
    sup_r_times_k,
)

RESOLUTIONS = (250, 500, 1000, 2000)


@dataclass(frozen=True)
class CriterionCheck:
    label: str
    measured: str
    requirement: str
    ok: bool


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    checks: tuple[CriterionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)


def _check(label: str, measured, requirement: str, ok) -> CriterionCheck:
    return CriterionCheck(
        label=label,
        measured=serialize.format_value(measured),
        requirement=requirement,
        ok=bool(ok),
    )


def _budget(elapsed: float, budget: float) -> CriterionCheck:
    ok = elapsed < budget
    return CriterionCheck(
        label="runtime",
        measured="within budget" if ok else "exceeded budget",
        requirement=f"< {budget:g} s",
        ok=ok,
    )


def flow_residual(spec: exact.ExactSolutionSpec, t: float, **sample) -> float:
    """Sup over the reliable nodes of |du/dt - lap(log u)| for the family sampled at
    time t with sample_grid(**sample); it falls at order 2 as the grid refines."""
    grid = exact.sample_grid(spec, t, **sample)
    lap = laplacian_field(np.log(grid.u), grid.nodes, grid.h, grid.chart)
    residual = exact.dudt_profile(spec, grid.nodes, t) - lap
    return float(np.abs(residual[grid.reliable_slice()]).max())


@lru_cache(maxsize=None)
def _soliton_grid():
    return exact.sample_grid(exact.cigar(4.0), 0.0, n=2000, extent=50.0)


@lru_cache(maxsize=None)
def _accuracy_run():
    grid = exact.sample_grid(exact.rosenau(), -2.0, n=2000, x_lo=-20.0, x_hi=20.0)
    return solver.evolve(grid, -1.0, cfl=0.4, output_times=np.linspace(-2.0, -1.0, 65))


@lru_cache(maxsize=None)
def _compact_ancient_classifier_trajectory():
    times = np.linspace(-64.0, -1.0, 253)
    return solver.exact_trajectory(exact.rosenau(), times, n=3081, x_lo=-77.0, x_hi=77.0)


def criterion_1() -> CriterionResult:
    """Sampled families satisfy the discrete flow equation at order 2."""
    start = time.perf_counter()
    checks = []
    fixtures = (
        ("compact ancient", exact.rosenau(), -1.0, dict(x_lo=-12.0, x_hi=12.0)),
        ("radial soliton", exact.ds_soliton(), 0.0, dict(extent=20.0)),
    )
    for name, spec, t, kwargs in fixtures:
        errors = [flow_residual(spec, t, n=n, **kwargs) for n in RESOLUTIONS]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        ok = all(3.0 <= r <= 5.0 for r in ratios)
        checks.append(
            _check(
                f"{name} residual ratios per halving",
                ", ".join(serialize.format_value(r) for r in ratios),
                "each in [3, 5]",
                ok,
            )
        )
    checks.append(_budget(time.perf_counter() - start, 10.0))
    return CriterionResult(1, "flow-equation residual order", tuple(checks))


def criterion_2() -> CriterionResult:
    """Evolved conformal factor tracks the closed form to 1e-3."""
    start = time.perf_counter()
    _accuracy_run.cache_clear()
    traj = _accuracy_run()
    elapsed = time.perf_counter() - start
    sup_rel = solver.closed_form_error(traj)
    checks = (
        _check("sup relative conformal-factor error", sup_rel, "< 0.001", sup_rel < 1e-3),
        _budget(elapsed, 60.0),
    )
    return CriterionResult(2, "solver accuracy", checks)


def criterion_3() -> CriterionResult:
    """Curvature maximum of the evolved compact flow follows coth(-t)."""
    series = solver.rmax_series(_accuracy_run())
    worst = max(
        abs(v - exact.rosenau_rmax(t)) / exact.rosenau_rmax(t) for t, v in series.values
    )
    checks = (
        _check("max relative curvature-peak error", worst, "< 0.001", worst < 1e-3),
    )
    return CriterionResult(3, "curvature-maximum track", checks)


def criterion_4() -> CriterionResult:
    """Invariants of the unit-circumference soliton at desk resolution."""
    report = invariant_report(_soliton_grid())
    tip_gap = abs(report.r_max - 4.0)
    checks = (
        _check(
            "total curvature vs 2*pi",
            report.tau,
            "within 1%",
            abs(report.tau - TWO_PI) <= 0.01 * TWO_PI,
        ),
        _check(
            "circumference at infinity vs 2*pi",
            report.circumference,
            "within 1%",
            abs(report.circumference - TWO_PI) <= 0.01 * TWO_PI,
        ),
        _check("aperture magnitude", abs(report.aperture), "< 0.05", abs(report.aperture) < 0.05),
        _check("asymptotic volume ratio", report.avr, "< 0.02", report.avr < 0.02),
        _check("tip curvature gap from 4", tip_gap, "<= 1e-06", tip_gap <= 1e-6),
    )
    return CriterionResult(4, "soliton invariant suite", checks)


def criterion_5() -> CriterionResult:
    """Length and area growth rates agree with the curvature deficit."""
    checks = []
    fixtures = (
        ("soliton (deficit 0)", _soliton_grid()),
        ("bump (deficit pi)", curvature_bump_grid()),
    )
    for name, grid in fixtures:
        report = invariant_report(grid)
        gap = max(TWO_PI - report.tau, TWO_PI / 100.0)
        rel_len = report.hartman_defect_length / gap
        rel_area = report.hartman_defect_area / gap
        checks.append(
            _check(f"{name} length-rate gap", rel_len, "< 0.05", rel_len < 0.05)
        )
        checks.append(
            _check(f"{name} area-rate gap", rel_area, "< 0.05", rel_area < 0.05)
        )
    return CriterionResult(5, "growth-rate identities", tuple(checks))


def criterion_6() -> CriterionResult:
    """Backward picks converge to the unit cigar profile."""
    start = time.perf_counter()
    distances = []
    for j in range(1, 7):
        traj = rescaling.backward_rosenau_trajectory(j)
        pick = rescaling.pick_point(
            traj, rescaling.default_window(j), rescaling.default_gamma(j), j=j
        )
        distances.append(rescaling.profile_distance(traj, pick, 3.0))
    elapsed = time.perf_counter() - start
    # equality tolerance 1e-6 absorbs the sup-norm roundoff on the plateau
    monotone = all(b <= a + 1e-6 for a, b in zip(distances, distances[1:]))
    checks = (
        _check(
            "profile distances j = 1..6",
            ", ".join(serialize.format_value(d) for d in distances),
            "nonincreasing within 1e-06",
            monotone,
        ),
        _check("final distance", distances[-1], "< 0.02", distances[-1] < 0.02),
        _budget(elapsed, 120.0),
    )
    return CriterionResult(6, "backward cigar limit", checks)


def criterion_7() -> CriterionResult:
    """Classifier separates bounded and diverging |t| curvature growth."""
    times = np.linspace(-64.0, -1.0, 253)
    round_traj = solver.exact_trajectory(exact.sphere(), times, n=1201, extent=30.0)
    round_report = rescaling.classify_type(round_traj)
    round_vals = [s for _, s in round_report.samples]
    round_ok = round_report.verdict == rescaling.BOUNDED and all(
        0.45 <= s <= 0.55 for s in round_vals
    )
    compact_report = rescaling.classify_type(_compact_ancient_classifier_trajectory())
    vals = [s for _, s in compact_report.samples]
    growth = [b / a for a, b in zip(vals[2:], vals[3:])]
    compact_ok = compact_report.verdict == rescaling.DIVERGING and all(
        r >= 1.8 for r in growth
    )
    checks = (
        _check(
            "round family scores",
            ", ".join(serialize.format_value(s) for s in round_vals),
            "Bounded, each in [0.45, 0.55]",
            round_ok,
        ),
        _check(
            "compact ancient growth per doubling past -8",
            ", ".join(serialize.format_value(r) for r in growth),
            "Diverging, each >= 1.8",
            compact_ok,
        ),
    )
    return CriterionResult(7, "growth-type classifier", checks)


def criterion_8() -> CriterionResult:
    """Conservation, length-evolution, and time-monotonicity defects."""
    diag = solver.diagnostics(_accuracy_run())
    soliton_times = np.linspace(1.0, 2.0, 17)
    soliton_traj = solver.exact_trajectory(
        exact.ds_soliton(), soliton_times, n=800, extent=15.0
    )
    soliton_diag = solver.diagnostics(soliton_traj)
    checks = (
        _check(
            "conservation defect", diag.f_defect, "< 0.0001", diag.f_defect < 1e-4
        ),
        _check(
            "length-evolution defect",
            diag.length_evolution_defect,
            "< 0.01",
            diag.length_evolution_defect < 0.01,
        ),
        _check(
            "t * curvature monotonicity defect",
            soliton_diag.harnack_defect,
            "< 1e-08",
            soliton_diag.harnack_defect < 1e-8,
        ),
    )
    return CriterionResult(8, "trajectory diagnostics", checks)


def criterion_9() -> CriterionResult:
    """Average curvature over balls stays pinned near the soliton limits."""
    grid = cigar_cylinder_grid()
    rk_20 = 20.0 * average_curvature_k(grid, 20.0)
    sup_rk = sup_r_times_k(grid)
    checks = (
        _check("r * k(o, r) at r = 20", rk_20, "in [1.9, 2.1]", 1.9 <= rk_20 <= 2.1),
        _check("sup of r * k(o, r)", sup_rk, "<= 4.001", sup_rk <= 4.0 + 1e-3),
    )
    return CriterionResult(9, "average curvature bounds", checks)


def criterion_10() -> CriterionResult:
    """Revolution embedding of the unit-circumference soliton."""
    grid = _soliton_grid()
    profile = embedding.profile_from_metric(grid)
    surface = embedding.embed(profile)
    h_gap = float(np.abs(profile.hcirc - np.tanh(profile.s)).max())
    lengths = embedding.level_lengths(surface, [1.0, 2.0, 3.0])
    strictly_increasing = bool(np.all(np.diff(lengths) > 0.0))
    circ, width = embedding.circumference_and_width(surface)
    geo = invariant_report(grid).circumference
    circ_rel = abs(circ - geo) / geo
    width_rel = abs(width - geo) / geo
    inside = bool(np.all(surface.r < circ / TWO_PI))
    checks = (
        _check("sup profile gap from tanh", h_gap, "< 0.0001", h_gap < 1e-4),
        _check(
            "level lengths at heights 1, 2, 3",
            ", ".join(serialize.format_value(v) for v in lengths),
            "strictly increasing",
            strictly_increasing,
        ),
        _check("circumference gap vs circle-length limit", circ_rel, "within 1%", circ_rel <= 0.01),
        _check("width gap vs circle-length limit", width_rel, "within 1%", width_rel <= 0.01),
        _check(
            "meridian inside the limit cylinder",
            "yes" if inside else "no",
            "r < circumference / 2*pi",
            inside,
        ),
    )
    return CriterionResult(10, "revolution embedding", checks)


def _determinism_artifact() -> str:
    grid = exact.sample_grid(exact.cigar(4.0), 0.0, n=600, extent=30.0)
    header, rows = serialize.invariant_table([invariant_report(grid)])
    text = serialize.csv_text(header, rows)
    traj = rescaling.backward_rosenau_trajectory(2, h_target=0.05, snapshot_count=65)
    pick = rescaling.pick_point(traj, -4.0, rescaling.default_gamma(2), j=2)
    distance = rescaling.profile_distance(traj, pick, 3.0)
    text += serialize.json_text(serialize.rescaling_record(pick, distance))
    text += serialize.json_text(serialize.checkpoint_payload(grid))
    return text


def criterion_11() -> CriterionResult:
    """Recomputing and re-serializing artifacts reproduces identical bytes."""
    first = _determinism_artifact()
    second = _determinism_artifact()
    same = first == second
    checks = (
        _check(
            "recomputed artifact bytes",
            "identical" if same else "differ",
            "byte-identical",
            same,
        ),
    )
    return CriterionResult(11, "deterministic outputs", checks)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all() -> tuple[CriterionResult, ...]:
    return tuple(fn() for fn in CRITERIA)
