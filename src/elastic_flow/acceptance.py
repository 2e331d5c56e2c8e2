"""The verification suite.

Each criterion is a check returning pass/fail plus a deterministic detail
string (no wall-clock values are ever printed, so reports are
byte-identical for a fixed seed); `CRITERIA` names and tags it. Expensive
evolution runs are shared between criteria through a module-level cache;
they contain no randomness, so caching does not weaken the determinism
check.

The one exception is the budget verdict of criteria 1, 8 and 11: the words
"within" / "over" and the pass/fail that follows from them come from the
wall clock. A criterion that finishes under its budget in one pass and
over it in the other therefore makes criterion 12 report "report bytes
differ between passes". Whether that should count against determinism is
not settled; the comparison covers the whole table, verdicts included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import geometry
from .convergence import SweepConfig, run_sweep
from .estimates import (
    boundary_residuals,
    calibrate_comparison_constant,
    calibrate_gn_general,
    calibrate_gn_specialized,
    comparison_check,
    dissipation_residual,
    gn_blocks,
    gn_corpus,
    gn_slacks,
    gn_specialized_slacks,
)
from .flow import (
    FlowConfig,
    FlowState,
    Terminated,
    curvature_evolution_rhs,
    curvature_rate_consistency,
    run,
    run_batch,
)
from .geometry import make_initial_curve
from .gronwall import GronwallSetup, doubling_time, gronwall_solve

AMPLITUDE = 0.05  # benchmark arch height


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str


_RUN_CACHE: dict = {}


def _cached_run(key, factory):
    full_key = (key, geometry._STENCIL_CORRUPTION)
    if full_key not in _RUN_CACHE:
        _RUN_CACHE[full_key] = factory()
    return _RUN_CACHE[full_key]


def _sine_run(n, dt, t_end, snapshot_times=None):
    def factory():
        curve = make_initial_curve("flattened_sine", n, amplitude=AMPLITUDE)
        cfg = FlowConfig(epsilon=0.1, n=n, dt=dt, t_end=t_end)
        return run(curve, cfg, snapshot_times=snapshot_times)

    return _cached_run(("sine", n, dt, t_end, tuple(snapshot_times or ())), factory)


def _arch_run():
    # n = 128 to t = 0.2; the snapshots are those criteria 5 and 7 read
    return _sine_run(128, 1e-4, 0.2, snapshot_times=[0.0499, 0.05, 0.0501, 0.1])


def _segment_runs():
    """The stationary segment runs (n = 128, dt = 1e-3, t_end = 1) for eps
    in 0, 0.1 and 1, stepped as one batch, by eps."""
    epsilons = (0.0, 0.1, 1.0)

    def factory():
        curve = make_initial_curve("segment", 128)
        configs = [FlowConfig(epsilon=eps, n=128, dt=1e-3, t_end=1.0) for eps in epsilons]
        return dict(zip(epsilons, run_batch(curve, configs, snapshot_stride=200)))

    return _cached_run(("segment",), factory)


def _budget(traj) -> float:
    recs = traj.diagnostics
    return abs(recs.energy_Feps[-1] + traj.config.dt * np.sum(recs.dissipation_rate[:-1]) - recs.energy_Feps[0])


# --- criteria -------------------------------------------------------------

def crit_stationarity(seed: int) -> tuple[bool, str]:
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    segment = make_initial_curve("segment", 128)
    for traj in _segment_runs().values():
        ok &= traj.terminated_by is Terminated.REACHED_T_END
        disp = max(
            float(np.max(np.linalg.norm(st.curve.nodes - segment.nodes, axis=1)))
            for st in traj.states
        )
        worst = max(worst, disp)
    elapsed = time.perf_counter() - t0
    ok &= worst <= 1e-10
    in_budget = elapsed < 5.0
    detail = f"max node displacement {worst:.3e}; runtime {'within' if in_budget else 'over'} 5 s budget"
    return ok and in_budget, detail


def crit_energy_dissipation(seed: int) -> tuple[bool, str]:
    dt = 1e-4
    traj = _arch_run()
    energies = traj.diagnostics.energy_Feps
    tol = 1e-10 + 10.0 * dt * dt
    monotone = bool(np.all(np.diff(energies) <= tol))
    t_star = 0.1
    res_coarse = dissipation_residual(traj, round(t_star / dt))
    fine = _sine_run(128, dt / 2, t_star + dt)
    res_fine = dissipation_residual(fine, round(t_star / (dt / 2)))
    slope = math.log2(res_coarse / res_fine) if res_fine > 0 else math.inf
    ok = monotone and slope >= 0.9
    detail = (
        f"monotone={monotone}; dissipation residual {res_coarse:.3e} -> "
        f"{res_fine:.3e}, Richardson slope {slope:.2f}"
    )
    return ok, detail


def crit_energy_budget(seed: int) -> tuple[bool, str]:
    coarse = _budget(_arch_run())
    fine = _budget(_sine_run(256, 5e-5, 0.2))
    ok = coarse <= 5e-3 and fine <= 0.7 * coarse
    detail = f"budget {coarse:.3e} (tol 5e-3), refined {fine:.3e} (ratio {fine / coarse:.2f})"
    return ok, detail


def crit_length_bounds(seed: int) -> tuple[bool, str]:
    ok = True
    worst = math.inf
    runs = [
        _arch_run(),
        _sine_run(256, 5e-5, 0.2),
        _segment_runs()[0.1],
    ]
    for traj in runs:
        f0 = traj.diagnostics[0].energy_Feps
        p = traj.states[0].curve.nodes[0]
        q = traj.states[0].curve.nodes[-1]
        chord = float(np.linalg.norm(q - p))
        length = traj.diagnostics.length
        ok &= bool(np.all((chord - 1e-12 <= length) & (length <= f0 + 1e-8)))
        worst = min(worst, np.min(f0 + 1e-8 - length), np.min(length - chord + 1e-12))
    detail = f"chord <= length <= initial energy on all runs; worst margin {worst:.3e}"
    return ok, detail


def crit_boundary_identities(seed: int) -> tuple[bool, str]:
    coarse = boundary_residuals(_arch_run().state_at(0.1))
    fine_run = _sine_run(256, 2.5e-5, 0.1)
    fine = boundary_residuals(fine_run.states[-1])
    noise_floor = 1e-10
    ok = True
    for j_row in (0, 1):  # kappa and its second derivative
        for side in (0, 1):
            c, f = coarse[j_row, side], fine[j_row, side]
            if c <= noise_floor and f <= noise_floor:
                continue  # converged to measurement noise
            ok &= c / max(f, 1e-300) >= 3.0
    detail = (
        f"|kappa| ends {coarse[0, 0]:.1e}/{coarse[0, 1]:.1e} -> "
        f"{fine[0, 0]:.1e}/{fine[0, 1]:.1e}; |d2 kappa| ratio "
        f"{coarse[1, 0] / fine[1, 0]:.1f}/{coarse[1, 1] / fine[1, 1]:.1f}"
    )
    return ok, detail


def crit_tangential_endpoint(seed: int) -> tuple[bool, str]:
    dt = 1e-4
    traj = _arch_run()
    res_coarse = traj.diagnostics[round(0.1 / dt)].lambda_endpoint_residual
    fine = _sine_run(256, 5e-5, 0.2)
    res_fine = fine.diagnostics[round(0.1 / 5e-5)].lambda_endpoint_residual
    ok = res_coarse <= 5e-3 and res_fine < res_coarse
    detail = f"|lambda(L) + dL/dt| = {res_coarse:.3e} (tol 5e-3), refined {res_fine:.3e}"
    return ok, detail


def crit_curvature_evolution(seed: int) -> tuple[bool, str]:
    t_star, dt = 0.05, 2e-4
    # n = 64 on a run of its own; n = 128 (dt = 1e-4) on the arch run
    coarse = _sine_run(64, dt, t_star + 2 * dt, snapshot_times=[t_star - dt, t_star, t_star + dt])
    residuals = [curvature_rate_consistency(traj, t_star) for traj in (coarse, _arch_run())]
    slope = math.log2(residuals[0] / residuals[1])
    forms = []
    for n in (128, 256):
        curve = make_initial_curve("flattened_sine", n, amplitude=AMPLITUDE)
        st = FlowState.from_curve(curve, 0.1)
        diff = np.abs(
            curvature_evolution_rhs(st, "compact")
            - curvature_evolution_rhs(st, "expanded")
        )
        forms.append(float(np.max(diff[3:-3])))
    forms_ratio = forms[0] / forms[1]
    ok = slope >= 0.9 and forms_ratio >= 3.0
    detail = (
        f"rate residual {residuals[0]:.3e} -> {residuals[1]:.3e} "
        f"(slope {slope:.2f}); form agreement refines x{forms_ratio:.1f}"
    )
    return ok, detail


def crit_gn_inequalities(seed: int) -> tuple[bool, str]:
    t0 = time.perf_counter()
    corpus = gn_corpus(seed, count=200)
    c_u4 = 2.0 * calibrate_gn_specialized(corpus, "u4")
    c_u6 = 2.0 * calibrate_gn_specialized(corpus, "u6")
    general_cases = ((0, 1, 4), (0, 2, 6), (1, 2, 2), (0, 1, math.inf))
    c_gen = {
        case: 2.0 * calibrate_gn_general(corpus, *case) for case in general_cases
    }
    min_slack = math.inf
    ok = True
    for block in gn_blocks(seed + 1, 1000):
        columns = [gn_specialized_slacks(block, "u4", c_u4), gn_specialized_slacks(block, "u6", c_u6)]
        columns += [gn_slacks(block, *case, c_gen[case], c_gen[case]) for case in general_cases]
        for slacks in zip(*columns):
            min_slack = min(min_slack, min(slacks))
            ok &= all(s >= 0.0 for s in slacks)
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < 30.0
    detail = (
        f"1000 fresh samples, min slack {min_slack:.3e}; "
        f"runtime {'within' if in_budget else 'over'} 30 s budget"
    )
    return ok and in_budget, detail


def crit_gronwall_doubling(seed: int) -> tuple[bool, str]:
    setup = GronwallSetup(g0=0.7, coeff_C=1.0, t_max_query=5.0)
    sol = gronwall_solve(setup, law=lambda p: p)
    ts = np.linspace(0.0, 5.0, 41)
    exact = 0.7 * np.exp(ts)
    err_exp = float(np.max(np.abs(np.asarray(sol(ts)) - exact) / exact))
    setup_q = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=10.0)
    sol_q = gronwall_solve(setup_q, law=lambda p: p * p)
    tq = np.linspace(0.0, 0.9, 19)
    err_quad = float(np.max(np.abs(np.asarray(sol_q(tq)) - 1.0 / (1.0 - tq)) * (1.0 - tq)))
    err_blow = abs(sol_q.blow_up_time - 1.0)
    err_theta = 0.0
    for s in (0.3, 1.0, 4.0):
        err_theta = max(
            err_theta,
            abs(doubling_time(setup, s, law=lambda p: p) - math.log(2.0)) / math.log(2.0),
        )
    for s in (1.0, 2.5, 40.0):
        err_theta = max(
            err_theta,
            abs(doubling_time(setup_q, s, law=lambda p: p * p) * (2.0 * s) - 1.0),
        )
    rng = np.random.default_rng(seed)
    window_ok = True
    for _ in range(100):
        g0 = rng.uniform(0.05, 2.0)
        coeff = rng.uniform(0.2, 3.0)
        stp = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=50.0)
        # a moderate cap keeps the blow-up ride short; the bound being
        # checked lives well below it
        sol_r = gronwall_solve(stp, cap=1e6)
        T = rng.uniform(0.0, 0.5) * sol_r.t_end
        level = float(sol_r(T))
        theta = doubling_time(stp, level)
        ts_w = np.linspace(T, min(T + theta, sol_r.t_end), 33)
        # near blow-up the endpoint magnifies the interpolation error,
        # so the bound is checked at 1e-4 relative
        window_ok &= bool(
            np.all(np.asarray(sol_r(ts_w)) <= 2.0 * level * (1.0 + 1e-4))
        )
    worst = max(err_exp, err_quad, err_blow, err_theta)
    ok = worst <= 1e-6 and window_ok
    detail = f"closed-form errors <= {worst:.3e} (tol 1e-6); doubling bound on 100 draws: {window_ok}"
    return ok, detail


def crit_comparison_majorant(seed: int) -> tuple[bool, str]:
    coeff = 2.0 * calibrate_comparison_constant(seed)
    traj = _arch_run()
    g0 = traj.diagnostics[0].kappa_l2_sq[0]
    setup = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=0.2)
    ok, margin = comparison_check(traj, setup)
    detail = f"calibrated C = {coeff:.3e}; bound holds with margin {margin:.3e}"
    return ok and margin > 0.0, detail


def crit_convergence_ladder(seed: int) -> tuple[bool, str]:
    t0 = time.perf_counter()

    def factory():
        base = FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.2)
        cfg = SweepConfig(
            epsilons=(0.2, 0.1, 0.05, 0.025),
            base=base,
            delta=0.05 * base.t_end,
            k_max=1,
        )
        curve = make_initial_curve("flattened_sine", 128, amplitude=AMPLITUDE)
        return run_sweep(curve, cfg)

    report = _cached_run(("ladder",), factory)
    elapsed = time.perf_counter() - t0
    strict = all(
        bool(np.all(np.diff(report.distances[:, k]) < 0.0)) for k in (0, 1)
    )
    orders = ", ".join(
        "n/a" if o is None else f"{o:.2f}" for o in report.fitted_order
    )
    in_budget = elapsed < 120.0
    ok = strict and not report.failed_rows and in_budget
    detail = (
        f"distances strictly decreasing for k=0,1: {strict}; fitted orders [{orders}]; "
        f"runtime {'within' if in_budget else 'over'} 2 min budget"
    )
    return ok, detail


CRITERIA = (
    ("01-stationarity", ("flow", "quick"), crit_stationarity),
    ("02-energy-dissipation", ("flow", "energy"), crit_energy_dissipation),
    ("03-energy-budget", ("flow", "energy"), crit_energy_budget),
    ("04-length-bounds", ("flow",), crit_length_bounds),
    ("05-boundary-identities", ("boundary",), crit_boundary_identities),
    ("06-tangential-endpoint", ("boundary",), crit_tangential_endpoint),
    ("07-curvature-evolution", ("flow",), crit_curvature_evolution),
    ("08-gn-inequalities", ("gn", "seeded"), crit_gn_inequalities),
    ("09-gronwall-doubling", ("gronwall", "seeded", "quick"), crit_gronwall_doubling),
    ("10-comparison-majorant", ("gronwall", "seeded"), crit_comparison_majorant),
    ("11-convergence-ladder", ("sweep",), crit_convergence_ladder),
)


def _run_core(seed: int, tag_filter: str | None) -> list[CriterionResult]:
    results = []
    for label, tags, func in CRITERIA:
        if tag_filter and tag_filter not in tags and tag_filter not in label:
            continue
        results.append(CriterionResult(label, *func(seed)))
    return results


def _format_table(results: list[CriterionResult]) -> str:
    if not results:
        return "no criteria selected"
    width = max(len(r.name) for r in results) + 2
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name:<{width}} {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)


def run_acceptance(seed: int = 0, tag_filter: str | None = None) -> list[CriterionResult]:
    """Evaluate the acceptance criteria; the optional filter selects by tag
    or by substring of the criterion name.

    The determinism criterion re-evaluates the selected subset with the same
    seed and compares the two report bodies byte for byte (evolution runs
    are cached and free of randomness; seeded computations recompute).
    """
    results = _run_core(seed, tag_filter)
    det_selected = (
        tag_filter is None
        or tag_filter in ("seeded", "quick")
        or tag_filter in "12-determinism"
    )
    if det_selected:
        second = _run_core(seed, tag_filter)
        ok = _format_table(results) == _format_table(second)
        detail = (
            "two passes with one seed agree byte for byte"
            if ok
            else "report bytes differ between passes"
        )
        results.append(
            CriterionResult("12-determinism", ok, detail)
        )
    return results


def verify(seed: int = 0, tag_filter: str | None = None) -> tuple[int, str]:
    """Run the suite; exit status 0 iff every selected criterion passed."""
    results = run_acceptance(seed=seed, tag_filter=tag_filter)
    text = _format_table(results)
    status = 0 if all(r.passed for r in results) else 1
    return status, text
