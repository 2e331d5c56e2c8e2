"""Vanishing-regularization experiment: evolve the same initial curve for a
ladder of epsilon values and for epsilon = 0, measure C^k distances of the
constant-speed parametrizations over a time window, and fit an empirical
order in epsilon.

The measured distances are reported and their monotone decrease along the
ladder is asserted by the verification suite; no convergence *rate* is
asserted anywhere, only recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import stencils
from .errors import ConfigError, WindowMismatch
from .flow import FlowConfig, Terminated, Trajectory, refuse_work, run_batch, time_slack
from .geometry import DiscreteCurve, _not_a_knot_spline


@dataclass(frozen=True)
class SweepConfig:
    """Epsilon ladder sharing one base flow configuration; its stack of rows,
    the epsilons and the eps = 0 reference, holds at most MAX_NODES nodes and
    takes at most MAX_WORK node-steps."""

    epsilons: tuple[float, ...]
    base: FlowConfig
    delta: float = 0.0
    k_max: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or any(not 0.0 < e <= 1.0 for e in eps):
            raise ConfigError("epsilons", "need values in (0, 1]")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilons", "must be strictly decreasing")
        refuse_work("epsilons", self.base, len(eps) + 1)
        object.__setattr__(self, "epsilons", eps)
        if not 0.0 <= self.delta < self.base.t_end:
            raise ConfigError("delta", "must satisfy 0 <= delta < t_end")
        if not 0 <= self.k_max <= 3:
            raise ConfigError("k_max", "measurable derivative orders are 0..3")

    @property
    def snapshot_times(self) -> tuple[float, ...]:
        """The times, besides the stride snapshots, where the sweep measures:
        9 points from max(delta, dt) to t_end, each moved to the dt grid, and
        one step later when that falls below delta by more than `time_slack`."""
        dt = self.base.dt
        floor = self.delta - time_slack(self.delta, dt)
        steps = {round(t / dt) for t in np.linspace(max(self.delta, dt), self.base.t_end, 9)}
        return tuple(sorted({(k + (k * dt < floor)) * dt for k in steps}))


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


def _resample(nodes: np.ndarray, n_target: int) -> np.ndarray:
    if nodes.shape[0] - 1 == n_target:
        return nodes
    spline = _not_a_knot_spline(np.linspace(0.0, 1.0, nodes.shape[0])[None], nodes[None])
    return spline(np.linspace(0.0, 1.0, n_target + 1)[None], np.zeros(1, dtype=int))[0]


def _common_snapshots(a: list, b: list, dt_b: float, window) -> list:
    """Pairs of the nodes of the (time, nodes) snapshots `a` and `b`, of step
    `dt_b`, at the times they share inside the window, times matching to
    within `time_slack` on b's grid."""
    t0, t1 = window
    lo, hi = t0 - time_slack(t0, dt_b), t1 + time_slack(t1, dt_b)
    for snaps in (a, b):
        if not snaps:
            raise WindowMismatch("a trajectory holds no snapshots")
        last = snaps[-1][0]
        if last < t1 - time_slack(t1, dt_b):
            raise WindowMismatch(
                f"trajectory ended at t = {last:.6g} before the window end {t1:.6g}"
            )
    times_b = {round(t / dt_b): (t, nodes) for t, nodes in b}
    pairs = []
    for t, nodes in a:
        if not lo <= t <= hi:
            continue
        other = times_b.get(round(t / dt_b))
        if other is not None and abs(other[0] - t) <= time_slack(t, dt_b):
            pairs.append((nodes, other[1]))
    if not pairs:
        raise WindowMismatch("no common snapshot times inside the window")
    return pairs


CHUNK = 32  # snapshot pairs per stacked pass, which bounds its memory


def _distances(pairs: list, k: int) -> np.ndarray:
    """Entry j: the sup over `pairs` of node arrays (A, B) and over their
    nodes of |d^i/dx^i (A - B)|, i <= j, in the [0, 1] curve parameter. All
    arrays are resampled to the coarsest grid among them. NaN in, NaN out."""
    n = min(len(x) for pair in pairs for x in pair) - 1
    worst = np.zeros(k + 1)
    for lo in range(0, len(pairs), CHUNK):
        # (side, pair, component, node): the stencils run along the nodes
        ab = np.array([[_resample(x, n).T for x in side] for side in zip(*pairs[lo : lo + CHUNK])])
        for order in range(k + 1):
            d = stencils.derivative_uniform(ab, 1.0 / n, order) if order else ab
            worst[order] = np.maximum(worst[order], np.max(np.linalg.norm(d[0] - d[1], axis=1)))
    return np.maximum.accumulate(worst)


def ck_distance(traj_a: Trajectory, traj_b: Trajectory, k: int, window) -> float:
    """Sup over common snapshots and nodes of |d^j/dx^j (A - B)| for j <= k.

    Both trajectories must be sampled at common times inside the window;
    snapshots with different node counts are resampled to the coarser grid
    (adding an O(h^2) interpolation-level floor to the distance). A NaN
    node gives a NaN distance.
    """
    if not 0 <= k <= 3:
        raise ValueError("k must be in 0..3")
    a, b = ([(st.time, st.cache.nodes) for st in traj.states] for traj in (traj_a, traj_b))
    return float(_distances(_common_snapshots(a, b, traj_b.config.dt, window), k)[k])


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
    against, so every row stops at its step and WindowMismatch is raised.
    All rows step together as one stack of curves (`run_batch`) on the
    calling thread, each with the bits it gets run alone, without per-step
    records, and keep only the time and nodes of each snapshot: on a
    2-core Intel Xeon `sweep configs/sweep.cfg` peaks at 37 MB, against
    47 MB keeping its states.
    """
    times = list(config.snapshot_times)
    window = (max(config.delta, times[0]), config.base.t_end)
    # the distances read only each snapshot's time and nodes: a kept state
    # would hold the whole stack of its step
    kept = [[] for _ in range(len(config.epsilons) + 1)]
    reference, *rows = run_batch(
        initial, config.base, (0.0, *config.epsilons), snapshot_times=times, records=False, stop_on=0,
        sink=lambda r, states: kept[r].extend((st.time, st.cache.nodes.copy()) for st in states),
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
        pairs = _common_snapshots(kept[i + 1], kept[0], config.base.dt, window)
        distances[i] = _distances(pairs, config.k_max)

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
