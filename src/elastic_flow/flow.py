"""Evolution of pinned open curves by the regularized gradient flow.

The normal velocity is kappa - eps (2 d2 kappa + kappa^3); eps = 0 selects
the plain curvature flow. Time stepping is first-order IMEX in position
form: the second- and fourth-derivative operators act implicitly with
coefficients frozen on the current arclength grid, the cubic curvature
term explicitly. Endpoint rows of the linear system are identity rows, and
the fourth-derivative stencil next to the boundary closes with the point
reflection X(-s) = 2P - X(s), whose curvature is the odd extension -- this
encodes the endpoint conditions kappa = 0 without extra constraint rows.

Tangential motion is never prescribed: nodes are redistributed to constant
speed between steps, and the tangential velocity is computed purely as a
diagnostic.

Runs from one initial curve on one (n, dt, t_end) grid that differ only in
eps step together as one stack of curves, a `GeometryCache` (`run_batch`),
so that the per-call cost of numpy on 129-node arrays is paid once per step
rather than once per run; `run` and `step` are batches of one. Every
operation works along the rows of the stack, and LAPACK runs once per row,
so each run gets the bits it gets alone. A snapshot is a row of the stack.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import stencils
from .errors import BadParams, ConfigError, DegenerateCurve, ReparamFailure
from .errors import SingularityDetected, SolverFailure
from .estimates import DIAGNOSTICS, endpoint_residuals, energies
from .geometry import (
    DiscreteCurve,
    GeometryCache,
    _not_a_knot_spline,
    _trapezoid_weights,
    chord_lengths,
    compute_geometry,
    curve_failures,
    grid_failures,
    lapack,
    open_geometry,
    raise_first,
    redistribute,
    reparametrize_constant_speed,
)

MAX_STEPS = 10**6  # the most steps a run may take, 250 times the 4,000 of the suite's longest run
# the most nodes, rows x (n + 1), a stack of curves may hold: stepping takes
# about 11 kB a node for a run at stride 1 and 4.4 kB for a sweep (100 steps,
# measured at n = 10**4 and at 20 rows of n = 1,000), so at most about 1.1 GB
MAX_NODES = 10**5
# the most node-steps, steps x rows x (n + 1), a run or a sweep may take: 10
# times a run of the default dt at n = 1,000, and three to nine hours at the
# 10**6 (n up to 2 x 10**4) to 3 x 10**5 (n = 5 x 10**4) node-steps a second
# measured on a shared 2-core Intel Xeon
MAX_WORK = 10**10
SOLVER_TOL = 1e-10  # the largest linear residual a step accepts, relative to the system's scale


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one evolution run, of at most MAX_STEPS steps on at
    most MAX_NODES nodes, and at most MAX_WORK node-steps. t_end sits on the
    dt grid; `num_steps`, t_end / dt, is set once here and read-only."""

    epsilon: float = 0.1
    n: int = 128
    dt: float | None = None
    t_end: float = 0.1
    kappa_blowup_threshold: float = 1e3

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon", f"{self.epsilon} outside [0, 1]")
        if self.n < 16:
            raise ConfigError("n", "must be at least 16")
        if self.n + 1 > MAX_NODES:
            raise ConfigError("n", f"{self.n + 1} nodes exceed MAX_NODES = {MAX_NODES}")
        if self.dt is None:
            # conservative default: resolved fourth-order dynamics at unit length
            object.__setattr__(self, "dt", min(1e-4, 0.1 / self.n**2))
        if not 0.0 < self.dt < math.inf:
            raise ConfigError("dt", "must be positive and finite")
        if not 0.0 < self.t_end / self.dt < math.inf:
            raise ConfigError("t_end", "must be positive and finite, as must t_end / dt")
        steps = round(self.t_end / self.dt)
        if steps > MAX_STEPS:
            raise ConfigError("t_end", f"t_end / dt = {self.t_end / self.dt:.3g} exceeds MAX_STEPS = {MAX_STEPS}")
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigError("t_end", "must be a positive multiple of dt")
        object.__setattr__(self, "num_steps", steps)
        refuse_work("t_end", self, 1)
        if not 0.0 < self.kappa_blowup_threshold < math.inf:
            raise ConfigError("kappa_blowup_threshold", "must be positive and finite")


def refuse_work(key: str, config: FlowConfig, rows: int) -> None:
    """ConfigError under `key` if a stack of `rows` runs of `config` holds more
    than MAX_NODES nodes or takes more than MAX_WORK node-steps."""
    nodes = rows * (config.n + 1)
    if nodes > MAX_NODES:
        raise ConfigError(key, f"rows x nodes = {rows} x {config.n + 1} = {nodes} exceeds MAX_NODES = {MAX_NODES}")
    steps = config.num_steps
    if steps * nodes > MAX_WORK:
        raise ConfigError(key, f"steps x rows x nodes = {steps} x {rows} x {config.n + 1} = {steps * nodes} "
                          f"exceeds MAX_WORK = {MAX_WORK}")


def time_slack(t: float, dt: float) -> float:
    """How far a time may sit from t and still count as t on a grid of step
    dt: 1e-9 max(|t|, dt), a tolerance that shrinks with dt."""
    return 1e-9 * max(abs(t), dt)


def snapshot_step(t: float, dt: float) -> int:
    """The step k whose time k dt is t to within `time_slack(t, dt)`;
    ConfigError unless t is a finite multiple of dt."""
    if not math.isfinite(t / dt):
        raise ConfigError("snapshot_times", f"{t} / dt is not finite")
    k = round(t / dt)
    if abs(k * dt - t) > time_slack(t, dt):
        raise ConfigError("snapshot_times", f"{t} is not a multiple of dt")
    return k


@dataclass(frozen=True)
class FlowState:
    """One curve along an evolution: `cache` is its geometry, a row of the
    stack it was stepped in.

    `arrays` holds `flow_arrays` of the state, computed on first read, and
    `E` and `lam` read it. It lives in the instance dict, so a copy made by
    `dataclasses.replace` starts without it.
    """

    cache: GeometryCache
    time: float
    epsilon: float
    step_index: int = 0

    @classmethod
    def from_curve(cls, curve: DiscreteCurve, epsilon: float):
        return cls(compute_geometry(curve), 0.0, epsilon)

    @property
    def curve(self) -> DiscreteCurve:
        return DiscreteCurve(self.cache.nodes)

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        return flow_arrays(self)

    @property
    def E(self) -> np.ndarray:
        return self.arrays["E"]

    @property
    def lam(self) -> np.ndarray:
        return self.arrays["lam"]


class Terminated(enum.Enum):
    REACHED_T_END = "reached_t_end"
    SINGULARITY_DETECTED = "singularity_detected"
    SOLVER_FAILURE = "solver_failure"
    REPARAM_FAILURE = "reparam_failure"
    NON_FINITE_STATE = "non_finite_state"
    DEGENERATE_MESH = "degenerate_mesh"
    BATCH_STOPPED = "batch_stopped"  # `run_batch`'s `stop_on` run stopped first


@dataclass
class Trajectory:
    """Strided state snapshots plus per-step diagnostics of one run, a
    record array of `estimates.DIAGNOSTICS` with one record per step (None
    from `run_batch(records=False)`); when `run_batch` handed the snapshots
    to a sink, `states` is empty."""

    states: list[FlowState]
    diagnostics: np.recarray | None
    terminated_by: Terminated
    event_time: float | None
    config: FlowConfig

    def state_at(self, t: float) -> FlowState:
        """The snapshot of the step whose time is t (`snapshot_step`);
        KeyError when t is off the dt grid or that step has no snapshot."""
        try:
            k = snapshot_step(t, self.config.dt)
        except ConfigError:
            k = None
        for st in self.states:
            if st.step_index == k:
                return st
        raise KeyError(f"no snapshot at t = {t}")


def _dirichlet_kappa(kappa: np.ndarray) -> np.ndarray:
    kd = kappa.copy()
    kd[..., 0] = 0.0
    kd[..., -1] = 0.0
    return kd


_FLOW_ARRAYS = ("kappa", "d1", "d2", "d3", "d4", "E", "lam")


def _flow_fields(kappa: np.ndarray, s: np.ndarray, eps: float) -> tuple:
    """The `flow_arrays` of each row of a stack of curvatures `kappa` on the
    grids `s` (rows, n+1), in the order of `_FLOW_ARRAYS`: one pass along
    the last axis serves one state and a block of states (`_record_columns`)."""
    k = _dirichlet_kappa(kappa)
    d = stencils.derivatives(k, s, (1, 2, 3, 4), "odd")
    E = -k + eps * (2.0 * d[1] + k**3)
    integrand = E * k
    running = np.cumsum(0.5 * (integrand[:, 1:] + integrand[:, :-1]) * np.diff(s, axis=-1), axis=-1)
    lam = -np.concatenate([np.zeros((len(s), 1)), running], axis=-1)
    return k, *d, E, lam


def flow_arrays(state: FlowState) -> dict[str, np.ndarray]:
    """Curvature, its derivatives d1..d4, and the normal and tangential
    speeds E and lam, in the convention the stepper enforces.

    Endpoint curvature is pinned to zero and derivatives close with odd
    reflection, so the endpoint identities (E = 0, even-order curvature
    derivatives = 0) hold exactly. `state.arrays` caches it.
    """
    fields = _flow_fields(state.cache.kappa[None], state.cache.s[None], state.epsilon)
    return {name: x[0] for name, x in zip(_FLOW_ARRAYS, fields)}


def curvature_evolution_rhs(state: FlowState, form: str = "compact") -> np.ndarray:
    """Predicted d(kappa)/dt field, at fixed arclength coordinate.

    `compact` assembles -d2 E - kappa^2 E + lambda d1 kappa; `expanded`
    spells out the same expression in curvature derivatives. The two agree
    to the stencil order at interior nodes.
    """
    a = state.arrays
    k = a["kappa"]
    lam = state.lam
    if form == "compact":
        E = state.E
        d2E = stencils.derivative(E, state.cache.s, 2, "odd")
        return -d2E - k**2 * E + lam * a["d1"]
    if form == "expanded":
        eps = state.epsilon
        return (
            a["d2"]
            + k**3
            - eps * (2.0 * a["d4"] + 6.0 * k * a["d1"] ** 2 + 5.0 * k**2 * a["d2"] + k**5)
            + lam * a["d1"]
        )
    raise ValueError("form must be 'compact' or 'expanded'")


def curvature_rate_consistency(traj: "Trajectory", t: float) -> float:
    """Worst interior mismatch between measured and predicted curvature rate.

    Differences the measured curvature in time at fixed arclength (resampling
    the neighbouring snapshots by cubic interpolation, since the total length
    moves) and compares with the predicted rate at time t, away from the four
    nodes at each end. The trajectory must hold snapshots at t - dt, t, t + dt.
    """
    dt = traj.config.dt
    before = traj.state_at(t - dt)
    state = traj.state_at(t)
    after = traj.state_at(t + dt)
    interior = slice(4, -4)
    s_grid = state.cache.s[interior]
    # the two neighbours as a stack of two one-column splines
    spline = _not_a_knot_spline(
        np.stack([before.cache.s, after.cache.s]), np.stack([before.cache.kappa, after.cache.kappa])[..., None]
    )
    k_before, k_after = spline(np.stack([s_grid, s_grid]), np.arange(2))[..., 0]
    measured = (k_after - k_before) / (2.0 * dt)
    predicted = curvature_evolution_rhs(state)[interior]
    return float(np.max(np.abs(measured - predicted)))


def _band_matvec(diags: np.ndarray, x: np.ndarray) -> np.ndarray:
    # along the last two axes: `diags` (..., 5, n+1), the diagonals sub2,
    # sub1, main, sup1 and sup2, and `x` (..., n+1, 2); the arithmetic runs
    # along the nodes, coordinate by coordinate
    x = x.swapaxes(-1, -2)
    out = diags[..., 2:3, :] * x
    out[..., 1:] += diags[..., 1:2, 1:] * x[..., :-1]
    out[..., 2:] += diags[..., 0:1, 2:] * x[..., :-2]
    out[..., :-1] += diags[..., 3:4, :-1] * x[..., 1:]
    out[..., :-2] += diags[..., 4:5, :-2] * x[..., 2:]
    return out.swapaxes(-1, -2)


def _assemble_uniform(n: int, h: float, dt: float, eps: float) -> np.ndarray:
    """Pentadiagonal rows of I - dt (D2 - 2 eps D4) on a uniform grid."""
    r2 = dt / h**2
    r4 = 2.0 * eps * dt / h**4
    diags = np.zeros((5, n + 1))
    sub2, sub1, main, sup1, sup2 = diags
    main[1:-1] = 1.0 + 2.0 * r2 + 6.0 * r4
    sub1[1:-1] = -r2 - 4.0 * r4
    sup1[1:-1] = -r2 - 4.0 * r4
    sub2[2:-1] = r4
    sup2[1:-2] = r4
    # point-reflection ghost folded into the rows next to the boundary
    main[1] = 1.0 + 2.0 * r2 + 5.0 * r4
    sub1[1] = -r2 - 2.0 * r4
    main[-2] = 1.0 + 2.0 * r2 + 5.0 * r4
    sup1[-2] = -r2 - 2.0 * r4
    main[0] = 1.0
    main[-1] = 1.0
    return diags


def solve_banded(diags: np.ndarray, rhs: np.ndarray) -> tuple:
    """Solve each pentadiagonal system `diags[j]` x = rhs[j] of a stack,
    refined once.

    One banded LU factorization (dgbtrf) per system serves the solve and
    the round of iterative refinement: the arithmetic of two
    `scipy.linalg.solve_banded` calls, with one factorization fewer.
    Returns the solutions and a SolverFailure for each row whose matrix is
    singular, by row; such a row is not solved and its solution is zero.
    """
    routines = lapack()
    dgbtrf, dgbtrs = routines.dgbtrf, routines.dgbtrs
    # LAPACK band storage with two extra rows for the pivoting fill-in
    ab = np.zeros((len(diags), 7, diags.shape[-1]))
    ab[:, 2, 2:] = diags[:, 4, :-2]
    ab[:, 3, 1:] = diags[:, 3, :-1]
    ab[:, 4] = diags[:, 2]
    ab[:, 5, :-1] = diags[:, 1, 1:]
    ab[:, 6, :-2] = diags[:, 0, 2:]
    factors = [dgbtrf(a, 2, 2, overwrite_ab=True) for a in ab]
    failed = {j: SolverFailure("singular implicit matrix") for j, (_, _, info) in enumerate(factors) if info > 0}
    solved = [(j, lu, piv) for j, (lu, piv, _) in enumerate(factors) if j not in failed]
    # the solution and its correction, each row in the Fortran order of
    # LAPACK's output, so that the rows copy in as blocks
    x, dx = np.zeros((2, len(diags), 2, diags.shape[-1])).transpose(0, 1, 3, 2)
    for j, lu, piv in solved:
        x[j] = dgbtrs(lu, 2, 2, rhs[j], piv)[0]
    resid = rhs - _band_matvec(diags, x)
    for j, lu, piv in solved:
        dx[j] = dgbtrs(lu, 2, 2, resid[j], piv)[0]
    return x + dx, failed


def _amax(x: np.ndarray) -> np.ndarray:
    # max |x| of each row of a stack
    return np.maximum.reduce(np.abs(x), axis=(1, 2))


def _advance(geo: GeometryCache, eps: list, config: FlowConfig, time: float) -> tuple:
    """One IMEX step of size dt for every row of the stack `geo`, row j
    under eps[j], ending at `time`. Each row must be constant-speed.

    Returns the stack's geometry and each failed row's exception, by row:
    those `step` raises, checked in the same order. A failed row holds its
    last good curve until the step ends, so each index stays a row of `geo`.
    """
    nodes, dt, n = geo.nodes, config.dt, geo.nodes.shape[1] - 1
    ends = slice(None, None, n)  # the first and last node
    # each spacing a Python float, so that its powers are scalar powers
    diags = np.array([_assemble_uniform(n, h, dt, e) for h, e in zip((geo.total_length / n).tolist(), eps)])
    rhs = nodes.copy(order="K")
    # rows with eps = 0 skip the explicit term, whose +0.0 would turn a -0.0
    # coordinate into +0.0
    live = [j for j, e in enumerate(eps) if e > 0.0]
    if live:
        if live[-1] - live[0] == len(live) - 1:
            # a run of rows, as in every sweep (the reference first): a slice
            live = slice(live[0], live[-1] + 1)
        kd = _dirichlet_kappa(geo.kappa[live])
        rhs[live] += dt * ((-3.0 * np.array(eps)[live])[:, None] * kd**3)[..., None] * geo.normal[live]
        rhs[:, ends] = nodes[:, ends]

    # One solve alone passes the backward-error check below on every step of
    # configs/run.cfg; the refinement stays because without it the k4 column
    # moves by 4.9e-4 of its largest value and the b0L/b2L/b4L endpoint
    # residuals by up to 0.31 of theirs, past perfbench/check.py's tolerances.
    new, failed = solve_banded(diags, rhs)
    new[:, ends] = nodes[:, ends]
    resid = _amax(rhs - _band_matvec(diags, new))
    scale = np.maximum.reduce(np.add.reduce(np.abs(diags), axis=1), axis=-1) * _amax(new) + _amax(rhs)
    for j in (resid > SOLVER_TOL * scale).nonzero()[0]:
        failed.setdefault(int(j), SolverFailure(
            f"relative linear residual {resid[j] / scale[j]:.3e} exceeds tolerance"
        ))

    def fail(found: dict) -> None:
        # the first exception of a row is the one that ends it
        for j, exc in found.items():
            failed.setdefault(j, exc)
        for j in failed:
            new[j] = nodes[j]
            seg[j] = chord_lengths(nodes[j])

    seg = chord_lengths(new)
    fail(curve_failures(new, seg))
    new, moved, why = redistribute(new, seg)
    fail(why)
    if np.logical_or.reduce(moved):
        seg = chord_lengths(new)
        fail(curve_failures(new, seg))
    total = np.add.reduce(seg, axis=-1)
    fail(grid_failures(seg, total))
    stepped = open_geometry(new, seg, total)
    peak = np.maximum.reduce(np.abs(stepped.kappa), axis=-1)
    blowup = peak > config.kappa_blowup_threshold
    for j in (blowup | ~stepped.uniform).nonzero()[0]:
        if not stepped.uniform[j]:
            exc = ReparamFailure("redistributed grid is not uniform")
        else:
            exc = SingularityDetected(f"max |kappa| = {peak[j]:.3e} at t = {time:.6g}")
        failed.setdefault(int(j), exc)
    return stepped, failed


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one IMEX step of size dt; endpoints never move.

    Takes a constant-speed state (its cache is `uniform`, as every state
    that `run` and `step` produce is) and redistributes the new curve to
    constant speed before returning it; any other state raises BadParams.
    Raises SolverFailure when the implicit matrix is singular or the
    post-refinement linear residual exceeds SOLVER_TOL, ReparamFailure when the constant-speed redistribution
    stalls or leaves a grid that `stencils.is_uniform` refuses, and
    SingularityDetected when max |kappa| crosses the blow-up threshold. A
    non-finite or coincident new node raises BadParams or DegenerateCurve
    from the curve it would build.
    It is the batch of one of `run_batch`'s stepping.
    """
    if not state.cache.uniform:
        raise BadParams("step needs a constant-speed state; redistribute first")
    # on the run's grid: `run_batch` gives state k the time k dt
    time = (state.time - state.step_index * config.dt) + (state.step_index + 1) * config.dt
    geo, failed = _advance(state.cache[None], [state.epsilon], config, time)
    raise_first(failed)
    return FlowState(geo[0], time, state.epsilon, state.step_index + 1)


RECORD_BLOCK = 64  # states whose diagnostics `run` computes in one array pass

# the reason a run ends with when `step` raises
_REASONS = (
    (SingularityDetected, Terminated.SINGULARITY_DETECTED),
    (SolverFailure, Terminated.SOLVER_FAILURE),
    (ReparamFailure, Terminated.REPARAM_FAILURE),
    (DegenerateCurve, Terminated.DEGENERATE_MESH),
    # the rest of the CurveError family: the admitted curve is open, so this
    # is a non-finite node from the solve or redistribution
    (BadParams, Terminated.NON_FINITE_STATE),
)


def _record_columns(t, length, kappa, s, eps: float) -> np.ndarray:
    """Diagnostics of a block of constant-speed states of one run, in one
    pass along the last axis of their stacked arrays: the (rows, 18) table
    of the `DIAGNOSTICS` columns, with the endpoint lambda in place of its
    residual, which needs the whole run."""
    # the spacing and weights that each state's `GeometryCache` gives
    h = (length / (s.shape[-1] - 1)).tolist()
    w = _trapezoid_weights(s)
    k, *d, E, lam = _flow_fields(kappa, s, eps)
    return np.column_stack([
        t,
        length,
        energies(length, w, kappa, eps),
        np.sum(w * E**2, axis=1),
        *(np.sum(w * x**2, axis=1) for x in (k, *d)),
        endpoint_residuals(kappa, h).reshape(-1, 6),
        lam[:, -1],
        np.max(np.abs(E), axis=1),
        np.max(np.abs(lam), axis=1),
    ])


def _diagnostics(blocks: list[np.ndarray], dt: float) -> np.recarray:
    """The records of a run from its `_record_columns` blocks; the endpoint
    tangential residual |lambda(L) + dL/dt| takes dL/dt by centered
    differences of the length column, one-sided at the two ends."""
    recs = np.concatenate(blocks).view(DIAGNOSTICS)[:, 0].view(np.recarray)
    ldot = np.gradient(recs.length, dt) if len(recs) > 1 else 0.0
    recs.lambda_endpoint_residual = np.abs(recs.lambda_endpoint_residual + ldot)
    return recs


def run(
    initial: DiscreteCurve,
    config: FlowConfig,
    snapshot_stride: int | None = None,
    snapshot_times: list[float] | None = None,
    sink=None,
) -> Trajectory:
    """Evolve `initial` to t_end, collecting diagnostics every step.

    Snapshots are kept at stride multiples (default: about 200 per run),
    at any requested snapshot_times (which must sit on the dt grid), and
    always at the first and last computed step. The initial curve must have
    config.n segments (ConfigError otherwise), endpoint curvature below 1e-6
    and must admit the redistribution to constant speed that precedes
    stepping; otherwise BadParams is raised.
    Once stepping starts, every failure ends the run with its Terminated
    reason, keeping the records up to the last good step. It is the batch
    of one of `run_batch`, which says what `sink` receives.
    """
    return run_batch(initial, config, [config.epsilon], snapshot_stride, snapshot_times, sink)[0]


def run_batch(
    initial: DiscreteCurve,
    config: FlowConfig,
    epsilons: list[float] | tuple[float, ...],
    snapshot_stride: int | None = None,
    snapshot_times: list[float] | None = None,
    sink=None,
    records: bool = True,
    stop_on: int | None = None,
) -> list[Trajectory]:
    """`run` of `config` under each of `epsilons`, stepped together as one
    stack of curves; run r's config is `replace(config, epsilon=epsilons[r])`,
    built, and so checked, before the first step. At least one epsilon, a
    stack within `refuse_work`'s limits, an integer stride and a `stop_on`
    that names a run are admitted; anything else is a ConfigError.

    Each trajectory holds the bits its `run` would give. A row that stops
    leaves the stack with its own reason, records and snapshots.

    Every live row is handed over at once, in row order: its initial state
    alone once the run is admitted, then each time RECORD_BLOCK steps are
    buffered, at each step where any row stops, and at the end. A handover
    computes the records of the buffered steps, step 0's in the first
    block (every record reduction runs along the rows, so where a block is
    cut changes no bit), and passes their kept snapshots, a stopped row's
    last good state included, to `sink(r, states)`, r the index of the
    epsilon, in step order. By default they collect in `Trajectory.states`.
    An exception the sink raises propagates and stops the run. With
    `records=False` no record is built and each `diagnostics` is None; the
    states and the sink's calls stay.
    When the run of epsilons[stop_on] stops, every other run stops at the
    same step, as if it had failed there, with `Terminated.BATCH_STOPPED`.
    """
    if len(epsilons) == 0:
        raise ConfigError("epsilons", "must hold at least one epsilon")
    refuse_work("epsilons", config, len(epsilons))
    if stop_on is not None and not 0 <= stop_on < len(epsilons):
        raise ConfigError("stop_on", f"{stop_on} names none of the {len(epsilons)} runs")
    configs = [replace(config, epsilon=e) for e in epsilons]
    if initial.n != config.n:
        raise ConfigError("n", f"{config.n} segments configured, the initial curve has {initial.n}")
    cache0 = compute_geometry(initial)
    if max(abs(cache0.kappa[0]), abs(cache0.kappa[-1])) > 1e-6:
        raise BadParams("initial curve violates the endpoint curvature condition")
    nsteps = config.num_steps
    dt = config.dt
    if snapshot_stride is None:
        snapshot_stride = max(1, nsteps // 200)
    if not isinstance(snapshot_stride, numbers.Integral) or snapshot_stride < 1:
        raise ConfigError("snapshot_stride", f"{snapshot_stride} is not an integer of at least 1")
    # the steps whose snapshots are kept
    kept_step = np.zeros(nsteps + 1, dtype=bool)
    kept_step[::snapshot_stride] = kept_step[-1] = True
    for t_req in snapshot_times or ():
        k = snapshot_step(t_req, dt)
        if not 0 <= k <= nsteps:
            raise ConfigError("snapshot_times", f"{t_req} is outside [0, t_end]")
        kept_step[k] = True

    try:
        start = reparametrize_constant_speed(initial)
    except ReparamFailure as exc:
        raise BadParams(f"initial curve cannot be redistributed to constant speed: {exc}") from None
    cache = compute_geometry(start)
    if not cache.uniform:
        raise BadParams("initial curve cannot be redistributed to constant speed")
    geo = cache[None][[0] * len(configs)]  # a row of the start curve per config
    states = [[] for _ in configs]
    if sink is None:
        sink = lambda r, batch: states[r].extend(batch)
    blocks = [[] for _ in configs]
    ends = [(Terminated.REACHED_T_END, None)] * len(configs)
    ids = list(range(len(configs)))  # the config of each row of `geo`
    eps = [c.epsilon for c in configs]  # and its epsilon
    # what the records read of each row's buffered steps, at most RECORD_BLOCK
    buf = {name: np.empty((len(ids), RECORD_BLOCK) + getattr(geo, name).shape[1:])
           for name in ("total_length", "kappa", "s")} if records else {}
    times = []  # of the buffered steps
    pending = []  # (step, stack) of the buffered steps whose snapshots are kept

    def hand_over(stopped=()):
        # every live row's records and snapshots of the buffered steps (no
        # record for the initial state alone); a row in `stopped` also gets
        # a pending step that is not kept, its last good one
        for j, r in enumerate(ids):
            if records and times:
                length, kappa, s = (x[j, : len(times)] for x in buf.values())
                blocks[r].append(_record_columns(times, length, kappa, s, eps[j]))
            sink(r, [FlowState(g[j], i * dt, eps[j], i) for i, g in pending if kept_step[i] or j in stopped])
        times.clear()
        pending.clear()

    for k in range(nsteps + 1):
        if k:
            prev, (geo, failed) = geo, _advance(geo, eps, config, k * dt)
            if failed:
                stopped = {j: next(reason for kind, reason in _REASONS if isinstance(exc, kind))
                           for j, exc in failed.items()}
                if stop_on in (ids[j] for j in stopped):
                    stopped = {j: stopped.get(j, Terminated.BATCH_STOPPED) for j in range(len(ids))}
                for j, reason in stopped.items():
                    ends[ids[j]] = (reason, k * dt)
                if not kept_step[k - 1]:
                    pending.append((k - 1, prev))
                hand_over(stopped)
                keep = [j for j in range(len(ids)) if j not in stopped]
                ids, eps, geo = [ids[j] for j in keep], [eps[j] for j in keep], geo[keep]
                buf = {name: x[keep] for name, x in buf.items()}
                if not ids:
                    break
            if len(times) == RECORD_BLOCK:
                hand_over()
        if kept_step[k]:
            pending.append((k, geo))
        if k == 0:
            hand_over()  # the initial state, before the first step
        times.append(k * dt)
        for name, x in buf.items():
            x[:, len(times) - 1] = getattr(geo, name)
    hand_over()
    return [
        Trajectory(states[r], _diagnostics(blocks[r], dt) if records else None, reason, event_time, c)
        for r, (c, (reason, event_time)) in enumerate(zip(configs, ends))
    ]
