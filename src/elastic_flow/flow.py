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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import stencils
from .errors import BadParams, ConfigError, DegenerateCurve, ReparamFailure
from .errors import SingularityDetected, SolverFailure
from .estimates import DiagnosticsRecord, endpoint_residuals, energies
from .geometry import (
    DiscreteCurve,
    GeometryCache,
    arclength_derivative,
    compute_geometry,
    reparametrize_constant_speed,
)


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one evolution run."""

    epsilon: float = 0.1
    n: int = 128
    dt: float | None = None
    t_end: float = 0.1
    kappa_blowup_threshold: float = 1e3
    solver_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon", f"{self.epsilon} outside [0, 1]")
        if self.n < 16:
            raise ConfigError("n", "must be at least 16")
        if self.dt is None:
            # conservative default: resolved fourth-order dynamics at unit length
            object.__setattr__(self, "dt", min(1e-4, 0.1 / self.n**2))
        if not self.dt > 0.0:
            raise ConfigError("dt", "must be positive")
        if not self.t_end > 0.0:
            raise ConfigError("t_end", "must be positive")
        if not self.kappa_blowup_threshold > 0.0:
            raise ConfigError("kappa_blowup_threshold", "must be positive")
        if not self.solver_tol > 0.0:
            raise ConfigError("solver_tol", "must be positive")

    @property
    def num_steps(self) -> int:
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigError("t_end", "must be a positive multiple of dt")
        return steps


@dataclass(frozen=True)
class FlowState:
    """One curve along an evolution, with its geometry attached.

    `arrays`, `E` and `lam` hold `flow_arrays`, `normal_velocity` and
    `tangential_velocity` of the state, computed on first read. They live
    in the instance dict, so a copy made by `dataclasses.replace` starts
    without them.
    """

    curve: DiscreteCurve
    cache: GeometryCache
    time: float
    epsilon: float
    step_index: int = 0

    @classmethod
    def from_curve(cls, curve: DiscreteCurve, epsilon: float, time: float = 0.0):
        return cls(curve, compute_geometry(curve), time, epsilon)

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        return flow_arrays(self)

    @cached_property
    def E(self) -> np.ndarray:
        return normal_velocity(self)

    @cached_property
    def lam(self) -> np.ndarray:
        return tangential_velocity(self)


class Terminated(enum.Enum):
    REACHED_T_END = "reached_t_end"
    SINGULARITY_DETECTED = "singularity_detected"
    SOLVER_FAILURE = "solver_failure"
    REPARAM_FAILURE = "reparam_failure"
    NON_FINITE_STATE = "non_finite_state"
    DEGENERATE_MESH = "degenerate_mesh"


@dataclass
class Trajectory:
    """Strided state snapshots plus per-step diagnostics of one run."""

    states: list[FlowState]
    diagnostics: list[DiagnosticsRecord]
    terminated_by: Terminated
    event_time: float | None = None
    config: FlowConfig | None = None

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.diagnostics])

    def state_at(self, t: float) -> FlowState:
        for st in self.states:
            if abs(st.time - t) <= 1e-9 * max(1.0, abs(t)):
                return st
        raise KeyError(f"no snapshot at t = {t}")


def _dirichlet_kappa(kappa: np.ndarray) -> np.ndarray:
    kd = kappa.copy()
    kd[..., [0, -1]] = 0.0
    return kd


def _flow_derivatives(cache: GeometryCache, values: np.ndarray, orders: tuple[int, ...]) -> list:
    # the stepper's closure: odd reflection through the pinned endpoints of
    # open curves, periodic wrap on closed test curves
    if cache.closed:
        return [arclength_derivative(cache, values, j) for j in orders]
    return stencils.derivatives(values, cache.s, orders, "odd")


def flow_arrays(state: FlowState) -> dict[str, np.ndarray]:
    """Curvature and derivatives in the convention the stepper enforces.

    Open curves: endpoint curvature is pinned to zero and derivatives close
    with odd reflection, so the endpoint identities (E = 0, even-order
    curvature derivatives = 0) hold exactly. Closed test curves use
    periodic stencils and no boundary handling. `state.arrays` caches it.
    """
    cache = state.cache
    k = cache.kappa if cache.closed else _dirichlet_kappa(cache.kappa)
    d1, d2, d3, d4 = _flow_derivatives(cache, k, (1, 2, 3, 4))
    return {"kappa": k, "d1": d1, "d2": d2, "d3": d3, "d4": d4}


def normal_velocity(state: FlowState) -> np.ndarray:
    """Signed normal speed: -kappa + eps (2 d2 kappa + kappa^3).

    Negative values move the curve along +normal. On open evolving curves
    the endpoint values vanish identically by the boundary convention.
    `state.E` caches it.
    """
    a = state.arrays
    return _normal_speed(a["kappa"], a["d2"], state.epsilon)


def tangential_velocity(state: FlowState) -> np.ndarray:
    """Diagnostic tangential speed: minus the running integral of E kappa.

    `state.lam` caches it.
    """
    return _tangential_speed(state.E, state.arrays["kappa"], state.cache.s)


# The two speeds work along the last axis, so one state and a block of
# states (`_records`) share their arithmetic.
def _normal_speed(k: np.ndarray, d2: np.ndarray, eps: float) -> np.ndarray:
    return -k + eps * (2.0 * d2 + k**3)


def _tangential_speed(E: np.ndarray, k: np.ndarray, s: np.ndarray) -> np.ndarray:
    integrand = E * k
    ds = np.diff(s, axis=-1)
    running = np.cumsum(0.5 * (integrand[..., 1:] + integrand[..., :-1]) * ds, axis=-1)
    return -np.concatenate([np.zeros(running.shape[:-1] + (1,)), running], axis=-1)


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
        (d2E,) = _flow_derivatives(state.cache, E, (2,))
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


def curvature_rate_consistency(traj: "Trajectory", t: float, interior: int = 4) -> float:
    """Worst interior mismatch between measured and predicted curvature rate.

    Differences the measured curvature in time at fixed arclength (resampling
    the neighbouring snapshots by cubic interpolation, since the total length
    moves) and compares with the predicted rate at time t. The trajectory
    must hold snapshots at t - dt, t, t + dt.
    """
    from scipy.interpolate import CubicSpline

    dt = traj.config.dt
    before = traj.state_at(t - dt)
    state = traj.state_at(t)
    after = traj.state_at(t + dt)
    s_grid = state.cache.s[interior:-interior]
    k_before = CubicSpline(before.cache.s, before.cache.kappa)(s_grid)
    k_after = CubicSpline(after.cache.s, after.cache.kappa)(s_grid)
    measured = (k_after - k_before) / (2.0 * dt)
    predicted = curvature_evolution_rhs(state)[interior:-interior]
    return float(np.max(np.abs(measured - predicted)))


def _band_matvec(diags: np.ndarray, x: np.ndarray) -> np.ndarray:
    sub2, sub1, main, sup1, sup2 = diags
    out = main[:, None] * x
    out[1:] += sub1[1:, None] * x[:-1]
    out[2:] += sub2[2:, None] * x[:-2]
    out[:-1] += sup1[:-1, None] * x[1:]
    out[:-2] += sup2[:-2, None] * x[2:]
    return out


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


def solve_banded(diags: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the pentadiagonal system `diags` x = rhs, refined once.

    One banded LU factorization (dgbtrf) serves the solve and the round of
    iterative refinement: the arithmetic of two `scipy.linalg.solve_banded`
    calls, with one factorization fewer.
    """
    sub2, sub1, main, sup1, sup2 = diags
    # LAPACK band storage with two extra rows for the pivoting fill-in
    ab = np.zeros((7, main.size))
    ab[2, 2:] = sup2[:-2]
    ab[3, 1:] = sup1[:-1]
    ab[4, :] = main
    ab[5, :-1] = sub1[1:]
    ab[6, :-2] = sub2[2:]
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
    if info > 0:
        raise SolverFailure("singular implicit matrix")
    x, _ = dgbtrs(lu, 2, 2, rhs, piv)
    correction, _ = dgbtrs(lu, 2, 2, rhs - _band_matvec(diags, x), piv)
    return x + correction


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one IMEX step of size dt; endpoints never move.

    Takes a constant-speed state (its cache has `uniform_h`, as every state
    that `run` and `step` produce does) and redistributes the new curve to
    constant speed before returning it; any other state raises BadParams.
    Raises SolverFailure when the post-refinement linear residual exceeds
    solver_tol, ReparamFailure when the constant-speed redistribution
    stalls, SingularityDetected when max |kappa| crosses the blow-up
    threshold or the mesh degenerates. A non-finite or coincident new node
    raises BadParams or DegenerateCurve from the curve it would build.
    """
    if state.curve.closed:
        raise BadParams("the evolution is defined for open pinned curves")
    cache = state.cache
    if cache.uniform_h is None:
        raise BadParams("step needs a constant-speed state; redistribute first")
    nodes = cache.curve.nodes
    n = nodes.shape[0] - 1
    dt = config.dt
    eps = state.epsilon
    diags = _assemble_uniform(n, cache.uniform_h, dt, eps)

    rhs = nodes.copy()
    if eps > 0.0:
        kd = _dirichlet_kappa(cache.kappa)
        rhs += dt * (-3.0 * eps * kd**3)[:, None] * cache.normal
        rhs[0] = nodes[0]
        rhs[-1] = nodes[-1]

    # One solve alone passes the backward-error check below on every step of
    # configs/run.cfg; the refinement stays because without it the k4 column
    # moves by 4.9e-4 of its largest value and the b0L/b2L/b4L endpoint
    # residuals by up to 0.31 of theirs, past perfbench/check.py's tolerances.
    new_nodes = solve_banded(diags, rhs)
    new_nodes[0] = nodes[0]
    new_nodes[-1] = nodes[-1]
    resid = rhs - _band_matvec(diags, new_nodes)
    scale = float(np.abs(diags).sum(axis=0).max()) * float(
        np.max(np.abs(new_nodes))
    ) + float(np.max(np.abs(rhs)))
    if np.max(np.abs(resid)) > config.solver_tol * scale:
        raise SolverFailure(
            f"relative linear residual "
            f"{np.max(np.abs(resid)) / scale:.3e} exceeds tolerance"
        )

    new_curve = reparametrize_constant_speed(DiscreteCurve(new_nodes))
    new_cache = compute_geometry(new_curve)
    if np.max(np.abs(new_cache.kappa)) > config.kappa_blowup_threshold:
        raise SingularityDetected(
            f"max |kappa| = {np.max(np.abs(new_cache.kappa)):.3e} at "
            f"t = {state.time + dt:.6g}"
        )
    seg = np.diff(new_cache.s)
    if np.min(seg) < 1e-6 * new_cache.total_length:
        raise SingularityDetected(f"mesh degenerated at t = {state.time + dt:.6g}")
    return FlowState(
        curve=new_curve,
        cache=new_cache,
        time=state.time + dt,
        epsilon=eps,
        step_index=state.step_index + 1,
    )


RECORD_BLOCK = 64  # states whose diagnostics `run` computes in one array pass


def _record_inputs(state: FlowState) -> tuple:
    # what a diagnostics record reads of a state
    cache = state.cache
    return state.time, cache.total_length, cache.uniform_h, cache.kappa, cache.s, cache.ds


def _records(block: list[tuple], eps: float) -> list[DiagnosticsRecord]:
    """Diagnostics records of the states whose `_record_inputs` are `block`,
    in one pass along the last axis of their stacked arrays."""
    if not block:
        return []
    t, length, uniform_h, kappa, s, w = zip(*block)
    kappa, s, w = np.stack(kappa), np.stack(s), np.stack(w)
    k = _dirichlet_kappa(kappa)
    d = stencils.uniform_row_derivatives(k, s, (1, 2, 3, 4), "odd")
    E = _normal_speed(k, d[1], eps)
    lam = _tangential_speed(E, k, s)
    norms = np.stack([np.sum(w * x**2, axis=1) for x in (k, *d)], axis=1)
    scalars = [
        energies(np.array(length), w, kappa, eps),
        np.sum(w * E**2, axis=1),
        np.max(np.abs(E), axis=1),
        np.max(np.abs(lam), axis=1),
        lam[:, -1],
    ]
    return [
        DiagnosticsRecord(ti, li, f, diss, n.copy(), b.copy(), math.nan, e, m, end)
        for ti, li, (f, diss, e, m, end), n, b in zip(
            t, length, np.stack(scalars, axis=1).tolist(), norms, endpoint_residuals(kappa, uniform_h)
        )
    ]


def _fill_lambda_residuals(records: list[DiagnosticsRecord], dt: float):
    # dL/dt by centered differences, one-sided at the two ends
    lengths = np.array([rec.length for rec in records])
    ldot = np.gradient(lengths, dt).tolist() if len(records) > 1 else [0.0]
    return [
        replace(rec, lambda_endpoint_residual=abs(rec._lambda_end + v))
        for rec, v in zip(records, ldot)
    ]


def run(
    initial: DiscreteCurve,
    config: FlowConfig,
    snapshot_stride: int | None = None,
    snapshot_times: list[float] | None = None,
) -> Trajectory:
    """Evolve `initial` to t_end, collecting diagnostics every step.

    Snapshots are kept at stride multiples (default: about 200 per run),
    at any requested snapshot_times (which must sit on the dt grid), and
    always at the first and last computed step. The initial curve must have
    endpoint curvature below 1e-6 and must admit the redistribution to
    constant speed that precedes stepping; otherwise BadParams is raised.
    Once stepping starts, every failure ends the run with its Terminated
    reason, keeping the records up to the last good step. Diagnostics are
    computed in blocks of RECORD_BLOCK states, and once more for the states
    left when the run ends.
    """
    cache0 = compute_geometry(initial)
    if max(abs(cache0.kappa[0]), abs(cache0.kappa[-1])) > 1e-6:
        raise BadParams("initial curve violates the endpoint curvature condition")
    nsteps = config.num_steps
    dt = config.dt
    if snapshot_stride is None:
        snapshot_stride = max(1, nsteps // 200)
    if snapshot_stride < 1:
        raise ConfigError("snapshot_stride", "must be at least 1")
    want_times = set()
    for t_req in snapshot_times or ():
        k = round(t_req / dt)
        if abs(k * dt - t_req) > 1e-9 * max(1.0, t_req):
            raise ConfigError("snapshot_times", f"{t_req} is not a multiple of dt")
        want_times.add(k)

    try:
        start = reparametrize_constant_speed(initial)
    except ReparamFailure as exc:
        raise BadParams(f"initial curve cannot be redistributed to constant speed: {exc}") from None
    state = FlowState.from_curve(start, config.epsilon)
    block = [_record_inputs(state)]
    records = []
    states = [state]
    terminated = Terminated.REACHED_T_END
    event_time = None
    for k in range(1, nsteps + 1):
        try:
            state = step(state, config)
        except SingularityDetected:
            terminated = Terminated.SINGULARITY_DETECTED
        except SolverFailure:
            terminated = Terminated.SOLVER_FAILURE
        except ReparamFailure:
            terminated = Terminated.REPARAM_FAILURE
        except DegenerateCurve:
            terminated = Terminated.DEGENERATE_MESH
        except BadParams:
            # the rest of the CurveError family: the admitted curve is open,
            # so this is a non-finite node from the solve or redistribution
            terminated = Terminated.NON_FINITE_STATE
        if terminated is not Terminated.REACHED_T_END:
            event_time = state.time + dt
            break
        # keep the time grid exactly k * dt (no accumulation drift)
        state = replace(state, time=k * dt)
        block.append(_record_inputs(state))
        if len(block) == RECORD_BLOCK:
            records += _records(block, config.epsilon)
            block = []
        if k % snapshot_stride == 0 or k == nsteps or k in want_times:
            states.append(state)
    records += _records(block, config.epsilon)
    if states[-1].step_index != state.step_index:
        states.append(state)
    return Trajectory(
        states=states,
        diagnostics=_fill_lambda_residuals(records, dt),
        terminated_by=terminated,
        event_time=event_time,
        config=config,
    )
