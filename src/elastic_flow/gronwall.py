"""Scalar comparison ODE g' = Z(g): majorant solutions and doubling times.

The default right-hand side is the calibrated power law
Z(p) = C (p^5 + p^3 + p^2); test laws can be injected for oracle checks
and must accept numpy arrays. The law is autonomous with Z > 0, so the time
at which g reaches a level is the integral of 1/Z from g0 to that level:
solutions, doubling times and blow-up tails are all 8-point Gauss-Legendre
sums on geometric panels (Golub & Welsch, Math. Comp. 23, 1969).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfDomain

BLOWUP_CAP = 1e12

NODE_RATIO = 1.02  # g_{i+1} / g_i of the quadrature nodes
# the blow-up tail over x = a / p runs on the panels [2^-(j+1), 2^-j] for
# j below this count; a law growing like p^k leaves out a share
# 2^(-64 (k - 1)) of it, below 1e-19 for k >= 2
TAIL_PANELS = 64
# 8-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(8) written out:
# computing it at import would cost every command the eigensolver's memory
_GL_NODES = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
_GL_X = np.concatenate([-_GL_NODES[::-1], _GL_NODES])
_GL_W = np.concatenate([_GL_WEIGHTS[::-1], _GL_WEIGHTS])


@dataclass(frozen=True)
class GronwallSetup:
    """Initial value and coefficient for the comparison law."""

    g0: float
    coeff_C: float
    t_max_query: float

    def __post_init__(self):
        if not 0.0 < self.g0 < math.inf:
            raise ValueError("g0 must be positive and finite")
        if not 0.0 <= self.coeff_C < math.inf:
            raise ValueError("coeff_C must be nonnegative and finite")
        if not self.t_max_query > 0.0:
            raise ValueError("t_max_query must be positive")

    def law(self) -> Callable[[float], float]:
        c = self.coeff_C
        return lambda p: c * (p**5 + p**3 + p**2)


class GronwallSolution:
    """Dense strictly-increasing solution on [0, t_end].

    Evaluation uses cubic Hermite interpolation on the quadrature nodes
    (t_i, g_i); the derivative at every node equals Z(g_i) exactly by
    construction.
    `blow_up_time` is finite when the solution crossed the cap, in which case
    it includes the tail integral of 1/Z beyond the last node.
    """

    def __init__(self, ts, gs, fs, blow_up_time, law):
        self.ts = np.asarray(ts)
        self.gs = np.asarray(gs)
        self.fs = np.asarray(fs)
        self.blow_up_time = blow_up_time
        self.law = law

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        # phrased so that a NaN time fails it
        if not np.all((t_arr >= 0.0) & (t_arr <= self.ts[-1] * (1 + 1e-12) + 1e-300)):
            raise OutOfDomain(f"time outside [0, {self.ts[-1]:.6g}]")
        t_arr = np.clip(t_arr, 0.0, self.ts[-1])
        idx = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1, 0, self.ts.size - 2)
        h = self.ts[idx + 1] - self.ts[idx]
        x = (t_arr - self.ts[idx]) / h
        h00 = (1 + 2 * x) * (1 - x) ** 2
        h10 = x * (1 - x) ** 2
        h01 = x * x * (3 - 2 * x)
        h11 = x * x * (x - 1)
        out = (
            h00 * self.gs[idx]
            + h10 * h * self.fs[idx]
            + h01 * self.gs[idx + 1]
            + h11 * h * self.fs[idx + 1]
        )
        return out if np.ndim(t) else float(out[0])


def _integral(Z, a, b):
    """8-point Gauss-Legendre sums of 1/Z over the intervals [a, b], elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    p = (a + half)[..., None] + half[..., None] * _GL_X
    return half * ((1.0 / Z(p)) @ _GL_W)


def gronwall_solve(
    setup: GronwallSetup,
    law: Callable[[float], float] | None = None,
    cap: float = BLOWUP_CAP,
) -> GronwallSolution:
    """Solve g' = Z(g), g(0) = g0 up to t_max_query or blow-up.

    The law is autonomous with Z > 0, so t(g) is the integral of 1/Z from
    g0 to g. Nodes g_i = g0 * NODE_RATIO**i run from g0 to the first node at
    or above `cap`. If the times pass t_max_query first, the last node is
    placed at t_max_query exactly; otherwise g crossed `cap` or the steps
    in t fell to 1e-10 of t, the nodes end there, and the reported blow-up
    time is the time of the last node plus the tail integral of 1/Z from
    there upward.
    """
    Z = law if law is not None else setup.law()
    g0, t_max = float(setup.g0), setup.t_max_query
    if not Z(g0) > 0.0:
        # flat law: the majorant is the constant g0
        ts = np.array([0.0, t_max])
        return GronwallSolution(ts, np.array([g0, g0]), np.array([0.0, 0.0]), None, Z)
    count = max(1, math.ceil(math.log(cap / g0) / math.log(NODE_RATIO)))
    gs = g0 * NODE_RATIO ** np.arange(count + 1)
    ts = np.concatenate(([0.0], np.cumsum(_integral(Z, gs[:-1], gs[1:]))))
    blow_up = None
    if ts[-1] > t_max:
        # end at t_max inside the interval [t_k, t_{k+1}] that holds it, by
        # bisection; the bracket reaches one ratio past g_{k+1} so that
        # rounding in t_{k+1} cannot leave the root outside it
        k = int(np.searchsorted(ts, t_max, side="left")) - 1
        rest = t_max - ts[k]
        lo, hi = gs[k], gs[k + 1] * NODE_RATIO
        while hi - lo > 1e-15 * gs[k]:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _integral(Z, gs[k], mid) < rest else (lo, mid)
        g_end = 0.5 * (lo + hi)
        ts = np.append(ts[: k + 1], t_max)
        gs = np.append(gs[: k + 1], g_end)
    else:
        # near blow-up the steps in t shrink toward the rounding of t itself,
        # and a Hermite interval a few ulps wide interpolates badly; the nodes
        # end where a step falls to 1e-10 of t and the tail covers the rest
        stalled = np.flatnonzero(np.diff(ts) <= 1e-10 * ts[:-1])
        if stalled.size:
            ts, gs = ts[: stalled[0] + 1], gs[: stalled[0] + 1]
        # the tail integral of 1/Z from a = g_end up, over x = a / p in (0, 1]:
        # the integrand a / (x^2 Z(a / x)) of a power law is a power of x
        a = gs[-1]
        edges = 0.5 ** np.arange(TAIL_PANELS + 1)
        tail = np.sum(_integral(lambda x: x * x * Z(a / x) / a, edges[1:], edges[:-1]))
        blow_up = float(ts[-1] + tail)
    return GronwallSolution(ts, gs, Z(gs), blow_up, Z)


def doubling_time(
    setup: GronwallSetup,
    s: float,
    law: Callable[[float], float] | None = None,
) -> float:
    """Time for the majorant to grow from level s to level 2s.

    By autonomy this is the integral of 1/Z from s to 2s, whatever g0 is:
    for s below g0 it is the doubling time of the solution restarted from s,
    and for s at or above g0 it equals g^{-1}(2s) - g^{-1}(s).
    """
    if not s > 0.0:
        raise ValueError("level s must be positive")
    Z = law if law is not None else setup.law()
    if 2.0 * s > BLOWUP_CAP:
        raise OutOfDomain("level 2s beyond the blow-up guard")
    theta = math.inf
    if Z(s) > 0.0:
        # panels of ratio 2^(1/count) <= NODE_RATIO from s to 2s
        count = math.ceil(math.log(2.0) / math.log(NODE_RATIO))
        edges = s * 2.0 ** (np.arange(count + 1) / count)
        theta = float(np.sum(_integral(Z, edges[:-1], edges[1:])))
    if theta > setup.t_max_query:
        raise OutOfDomain("level 2s not reached within t_max_query")
    if not theta > 0.0:
        raise OutOfDomain("degenerate doubling interval")
    return theta


def comparison_margin(times, measured, setup: GronwallSetup, law=None):
    """Check measured(t) <= g(t) pointwise; returns (ok, margin).

    Only times inside the computed domain of g participate (past blow-up the
    bound is vacuous). The margin is the minimum of g - measured over t > 0:
    at the start the two sides coincide by construction when g0 is seeded
    from the measurement, so the initial point carries no information.
    """
    sol = gronwall_solve(setup, law=law)
    times = np.asarray(times, dtype=float)
    measured = np.asarray(measured, dtype=float)
    inside = times <= sol.t_end
    if not np.any(inside):
        return True, math.inf
    g_vals = np.asarray(sol(times[inside]))
    diffs = g_vals - measured[inside]
    ok = bool(np.all(diffs >= -1e-12 * np.maximum(1.0, np.abs(g_vals))))
    late = times[inside] > times[0]
    margin = float(np.min(diffs[late])) if np.any(late) else float(np.min(diffs))
    return ok, margin
