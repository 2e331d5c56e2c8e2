"""Quantitative diagnostics: energy, dissipation, boundary residuals,
interpolation inequalities, and the comparison-law calibration.

Everything here measures; nothing here feeds back into the evolution. In
particular `boundary_residuals` uses plain one-sided stencils on the
measured curvature, independent of the reflection convention the stepper
uses to enforce its boundary conditions.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import stencils
from .errors import BadExponent
from .geometry import GeometryCache, open_geometry, stacked_grids
from .gronwall import GronwallSetup, comparison_margin


# The per-step scalars recorded along a trajectory, one record per step and
# the fields in the column order of diagnostics.csv: kappa_l2_sq[j] holds the
# squared L^2 norm of the j-th arclength derivative of curvature for
# j = 0..4; boundary_residuals is a (3, 2) array of |d^j kappa/ds^j| at the
# (left, right) endpoint for j = 0, 2, 4.
DIAGNOSTICS = np.dtype([
    ("t", float),
    ("length", float),
    ("energy_Feps", float),
    ("dissipation_rate", float),
    ("kappa_l2_sq", float, (5,)),
    ("boundary_residuals", float, (3, 2)),
    ("lambda_endpoint_residual", float),
    ("max_abs_E", float),
    ("max_abs_lambda", float),
])
DIAGNOSTICS_HEADER = "t,length,energy,dissipation,k0,k1,k2,k3,k4,b0L,b0R,b2L,b2R,b4L,b4R,lam_res,maxE,maxLam"


def energy(state) -> float:
    """Length-plus-bending functional: trapezoid of (1 + eps kappa^2) ds."""
    return float(energies(state.cache.total_length, state.cache.ds, state.cache.kappa, state.epsilon))


def energies(length, ds: np.ndarray, kappa: np.ndarray, eps: float):
    """`energy` along the last axis: one value per row of `ds` and `kappa`,
    `length` holding the total length of each row."""
    if eps == 0.0:
        return length
    return np.sum(ds * (1.0 + eps * kappa**2), axis=-1)


def dissipation_residual(traj, k: int) -> float:
    """|centered dF/dt + integral of E^2| at step k of a trajectory."""
    recs = traj.diagnostics
    if not 1 <= k <= len(recs) - 2:
        raise ValueError("k must be an interior step index")
    dt = recs[k + 1].t - recs[k].t
    dfdt = (recs[k + 1].energy_Feps - recs[k - 1].energy_Feps) / (2.0 * dt)
    return abs(dfdt + recs[k].dissipation_rate)


def boundary_residuals(state_or_cache) -> np.ndarray:
    """|d^j kappa/ds^j| at both endpoints for j = 0, 2, 4.

    Measured with one-sided windows on the curvature samples: 4 points for
    j = 2 (second order) and 5 points for j = 4 (first order; a one-sided
    window at full derivative order gives away one power of h). The grid
    must be uniform, as every evolved state's is; otherwise ValueError.
    """
    cache = state_or_cache if isinstance(state_or_cache, GeometryCache) else state_or_cache.cache
    if not cache.uniform:
        raise ValueError("boundary residuals need a uniform grid; redistribute first")
    return endpoint_residuals(cache.kappa[None], [float(cache.total_length) / (len(cache.s) - 1)])[0]


def endpoint_residuals(kappa: np.ndarray, h) -> np.ndarray:
    """`boundary_residuals` of each row of `kappa` on a uniform grid of
    spacing `h[row]`, shape (rows, 3, 2)."""
    out = np.empty((kappa.shape[0], 3, 2))
    out[:, 0] = np.abs(kappa[:, [0, -1]])
    for row, (order, width) in enumerate(((2, 4), (4, 5)), start=1):
        # even orders are insensitive to window orientation; matmul on the
        # reversed view repeats the arithmetic of `w @ x` row by row
        w = stencils.one_sided_weights(order, width, 0) / np.array([hi**order for hi in h])[:, None]
        for side, x in enumerate((kappa[:, :width], kappa[:, -width:][:, ::-1])):
            out[:, row, side] = np.abs(np.matmul(w.reshape(-1, 1, width), x[:, :, None])[:, 0, 0])
    return out


# ---------------------------------------------------------------------------
# interpolation inequalities
# ---------------------------------------------------------------------------

# samples per block of a randomized corpus: `verify --filter gn --seed 0`
# takes 0.77 / 0.37 / 0.35 s in process and peaks at 37.2 / 41.9 / 46.3 MB
# resident with 4 / 32 / 64 (medians of 5; 2-core Intel Xeon, numpy 2.4.6)
CORPUS_BLOCK = 32
CORPUS_N = 96  # segments of every corpus curve


class GnBlock(NamedTuple):
    """Fields on curves, one sample per row: trapezoid weights `ds`, curve
    lengths `length`, and `d[k]`, the k-th arclength derivative of the field."""

    ds: np.ndarray
    length: np.ndarray
    d: tuple


def _sample(cache: GeometryCache, u: np.ndarray, top: int) -> GnBlock:
    # the block of one field on one curve, with derivatives up to order `top`
    u = np.asarray(u, dtype=float)
    d = (u, *stencils.derivatives(u, cache.s, tuple(range(1, top + 1)), "one_sided"))
    return GnBlock(cache.ds[None], np.array([cache.total_length]), tuple(x[None] for x in d))


def _lp_norms(values: np.ndarray, weights: np.ndarray, p) -> list[float]:
    # per row; each root is a scalar power, as for one row: the array power
    # may round differently
    if p == math.inf:
        return np.max(np.abs(values), axis=-1).tolist()
    return [float(x ** (1.0 / p)) for x in np.sum(weights * np.abs(values) ** p, axis=-1)]


def _general_terms(block: GnBlock, n_ord: int, j_ord: int, p):
    # sigma, and per sample: ||d^n u||_p, ||d^j u||_2, ||u||_2 and L
    if not 0 <= n_ord <= j_ord - 1:
        raise BadExponent("need 0 <= n < j")
    inv_p = 0.0 if p == math.inf else 1.0 / p
    if not inv_p <= 0.5:
        raise BadExponent("p must be at least 2")
    sigma = (n_ord + 0.5 - inv_p) / j_ord
    if not 0.0 <= sigma <= 1.0:
        raise BadExponent(f"sigma = {sigma:.3f} outside [0, 1]")
    norms = [_lp_norms(block.d[k], block.ds, q) for k, q in ((n_ord, p), (j_ord, 2), (0, 2))]
    return sigma, zip(*norms, block.length.tolist())


def gn_slacks(block: GnBlock, n_ord: int, j_ord: int, p, const_c: float, const_b: float) -> list[float]:
    """`gn_check` of every sample of the block."""
    sigma, terms = _general_terms(block, n_ord, j_ord, p)
    return [
        const_c * uj2**sigma * u2 ** (1.0 - sigma) + const_b / L ** (j_ord * sigma) * u2 - lhs
        for lhs, uj2, u2, L in terms
    ]


def gn_check(
    cache: GeometryCache,
    u: np.ndarray,
    n_ord: int,
    j_ord: int,
    p,
    const_c: float,
    const_b: float,
) -> float:
    """Slack of the interpolation inequality

        ||d^n u||_p <= C ||d^j u||_2^sigma ||u||_2^(1-sigma)
                       + B / L^(j sigma) ||u||_2,
        sigma = (n + 1/2 - 1/p) / j   (1/p = 0 for p = inf).

    Returns RHS - LHS; nonnegative slack means the inequality held.
    """
    return gn_slacks(_sample(cache, u, j_ord), n_ord, j_ord, p, const_c, const_b)[0]


# kind: (q, k, a, b, c) of int u^q <= int (d^k u)^2 + C (int u^2)^a + C/L^c (int u^2)^b
_SPECIALIZED = {"u4": (4, 1, 3, 2, 1), "u6": (6, 2, 5, 3, 2)}


def _specialized_terms(block: GnBlock, kind: str):
    # (a, b, c), and per sample: int u^q, int (d^k u)^2, int u^2 and L
    if kind not in _SPECIALIZED:
        raise ValueError("kind must be 'u4' or 'u6'")
    q, k, *powers = _SPECIALIZED[kind]
    sums = [np.sum(block.ds * x, axis=-1).tolist() for x in (block.d[0] ** q, block.d[k] ** 2, block.d[0] ** 2)]
    return powers, zip(*sums, block.length.tolist())


def gn_specialized_slacks(block: GnBlock, kind: str, const_c: float) -> list[float]:
    """Slack of every sample of the block in the specialized inequality
    `kind`, "u4" or "u6" (the forms of `_SPECIALIZED`)."""
    (a, b, c), terms = _specialized_terms(block, kind)
    return [i_d + const_c * i_u2**a + const_c / L**c * i_u2**b - i_q for i_q, i_d, i_u2, L in terms]


# ---------------------------------------------------------------------------
# randomized corpus and constant calibration
# ---------------------------------------------------------------------------

def _draw_curve(rng: np.random.Generator):
    # a random smooth open curve's length, then its strength, mode count and
    # a normal per mode, in that order, scaled into the mode amplitudes of its
    # curvature profile; strong draws give the bent hooks that exercise the
    # quartic terms of the growth-rate calibration
    length, strength, modes = rng.uniform(0.5, 3.0), 10.0 ** rng.uniform(-0.5, 0.9), rng.integers(1, 5)
    return length, strength * rng.normal(0.0, 1.0, modes) / (1.0 + np.arange(modes)) ** 2


def _draw_field(rng: np.random.Generator):
    # a random smooth field's offset, wiggle, (cos, sin) pair of normals for
    # each mode 1 to 5, and scale, in that order; the log-uniform wiggle and
    # scale reach the near-constant regime, where the excess ratios of the
    # specialized inequalities approach their supremum
    offset, wiggle = rng.normal(0.0, 1.0), 10.0 ** rng.uniform(-3.0, 0.5)
    return offset, wiggle, [rng.normal(0.0, 1.0, 2) for _ in range(5)], 10.0 ** rng.uniform(-1.0, 1.0)


@functools.cache
def _modes(points: int, count: int):
    # cos and sin of m pi sigma, m = 1..count, on `points` sigma in [0, 1]
    arg = np.outer(np.arange(1, count + 1) * np.pi, np.linspace(0.0, 1.0, points))
    table = np.array([np.cos(arg), np.sin(arg)])
    table.setflags(write=False)
    return table


def _curve_block(n: int, draws) -> np.ndarray:
    # the nodes (rows, n+1, 2) of `_draw_curve` draws, each row as it is alone:
    # the curvature profile integrated on a 16x finer grid, every 16th point
    # kept, so that the chords are equal only up to the chord-arc defect
    # (h kappa)^2 and few grids (30 of 10,000 at n = 96) are uniform
    length, amps = zip(*draws)
    present = np.arange(4) < np.array([a.size for a in amps])[:, None]
    padded = np.zeros(present.shape)
    padded[present] = np.concatenate(amps)
    kappa = np.zeros((len(draws), 16 * n + 1))
    for a, sine, mask in zip(padded.T, _modes(16 * n + 1, 4)[1], present.T):
        # a sample without this mode gets no term: adding +0.0 turns a -0.0
        np.add(kappa, a[:, None] * sine, out=kappa, where=mask[:, None])
    dsig = np.diff(np.linspace(0.0, 1.0, 16 * n + 1))
    theta = np.zeros_like(kappa)
    np.cumsum(0.5 * (kappa[:, 1:] + kappa[:, :-1]) * dsig, axis=-1, out=theta[:, 1:])
    # the coordinates as contiguous planes (2, rows, 16n+1), the nodes in C order
    vel = np.array([np.cos(theta), np.sin(theta)])
    pos = np.zeros_like(vel)
    np.cumsum(0.5 * (vel[..., 1:] + vel[..., :-1]) * dsig, axis=-1, out=pos[..., 1:])
    return np.multiply(np.array(length)[:, None, None], pos[..., ::16].transpose(1, 2, 0), order="C")


def _field_block(n: int, draws) -> np.ndarray:
    # the fields (rows, n+1) of `_draw_field` draws, each row as it is alone
    offset, wiggle, pairs, scale = (np.array(x) for x in zip(*draws))
    coef = wiggle[:, None, None] * pairs / (2.0 + np.arange(5))[:, None] ** 2
    u = np.repeat(offset[:, None], n + 1, axis=1)
    for (a, b), cos, sin in zip(coef.transpose(1, 2, 0), *_modes(n + 1, 5)):
        u += a[:, None] * cos + b[:, None] * sin
    return u * scale[:, None]


def _draw_blocks(seed: int, count: int, draw):
    # `count` samples, each a random curve and then draw(rng), in blocks of at
    # most CORPUS_BLOCK: the curves' node stack, the draws, the stacked grids
    rng = np.random.default_rng(seed)
    for start in range(0, count, CORPUS_BLOCK):
        curves, draws = zip(*[(_draw_curve(rng), draw(rng)) for _ in range(min(CORPUS_BLOCK, count - start))])
        nodes = _curve_block(CORPUS_N, curves)
        yield nodes, draws, stacked_grids(nodes)


def gn_blocks(seed: int, count: int):
    """`count` random fields on random curves of CORPUS_N segments (a
    `_draw_curve`, then a `_draw_field`, per sample), yielded in blocks
    of at most CORPUS_BLOCK samples with the field's first and second
    arclength derivatives."""
    for _, fields, (_, length, s, ds) in _draw_blocks(seed, count, _draw_field):
        u = _field_block(CORPUS_N, fields)
        yield GnBlock(ds, length, (u, *stencils.derivatives(u, s, (1, 2), "one_sided")))


def gn_corpus(seed: int, count: int) -> list[GnBlock]:
    """The blocks of `gn_blocks`, as a list for repeated passes."""
    return list(gn_blocks(seed, count))


def calibrate_gn_general(corpus, n_ord: int, j_ord: int, p) -> float:
    """Smallest single constant C = B making the general inequality hold
    over the corpus (ratio of LHS to the unit-constant RHS)."""
    worst = 0.0
    for block in corpus:
        sigma, terms = _general_terms(block, n_ord, j_ord, p)
        for lhs, uj2, u2, L in terms:
            denom = uj2**sigma * u2 ** (1.0 - sigma) + u2 / L ** (j_ord * sigma)
            if denom > 0.0:
                worst = max(worst, lhs / denom)
    return worst


def calibrate_gn_specialized(corpus, kind: str) -> float:
    """Smallest C for the u^4 or u^6 specialized inequality over the corpus."""
    worst = 0.0
    for block in corpus:
        (a, b, c), terms = _specialized_terms(block, kind)
        for i_q, i_d, i_u2, L in terms:
            excess = i_q - i_d
            denom = i_u2**a + i_u2**b / L**c
            if excess > 0.0 and denom > 0.0:
                worst = max(worst, excess / denom)
    return worst


def _growth_parts(ds: np.ndarray, k: np.ndarray, k1: np.ndarray, k2: np.ndarray):
    # the eps-free and the eps part of the rate, along the last axis
    base = np.sum(ds * (-2.0 * k1**2 + k**4), axis=-1)
    reg = np.sum(ds * (-4.0 * k2**2 - k**6 - 4.0 * k**3 * k2), axis=-1)
    return base, reg


def _draw_eps(rng: np.random.Generator) -> float:
    # eps in (0, 1] of a sample of `calibrate_comparison_constant`
    return rng.uniform(0.0, 1.0) or 1.0


def calibrate_comparison_constant(seed: int) -> float:
    """Smallest C with growth-rate <= C (p^5 + p^3 + p^2), p = int kappa^2,
    over a randomized corpus of 200 curves with random eps in (0, 1]."""
    worst = 0.0
    for nodes, eps, (seg, total, _, _) in _draw_blocks(seed, 200, _draw_eps):
        geo = open_geometry(nodes, seg, total)
        ds, k = geo.ds, geo.kappa
        base, reg = _growth_parts(ds, k, *stencils.derivatives(k, geo.s, (1, 2), "one_sided"))
        for b, r, e, p in zip(base.tolist(), reg.tolist(), eps, np.sum(ds * k**2, axis=-1).tolist()):
            rate = b + e * r
            if rate <= 0.0:
                continue
            denom = p**5 + p**3 + p**2
            if denom > 0.0:
                worst = max(worst, rate / denom)
    return worst


def comparison_check(traj, setup: GronwallSetup):
    """True iff the measured int kappa^2 stays below the majorant g.

    The setup's g0 should be the measured value at the trajectory start;
    returns (ok, margin) with margin = min over recorded times of g - measured.
    """
    recs = traj.diagnostics
    return comparison_margin(recs.t - recs.t[0], recs.kappa_l2_sq[:, 0], setup)
