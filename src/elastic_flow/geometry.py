"""Discrete open plane curves and their arclength calculus.

A curve is a polyline of n+1 nodes joining two pinned endpoints P and Q
(a closed test mode with periodic stencils exists solely for oracle tests
against circles; it is not part of the evolution API). All geometric
quantities -- unit tangent, leftward unit normal, curvature -- are computed
by second-order finite differences on the polyline's chordal arclength
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import stencils
from .errors import BadParams, DegenerateCurve, ReparamFailure

MIN_NODE_COUNT = 16  # below this the five/six-point stencils lose meaning

# Test hook: scales the curvature stencil output; nonzero values must make
# the verification suite fail (negative control for `verify`).
_STENCIL_CORRUPTION = 0.0


def set_stencil_corruption(delta: float) -> None:
    global _STENCIL_CORRUPTION
    _STENCIL_CORRUPTION = float(delta)


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class DiscreteCurve:
    """Polyline sample of an immersed plane curve.

    Open curves carry n+1 nodes with nodes[0] = P and nodes[n] = Q exactly;
    closed curves carry n distinct nodes with implicit wrap-around. Nodes are
    immutable after construction; self-intersection is allowed and untracked.
    `segments` holds the chord lengths, the closing chord last on closed curves.
    """

    nodes: np.ndarray
    closed: bool = False
    segments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise BadParams("nodes must be an (m, 2) array")
        if not np.all(np.isfinite(nodes)):
            raise BadParams("nodes must have finite coordinates")
        if nodes.shape[0] < MIN_NODE_COUNT + (0 if self.closed else 1):
            raise BadParams(f"need at least n = {MIN_NODE_COUNT} segments")
        seg = np.linalg.norm(np.diff(nodes, axis=0), axis=1)
        if self.closed:
            seg = np.append(seg, np.linalg.norm(nodes[0] - nodes[-1]))
        if np.any(seg <= 0.0):
            raise DegenerateCurve("coincident consecutive nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "segments", seg)

    @property
    def n(self) -> int:
        return self.nodes.shape[0] - (0 if self.closed else 1)

    @property
    def endpoint_p(self) -> Point2:
        return Point2(*self.nodes[0])

    @property
    def endpoint_q(self) -> Point2:
        return Point2(*self.nodes[-1])


@dataclass(frozen=True)
class GeometryCache:
    """Arclength data attached to one DiscreteCurve.

    `s` holds chordal arclength values per node, `ds` the trapezoid weights,
    `kappa` the curvature per node. For open curves the endpoint curvature
    is a one-sided measurement (no boundary condition is assumed here; the
    flow enforces its own).
    """

    curve: DiscreteCurve
    total_length: float
    s: np.ndarray
    ds: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    kappa: np.ndarray
    uniform_h: float | None = None  # grid spacing when the grid is uniform

    @property
    def closed(self) -> bool:
        return self.curve.closed


def _trapezoid_weights(s: np.ndarray, closed: bool, total: float) -> np.ndarray:
    if closed:
        se = np.concatenate([[s[-1] - total], s, [s[0] + total]])
        return 0.5 * (se[2:] - se[:-2])
    w = np.empty_like(s)
    w[1:-1] = 0.5 * (s[2:] - s[:-2])
    w[0] = 0.5 * (s[1] - s[0])
    w[-1] = 0.5 * (s[-1] - s[-2])
    return w


def _open_position_derivs(nodes: np.ndarray, s: np.ndarray, uniform_h: float | None):
    """First and second s-derivatives of the position, per component.

    Interior nodes use the classic nonuniform three-point formulas; boundary
    rows use one-sided windows (8 points for the second derivative: on data
    with odd symmetry about the ends the even-order truncation terms vanish,
    leaving an O(h^7) endpoint curvature measurement).
    """
    n1 = nodes.shape[0]
    d1 = np.empty_like(nodes)
    d2 = np.empty_like(nodes)
    hm = s[1:-1] - s[:-2]
    hp = s[2:] - s[1:-1]
    a1 = -hp / (hm * (hm + hp))
    c1 = hm / (hp * (hm + hp))
    a2 = 2.0 / (hm * (hm + hp))
    c2 = 2.0 / (hp * (hm + hp))
    # difference form annihilates constants exactly (translation robustness)
    lo = nodes[:-2] - nodes[1:-1]
    hi = nodes[2:] - nodes[1:-1]
    d1[1:-1] = a1[:, None] * lo + c1[:, None] * hi
    d2[1:-1] = a2[:, None] * lo + c2[:, None] * hi
    if uniform_h is not None:
        w1 = stencils.one_sided_weights(1, 3, 0) / uniform_h
        w2 = stencils.one_sided_weights(2, 8, 0) / uniform_h**2
        d1[0] = w1 @ (nodes[:3] - nodes[0])
        d1[-1] = -w1 @ (nodes[-3:][::-1] - nodes[-1])
        d2[0] = w2 @ (nodes[:8] - nodes[0])
        d2[-1] = w2 @ (nodes[-8:][::-1] - nodes[-1])
        return d1, d2
    for i, rows in ((0, slice(0, 3)), (n1 - 1, slice(n1 - 3, n1))):
        w = stencils.fd_weights(s[rows], s[i], 1)
        d1[i] = w @ (nodes[rows] - nodes[i])
    for i, rows in ((0, slice(0, 8)), (n1 - 1, slice(n1 - 8, n1))):
        w = stencils.fd_weights(s[rows], s[i], 2)
        d2[i] = w @ (nodes[rows] - nodes[i])
    return d1, d2


def compute_geometry(curve: DiscreteCurve) -> GeometryCache:
    """Populate length, frame and curvature for a curve.

    Curvature is the projection of the discrete second arclength derivative
    of position onto the leftward unit normal (nu = tangent rotated by +90
    degrees), which is second-order accurate on constant-speed grids.

    Raises DegenerateCurve when any segment is below 1e-14 of the length.
    """
    nodes = curve.nodes
    seg = curve.segments
    total = float(seg.sum())
    if np.any(seg < 1e-14 * total):
        raise DegenerateCurve("segment below 1e-14 of total length")
    s = np.concatenate([[0.0], np.cumsum(seg)])[: nodes.shape[0]]
    grid = _derivative_grid(s, total, curve.closed)
    uniform_h = total / seg.size if stencils.is_uniform(grid) else None
    if curve.closed:
        d1, d2 = (
            np.column_stack([stencils.derivative(x, grid, j, "periodic") for x in nodes.T])
            for j in (1, 2)
        )
    else:
        d1, d2 = _open_position_derivs(nodes, s, uniform_h)
    tangent = d1 / np.linalg.norm(d1, axis=1)[:, None]
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    kappa = np.einsum("ij,ij->i", d2, normal)
    if _STENCIL_CORRUPTION != 0.0:
        kappa = kappa * (1.0 + _STENCIL_CORRUPTION)
    return GeometryCache(
        curve=curve,
        total_length=total,
        s=s,
        ds=_trapezoid_weights(s, curve.closed, total),
        tangent=tangent,
        normal=normal,
        kappa=kappa,
        uniform_h=uniform_h,
    )


def _derivative_grid(s: np.ndarray, total: float, closed: bool) -> np.ndarray:
    # closed curves close the grid with the wrap-around node, as the
    # periodic boundary of `stencils.derivative` takes it
    return np.append(s, total) if closed else s


def arclength_derivative(cache: GeometryCache, values: np.ndarray, order: int) -> np.ndarray:
    """d^order/ds^order of a per-node field on the cache's arclength grid.

    Centered stencils at interior nodes, one-sided windows at the ends of
    open curves (periodic wrap on closed ones); exact for polynomials in s
    up to the stencil degree (order+1).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != cache.s.shape:
        raise ValueError("field length must match node count")
    if order == 0:
        return values.copy()
    if not 1 <= order <= 4:
        raise ValueError("order must be in 0..4")
    grid = _derivative_grid(cache.s, cache.total_length, cache.closed)
    return stencils.derivative(values, grid, order, "periodic" if cache.closed else "one_sided")


def _not_a_knot_spline(u: np.ndarray, y: np.ndarray):
    """Not-a-knot cubic spline through the rows of `y` at the knots `u`, as a
    function of the parameter. It repeats the arithmetic of scipy's
    `CubicSpline(u, y, bc_type="not-a-knot")`, so its values are the same bits."""
    dx = np.diff(u)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # slopes m at the knots: continuity of the second derivative inside,
    # continuity of the third across the second and next-to-last knots;
    # LAPACK's gtsv is the solver `solve_banded((1, 1), ...)` calls
    d = u[2] - u[0]
    e = u[-1] - u[-3]
    diag = np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])
    rhs = np.empty_like(y)
    rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    rhs[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    rhs[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * e + dxr[-1]) * dxr[-2] * slope[-1]) / e
    m = dgtsv(np.concatenate([dx[1:], [e]]), diag, np.concatenate([[d], dx[:-1]]), rhs, 1, 1, 1, 1)[3]
    t = (m[:-1] + m[1:] - 2 * slope) / dxr
    c0, c1, c2, c3 = t / dxr, (slope - m[:-1]) / dxr - t, m[:-1], y[:-1]

    def spline(tau):
        i = np.clip(np.searchsorted(u, tau, side="right") - 1, 0, u.size - 2)
        z = np.asarray(tau - u[i])[..., None]
        # PPoly's power sum, from 0.0 (which turns a lone -0.0 into +0.0)
        return 0.0 + c3[i] + c2[i] * z + c1[i] * (z * z) + c0[i] * (z * z * z)

    return spline


def _equalize_chords(spline, n: int, tol: float = 1e-13, max_iter: int = 30):
    """Parameters tau on [0,1] whose spline images have equal chords.

    Fixed-point iteration on the cumulative-chord map; stops at `tol`
    relative deviation or when roundoff stalls further progress.
    """
    tau = np.linspace(0.0, 1.0, n + 1)
    pts = spline(tau)
    prev_dev = math.inf
    for _ in range(max_iter):
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(chords <= 0.0):
            raise DegenerateCurve("interpolant collapsed during redistribution")
        mean = chords.mean()
        dev = np.max(np.abs(chords - mean)) / mean
        if dev <= tol or (dev <= 1e-11 and dev >= 0.5 * prev_dev):
            return pts, dev
        prev_dev = dev
        cum = np.concatenate([[0.0], np.cumsum(chords)])
        targets = np.linspace(0.0, cum[-1], n + 1)
        tau = np.interp(targets, cum, tau)
        tau[0], tau[-1] = 0.0, 1.0
        pts = spline(tau)
    if dev <= 1e-10:
        return pts, dev
    raise ReparamFailure(f"chord equalization stalled at deviation {dev:.3e}")


def reparametrize_constant_speed(curve: DiscreteCurve) -> DiscreteCurve:
    """Redistribute nodes to equal segment lengths along the interpolant.

    Nodes move along the not-a-knot cubic through the input nodes
    (parametrized by normalized chord length), so endpoints stay fixed and
    the image is preserved up to O(h^2) interpolation error. Segment lengths
    of the result agree to 1e-10 relative; already-uniform input is returned
    unchanged, making the operation idempotent.
    """
    if curve.closed:
        raise BadParams("constant-speed redistribution applies to open curves")
    seg = curve.segments
    mean = seg.mean()
    if np.max(np.abs(seg - mean)) <= 1e-13 * mean:
        return curve
    u = np.concatenate([[0.0], np.cumsum(seg)]) / seg.sum()
    pts, _ = _equalize_chords(_not_a_knot_spline(u, curve.nodes), curve.n)
    pts[0] = curve.nodes[0]
    pts[-1] = curve.nodes[-1]
    return DiscreteCurve(pts)


# ---------------------------------------------------------------------------
# initial-curve families
# ---------------------------------------------------------------------------

def _smoothstep(v: np.ndarray) -> np.ndarray:
    # C-infinity step: exactly 0 for v <= 0, exactly 1 for v >= 1, with all
    # derivatives flat at both ends
    v = np.clip(v, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(v > 0.0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)
        b = np.where(v < 1.0, np.exp(-1.0 / np.maximum(1.0 - v, 1e-300)), 0.0)
    return a / (a + b)


def _graph_nodes(p, q, n, profile) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    chord = q - p
    dist = np.linalg.norm(chord)
    if dist <= 0.0:
        raise BadParams("endpoints must be distinct")
    left_normal = np.array([-chord[1], chord[0]]) / dist
    u = np.linspace(0.0, 1.0, n + 1)
    nodes = p + u[:, None] * chord + profile(u)[:, None] * left_normal
    nodes[0] = p
    nodes[-1] = q
    return nodes


def _arc_profile_nodes(p, q, n, turn_angle):
    """Unit-speed curve with a plateau of constant curvature mid-span.

    The signed curvature profile is supported in [0.2, 0.8] of the raw
    parameter with a flat top on [0.4, 0.6]; the raw curve is integrated at
    high resolution and then mapped onto the requested chord by a rigid
    similarity. The total turning angle equals `turn_angle`.
    """
    m = n * max(32, -(-4096 // n))
    sig = np.linspace(0.0, 1.0, m + 1)
    shape = _smoothstep((sig - 0.2) / 0.2) * _smoothstep((0.8 - sig) / 0.2)
    area = np.trapezoid(shape, sig)
    kprof = (turn_angle / area) * shape
    theta = np.concatenate([[0.0], np.cumsum(0.5 * (kprof[1:] + kprof[:-1]) * np.diff(sig))])
    vel = np.column_stack([np.cos(theta), np.sin(theta)])
    pos = np.vstack([[0.0, 0.0], np.cumsum(0.5 * (vel[1:] + vel[:-1]) * np.diff(sig)[:, None], axis=0)])
    raw_chord = pos[-1] - pos[0]
    if np.linalg.norm(raw_chord) < 0.05:
        raise BadParams("turn angle folds the curve onto its own chord")
    samples = pos[:: m // n]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.linalg.norm(q - p) <= 0.0:
        raise BadParams("endpoints must be distinct")
    za = raw_chord[0] + 1j * raw_chord[1]
    zb = (q - p)[0] + 1j * (q - p)[1]
    scale_rot = zb / za
    z = (samples[:, 0] + 1j * samples[:, 1]) * scale_rot
    return np.column_stack([z.real, z.imag]) + p


_FAMILIES = ("segment", "flattened_sine", "bump_perturbed_segment", "arc_with_flat_ends")


def make_initial_curve(family: str, n: int = 128, **params) -> DiscreteCurve:
    """Construct compatible initial data joining P to Q.

    Families:
      segment                 straight line; params: p, q
      flattened_sine          sine arch, odd-symmetric about both ends so
                              every even-order derivative vanishes there;
                              params: amplitude, p, q
      bump_perturbed_segment  compactly supported bump on an otherwise
                              straight segment; params: amplitude, support
      arc_with_flat_ends      constant-curvature plateau with straight
                              lead-in/out; params: turn_angle

    Every family has zero curvature at both endpoints in the continuum; the
    discrete endpoint curvature is below 1e-8 over the documented parameter
    ranges only from some n on (measured on grids over each range): every n
    for segment, n >= 64 for arc_with_flat_ends, and n >= 256 for
    flattened_sine (at n = 128 up to 2.7e-8, 9.6e-11 at amplitude 0.05) and
    bump_perturbed_segment (at n = 128 up to 2.8e-5). Coarser curves miss it
    by up to O(1): at n = 16 flattened_sine with amplitude 1 gives 1.1,
    arc_with_flat_ends with turn_angle 6 gives 7.4 and the bump at amplitude
    2 gives 2.4. `run` refuses endpoint curvature above 1e-6, so it refuses
    flattened_sine with amplitude 0.5 or 1 at n = 32.
    """
    if family not in _FAMILIES:
        raise BadParams(f"unknown family {family!r}; choose from {_FAMILIES}")
    if n < MIN_NODE_COUNT:
        raise BadParams(f"n must be at least {MIN_NODE_COUNT}")
    p = params.pop("p", (0.0, 0.0))
    q = params.pop("q", (1.0, 0.0))
    dist = float(np.linalg.norm(np.asarray(q, float) - np.asarray(p, float)))
    if dist <= 0.0:
        raise BadParams("endpoints must be distinct")

    if family == "segment":
        _reject_extra(params)
        nodes = _graph_nodes(p, q, n, lambda u: np.zeros_like(u))
    elif family == "flattened_sine":
        # single sine arch: odd symmetry about both endpoints makes every
        # even-order derivative vanish there, and the one-mode spectrum keeps
        # the early evolution fully resolved in time
        amplitude = float(params.pop("amplitude", 0.1))
        _reject_extra(params)
        if not 0.0 <= abs(amplitude) <= 2.0 * dist:
            raise BadParams("amplitude outside documented range [0, 2|P-Q|]")
        nodes = _graph_nodes(p, q, n, lambda u: amplitude * np.sin(np.pi * u))
    elif family == "bump_perturbed_segment":
        amplitude = float(params.pop("amplitude", 0.1))
        support = tuple(params.pop("support", (0.3, 0.7)))
        _reject_extra(params)
        a, b = float(support[0]), float(support[1])
        if not (0.05 <= a < b <= 0.95 and b - a >= 0.1):
            raise BadParams("support must satisfy 0.05 <= a < b <= 0.95, b-a >= 0.1")
        if not 0.0 <= abs(amplitude) <= 2.0 * dist:
            raise BadParams("amplitude outside documented range [0, 2|P-Q|]")

        def profile(u):
            v = (u - a) / (b - a)
            inside = (v > 0.0) & (v < 1.0)
            out = np.zeros_like(u)
            with np.errstate(divide="ignore", over="ignore"):
                out[inside] = np.exp(4.0 - 1.0 / (v[inside] * (1.0 - v[inside])))
            return amplitude * out

        nodes = _graph_nodes(p, q, n, profile)
    else:
        turn_angle = float(params.pop("turn_angle", 1.5))
        _reject_extra(params)
        if abs(turn_angle) > 4.0 * np.pi:
            raise BadParams("turn angle outside documented range [-4pi, 4pi]")
        nodes = _arc_profile_nodes(p, q, n, turn_angle)
    return DiscreteCurve(nodes)


def _reject_extra(params: dict) -> None:
    if params:
        raise BadParams(f"unknown parameters: {sorted(params)}")
