"""Discrete open plane curves and their arclength calculus.

A curve is a polyline of n+1 nodes joining two pinned endpoints P and Q.
Its geometry -- chordal arclength grid, trapezoid weights, leftward unit
normal, curvature -- comes from second-order finite differences on that
grid. `GeometryCache` holds it for a stack of curves with one node count,
one row per curve, and `cache[j]` is the row of one curve:
`compute_geometry` gives a curve's geometry as the row of a stack of one.
Each of the two validity checks, a curve's (`curve_failures`) and its
grid's (`grid_failures`), runs on stacks and names each failing row's
exception; a caller of one curve raises it.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import import_module, machinery, util

import numpy as np

from . import stencils
from .errors import BadParams, DegenerateCurve, ReparamFailure

MIN_NODE_COUNT = 16  # below this the five/six-point stencils lose meaning

# Test hook: scales the curvature stencil output; nonzero values must make
# the verification suite fail (negative control for `verify`).
_STENCIL_CORRUPTION = 0.0


def set_stencil_corruption(delta: float) -> None:
    global _STENCIL_CORRUPTION
    _STENCIL_CORRUPTION = float(delta)


def curve_failures(nodes: np.ndarray, seg: np.ndarray) -> dict:
    """The exception `DiscreteCurve` raises for each curve of the stack
    `nodes` (rows, m, 2) with chord lengths `seg`, by row; a valid curve
    has none. Too few nodes, a non-finite node and coincident consecutive
    nodes fail, checked in that order."""
    if nodes.shape[1] < MIN_NODE_COUNT + 1:
        return {j: BadParams(f"need at least n = {MIN_NODE_COUNT} segments") for j in range(len(nodes))}
    # a non-finite node makes a non-finite chord
    if np.minimum.reduce(seg, axis=None) > 0.0 and np.isfinite(np.add.reduce(seg, axis=None)):
        return {}
    failed = {}
    for j, x in enumerate(nodes):
        if not np.isfinite(x).all():
            failed[j] = BadParams("nodes must have finite coordinates")
        elif np.any(seg[j] <= 0.0):
            failed[j] = DegenerateCurve("coincident consecutive nodes")
    return failed


def grid_failures(seg: np.ndarray, total: np.ndarray) -> dict:
    """The exception `compute_geometry` raises for each grid of the stack of
    chord lengths `seg` (rows, n) with sums `total`, by row: a segment
    below 1e-14 of the length."""
    short = np.logical_or.reduce(seg < 1e-14 * total[:, None], axis=-1)
    return {int(j): DegenerateCurve("segment below 1e-14 of total length") for j in short.nonzero()[0]}


def raise_first(failed: dict) -> None:
    # what a caller of one curve raises: the exception of the first failed row
    if failed:
        raise failed[min(failed)]


@dataclass(frozen=True)
class DiscreteCurve:
    """Polyline sample of an immersed open plane curve.

    n+1 nodes with nodes[0] = P and nodes[n] = Q exactly, and `segments`
    their chord lengths. Nodes are immutable after construction;
    self-intersection is allowed and untracked.
    """

    nodes: np.ndarray
    segments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise BadParams("nodes must be an (m, 2) array")
        seg = chord_lengths(nodes)
        raise_first(curve_failures(nodes[None], seg[None]))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "segments", seg)

    @property
    def n(self) -> int:
        return self.nodes.shape[0] - 1


@dataclass(frozen=True, slots=True)
class GeometryCache:
    """Arclength data of a stack of open curves with one node count, each
    array with a leading row axis, one row per curve; `cache[j]` is the data
    of curve j alone, that axis dropped.

    `nodes` holds the curves, `total_length` their lengths, `s` the chordal
    arclength per node, `normal` the leftward unit normal and `kappa` the
    curvature per node, and `uniform` whether each grid is uniform
    (`stencils.is_uniform`), its spacing then total_length / n; `ds`, the
    trapezoid weights, is computed from `s` on each read. The endpoint
    curvature is a one-sided measurement (no boundary condition is assumed
    here; the flow enforces its own).
    """

    nodes: np.ndarray
    total_length: np.ndarray
    s: np.ndarray
    normal: np.ndarray
    kappa: np.ndarray
    uniform: np.ndarray

    @property
    def ds(self) -> np.ndarray:
        return _trapezoid_weights(self.s)

    def __getitem__(self, rows) -> "GeometryCache":
        """The rows `rows`, indexed as numpy indexes the leading axis: an int
        gives one curve's data (views of the arrays), a list of ints a stack
        (repeats allowed), and None makes one curve's data a stack of one."""
        # field by field: `dataclasses.fields` builds a 6-tuple by resizing,
        # which CPython 3.11 then keeps on its tuple free list, one per call
        return GeometryCache(self.nodes[rows], self.total_length[rows], self.s[rows], self.normal[rows],
                             self.kappa[rows], self.uniform[rows])


def _trapezoid_weights(s: np.ndarray) -> np.ndarray:
    # along the last axis of `s`
    w = np.empty_like(s)
    w[..., 1:-1] = 0.5 * (s[..., 2:] - s[..., :-2])
    w[..., 0] = 0.5 * (s[..., 1] - s[..., 0])
    w[..., -1] = 0.5 * (s[..., -1] - s[..., -2])
    return w


# unit-spacing end weights: of the first derivative, signed for the left
# and the right window, and of the second
_W1 = stencils.one_sided_weights(1, 3, 0) * np.array([1.0, -1.0])[:, None, None]
_W2 = stencils.one_sided_weights(2, 8, 0)


@functools.cache
def _end_windows(n1: int) -> np.ndarray:
    # the node indices of both 8-node end windows, the right one read from its end
    return np.array([range(8), range(n1 - 1, n1 - 9, -1)])


def _open_position_derivs(nodes: np.ndarray, s: np.ndarray, total: np.ndarray, uniform: np.ndarray):
    """First and second s-derivatives of the position, per component, of
    each curve in the stack `nodes` (rows, n+1, 2) on its row of `s`, whose
    length is its entry of `total`.

    Interior nodes use the classic nonuniform three-point formulas; boundary
    rows use one-sided windows (8 points for the second derivative: on data
    with odd symmetry about the ends the even-order truncation terms vanish,
    leaving an O(h^7) endpoint curvature measurement). A row where `uniform`
    holds has spacing h = total / n, and its windows take integer-offset
    weights; the windows of any other row take Fornberg weights.
    """
    d1 = np.empty_like(nodes)
    d2 = np.empty_like(nodes)
    ds = (s[:, 1:] - s[:, :-1])[..., None]
    hm, hp = ds[:, :-1], ds[:, 1:]
    span = hm + hp
    wm = hm * span
    wp = hp * span
    # difference form annihilates constants exactly (translation robustness)
    lo = nodes[:, :-2] - nodes[:, 1:-1]
    hi = nodes[:, 2:] - nodes[:, 1:-1]
    d1[:, 1:-1] = -hp / wm * lo + hm / wp * hi
    d2[:, 1:-1] = 2.0 / wm * lo + 2.0 / wp * hi
    n1 = nodes.shape[1]
    # the uniform rows and their end nodes, as slices when every row is
    # uniform, as in every stepped stack
    if uniform.all():
        rows = slice(None)
        at = rows, slice(None, None, n1 - 1)
    else:
        rows = uniform.nonzero()[0]
        at = rows[:, None], [0, n1 - 1]
    # one scalar power per row: the array power differs in the last bit
    hu = np.array([[h, h**2] for h in (total[rows] / (n1 - 1)).tolist()])
    if len(hu):
        # both end windows, as differences from the end node; C-contiguous
        # windows make matmul repeat the arithmetic of `w @ x` window by window
        x = np.ascontiguousarray(nodes[rows][:, _end_windows(n1)])
        x -= x[:, :, :1]
        hu = hu[:, :, None, None, None]
        d1[at] = np.matmul(_W1 / hu[:, 0], np.ascontiguousarray(x[:, :, :3]))[:, :, 0]
        d2[at] = np.matmul(_W2 / hu[:, 1], x)[:, :, 0]
    raw = (~uniform).nonzero()[0]
    if len(raw):
        rows = raw[:, None]
        ends = rows, [0, n1 - 1]
        for order, width, d in ((1, 3, d1), (2, 8, d2)):
            # both end windows of every nonuniform row, weighted at their end
            # node and applied to differences from it
            window = rows[:, None], np.array([range(width), range(n1 - width, n1)])
            w = stencils.fd_weights_rows(s[window].reshape(-1, width), s[ends].reshape(-1), order)
            x = nodes[window] - nodes[ends][:, :, None]
            d[ends] = np.matmul(np.ascontiguousarray(w).reshape(len(raw), 2, 1, width), x)[:, :, 0]
    return d1, d2


def _frame(d1: np.ndarray, d2: np.ndarray):
    """Leftward unit normal and curvature from the position derivatives,
    along the last axis."""
    tangent = d1 / _norm(d1)[..., None]
    normal = np.empty_like(tangent)
    np.negative(tangent[..., 1], out=normal[..., 0])
    normal[..., 1] = tangent[..., 0]
    # einsum("ij,ij->i", d2, normal), whose sum starts from 0.0
    kappa = 0.0 + d2[..., 0] * normal[..., 0] + d2[..., 1] * normal[..., 1]
    if _STENCIL_CORRUPTION != 0.0:
        kappa = kappa * (1.0 + _STENCIL_CORRUPTION)
    return normal, kappa


def _norm(v: np.ndarray) -> np.ndarray:
    # np.linalg.norm(v, axis=-1) of pairs, by its arithmetic; C order, so
    # that sums along the result's last axis are pairwise as for one row
    v = v * v
    return np.sqrt(np.add(v[..., 0], v[..., 1], order="C"))


def chord_lengths(nodes: np.ndarray) -> np.ndarray:
    """Segment lengths of the polyline(s) along the second-to-last axis."""
    return _norm(nodes[..., 1:, :] - nodes[..., :-1, :])


def compute_geometry(curve: DiscreteCurve) -> GeometryCache:
    """Populate length, frame and curvature for a curve: the row of
    `open_geometry` of the stack of one.

    Curvature is the projection of the discrete second arclength derivative
    of position onto the leftward unit normal (nu = tangent rotated by +90
    degrees), which is second-order accurate on constant-speed grids.

    Raises DegenerateCurve when any segment is below 1e-14 of the length.
    """
    seg = curve.segments[None]
    total = np.add.reduce(seg, axis=-1)
    raise_first(grid_failures(seg, total))
    return open_geometry(curve.nodes[None], seg, total)[0]


def stacked_grids(nodes: np.ndarray):
    """Chord lengths (rows, n), total lengths (rows,), and arclength grids
    and trapezoid weights (rows, n+1) of the open curves in the stack
    `nodes` (rows, n+1, 2). Raises as `DiscreteCurve` and then
    `compute_geometry` do for the first row that fails."""
    seg = chord_lengths(nodes)
    raise_first(curve_failures(nodes, seg))
    total = np.add.reduce(seg, axis=-1)
    raise_first(grid_failures(seg, total))
    s = _running_sum(seg)
    return seg, total, s, _trapezoid_weights(s)


def _running_sum(x: np.ndarray) -> np.ndarray:
    # np.concatenate([[0.0], np.cumsum(x)]) along the last axis of (rows, n)
    out = np.zeros((x.shape[0], x.shape[1] + 1))
    x.cumsum(axis=-1, out=out[:, 1:])
    return out


def open_geometry(nodes: np.ndarray, seg: np.ndarray, total: np.ndarray) -> GeometryCache:
    """The geometry of the open curves in the stack `nodes` (rows, n+1, 2),
    given their chord lengths `seg` and the sums `total`. Every operation
    works along the rows, so each row gets the bits it gets alone."""
    s = _running_sum(seg)
    uniform = stencils.is_uniform(s)
    normal, kappa = _frame(*_open_position_derivs(nodes, s, total, uniform))
    return GeometryCache(nodes, total, s, normal, kappa, uniform)


def lapack():
    """SciPy's LAPACK wrappers, the extension module `scipy.linalg._flapack`,
    loaded alone: the `scipy.linalg` package costs 0.2 s and 28 MB more. A
    later `import scipy.linalg` finds the module registered and reuses it.
    Where SciPy lays out its files differently, the routines come from
    `scipy.linalg.lapack`, which holds the same objects."""
    name, public = "scipy.linalg._flapack", "scipy.linalg.lapack"
    if name not in sys.modules:
        scipy = util.find_spec("scipy")
        loader = machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES
        # once loaded, the public module is taken without another search
        spec = public not in sys.modules and scipy and machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "linalg"), loader
        ).find_spec(name)
        if not spec:
            return import_module(public)
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _not_a_knot_spline(u: np.ndarray, y: np.ndarray):
    """Not-a-knot cubic splines through the stack `y` (rows, m, width) at the
    knots `u` (rows, m), as a function `spline(tau, rows)` of the parameters
    `tau` of the curves `rows`. Each row repeats the arithmetic of scipy's
    `CubicSpline(u, y, bc_type="not-a-knot")`, so its values are the same bits.
    A row needs at least 6 knots; every curve has 17 or more."""
    dgtsv = lapack().dgtsv
    count, size, width = y.shape
    dx = u[:, 1:] - u[:, :-1]
    dxr = dx[..., None]
    slope = (y[:, 1:] - y[:, :-1]) / dxr
    # slopes m at the knots: continuity of the second derivative inside,
    # continuity of the third across the second and next-to-last knots;
    # LAPACK's gtsv is the solver `solve_banded((1, 1), ...)` calls
    # the spans d = u2 - u0 and e = u[-1] - u[-3] of the two end intervals
    de = (u[:, 2 :: size - 3] - u[:, :: size - 3])[..., None]
    d, e = de[:, 0], de[:, 1]
    diag = np.concatenate([dx[:, 1:2], 2 * (dx[:, :-1] + dx[:, 1:]), dx[:, -2:-1]], axis=-1)
    # each row's right-hand sides in the Fortran order LAPACK takes, so that
    # gtsv solves them in place
    rhs = np.empty((count, width, size)).transpose(0, 2, 1)
    rhs[:, 1:-1] = 3 * (dxr[:, 1:] * slope[:, :-1] + dxr[:, :-1] * slope[:, 1:])
    # both end rows in one expression, the right one read from its end:
    # ((dx0 + 2 d) dx1 slope0 + dx0^2 slope1) / d on the left
    first, second = dxr[:, :: size - 2], dxr[:, 1 : -1 : size - 4]
    slopes = slope[:, :: size - 2], slope[:, 1 : -1 : size - 4]
    rhs[:, :: size - 1] = ((first + 2 * de) * second * slopes[0] + first**2 * slopes[1]) / de
    lower = np.concatenate([dx[:, 1:], e], axis=-1)
    upper = np.concatenate([d, dx[:, :-1]], axis=-1)
    for j, bands in enumerate(zip(lower, diag, upper, rhs)):
        rhs[j] = dgtsv(*bands, 1, 1, 1, 1)[3]
    m = rhs  # the slopes at the knots
    t = (m[:, :-1] + m[:, 1:] - 2 * slope) / dxr
    # the power coefficients c0..c3 of each interval, by coordinate, with
    # the intervals of all rows along the last axis; and their left knots
    coef = np.empty((4, width, count, size - 1))
    np.divide(t, dxr, out=coef[0].transpose(1, 2, 0))
    np.subtract((slope - m[:, :-1]) / dxr, t, out=coef[1].transpose(1, 2, 0))
    coef[2] = m[:, :-1].transpose(2, 0, 1)
    # c3 from 0.0, where PPoly's power sum starts (which turns a lone -0.0
    # into +0.0)
    np.add(0.0, y[:, :-1].transpose(2, 0, 1), out=coef[3])
    coef = coef.reshape(4, width, -1)
    left = u[:, :-1].reshape(-1)
    inner = u[:, 1:-1]

    def spline(tau, rows):
        # searching the inner knots clips the interval to the first and last
        i = np.array([inner[r].searchsorted(x, "right") for r, x in zip(rows, tau)])
        i += (size - 1) * rows[:, None]
        c = coef.take(i, axis=-1)
        z = tau - left.take(i)
        # PPoly's power sum, coordinate by coordinate
        zz = z * z
        return (c[3] + c[2] * z + c[1] * zz + c[0] * (zz * z)).transpose(1, 2, 0)

    return spline


@functools.cache
def _unit_grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n + 1)


def _even_split(total: np.ndarray, n: int) -> np.ndarray:
    """The bits of `np.linspace(0.0, t, n + 1)` for each row's total t that
    is 0 or has a normal t / n."""
    out = np.arange(n + 1) * (total / n)[:, None]
    out[:, -1] = total
    return out


def _equalize_chords(spline, rows: int, n: int):
    """Parameters tau on [0,1] whose spline images have equal chords, for
    each of the `rows` curves of `spline`.

    Fixed-point iteration on the cumulative-chord map, at most 30 rounds; a
    row stops at 1e-13 relative deviation or when roundoff stalls further
    progress, and leaves the iteration. Returns the images (rows, n+1, 2)
    and the exception that ends each row that failed, by row.
    """
    active = np.arange(rows)
    tau = _unit_grid(n)[None].repeat(rows, axis=0)
    pts = spline(tau, active)
    out = np.empty_like(pts)
    failed = {}
    prev_dev = math.inf
    for _ in range(30):
        chords = chord_lengths(pts)
        mean = np.add.reduce(chords, axis=-1) / n
        dev = np.maximum.reduce(np.abs(chords - mean[:, None]), axis=-1) / mean
        done = (dev <= 1e-13) | ((dev <= 1e-11) & (dev >= 0.5 * prev_dev))
        if active.size == rows and np.logical_and.reduce(done):
            return pts, failed
        collapsed = np.logical_or.reduce(chords <= 0.0, axis=-1)
        leaving = done | collapsed
        if np.logical_or.reduce(leaving):
            for j in collapsed.nonzero()[0]:
                failed[int(active[j])] = DegenerateCurve("interpolant collapsed during redistribution")
            out[active[leaving]] = pts[leaving]
            going = ~leaving
            if not np.logical_or.reduce(going):
                return out, failed
            active, tau, pts, chords, dev = (x[going] for x in (active, tau, pts, chords, dev))
        prev_dev = dev
        cum = _running_sum(chords)
        targets = _even_split(cum[:, -1], n)
        tau = np.array([np.interp(*row) for row in zip(targets, cum, tau)])
        tau[:, 0] = 0.0
        tau[:, -1] = 1.0
        pts = spline(tau, active)
    out[active] = pts
    for j in (~(dev <= 1e-10)).nonzero()[0]:
        failed[int(active[j])] = ReparamFailure(f"chord equalization stalled at deviation {dev[j]:.3e}")
    return out, failed


def redistribute(nodes: np.ndarray, seg: np.ndarray):
    """Constant-speed redistribution of each open curve in the stack `nodes`
    (rows, n+1, 2) with chord lengths `seg`, as `reparametrize_constant_speed`
    does it for one curve.

    Returns the new stack, a mask of the rows that moved (a row already
    uniform to 1e-13 stays as it is), and the exception that ends each row
    that failed, by row.
    """
    n = seg.shape[1]
    length = np.add.reduce(seg, axis=-1)
    mean = length / n
    moved = ~(np.maximum.reduce(np.abs(seg - mean[:, None]), axis=-1) <= 1e-13 * mean)
    if not np.logical_or.reduce(moved):
        return nodes, moved, {}
    rows = moved.nonzero()[0]
    x = nodes
    if rows.size < moved.size:
        x, seg, length = nodes[rows], seg[rows], length[rows]
    u = _running_sum(seg)
    u /= length[:, None]
    pts, failed = _equalize_chords(_not_a_knot_spline(u, x), rows.size, n)
    pts[:, ::n] = x[:, ::n]  # the endpoints
    if rows.size < moved.size:
        x, pts = pts, nodes.copy(order="K")
        pts[rows] = x
    return pts, moved, {int(rows[j]): exc for j, exc in failed.items()}


def reparametrize_constant_speed(curve: DiscreteCurve) -> DiscreteCurve:
    """Redistribute nodes to equal segment lengths along the interpolant.

    Nodes move along the not-a-knot cubic through the input nodes
    (parametrized by normalized chord length), so endpoints stay fixed and
    the image is preserved up to O(h^2) interpolation error. Segment lengths
    of the result agree to 1e-10 relative; already-uniform input is returned
    unchanged, making the operation idempotent.
    """
    pts, moved, failed = redistribute(curve.nodes[None], curve.segments[None])
    raise_first(failed)
    return DiscreteCurve(pts[0]) if moved[0] else curve


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
    # p and q: the float endpoints that `make_initial_curve` admitted
    chord = q - p
    dist = np.linalg.norm(chord)
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
        raise BadParams("turn angle folds the curve onto its own chord", "turn_angle")
    samples = pos[:: m // n]
    za = raw_chord[0] + 1j * raw_chord[1]
    zb = (q - p)[0] + 1j * (q - p)[1]
    scale_rot = zb / za
    z = (samples[:, 0] + 1j * samples[:, 1]) * scale_rot
    return np.column_stack([z.real, z.imag]) + p


_FAMILIES = ("segment", "flattened_sine", "bump_perturbed_segment", "arc_with_flat_ends")
# the endpoints and the bump's support when `make_initial_curve` is given
# none, and the [initial] config keys of their coordinates
INITIAL_DEFAULTS = {"p": (0.0, 0.0), "q": (1.0, 0.0), "support": (0.3, 0.7)}
INITIAL_KEYS = {"p": ("px", "py"), "q": ("qx", "qy"), "support": ("support_lo", "support_hi")}


def _endpoint_key(p: np.ndarray, q: np.ndarray) -> str:
    # the endpoint coordinate that a refusal names: the first NaN, else the
    # one of largest magnitude, q's before p's
    return (*INITIAL_KEYS["q"], *INITIAL_KEYS["p"])[int(np.argmax(np.abs(np.concatenate([q, p]))))]


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

    A non-finite endpoint, amplitude, support or turn_angle raises
    BadParams before any arithmetic: the endpoints by their own check, the
    others by their range checks, which no NaN or infinity passes. So do
    endpoints whose squared distance overflows, and a curve whose chords
    overflow or round to zero. Each BadParams names its parameter in `key`,
    a coordinate of p, q or support by its [initial] key (`INITIAL_KEYS`).
    """
    if family not in _FAMILIES:
        raise BadParams(f"unknown family {family!r}; choose from {_FAMILIES}", "family")
    if n < MIN_NODE_COUNT:
        raise BadParams(f"n must be at least {MIN_NODE_COUNT}", "n")
    p = np.asarray(params.pop("p", INITIAL_DEFAULTS["p"]), dtype=float)
    q = np.asarray(params.pop("q", INITIAL_DEFAULTS["q"]), dtype=float)
    # arithmetic on them would warn, or blame another parameter through a
    # NaN distance; Python floats overflow without a warning
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise BadParams("endpoints must have finite coordinates", _endpoint_key(p, q))
    dx, dy = (b - a for a, b in zip(p.tolist(), q.tolist()))
    if not math.isfinite(dx * dx + dy * dy):
        raise BadParams("endpoints too far apart: their squared distance overflows", _endpoint_key(p, q))
    dist = float(np.linalg.norm(q - p))
    if dist <= 0.0:
        raise BadParams("endpoints must be distinct", _endpoint_key(p, q))

    if family == "segment":
        _reject_extra(params, family)
        nodes = _graph_nodes(p, q, n, lambda u: np.zeros_like(u))
    elif family == "flattened_sine":
        # single sine arch: odd symmetry about both endpoints makes every
        # even-order derivative vanish there, and the one-mode spectrum keeps
        # the early evolution fully resolved in time
        amplitude = float(params.pop("amplitude", 0.1))
        _reject_extra(params, family)
        if not 0.0 <= abs(amplitude) <= 2.0 * dist:
            raise BadParams("amplitude outside documented range [0, 2|P-Q|]", "amplitude")
        nodes = _graph_nodes(p, q, n, lambda u: amplitude * np.sin(np.pi * u))
    elif family == "bump_perturbed_segment":
        amplitude = float(params.pop("amplitude", 0.1))
        support = tuple(params.pop("support", INITIAL_DEFAULTS["support"]))
        _reject_extra(params, family)
        a, b = float(support[0]), float(support[1])
        if not (0.05 <= a < b <= 0.95 and b - a >= 0.1):
            # the high end, unless no high end could pass with this low one
            key = INITIAL_KEYS["support"][0.05 <= a <= 0.85]
            raise BadParams("support must satisfy 0.05 <= a < b <= 0.95, b-a >= 0.1", key)
        if not 0.0 <= abs(amplitude) <= 2.0 * dist:
            raise BadParams("amplitude outside documented range [0, 2|P-Q|]", "amplitude")

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
        _reject_extra(params, family)
        if not abs(turn_angle) <= 4.0 * np.pi:  # NaN included
            raise BadParams("turn angle outside documented range [-4pi, 4pi]", "turn_angle")
        nodes = _arc_profile_nodes(p, q, n, turn_angle)
    with np.errstate(over="ignore"):
        seg = chord_lengths(nodes)
    # a chord that overflows, or that rounds to zero between coordinates too
    # large or too close for its length
    if not (np.minimum.reduce(seg) > 0.0 and np.isfinite(np.add.reduce(seg))):
        raise BadParams("endpoints give chords of zero or non-finite length", _endpoint_key(p, q))
    return DiscreteCurve(nodes)


def _reject_extra(params: dict, family: str) -> None:
    # a parameter the family does not take, named by its (first) config key
    if params:
        name = min(params)
        raise BadParams(f"not a parameter of family {family!r}", INITIAL_KEYS.get(name, (name,))[0])
