"""Finite-difference weights on arbitrary and uniform grids.

All whole-grid derivatives go through `derivatives` (several orders of one
field or of a stack of fields) or `derivative` (one order), which close the
stencils at the grid ends in one of two ways (`one_sided` windows inside
the grid, or `odd` ghost nodes). Underneath, uniform grids take
integer-offset stencils (centered in the interior, one-sided windows at
the ends) and other grids take weights from Fornberg's recursion, batched
over all windows of a grid or of a stack of grids (`fd_weights_rows`;
`fd_weights` is its block of one).
"""

from __future__ import annotations

import numpy as np

# Interior centered stencils on unit spacing, chosen so every order is at
# least second-order accurate: 3 points for d1/d2, 5 points for d3/d4.
CENTERED = {
    1: (1, np.array([-0.5, 0.0, 0.5])),
    2: (1, np.array([1.0, -2.0, 1.0])),
    3: (2, np.array([-0.5, 1.0, 0.0, -1.0, 0.5])),
    4: (2, np.array([1.0, -4.0, 6.0, -4.0, 1.0])),
}


def fd_weights(x: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Weights w with sum(w * f(x)) ~ f^(order)(x0), exact for deg < len(x).

    Fornberg's one-pass recursion; `x` must have distinct entries. It is
    the block of one of `fd_weights_rows`.
    """
    return fd_weights_rows(np.asarray(x, dtype=float)[None], np.array([x0], dtype=float), order)[0]


_ONE_SIDED: dict[tuple[int, int, int], np.ndarray] = {}


def one_sided_weights(order: int, width: int, row: int) -> np.ndarray:
    """Cached unit-spacing window weights; scale by h**-order at use site."""
    key = (order, width, row)
    if key not in _ONE_SIDED:
        # weights on the integer grid 0..width-1 evaluated at `row`
        _ONE_SIDED[key] = fd_weights(np.arange(width, dtype=float), float(row), order)
    return _ONE_SIDED[key]


def is_uniform(s: np.ndarray):
    """Whether the grid `s` is uniform to 1e-9 relative, along the last axis."""
    ds = s[..., 1:] - s[..., :-1]
    lo = np.minimum.reduce(ds, axis=-1)
    hi = np.maximum.reduce(ds, axis=-1)
    return (lo > 0) & (hi - lo <= 1e-9 * hi)


def _centered(f: np.ndarray, order: int) -> np.ndarray:
    """Unit-spacing centered stencil of `order` at every node with `half`
    neighbours on each side, along the last axis of `f`."""
    half, w = CENTERED[order]
    m = f.shape[-1] - 2 * half
    center = f[..., half : half + m]
    acc = np.zeros(center.shape)
    for k, c in enumerate(w):
        if c != 0.0 and k != half:
            acc += c * (f[..., k : k + m] - center)
    return acc


def derivative_uniform(f: np.ndarray, h, order: int) -> np.ndarray:
    """Derivative of samples on a uniform grid of spacing `h`; O(h^2) at
    every node. `f` may be a stack of fields along its last axis, each with
    the bits it gets alone, and `h` one spacing per field.

    Stencils are applied to differences against the evaluation node, so
    constant fields map to exactly zero.
    """
    half = CENTERED[order][0]
    out = np.empty(np.shape(f))
    out[..., half:-half] = _centered(f, order)
    # one-sided boundary windows of width order+2 keep O(h^2) at the ends;
    # as C-contiguous rows, matmul takes each window's dot as `w @ x` does
    width = order + 2
    rows = [*range(half), *range(width - 1, width - 1 - half, -1)]  # in the left, right window
    w = np.array([one_sided_weights(order, width, row) for row in rows])[:, :, None]
    lo, hi = f[..., None, :width], f[..., None, -width:]
    x = np.concatenate([lo - lo[..., 0, rows[:half], None], hi - hi[..., 0, rows[half:], None]], axis=-2)
    ends = np.matmul(np.ascontiguousarray(x[..., None, :]), w)[..., 0, 0]
    out[..., :half], out[..., -1 : -1 - half : -1] = ends[..., :half], ends[..., half:]
    # one scalar power per field: the array power differs in the last bit
    return out / np.reshape([step**order for step in np.ravel(h).tolist()], np.shape(h) + (1,))


def fd_weights_rows(x: np.ndarray, x0: np.ndarray, order: int) -> np.ndarray:
    """Fornberg weights for many stencils in one pass: row r of the result
    holds the weights w with sum(w * f(x[r])) ~ f^(order)(x0[r]).

    `x` has shape (rows, points); each row must have distinct entries.
    Fornberg's one-pass recursion runs once, with every step vectorized
    over the rows and over the derivative orders.
    """
    xt = np.asarray(x, dtype=float).T
    npts, nrows = xt.shape
    if order >= npts:
        raise ValueError("need more than `order` points")
    dx = xt - x0
    # w[d + 1, k] holds the order-d weight of node k; w[0] stays zero so the
    # d * w[d - 1] term needs no special case at d = 0
    w = np.zeros((order + 2, npts, nrows))
    w[1, 0] = 1.0
    d = np.arange(order + 1, dtype=float)[:, None]
    c1 = np.ones(nrows)
    for j in range(1, npts):
        c2 = np.ones(nrows)
        top = min(j, order) + 1
        for k in range(j):
            c3 = xt[j] - xt[k]
            c2 = c2 * c3
            if k == j - 1:
                # new node's weights must use column k before it is updated
                w[1 : top + 1, j] = c1 * (d[:top] * w[:top, k] - dx[k] * w[1 : top + 1, k]) / c2
            w[1 : top + 1, k] = (dx[j] * w[1 : top + 1, k] - d[:top] * w[:top, k]) / c3
        c1 = c2
    return w[order + 1].T


def derivative_nonuniform(f: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """Derivative on irregular grids with Fornberg weights, batched over
    all windows of every row of `f`, each on the grid in that row of `s`.

    The windows match `derivative_uniform`: centered ones in the interior,
    one-sided windows of width order+2 for the first and last `half` nodes.
    Weights are applied to differences against the evaluation node, so
    constant fields map to exactly zero.
    """
    n1 = f.shape[-1]
    f2, s2 = f.reshape(-1, n1), s.reshape(-1, n1)
    half = CENTERED[order][0]
    width = order + 2
    rows = np.arange(half, n1 - half)
    ends = np.r_[0:half, n1 - half : n1]
    starts = np.where(ends < half, 0, n1 - width)
    out = np.empty(f2.shape)
    for at, window in (
        (rows, rows[:, None] + np.arange(-half, half + 1)),
        (ends, starts[:, None] + np.arange(width)),
    ):
        points = window.shape[1]
        w = fd_weights_rows(s2[:, window].reshape(-1, points), s2[:, at].reshape(-1), order)
        x = (f2[:, window] - f2[:, at, None]).reshape(-1, points)
        out[:, at] = np.einsum("ij,ij->i", w, x).reshape(-1, at.size)
    return out.reshape(f.shape)


def derivative(f: np.ndarray, s: np.ndarray, order: int, boundary: str) -> np.ndarray:
    """d^order f/ds^order at every node of the grid `s`, order 1..4, O(h^2).

    `boundary` closes the stencils at the two ends of the grid:
      one_sided  windows of width order+2 inside the grid;
      odd        centered stencils over ghost nodes that point-reflect the
                 samples through each end node, (s0 - x, 2 f0 - f(s0 + x));
                 this is the odd extension of a field that vanishes there.
    Uniform grids take the unit-spacing stencils of `derivative_uniform`
    (with ghosts, only its centered ones), others the batched Fornberg
    weights of `derivative_nonuniform`, whose ghost rows are dropped.
    Constant fields map to exactly zero.
    """
    return derivatives(f, s, (order,), boundary)[0]


def derivatives(f: np.ndarray, s: np.ndarray, orders: tuple[int, ...], boundary: str) -> list:
    """`derivative` of one field for each of `orders`, which share the
    uniformity test and one set of ghost nodes as wide as the widest stencil.
    `f` and `s` may be stacks (rows, n+1) of fields, each on its own grid,
    whose uniformity decides its path."""
    if boundary not in ("one_sided", "odd"):
        raise ValueError("boundary must be one_sided or odd")
    f = np.asarray(f, dtype=float)
    f2, s2 = f.reshape(-1, f.shape[-1]), s.reshape(-1, s.shape[-1])
    # the ghost nodes repeat spacings of the grid, so the grid decides a row's path
    uniform = is_uniform(s2)
    if uniform.all():
        out = _uniform_rows(f2, s2, orders, boundary)
    else:
        out = [np.empty(f2.shape) for _ in orders]
        for rows, kernel in ((uniform, _uniform_rows), (~uniform, _fornberg_rows)):
            if rows.any():
                for d, x in zip(out, kernel(f2[rows], s2[rows], orders, boundary)):
                    d[rows] = x
    return [d.reshape(f.shape) for d in out]


def _uniform_rows(f: np.ndarray, s: np.ndarray, orders: tuple[int, ...], boundary: str) -> list:
    # `derivatives` of a stack of fields on uniform grids
    if boundary == "odd":
        return uniform_row_derivatives(f, s, orders)
    return [derivative_uniform(f, _spacing(s), k) for k in orders]


def _fornberg_rows(f: np.ndarray, s: np.ndarray, orders: tuple[int, ...], boundary: str) -> list:
    # `derivatives` of a stack of fields on other grids
    if boundary == "one_sided":
        return [derivative_nonuniform(f, s, k) for k in orders]
    half = max(CENTERED[k][0] for k in orders)
    f, s = _ghosted(f, half), _ghosted(s, half)
    return [derivative_nonuniform(f, s, k)[:, half:-half] for k in orders]


def uniform_row_derivatives(f: np.ndarray, s: np.ndarray, orders: tuple[int, ...]) -> list:
    """`derivatives` with `odd` ends of each row of `f` on the uniform grid
    in that row of `s`."""
    # every node of the grid is an interior node of the extended samples;
    # narrower stencils skip the ghosts they do not reach
    half = max(CENTERED[k][0] for k in orders)
    f = _ghosted(f, half)
    m = f.shape[-1]
    h = _spacing(s)
    out = []
    for k in orders:
        j = half - CENTERED[k][0]
        # one scalar power per row: the array power h[:, None]**k differs in the last bit
        out.append(_centered(f[:, j : m - j], k) / np.array([hi**k for hi in h])[:, None])
    return out


def _spacing(s: np.ndarray) -> np.ndarray:
    # spacing of the uniform grid along the last axis of `s`
    return (s[..., -1] - s[..., 0]) / (s.shape[-1] - 1)


def _ghosted(x: np.ndarray, half: int) -> np.ndarray:
    # `half` ghost entries at each end of the last axis, the point
    # reflection through the end entry
    ends = 2.0 * x[..., :1] - x[..., half:0:-1], 2.0 * x[..., -1:] - x[..., -2 : -2 - half : -1]
    return np.concatenate([ends[0], x, ends[1]], axis=-1)
