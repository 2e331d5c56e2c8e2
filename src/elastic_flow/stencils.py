"""Finite-difference weights on arbitrary and uniform grids.

All whole-grid derivatives in the package go through `derivative`, which
closes its stencils at the grid ends in one of three ways (`one_sided`,
`odd`, `periodic`; the last two by ghost nodes). Underneath, uniform grids
take a vectorized fast path with precomputed integer-offset stencils
(centered in the interior, one-sided windows at the ends) and other grids
take weights from Fornberg's recursion, batched over all windows of the
grid. The scalar recursion `fd_weights` serves single stencils.
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

    Fornberg's one-pass recursion; `x` must have distinct entries.
    """
    x = np.asarray(x, dtype=float)
    npts = x.size
    if order >= npts:
        raise ValueError("need more than `order` points")
    w = np.zeros((order + 1, npts))
    w[0, 0] = 1.0
    c1 = 1.0
    for j in range(1, npts):
        c2 = 1.0
        mn = min(j, order)
        for k in range(j):
            c3 = x[j] - x[k]
            c2 *= c3
            if k == j - 1:
                # new node's weights must use row k before it is updated
                for d in range(mn, 0, -1):
                    w[d, j] = c1 * (d * w[d - 1, k] - (x[k] - x0) * w[d, k]) / c2
                w[0, j] = -c1 * (x[k] - x0) * w[0, k] / c2
            for d in range(mn, 0, -1):
                w[d, k] = ((x[j] - x0) * w[d, k] - d * w[d - 1, k]) / c3
            w[0, k] = (x[j] - x0) * w[0, k] / c3
        c1 = c2
    return w[order]


_ONE_SIDED: dict[tuple[int, int, int], np.ndarray] = {}


def one_sided_weights(order: int, width: int, row: int) -> np.ndarray:
    """Cached unit-spacing window weights; scale by h**-order at use site."""
    key = (order, width, row)
    if key not in _ONE_SIDED:
        # weights on the integer grid 0..width-1 evaluated at `row`
        _ONE_SIDED[key] = fd_weights(np.arange(width, dtype=float), float(row), order)
    return _ONE_SIDED[key]


def is_uniform(s: np.ndarray, rel_tol: float = 1e-9) -> bool:
    ds = np.diff(s)
    lo = ds.min()
    hi = ds.max()
    return lo > 0 and hi - lo <= rel_tol * hi


def derivative_uniform(f: np.ndarray, h: float, order: int) -> np.ndarray:
    """Derivative of samples on a uniform grid; O(h^2) at every node.

    Stencils are applied to differences against the evaluation node, so
    constant fields map to exactly zero.
    """
    half, w = CENTERED[order]
    out = np.empty_like(f, dtype=float)
    center = f[half : f.size - half]
    acc = np.zeros(f.size - 2 * half)
    for k, c in enumerate(w):
        if c != 0.0 and k != half:
            acc += c * (f[k : k + acc.size] - center)
    out[half:-half] = acc
    # one-sided boundary windows of width order+2 keep O(h^2) at the ends
    width = order + 2
    for row in range(half):
        wl = one_sided_weights(order, width, row)
        out[row] = wl @ (f[:width] - f[row])
        wr = one_sided_weights(order, width, width - 1 - row)
        out[-1 - row] = wr @ (f[-width:] - f[-1 - row])
    return out / h**order


def fd_weights_rows(x: np.ndarray, x0: np.ndarray, order: int) -> np.ndarray:
    """Fornberg weights for many stencils in one pass: row r of the result
    is `fd_weights(x[r], x0[r], order)`, up to rounding.

    `x` has shape (rows, points); each row must have distinct entries. The
    recursion of `fd_weights` runs once, with every step vectorized over
    the rows and over the derivative orders.
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
    """Derivative on an irregular grid with Fornberg weights, batched.

    The windows match `derivative_uniform`: centered ones in the interior,
    one-sided windows of width order+2 for the first and last `half` nodes.
    Weights are applied to differences against the evaluation node, so
    constant fields map to exactly zero.
    """
    n1 = f.size
    half = CENTERED[order][0]
    width = order + 2
    rows = np.arange(half, n1 - half)
    ends = np.r_[0:half, n1 - half : n1]
    starts = np.where(ends < half, 0, n1 - width)
    out = np.empty(n1)
    for at, window in (
        (rows, rows[:, None] + np.arange(-half, half + 1)),
        (ends, starts[:, None] + np.arange(width)),
    ):
        w = fd_weights_rows(s[window], s[at], order)
        out[at] = np.einsum("ij,ij->i", w, f[window] - f[at, None])
    return out


def derivative(f: np.ndarray, s: np.ndarray, order: int, boundary: str) -> np.ndarray:
    """d^order f/ds^order at every node of the grid `s`, order 1..4, O(h^2).

    `boundary` closes the stencils at the two ends of the grid:
      one_sided  windows of width order+2 inside the grid;
      odd        centered stencils over ghost nodes that point-reflect the
                 samples through each end node, (s0 - x, 2 f0 - f(s0 + x));
                 this is the odd extension of a field that vanishes there;
      periodic   centered stencils over ghost nodes that wrap around; here
                 `s` has one entry more than `f`, the closing node at
                 s[0] + period.
    Uniform grids take `derivative_uniform`, others the batched Fornberg
    weights of `derivative_nonuniform`; ghost rows are dropped. Constant
    fields map to exactly zero.
    """
    f = np.asarray(f, dtype=float)
    # the ghost nodes repeat spacings of the grid, so it decides the path
    uniform = is_uniform(s)
    h = (s[-1] - s[0]) / (s.size - 1)
    half = CENTERED[order][0]
    if boundary == "odd":
        f = np.concatenate([2.0 * f[0] - f[half:0:-1], f, 2.0 * f[-1] - f[-2 : -2 - half : -1]])
        s = np.concatenate([2.0 * s[0] - s[half:0:-1], s, 2.0 * s[-1] - s[-2 : -2 - half : -1]])
    elif boundary == "periodic":
        period = s[-1] - s[0]
        s = s[:-1]
        f = np.concatenate([f[-half:], f, f[:half]])
        s = np.concatenate([s[-half:] - period, s, s[:half] + period])
    elif boundary != "one_sided":
        raise ValueError("boundary must be one_sided, odd or periodic")
    if uniform:
        out = derivative_uniform(f, h, order)
    else:
        out = derivative_nonuniform(f, s, order)
    return out if boundary == "one_sided" else out[half:-half]
