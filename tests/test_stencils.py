import math

import numpy as np
import pytest

from elastic_flow import stencils


def _scalar_fd_weights(x, x0, order):
    # Fornberg's one-pass recursion, one stencil at a time, kept as the
    # reference for the batched weights
    x = np.asarray(x, dtype=float)
    npts = x.size
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


class TestFdWeights:
    @pytest.mark.parametrize(
        "x,x0,order,expected",
        [
            ([0, 1, 2], 0.0, 1, [-1.5, 2.0, -0.5]),
            ([-1, 0, 1], 0.0, 1, [-0.5, 0.0, 0.5]),
            ([-1, 0, 1], 0.0, 2, [1.0, -2.0, 1.0]),
            ([0, 1, 2, 3], 0.0, 2, [2.0, -5.0, 4.0, -1.0]),
            ([-2, -1, 0, 1, 2], 0.0, 3, [-0.5, 1.0, 0.0, -1.0, 0.5]),
            ([-2, -1, 0, 1, 2], 0.0, 4, [1.0, -4.0, 6.0, -4.0, 1.0]),
        ],
    )
    def test_classic_tables(self, x, x0, order, expected):
        w = stencils.fd_weights(np.array(x, dtype=float), x0, order)
        assert np.allclose(w, expected, atol=1e-12)

    def test_exact_on_polynomials(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(-1.0, 1.0, 7))
        x0 = x[3]
        coeffs = rng.normal(size=7)
        poly = np.polynomial.Polynomial(coeffs)
        for order in range(5):
            w = stencils.fd_weights(x, x0, order)
            assert w @ poly(x) == pytest.approx(poly.deriv(order)(x0), rel=1e-8)

    def test_integer_windows_keep_the_scalar_bits(self):
        # the unit-spacing windows of `one_sided_weights`, every evaluation row
        for order in range(1, 5):
            for width in range(order + 1, 9):
                x = np.arange(width, dtype=float)
                for row in range(width):
                    got = stencils.fd_weights(x, float(row), order)
                    want = _scalar_fd_weights(x, float(row), order)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (order, width, row)


class TestDerivativeRoutines:
    def test_uniform_constant_is_exactly_zero(self):
        f = np.full(65, 2.75)
        for order in range(1, 5):
            assert np.all(stencils.derivative_uniform(f, 0.01, order) == 0.0)

    def test_nonuniform_matches_uniform_on_uniform_grid(self):
        s = np.linspace(0.0, 1.0, 65)
        f = np.cos(3.0 * s)
        for order in (1, 2, 3, 4):
            a = stencils.derivative_uniform(f, s[1] - s[0], order)
            b = stencils.derivative_nonuniform(f, s, order)
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def _derivative_uniform_1d(f, h, order):
    # one field at a time, each end window through its own `w @ x`, kept as
    # the reference for the stacked kernel
    half = stencils.CENTERED[order][0]
    out = np.empty_like(f, dtype=float)
    out[half:-half] = stencils._centered(f, order)
    width = order + 2
    for row in range(half):
        out[row] = stencils.one_sided_weights(order, width, row) @ (f[:width] - f[row])
        wr = stencils.one_sided_weights(order, width, width - 1 - row)
        out[-1 - row] = wr @ (f[-width:] - f[-1 - row])
    return out / h**order


class TestUniformStack:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_stack_equals_one_field_at_a_time(self, order):
        # end windows of widths 3 to 6; fields of several scales and
        # spacings, a strided component view among them
        rng = np.random.default_rng(order)
        for n1 in (7, 33, 129):
            f = rng.normal(size=(4, 3, n1)) * 10.0 ** rng.uniform(-3.0, 3.0, (4, 3, 1))
            h = rng.uniform(1e-3, 2.0, (4, 3))
            got = stencils.derivative_uniform(f, h, order)
            for i, j in np.ndindex(4, 3):
                want = _derivative_uniform_1d(f[i, j], h[i, j], order)
                assert np.array_equal(got[i, j].view(np.uint64), want.view(np.uint64)), (n1, i, j)
            nodes = np.ascontiguousarray(f[0, :2].T)
            for k in range(2):
                got = stencils.derivative_uniform(nodes[:, k], 1.0 / (n1 - 1), order)
                want = _derivative_uniform_1d(nodes[:, k], 1.0 / (n1 - 1), order)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n1, k)

    def test_one_sided_rows_of_a_stack_equal_the_reference(self):
        # `derivatives` takes the uniform rows of a stack through one call
        s, f = _stacked_grids()
        s, f = s[[2, 7]], f[[2, 7]]
        for order, d in zip((1, 2, 3, 4), stencils.derivatives(f, s, (1, 2, 3, 4), "one_sided")):
            for i in range(2):
                want = _derivative_uniform_1d(f[i], (s[i, -1] - s[i, 0]) / (s.shape[1] - 1), order)
                assert np.array_equal(d[i].view(np.uint64), want.view(np.uint64)), (order, i)


def _graded_grid(n1: int = 33) -> np.ndarray:
    # spacing grows 2.6x from left to right, with a 20% per-node jitter
    t = np.linspace(0.0, 1.0, n1)
    jitter = np.random.default_rng(3).uniform(-0.2, 0.2, n1) / (n1 - 1)
    jitter[[0, -1]] = 0.0
    return t + 0.8 * t**2 + jitter


def _rowwise_nonuniform(f, s, order):
    # the per-node loop over the scalar recursion, kept as the reference
    n1 = f.size
    half = stencils.CENTERED[order][0]
    width = order + 2
    out = np.empty(n1)
    for i in range(n1):
        if half <= i <= n1 - 1 - half:
            lo, hi = i - half, i + half + 1
        else:
            lo = 0 if i < half else n1 - width
            hi = lo + width
        out[i] = _scalar_fd_weights(s[lo:hi], s[i], order) @ (f[lo:hi] - f[i])
    return out


class TestNonuniformGradedGrid:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_batched_weights_match_scalar_recursion(self, order):
        s = _graded_grid()
        windows = np.arange(s.size - order - 1)[:, None] + np.arange(order + 2)
        x0 = s[windows[:, 1]]
        w = stencils.fd_weights_rows(s[windows], x0, order)
        ref = np.array([_scalar_fd_weights(s[r], c, order) for r, c in zip(windows, x0)])
        assert np.allclose(w, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_exact_on_polynomials_of_stencil_degree(self, order):
        s = _graded_grid()
        half = stencils.CENTERED[order][0]
        rng = np.random.default_rng(order)
        # interior windows have 2*half+1 points, end windows order+2
        for degree, rows in (
            (2 * half, slice(half, s.size - half)),
            (order + 1, np.r_[0:half, s.size - half : s.size]),
        ):
            poly = np.polynomial.Polynomial(rng.normal(size=degree + 1), domain=[0.0, 1.8])
            got = stencils.derivative_nonuniform(poly(s), s, order)[rows]
            exact = poly.deriv(order)(s)[rows]
            assert np.allclose(got, exact, rtol=0.0, atol=1e-8 * np.max(np.abs(exact)))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_rowwise_reference(self, order):
        s = _graded_grid()
        f = np.cos(3.0 * s) + 0.5 * s**5
        got = stencils.derivative_nonuniform(f, s, order)
        ref = _rowwise_nonuniform(f, s, order)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_constant_is_exactly_zero(self):
        s = _graded_grid()
        f = np.full(s.size, 2.75)
        for order in range(1, 5):
            assert np.all(stencils.derivative_nonuniform(f, s, order) == 0.0)


def _rowwise_ghosted(f, s, order):
    # per-node loop over the scalar recursion on the ghost-extended grid, kept
    # as the reference for the odd boundary
    half = stencils.CENTERED[order][0]
    fe = np.concatenate([2 * f[0] - f[half:0:-1], f, 2 * f[-1] - f[-2 : -2 - half : -1]])
    se = np.concatenate([2 * s[0] - s[half:0:-1], s, 2 * s[-1] - s[-2 : -2 - half : -1]])
    out = np.empty(f.size)
    for i in range(f.size):
        sl = slice(i, i + 2 * half + 1)
        out[i] = _scalar_fd_weights(se[sl], s[i], order) @ (fe[sl] - f[i])
    return out


def _stacked_grids(rows: int = 12, n1: int = 33):
    # graded grids of several lengths, jitters and gradings, and two uniform
    # ones, made explicitly because random grids rarely are
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, n1)
    jitter = rng.uniform(-0.2, 0.2, (rows, n1)) / (n1 - 1)
    jitter[:, [0, -1]] = 0.0
    s = rng.uniform(0.5, 3.0, (rows, 1)) * (t + rng.uniform(0.2, 1.0, (rows, 1)) * t**2 + jitter)
    s[[2, 7]] = rng.uniform(0.5, 3.0, (2, 1)) * t
    f = np.sin(3.0 * s) + rng.normal(0.0, 0.1, s.shape)
    return s, f


class TestStackedOneSided:
    @pytest.mark.parametrize("boundary", ["one_sided", "odd"])
    @pytest.mark.parametrize("uniform_rows", [[2, 7], []])
    def test_stacked_rows_equal_one_row_at_a_time(self, uniform_rows, boundary):
        s, f = _stacked_grids()
        if not uniform_rows:
            s, f = np.delete(s, [2, 7], axis=0), np.delete(f, [2, 7], axis=0)
        assert np.flatnonzero(stencils.is_uniform(s)).tolist() == uniform_rows
        got = stencils.derivatives(f, s, (1, 2, 3, 4), boundary)
        for order, d in zip((1, 2, 3, 4), got):
            fornberg = stencils.derivative_nonuniform(f, s, order)
            for i in range(s.shape[0]):
                assert np.array_equal(d[i], stencils.derivative(f[i], s[i], order, boundary)), (order, i)
                assert np.array_equal(fornberg[i], stencils.derivative_nonuniform(f[i], s[i], order)), (order, i)


class TestGhostedBoundaries:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_odd_matches_rowwise_reference(self, order):
        s = _graded_grid()
        f = np.sin(2.0 * s) + 0.3 * s**3 + 0.7
        got = stencils.derivative(f, s, order, "odd")
        ref = _rowwise_ghosted(f, s, order)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("graded", [False, True])
    def test_constant_is_exactly_zero(self, graded):
        s = _graded_grid() if graded else np.linspace(0.0, 1.8, 33)
        f = np.full(s.size, -1.3)
        for boundary in ("one_sided", "odd"):
            for order in range(1, 5):
                assert np.all(stencils.derivative(f, s, order, boundary) == 0.0), (boundary, order)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_uniform_grid_equals_full_kernel_on_ghosted_samples(self, order):
        # uniform grids apply only the centered stencils to the ghost-extended
        # samples; the bits must equal the whole uniform kernel run on them
        # with the ghost rows dropped
        half = stencils.CENTERED[order][0]
        s = np.linspace(0.3, 2.1, 65)
        f = np.sin(3.0 * s) + 0.2 * s**2
        fe = np.concatenate([2 * f[0] - f[half:0:-1], f, 2 * f[-1] - f[-2 : -2 - half : -1]])
        h = (s[-1] - s[0]) / (s.size - 1)
        ref = stencils.derivative_uniform(fe, h, order)[half:-half]
        assert np.array_equal(stencils.derivative(f, s, order, "odd"), ref)

    def test_stacked_rows_equal_one_row_at_a_time(self):
        # each row has its own spacing; the bits must equal the whole uniform
        # kernel run on that row's ghost-extended samples, as above
        rng = np.random.default_rng(7)
        lengths = rng.uniform(0.5, 3.0, 40)
        s = lengths[:, None] * np.linspace(0.0, 1.0, 65)
        f = np.sin(3.0 * s) + rng.normal(0.0, 0.1, s.shape)
        got = stencils.uniform_row_derivatives(f, s, (1, 2, 3, 4))
        for order, g in enumerate(got, start=1):
            half = stencils.CENTERED[order][0]
            for i in range(s.shape[0]):
                fi = f[i]
                fe = np.concatenate([2 * fi[0] - fi[half:0:-1], fi, 2 * fi[-1] - fi[-2 : -2 - half : -1]])
                h = (s[i, -1] - s[i, 0]) / (s.shape[1] - 1)
                ref = stencils.derivative_uniform(fe, h, order)[half:-half]
                assert np.array_equal(g[i], ref), (order, i)

    @pytest.mark.parametrize("boundary", ["one_sided", "odd"])
    @pytest.mark.parametrize("graded", [False, True])
    def test_several_orders_equal_one_at_a_time(self, boundary, graded):
        # the orders share one ghost extension, as wide as order 3/4 needs
        s = _graded_grid() if graded else np.linspace(0.0, 1.8, 33)
        f = np.sin(2.0 * s) + 0.3 * s**3
        got = stencils.derivatives(f, s, (1, 2, 3, 4), boundary)
        for order, d in zip((1, 2, 3, 4), got):
            assert np.array_equal(d, stencils.derivative(f, s, order, boundary)), order

    @pytest.mark.parametrize("boundary", ["even", "periodic"])
    def test_unknown_boundary_rejected(self, boundary):
        s = np.linspace(0.0, 1.0, 33)
        with pytest.raises(ValueError):
            stencils.derivative(np.sin(s), s, 1, boundary)


class TestImplicitMatrixAssembly:
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_uniform_assembly_matches_rowwise_reference(self, n, eps):
        # pins the reflection-ghost folding on both boundary rows
        from elastic_flow.flow import _assemble_uniform

        s = np.linspace(0.0, 1.5, n + 1)
        got = _assemble_uniform(n, 1.5 / n, 1e-4, eps)
        ref = _rowwise_assembly(s, 1e-4, eps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _rowwise_assembly(s, dt, eps):
    # the per-row loop over the scalar recursion, kept as the reference; the
    # ghost node of the boundary rows is X(-s) = 2P - X(s)
    n = s.size - 1
    diags = np.zeros((5, n + 1))
    diags[2, [0, -1]] = 1.0
    for i in range(1, n):
        row = np.zeros(5)  # weights at offsets i-2 .. i+2
        row[1:4] -= dt * _scalar_fd_weights(s[i - 1 : i + 2], s[i], 2)
        if eps > 0.0:
            if i == 1:
                w4 = _scalar_fd_weights(np.concatenate([[2 * s[0] - s[1]], s[:4]]), s[1], 4)
                row[1] += 2.0 * eps * dt * (2.0 * w4[0] + w4[1])
                row[2] -= 2.0 * eps * dt * w4[0]
                row[2:5] += 2.0 * eps * dt * w4[2:]
            elif i == n - 1:
                w4 = _scalar_fd_weights(np.concatenate([s[-4:], [2 * s[-1] - s[-2]]]), s[-2], 4)
                row[3] += 2.0 * eps * dt * (2.0 * w4[4] + w4[3])
                row[2] -= 2.0 * eps * dt * w4[4]
                row[0:3] += 2.0 * eps * dt * w4[:3]
            else:
                row += 2.0 * eps * dt * _scalar_fd_weights(s[i - 2 : i + 3], s[i], 4)
        row[2] += 1.0
        diags[:, i] = row
    return diags
