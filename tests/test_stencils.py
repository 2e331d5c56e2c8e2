import math

import numpy as np
import pytest

from elastic_flow import stencils


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


class TestDerivativeRoutines:
    def test_uniform_constant_is_exactly_zero(self):
        f = np.full(65, 2.75)
        for order in range(1, 5):
            assert np.all(stencils.derivative_uniform(f, 0.01, order) == 0.0)

    def test_periodic_matches_analytic(self):
        n = 128
        s = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        f = np.sin(s)
        d2 = stencils.derivative(f, np.append(s, 2.0 * np.pi), 2, "periodic")
        assert np.max(np.abs(d2 + f)) <= (2.0 * np.pi / n) ** 2

    def test_nonuniform_matches_uniform_on_uniform_grid(self):
        s = np.linspace(0.0, 1.0, 65)
        f = np.cos(3.0 * s)
        for order in (1, 2, 3, 4):
            a = stencils.derivative_uniform(f, s[1] - s[0], order)
            b = stencils.derivative_nonuniform(f, s, order)
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def _graded_grid(n1: int = 33) -> np.ndarray:
    # spacing grows 2.6x from left to right, with a 20% per-node jitter
    t = np.linspace(0.0, 1.0, n1)
    jitter = np.random.default_rng(3).uniform(-0.2, 0.2, n1) / (n1 - 1)
    jitter[[0, -1]] = 0.0
    return t + 0.8 * t**2 + jitter


def _rowwise_nonuniform(f, s, order):
    # the per-node loop over scalar fd_weights, kept as the reference
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
        out[i] = stencils.fd_weights(s[lo:hi], s[i], order) @ (f[lo:hi] - f[i])
    return out


class TestNonuniformGradedGrid:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_batched_weights_match_scalar_recursion(self, order):
        s = _graded_grid()
        windows = np.arange(s.size - order - 1)[:, None] + np.arange(order + 2)
        x0 = s[windows[:, 1]]
        w = stencils.fd_weights_rows(s[windows], x0, order)
        ref = np.array([stencils.fd_weights(s[r], c, order) for r, c in zip(windows, x0)])
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


def _periodic_graded_grid(n: int = 32, period: float = 1.7) -> np.ndarray:
    # n nodes plus the closing node at s[0] + period; spacing varies 1.6x
    v = np.linspace(0.0, 1.0, n + 1)
    jitter = np.random.default_rng(5).uniform(-0.2, 0.2, n + 1) / n
    jitter[[0, -1]] = 0.0
    return 0.4 + period * (v + 0.05 * np.sin(2.0 * np.pi * v) + jitter)


def _rowwise_ghosted(f, s, order, boundary):
    # per-node loop over scalar fd_weights on the ghost-extended grid, kept
    # as the reference for the odd and periodic boundaries
    half = stencils.CENTERED[order][0]
    if boundary == "odd":
        fe = np.concatenate([2 * f[0] - f[half:0:-1], f, 2 * f[-1] - f[-2 : -2 - half : -1]])
        se = np.concatenate([2 * s[0] - s[half:0:-1], s, 2 * s[-1] - s[-2 : -2 - half : -1]])
    else:
        period = s[-1] - s[0]
        s = s[:-1]
        fe = np.concatenate([f[-half:], f, f[:half]])
        se = np.concatenate([s[-half:] - period, s, s[:half] + period])
    out = np.empty(f.size)
    for i in range(f.size):
        sl = slice(i, i + 2 * half + 1)
        out[i] = stencils.fd_weights(se[sl], s[i], order) @ (fe[sl] - f[i])
    return out


class TestGhostedBoundaries:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_odd_matches_rowwise_reference(self, order):
        s = _graded_grid()
        f = np.sin(2.0 * s) + 0.3 * s**3 + 0.7
        got = stencils.derivative(f, s, order, "odd")
        ref = _rowwise_ghosted(f, s, order, "odd")
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_periodic_matches_rowwise_reference(self, order):
        s = _periodic_graded_grid()
        period = s[-1] - s[0]
        f = np.cos(2.0 * np.pi * s[:-1] / period) + 0.4 * np.sin(6.0 * np.pi * s[:-1] / period)
        got = stencils.derivative(f, s, order, "periodic")
        ref = _rowwise_ghosted(f, s, order, "periodic")
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("graded", [False, True])
    def test_constant_is_exactly_zero(self, graded):
        for boundary in ("one_sided", "odd", "periodic"):
            if boundary == "periodic":
                s = _periodic_graded_grid() if graded else np.linspace(0.4, 2.1, 33)
                f = np.full(s.size - 1, -1.3)
            else:
                s = _graded_grid() if graded else np.linspace(0.0, 1.8, 33)
                f = np.full(s.size, -1.3)
            for order in range(1, 5):
                assert np.all(stencils.derivative(f, s, order, boundary) == 0.0), (boundary, order)

    @pytest.mark.parametrize("boundary", ["odd", "periodic"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_uniform_grid_equals_full_kernel_on_ghosted_samples(self, boundary, order):
        # uniform grids apply only the centered stencils to the ghost-extended
        # samples; the bits must equal the whole uniform kernel run on them
        # with the ghost rows dropped
        half = stencils.CENTERED[order][0]
        s = np.linspace(0.3, 2.1, 65)
        f = np.sin(3.0 * s) + 0.2 * s**2
        if boundary == "odd":
            fe = np.concatenate([2 * f[0] - f[half:0:-1], f, 2 * f[-1] - f[-2 : -2 - half : -1]])
        else:
            f = f[:-1]
            fe = np.concatenate([f[-half:], f, f[:half]])
        h = (s[-1] - s[0]) / (s.size - 1)
        ref = stencils.derivative_uniform(fe, h, order)[half:-half]
        assert np.array_equal(stencils.derivative(f, s, order, boundary), ref)

    @pytest.mark.parametrize("boundary", ["one_sided", "odd", "periodic"])
    @pytest.mark.parametrize("graded", [False, True])
    def test_several_orders_equal_one_at_a_time(self, boundary, graded):
        # the orders share one ghost extension, as wide as order 3/4 needs
        if boundary == "periodic":
            s = _periodic_graded_grid() if graded else np.linspace(0.4, 2.1, 33)
            f = np.cos(2.0 * np.pi * (s[:-1] - s[0]) / (s[-1] - s[0]))
        else:
            s = _graded_grid() if graded else np.linspace(0.0, 1.8, 33)
            f = np.sin(2.0 * s) + 0.3 * s**3
        got = stencils.derivatives(f, s, (1, 2, 3, 4), boundary)
        for order, d in zip((1, 2, 3, 4), got):
            assert np.array_equal(d, stencils.derivative(f, s, order, boundary)), order

    def test_unknown_boundary_rejected(self):
        s = np.linspace(0.0, 1.0, 33)
        with pytest.raises(ValueError):
            stencils.derivative(np.sin(s), s, 1, "even")


class TestImplicitMatrixAssembly:
    def test_general_assembly_reduces_to_uniform(self):
        # pins the reflection-ghost folding on both boundary rows
        from elastic_flow.flow import _assemble_general, _assemble_uniform

        n = 32
        s = np.linspace(0.0, 1.5, n + 1)
        for eps in (0.0, 0.3):
            uni = _assemble_uniform(n, 1.5 / n, 1e-4, eps)
            gen = _assemble_general(s, 1e-4, eps)
            assert np.allclose(uni, gen, rtol=1e-9, atol=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_general_assembly_matches_rowwise_reference(self, eps):
        from elastic_flow.flow import _assemble_general

        s = _graded_grid()
        got = _assemble_general(s, 1e-4, eps)
        ref = _rowwise_assembly(s, 1e-4, eps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _rowwise_assembly(s, dt, eps):
    # the per-row loop over scalar fd_weights, kept as the reference; the
    # ghost node of the boundary rows is X(-s) = 2P - X(s)
    n = s.size - 1
    diags = np.zeros((5, n + 1))
    diags[2, [0, -1]] = 1.0
    for i in range(1, n):
        row = np.zeros(5)  # weights at offsets i-2 .. i+2
        row[1:4] -= dt * stencils.fd_weights(s[i - 1 : i + 2], s[i], 2)
        if eps > 0.0:
            if i == 1:
                w4 = stencils.fd_weights(np.concatenate([[2 * s[0] - s[1]], s[:4]]), s[1], 4)
                row[1] += 2.0 * eps * dt * (2.0 * w4[0] + w4[1])
                row[2] -= 2.0 * eps * dt * w4[0]
                row[2:5] += 2.0 * eps * dt * w4[2:]
            elif i == n - 1:
                w4 = stencils.fd_weights(np.concatenate([s[-4:], [2 * s[-1] - s[-2]]]), s[-2], 4)
                row[3] += 2.0 * eps * dt * (2.0 * w4[4] + w4[3])
                row[2] -= 2.0 * eps * dt * w4[4]
                row[0:3] += 2.0 * eps * dt * w4[:3]
            else:
                row += 2.0 * eps * dt * stencils.fd_weights(s[i - 2 : i + 3], s[i], 4)
        row[2] += 1.0
        diags[:, i] = row
    return diags
