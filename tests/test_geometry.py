import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_flow import (
    BadParams,
    DegenerateCurve,
    DiscreteCurve,
    arclength_derivative,
    compute_geometry,
    make_initial_curve,
    reparametrize_constant_speed,
)


def circle(n, r=2.0, grade=0.0):
    v = np.linspace(0.0, 1.0, n, endpoint=False)
    th = 2.0 * np.pi * (v + grade * np.sin(2.0 * np.pi * v))
    return DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]), closed=True)


def unit_speed_segment(length=1.0, n=128):
    s = np.linspace(0.0, length, n + 1)
    return DiscreteCurve(np.column_stack([s, np.zeros_like(s)]))


class TestDiscreteCurve:
    def test_minimum_node_count(self):
        with pytest.raises(BadParams):
            DiscreteCurve(np.column_stack([np.linspace(0, 1, 10), np.zeros(10)]))

    def test_coincident_nodes_rejected(self):
        nodes = np.column_stack([np.linspace(0, 1, 33), np.zeros(33)])
        nodes[5] = nodes[4]
        with pytest.raises(DegenerateCurve):
            DiscreteCurve(nodes)

    def test_nonfinite_rejected(self):
        nodes = np.column_stack([np.linspace(0, 1, 33), np.zeros(33)])
        nodes[3, 1] = np.nan
        with pytest.raises(BadParams):
            DiscreteCurve(nodes)

    def test_endpoints_are_first_and_last_nodes(self):
        c = make_initial_curve("flattened_sine", 64, amplitude=0.1)
        assert c.endpoint_p == (0.0, 0.0)
        assert c.endpoint_q == (1.0, 0.0)
        assert np.all(c.nodes[0] == (0.0, 0.0))
        assert np.all(c.nodes[-1] == (1.0, 0.0))


class TestComputeGeometry:
    def test_straight_segment_has_zero_curvature(self):
        cache = compute_geometry(make_initial_curve("segment", 64))
        assert np.max(np.abs(cache.kappa)) == 0.0
        assert cache.total_length == pytest.approx(1.0, abs=1e-15)

    def test_circle_curvature_value(self):
        # analytic oracle: kappa = 1/r
        cache = compute_geometry(circle(256, r=2.0))
        h = cache.total_length / 256
        assert np.max(np.abs(cache.kappa - 0.5)) <= max(1e-10, h**2)

    def test_circle_convergence_order_at_least_two(self):
        # the chordal stencil reproduces circles exactly, so the measurable
        # O(h^2) slope is taken on a graded sampling of the same circle
        errs = []
        for n in (64, 128, 256):
            cache = compute_geometry(circle(n, r=2.0, grade=0.05))
            errs.append(max(np.max(np.abs(cache.kappa - 0.5)), 1e-13))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(s >= 1.8 or errs[i + 1] < 1e-11 for i, s in enumerate(slopes))

    def test_ellipse_convergence_order_window(self):
        errs = []
        for n in (64, 128, 256, 512):
            v = np.linspace(0.0, 1.0, n, endpoint=False)
            th = 2.0 * np.pi * v
            c = DiscreteCurve(np.column_stack([1.5 * np.cos(th), np.sin(th)]), closed=True)
            k = compute_geometry(c).kappa
            k_exact = 1.5 / ((1.5 * np.sin(th)) ** 2 + np.cos(th) ** 2) ** 1.5
            errs.append(np.max(np.abs(k - k_exact)))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(1.8 <= s <= 2.2 for s in slopes), slopes

    def test_parabola_apex_curvature(self):
        # oracle: kappa = y'' / (1 + y'^2)^{3/2} = 2 at the apex
        n = 128
        x = np.linspace(-1.0, 1.0, n + 1)
        cache = compute_geometry(DiscreteCurve(np.column_stack([x, x * x])))
        h = cache.total_length / n
        assert abs(cache.kappa[n // 2] - 2.0) <= 2.0 * h**2

    def test_frame_is_orthonormal_and_left_handed(self):
        cache = compute_geometry(make_initial_curve("flattened_sine", 64, amplitude=0.3))
        assert np.max(np.abs(np.linalg.norm(cache.tangent, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(cache.normal, axis=1) - 1.0)) < 1e-12
        rotated = np.column_stack([-cache.tangent[:, 1], cache.tangent[:, 0]])
        assert np.max(np.abs(cache.normal - rotated)) == 0.0

    def test_frame_derivative_relation_refines(self):
        # d(nu)/ds + kappa * tau -> 0 at second order
        res = []
        for n in (64, 128, 256):
            cache = compute_geometry(circle(n, r=1.0, grade=0.03))
            dnu = np.column_stack(
                [
                    arclength_derivative(cache, cache.normal[:, 0], 1),
                    arclength_derivative(cache, cache.normal[:, 1], 1),
                ]
            )
            res.append(np.max(np.abs(dnu + cache.kappa[:, None] * cache.tangent)))
        assert res[0] > res[1] > res[2]
        assert math.log2(res[0] / res[2]) / 2.0 >= 1.6

    def test_degenerate_segment_raises(self):
        nodes = np.column_stack([np.linspace(0, 1, 33), np.zeros(33)])
        nodes[7, 0] = nodes[6, 0] + 1e-16
        with pytest.raises(DegenerateCurve):
            compute_geometry(DiscreteCurve(nodes))

    @settings(max_examples=15, deadline=None)
    @given(
        angle=st.floats(-math.pi, math.pi),
        tx=st.floats(-5.0, 5.0),
        ty=st.floats(-5.0, 5.0),
    )
    def test_rigid_motion_invariance(self, angle, tx, ty):
        base = make_initial_curve("flattened_sine", 64, amplitude=0.2)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        moved = DiscreteCurve(base.nodes @ rot.T + np.array([tx, ty]))
        k0 = compute_geometry(base).kappa
        k1 = compute_geometry(moved).kappa
        # the bound scales with the float quantization of the shifted input;
        # the one-sided endpoint rows amplify that quantization by 1/h^2
        scale = max(1.0, abs(tx), abs(ty))
        assert np.max(np.abs(k0 - k1)[1:-1]) < 3e-12 * scale
        assert np.max(np.abs(k0 - k1)) < 1e-10 * scale


class TestArclengthDerivative:
    def test_constant_field_any_order(self):
        cache = compute_geometry(make_initial_curve("flattened_sine", 64, amplitude=0.1))
        for order in range(1, 5):
            out = arclength_derivative(cache, np.full(65, 3.7), order)
            assert np.max(np.abs(out)) < 1e-9

    def test_identity_field_first_order(self):
        cache = compute_geometry(unit_speed_segment())
        out = arclength_derivative(cache, cache.s, 1)
        assert np.max(np.abs(out - 1.0)) < 1e-10

    def test_sine_second_derivative(self):
        for n in (64, 128):
            s = np.linspace(0.0, math.pi, n + 1)
            cache = compute_geometry(
                DiscreteCurve(np.column_stack([s, np.zeros_like(s)]))
            )
            d2 = arclength_derivative(cache, np.sin(s), 2)
            h = math.pi / n
            assert np.max(np.abs(d2 + np.sin(s))) <= h**2

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_monomial_exactness(self, order):
        cache = compute_geometry(unit_speed_segment())
        out = arclength_derivative(cache, cache.s**order, order)
        assert np.max(np.abs(out - math.factorial(order))) < 1e-6

    def test_length_mismatch_rejected(self):
        cache = compute_geometry(unit_speed_segment(n=64))
        with pytest.raises(ValueError):
            arclength_derivative(cache, np.zeros(12), 1)


class TestNotAKnotSpline:
    @pytest.mark.parametrize("grid", ["graded", "jittered"])
    def test_equals_scipy_cubic_spline(self, grid):
        from scipy.interpolate import CubicSpline

        from elastic_flow.geometry import _not_a_knot_spline

        rng = np.random.default_rng(11)
        n = 97
        if grid == "graded":
            seg = np.geomspace(1.0, 4.0, n)
        else:
            seg = 1.0 + rng.uniform(-0.3, 0.3, n)
        u = np.concatenate([[0.0], np.cumsum(seg)]) / seg.sum()
        y = np.column_stack([np.cos(3.0 * u), rng.normal(size=n + 1)])
        ref = CubicSpline(u, y, axis=0, bc_type="not-a-knot")
        spline = _not_a_knot_spline(u, y)
        for tau in (np.linspace(0.0, 1.0, 129), rng.uniform(0.0, 1.0, 200), u, 0.0, 1.0):
            assert np.array_equal(spline(tau), ref(tau))


class TestReparametrize:
    def test_uniform_input_returned_unchanged(self):
        c = make_initial_curve("segment", 64)
        assert reparametrize_constant_speed(c) is c

    def test_clustered_straight_nodes_stay_on_line(self):
        u = np.linspace(0.0, 1.0, 65) ** 2
        u[1:] = np.maximum(u[1:], 1e-4)
        nodes = np.column_stack([np.sort(u), np.zeros(65)])
        out = reparametrize_constant_speed(DiscreteCurve(nodes))
        assert np.max(np.abs(out.nodes[:, 1])) < 1e-12
        seg = np.linalg.norm(np.diff(out.nodes, axis=0), axis=1)
        assert np.max(np.abs(seg - seg.mean())) / seg.mean() < 1e-10

    def test_quarter_circle_radii(self):
        # oracle: arclength inversion on the circle keeps nodes at radius 1
        n = 128
        t = np.linspace(0.0, 1.0, n + 1) ** 2
        th = 0.5 * math.pi * t
        c = DiscreteCurve(np.column_stack([np.cos(th), np.sin(th)]))
        out = reparametrize_constant_speed(c)
        seg = np.linalg.norm(np.diff(out.nodes, axis=0), axis=1)
        assert np.max(np.abs(seg - seg.mean())) / seg.mean() < 1e-10
        h = 0.5 * math.pi / n
        assert np.max(np.abs(np.linalg.norm(out.nodes, axis=1) - 1.0)) <= h**2
        assert np.all(out.nodes[0] == c.nodes[0])
        assert np.all(out.nodes[-1] == c.nodes[-1])

    def test_idempotent(self):
        t = np.linspace(0.0, 1.0, 65) ** 1.5
        th = 0.5 * math.pi * np.sort(t)
        c = DiscreteCurve(np.column_stack([np.cos(th), np.sin(th)]))
        once = reparametrize_constant_speed(c)
        twice = reparametrize_constant_speed(once)
        assert np.max(np.linalg.norm(twice.nodes - once.nodes, axis=1)) < 1e-10


class TestInitialFamilies:
    def test_segment_is_straight(self):
        c = make_initial_curve("segment", 64, p=(0.0, 0.0), q=(1.0, 0.0))
        assert np.max(np.abs(c.nodes[:, 1])) == 0.0

    @pytest.mark.parametrize("family,params", [
        ("flattened_sine", {"amplitude": 0.1}),
        ("bump_perturbed_segment", {"amplitude": 0.1, "support": (0.3, 0.7)}),
        ("arc_with_flat_ends", {"turn_angle": 1.5}),
    ])
    def test_endpoint_curvature_compatibility(self, family, params):
        cache = compute_geometry(make_initial_curve(family, 128, **params))
        assert abs(cache.kappa[0]) <= 1e-8
        assert abs(cache.kappa[-1]) <= 1e-8

    def test_bump_curvature_vanishes_outside_support(self):
        n = 128
        c = make_initial_curve(
            "bump_perturbed_segment", n, amplitude=0.1, support=(0.3, 0.7)
        )
        kappa = compute_geometry(c).kappa
        pad = 4  # stencil width
        left = kappa[: int(0.3 * n) - pad]
        right = kappa[int(0.7 * n) + pad :]
        assert np.max(np.abs(left)) == 0.0
        assert np.max(np.abs(right)) == 0.0

    def test_arc_family_hits_requested_endpoints(self):
        c = make_initial_curve(
            "arc_with_flat_ends", 64, turn_angle=2.0, p=(1.0, 1.0), q=(3.0, 0.5)
        )
        assert np.allclose(c.nodes[0], (1.0, 1.0), atol=1e-14)
        assert np.allclose(c.nodes[-1], (3.0, 0.5), atol=1e-12)

    def test_loop_variant_turns_past_two_pi(self):
        c = make_initial_curve("arc_with_flat_ends", 128, turn_angle=2.5 * math.pi)
        cache = compute_geometry(c)
        turning = np.sum(cache.kappa[:-1] * np.diff(cache.s))
        assert turning > 2.0 * math.pi

    def test_bad_params(self):
        with pytest.raises(BadParams):
            make_initial_curve("segment", 8)
        with pytest.raises(BadParams):
            make_initial_curve("nonsense", 64)
        with pytest.raises(BadParams):
            make_initial_curve("segment", 64, p=(0, 0), q=(0, 0))
        with pytest.raises(BadParams):
            make_initial_curve("flattened_sine", 64, amplitude=99.0)
        with pytest.raises(BadParams):
            make_initial_curve("bump_perturbed_segment", 64, support=(0.0, 1.0))
        with pytest.raises(BadParams):
            make_initial_curve("flattened_sine", 64, amplitude=0.1, bogus=1)


def test_cache_exposes_curvature_derivative_rows():
    cache = compute_geometry(make_initial_curve("flattened_sine", 64, amplitude=0.1))
    assert cache.kappa_s.shape == (4, 65)
    assert np.array_equal(cache.kappa_s[0], arclength_derivative(cache, cache.kappa, 1))


def test_curvature_derivatives_computed_on_first_read():
    cache = compute_geometry(make_initial_curve("flattened_sine", 64, amplitude=0.1))
    assert "kappa_s" not in vars(cache)
    rows = cache.kappa_s
    assert cache.kappa_s is rows
