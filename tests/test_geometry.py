import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_flow import (
    BadParams,
    CurveError,
    DegenerateCurve,
    DiscreteCurve,
    compute_geometry,
    make_initial_curve,
    reparametrize_constant_speed,
)
from elastic_flow import stencils
from elastic_flow.geometry import (
    _even_split,
    _open_position_derivs,
    chord_lengths,
    curve_failures,
    grid_failures,
    open_geometry,
    stacked_grids,
)
from conftest import cache_field


def circle(n, r=2.0, grade=0.0):
    # an open arc of the circle of radius r, spanning 1.5 pi; a nonzero grade
    # samples it unevenly
    v = np.linspace(0.0, 1.0, n + 1)
    th = 1.5 * np.pi * (v + grade * np.sin(2.0 * np.pi * v))
    return DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def arclength_derivative(cache, values, order):
    # d^order/ds^order of a per-node field on one curve's arclength grid
    return stencils.derivative(values, cache.s, order, "one_sided")


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

    @pytest.mark.parametrize(
        "size, row, col, value, error",
        [
            (10, 0, 0, 0.0, BadParams),  # too few nodes
            (33, 5, 0, 4 / 32, DegenerateCurve),  # coincident with node 4
            (33, 3, 1, np.nan, BadParams),
            (33, 7, 0, 6 / 32 + 1e-16, DegenerateCurve),  # below 1e-14 of the length
        ],
    )
    def test_stacked_grids_refuse_what_a_curve_and_its_geometry_refuse(self, size, row, col, value, error):
        good = np.column_stack([np.linspace(0, 1, size), np.zeros(size)])
        bad = good.copy()
        bad[row, col] = value
        with pytest.raises(error):
            compute_geometry(DiscreteCurve(bad))
        stack = np.array([good, bad, good])
        with pytest.raises(error):
            stacked_grids(stack)

        def alone(nodes):
            # what one curve and its geometry raise, as (type, message)
            try:
                compute_geometry(DiscreteCurve(nodes))
            except CurveError as exc:
                return type(exc), str(exc)
            return None

        # the stacked checks name each row's exception; a grid is checked
        # only on a valid curve
        seg = chord_lengths(stack)
        found = {**grid_failures(seg, np.add.reduce(seg, axis=-1)), **curve_failures(stack, seg)}
        got = [(type(found[j]), str(found[j])) if j in found else None for j in range(3)]
        assert got == [alone(x) for x in stack]
        assert got[1][0] is error

    def test_stacked_checks_name_every_failing_row(self):
        nodes = np.repeat(np.column_stack([np.linspace(0, 1, 33), np.zeros(33)])[None], 5, axis=0)
        nodes[1, 3, 1] = np.inf
        nodes[2, 5] = nodes[2, 4]
        nodes[3, 7, 0] = nodes[3, 6, 0] + 1e-16
        seg = chord_lengths(nodes)
        bad = curve_failures(nodes, seg)
        assert {j: type(exc) for j, exc in bad.items()} == {1: BadParams, 2: DegenerateCurve}
        # the grids of the finite rows 0, 2, 3 and 4: a coincident node is
        # also a segment below 1e-14 of the length
        finite = seg[[0, 2, 3, 4]]
        assert sorted(grid_failures(finite, np.add.reduce(finite, axis=-1))) == [1, 2]
        with pytest.raises(BadParams, match="finite"):
            stacked_grids(nodes)
        with pytest.raises(DegenerateCurve, match="1e-14"):
            stacked_grids(nodes[[0, 3, 4]])
        assert curve_failures(nodes[[0, 4]], seg[[0, 4]]) == {}

    def test_endpoints_are_first_and_last_nodes(self):
        c = make_initial_curve("flattened_sine", 64, amplitude=0.1)
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
        # the measurable O(h^2) slope is taken on a graded sampling of the arc
        errs = []
        for n in (64, 128, 256):
            cache = compute_geometry(circle(n, r=2.0, grade=0.05))
            errs.append(max(np.max(np.abs(cache.kappa - 0.5)), 1e-13))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(s >= 1.8 or errs[i + 1] < 1e-11 for i, s in enumerate(slopes))

    def test_ellipse_convergence_order_window(self):
        errs = []
        for n in (64, 128, 256, 512):
            # an open arc of the ellipse, spanning 1.5 pi of its parameter
            th = 1.5 * np.pi * np.linspace(0.0, 1.0, n + 1)
            c = DiscreteCurve(np.column_stack([1.5 * np.cos(th), np.sin(th)]))
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
        # the stored normal is a unit vector, orthogonal at each interior node
        # to the central chord c = x[i+1] - x[i-1] up to O(h^2), and on its
        # left: cross(c, normal) > 0
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.3)
        cache = compute_geometry(curve)
        assert np.max(np.abs(np.linalg.norm(cache.normal, axis=1) - 1.0)) < 1e-12
        chord = curve.nodes[2:] - curve.nodes[:-2]
        chord /= np.linalg.norm(chord, axis=1)[:, None]
        normal = cache.normal[1:-1]
        assert np.max(np.abs(np.sum(normal * chord, axis=1))) < 1e-3
        assert np.min(chord[:, 0] * normal[:, 1] - chord[:, 1] * normal[:, 0]) > 0.0

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
            res.append(np.max(np.abs(dnu + cache.kappa[:, None] * cache_field(cache, "tangent"))))
        assert res[0] > res[1] > res[2]
        assert math.log2(res[0] / res[2]) / 2.0 >= 1.6

    def test_stack_rows_equal_each_curve_alone(self):
        # raw (nonuniform) and constant-speed curves in one stack: each row
        # holds the bits of its curve's own geometry
        curves = [
            make_initial_curve("flattened_sine", 64, amplitude=0.3),
            reparametrize_constant_speed(make_initial_curve("arc_with_flat_ends", 64, turn_angle=3.0)),
            make_initial_curve("bump_perturbed_segment", 64, amplitude=0.6),
            make_initial_curve("segment", 64, q=(2.0, 1.0)),
        ]
        nodes = np.array([c.nodes for c in curves])
        seg, total, _, _ = stacked_grids(nodes)
        geo = open_geometry(nodes, seg, total)
        assert geo.uniform.tolist() == [False, True, False, True]
        names = ("nodes", "segments", "total_length", "s", "ds", "tangent", "normal", "kappa")
        for j, curve in enumerate(curves):
            want, got = compute_geometry(curve), geo[j]
            assert got.uniform == want.uniform
            for name in names:
                assert _bits(cache_field(got, name)) == _bits(cache_field(want, name)), (j, name)
        # a list of rows is a stack of them, repeats allowed, and None makes
        # one curve's data a stack of one
        picked = geo[[3, 0, 3]]
        assert picked.uniform.tolist() == [True, False, True]
        one = geo[1][None]
        assert one.uniform.tolist() == [True]
        for name in names:
            assert _bits(cache_field(picked, name)[1]) == _bits(cache_field(geo, name)[0]), name
            assert _bits(cache_field(one, name)[0]) == _bits(cache_field(geo, name)[1]), name

    def test_uniform_is_indexed_like_the_other_fields(self):
        # a raw and a constant-speed sine: None, an int and a list of ints
        # index the flags as they index the arrays
        sine = make_initial_curve("flattened_sine", 64, amplitude=0.3)
        nodes = np.array([sine.nodes, reparametrize_constant_speed(sine).nodes])
        geo = open_geometry(nodes, *stacked_grids(nodes)[:2])
        for picked, want in ((geo[0], False), (geo[1], True), (geo[1][None], [True]), (geo[[1, 1]], [True, True])):
            assert picked.uniform.dtype == bool and np.array_equal(picked.uniform, want)
            for name in ("total_length", "s", "nodes", "normal", "kappa"):
                # the row axes: the field's shape without its per-curve axes
                shape, per_curve = getattr(picked, name).shape, getattr(geo, name).ndim - 1
                assert shape[: len(shape) - per_curve] == picked.uniform.shape, name

    def test_raw_end_windows_repeat_one_stencil_per_window(self):
        # the end rows of a stack of nonuniform grids, bit for bit against
        # `fd_weights @ differences` one window at a time
        nodes = np.array([
            make_initial_curve(family, 64, **params).nodes
            for family, params in (
                ("flattened_sine", {"amplitude": 0.3}),
                ("arc_with_flat_ends", {"turn_angle": 3.0}),
                ("bump_perturbed_segment", {"amplitude": 0.6}),
            )
        ])
        _, total, s, _ = stacked_grids(nodes)
        d1, d2 = _open_position_derivs(nodes, s, total, np.zeros(len(nodes), dtype=bool))
        for r, (x, t) in enumerate(zip(nodes, s)):
            for order, width, d in ((1, 3, d1), (2, 8, d2)):
                for i, sl in ((0, slice(0, width)), (64, slice(65 - width, 65))):
                    want = stencils.fd_weights(t[sl], t[i], order) @ (x[sl] - x[i])
                    assert np.array_equal(d[r, i].view(np.uint64), want.view(np.uint64)), (r, order, i)

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
        # a stack of this curve, a second one on uniform knots and a third on
        # knots clustered at the start
        knots = np.stack([u, np.linspace(0.0, 1.0, n + 1), u**2])
        ys = np.stack([y, y[::-1], np.column_stack([np.sin(5.0 * u), -2.0 * y[:, 1]])])
        spline = _not_a_knot_spline(knots, ys)
        for row in (0, 1, 2):
            ref = CubicSpline(knots[row], ys[row], axis=0, bc_type="not-a-knot")
            for tau in (np.linspace(0.0, 1.0, 129), rng.uniform(0.0, 1.0, 200), u, 0.0, 1.0):
                want = ref(tau)
                got = spline(np.atleast_1d(tau)[None], np.array([row]))[0]
                assert np.array_equal(got.reshape(want.shape), want)

    @pytest.mark.parametrize("width", [1, 2])
    def test_any_width_equals_scipy_cubic_spline_bit_for_bit(self, width):
        # width 1 as criterion 7 resamples curvature along arclength, against
        # the 1-D CubicSpline; width 2 as a curve's nodes, along axis 0
        from scipy.interpolate import CubicSpline

        from elastic_flow.geometry import _not_a_knot_spline

        rng = np.random.default_rng(13)
        n = 80
        knots = np.cumsum(np.concatenate([np.zeros((2, 1)), rng.uniform(0.5, 1.5, (2, n))], axis=1), axis=1)
        ys = np.stack([np.sin(3.0 * knots[0]), rng.normal(size=n + 1)])
        ys = ys[..., None] if width == 1 else np.stack([ys, ys[:, ::-1] ** 3], axis=-1)
        tau = np.stack([np.concatenate([k[[0, -1]], np.sort(rng.uniform(k[0], k[-1], 95))]) for k in knots])
        got = _not_a_knot_spline(knots, ys)(tau, np.arange(2))
        assert got.shape == (2, 97, width)
        for row in (0, 1):
            y = ys[row, :, 0] if width == 1 else ys[row]
            want = CubicSpline(knots[row], y, axis=0, bc_type="not-a-knot")(tau[row])
            assert _bits(got[row].reshape(want.shape)) == _bits(want)

    @pytest.mark.parametrize("at", [1, 40])
    def test_repeated_knot_stays_in_its_row(self, at):
        # a repeated knot gives its row a zero pivot (knot 1) or a NaN slope
        # (knot 40); the other rows' splines are the ones they get alone
        from elastic_flow.geometry import _not_a_knot_spline

        rng = np.random.default_rng(5)
        n = 64
        knots = np.sort(rng.uniform(0.0, 1.0, (3, n + 1)), axis=1)
        knots[:, 0], knots[:, -1] = 0.0, 1.0
        knots[1, at + 1] = knots[1, at]
        ys = rng.normal(size=(3, n + 1, 2))
        ys[1, at + 1] = ys[1, at]
        tau = np.linspace(0.0, 1.0, 129)[None]
        with np.errstate(divide="ignore", invalid="ignore"):
            spline = _not_a_knot_spline(knots, ys)
        for row in (0, 2):
            alone = _not_a_knot_spline(knots[[row]], ys[[row]])
            assert spline(tau, np.array([row])).tobytes() == alone(tau, np.array([0])).tobytes()


class TestReparametrize:
    @settings(max_examples=200, deadline=None)
    @given(
        totals=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=1, max_size=6),
        n=st.integers(1, 1024),
    )
    def test_chord_targets_equal_linspace_bit_for_bit(self, totals, n):
        got = _even_split(np.array(totals), n)
        for row, total in zip(got, totals, strict=True):
            assert _bits(row) == _bits(np.linspace(0.0, total, n + 1))
        if 0.0 not in totals:
            # the whole stack in one call
            assert _bits(got) == _bits(np.linspace(0.0, np.array(totals), n + 1, axis=-1))

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

    @pytest.mark.parametrize("family,params,message", [
        ("segment", {"q": (math.inf, 0.0)}, "qx: endpoints must have finite coordinates"),
        ("flattened_sine", {"p": (math.nan, 0.0)}, "px: endpoints must have finite coordinates"),
        ("bump_perturbed_segment", {"q": (1.0, -math.inf)}, "qy: endpoints must have finite coordinates"),
        ("arc_with_flat_ends", {"turn_angle": math.nan}, "turn_angle: turn angle outside"),
        ("arc_with_flat_ends", {"turn_angle": -math.inf}, "turn_angle: turn angle outside"),
        ("flattened_sine", {"amplitude": math.nan}, "amplitude: amplitude outside"),
        ("bump_perturbed_segment", {"amplitude": math.inf}, "amplitude: amplitude outside"),
        ("bump_perturbed_segment", {"support": (0.3, math.nan)}, "support_hi: support must satisfy"),
        # finite, but the squared distance overflows
        ("flattened_sine", {"p": (0.0, 1e200)}, "py: endpoints too far apart"),
        # a finite distance, but the bump's steepest chords overflow when squared
        ("bump_perturbed_segment", {"q": (1.3e154, 0.0), "amplitude": 2.6e154, "support": (0.3, 0.4)},
         "qx: endpoints give chords of zero or non-finite length"),
        # nodes 0.5 apart round onto a grid of spacing 2
        ("segment", {"p": (1e16, 0.0), "q": (1e16 + 32.0, 0.0)}, "qx: endpoints give chords of zero"),
    ])
    def test_non_finite_params_refused_without_warning(self, family, params, message):
        # a numpy warning on the way would fail under the suite's error filter
        with pytest.raises(BadParams, match=message):
            make_initial_curve(family, 64, **params)
