import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_flow import BadExponent, DiscreteCurve, compute_geometry, make_initial_curve, stencils
from elastic_flow.estimates import (
    _curve_block,
    _draw_blocks,
    _draw_curve,
    _draw_eps,
    _draw_field,
    _field_block,
    _growth_parts,
    _sample,
    boundary_residuals,
    calibrate_comparison_constant,
    calibrate_gn_general,
    calibrate_gn_specialized,
    comparison_check,
    dissipation_residual,
    endpoint_residuals,
    energy,
    gn_check,
    gn_corpus,
    gn_slacks,
    gn_specialized_slacks,
)
from elastic_flow.flow import FlowConfig, FlowState, run
from elastic_flow.gronwall import GronwallSetup


GN_CASES = ((0, 1, 4), (0, 2, 6), (1, 2, 2), (0, 1, math.inf))


def _lp(values, w, p):
    if p == math.inf:
        return float(np.max(np.abs(values)))
    return float(np.sum(w * np.abs(values) ** p) ** (1.0 / p))


def _d(cache, u, k):
    # the k-th arclength derivative of the field u on one curve's grid
    return stencils.derivative(u, cache.s, k, "one_sided")


def _u4(cache, u, const_c):
    # the u^4 specialized slack of one field on one curve
    return gn_specialized_slacks(_sample(cache, u, 1), "u4", const_c)[0]


def _u6(cache, u, const_c):
    return gn_specialized_slacks(_sample(cache, u, 2), "u6", const_c)[0]


def curvature_growth_rate(cache, eps):
    # the exact rate of d/dt int kappa^2 along the flow, by quadrature on one
    # curve, the reference of the blocked calibration:
    #     int (-2 (dk)^2 + k^4) + eps int (-4 (d2k)^2 - k^6 - 4 k^3 d2k)
    k = cache.kappa
    base, reg = _growth_parts(cache.ds, k, _d(cache, k, 1), _d(cache, k, 2))
    return float(base) + eps * float(reg)


def _frozen_random_curve(rng, n):
    # one random curve as it was drawn sample by sample before the corpora were
    # built in stacks, kept as the reference: the nodes and the mode count
    length = rng.uniform(0.5, 3.0)
    strength = 10.0 ** rng.uniform(-0.5, 0.9)
    modes = rng.integers(1, 5)
    amps = strength * rng.normal(0.0, 1.0, modes) / (1.0 + np.arange(modes)) ** 2
    sig = np.linspace(0.0, 1.0, 16 * n + 1)
    kappa = np.zeros_like(sig)
    for m, a in enumerate(amps, start=1):
        kappa += a * np.sin(m * np.pi * sig)
    theta = np.concatenate(
        [[0.0], np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(sig))]
    )
    vel = np.column_stack([np.cos(theta), np.sin(theta)])
    pos = np.vstack(
        [[0.0, 0.0], np.cumsum(0.5 * (vel[1:] + vel[:-1]) * np.diff(sig)[:, None], axis=0)]
    )
    return length * pos[::16], int(modes)


def _frozen_random_field(rng, n):
    # one random field as it was drawn sample by sample, kept as the reference
    sig = np.linspace(0.0, 1.0, n + 1)
    offset = rng.normal(0.0, 1.0)
    wiggle = 10.0 ** rng.uniform(-3.0, 0.5)
    u = np.full(n + 1, offset)
    for m in range(1, 6):
        a, b = wiggle * rng.normal(0.0, 1.0, 2) / (1.0 + m) ** 2
        u += a * np.cos(m * np.pi * sig) + b * np.sin(m * np.pi * sig)
    return u * 10.0 ** rng.uniform(-1.0, 1.0)


def _frozen_samples(seed, count, n, draw):
    # the per-sample loop: each sample's curve nodes, mode count and draw(rng)
    rng = np.random.default_rng(seed)
    return [(*_frozen_random_curve(rng, n), draw(rng)) for _ in range(count)]


def _frozen_field(n):
    return lambda rng: _frozen_random_field(rng, n)


def _frozen_eps(rng):
    return rng.uniform(0.0, 1.0) or 1.0


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _persample_gn_reference(seed, count, n=96):
    # the per-sample loop over geometry caches that the blocked corpus
    # replaced, kept as the reference: the doubled calibrated constants, then
    # every sample's slacks under them
    samples = []
    for nodes, _, u in _frozen_samples(seed, count, n, _frozen_field(n)):
        cache = compute_geometry(DiscreteCurve(nodes))
        w, L = cache.ds, cache.total_length
        d = (u, _d(cache, u, 1), _d(cache, u, 2))
        sums = [float(np.sum(w * x)) for x in (u**2, u**4, u**6, d[1] ** 2, d[2] ** 2)]
        norms = {case: (_lp(d[case[0]], w, case[2]), _lp(d[case[1]], w, 2), _lp(u, w, 2)) for case in GN_CASES}
        samples.append((L, *sums, norms))
    consts = {"u4": 0.0, "u6": 0.0, **{case: 0.0 for case in GN_CASES}}
    for L, i_u2, i_u4, i_u6, i_du2, i_d2u2, norms in samples:
        for kind, excess, denom in (
            ("u4", i_u4 - i_du2, i_u2**3 + i_u2**2 / L),
            ("u6", i_u6 - i_d2u2, i_u2**5 + i_u2**3 / L**2),
        ):
            if excess > 0.0 and denom > 0.0:
                consts[kind] = max(consts[kind], excess / denom)
        for (n_ord, j_ord, p), (lhs, uj2, u2) in norms.items():
            sigma = (n_ord + 0.5 - (0.0 if p == math.inf else 1.0 / p)) / j_ord
            denom = uj2**sigma * u2 ** (1.0 - sigma) + u2 / L ** (j_ord * sigma)
            if denom > 0.0:
                consts[n_ord, j_ord, p] = max(consts[n_ord, j_ord, p], lhs / denom)
    consts = {key: 2.0 * c for key, c in consts.items()}
    slacks = {key: [] for key in consts}
    for L, i_u2, i_u4, i_u6, i_du2, i_d2u2, norms in samples:
        c4, c6 = consts["u4"], consts["u6"]
        slacks["u4"].append(i_du2 + c4 * i_u2**3 + c4 / L * i_u2**2 - i_u4)
        slacks["u6"].append(i_d2u2 + c6 * i_u2**5 + c6 / L**2 * i_u2**3 - i_u6)
        for (n_ord, j_ord, p), (lhs, uj2, u2) in norms.items():
            c = consts[n_ord, j_ord, p]
            sigma = (n_ord + 0.5 - (0.0 if p == math.inf else 1.0 / p)) / j_ord
            rhs = c * uj2**sigma * u2 ** (1.0 - sigma) + c / L ** (j_ord * sigma) * u2
            slacks[n_ord, j_ord, p].append(rhs - lhs)
    return consts, slacks


def circle_arc_state(n, r, eps):
    # an open arc of the circle of radius r, spanning 1.5 pi in n equal chords
    th = np.linspace(0.0, 1.5 * np.pi, n + 1)
    curve = DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    return FlowState.from_curve(curve, eps)


def unit_speed_cache(length=1.0, n=128):
    s = np.linspace(0.0, length, n + 1)
    return compute_geometry(DiscreteCurve(np.column_stack([s, np.zeros_like(s)])))


class TestEnergy:
    def test_segment_energy_equals_length(self):
        st = FlowState.from_curve(make_initial_curve("segment", 64), 0.7)
        assert energy(st) == pytest.approx(1.0, abs=1e-15)

    def test_circle_energy_value(self):
        # L + eps (1/r^2) L with the arc length L = 1.5 pi r, r = 2, eps = 1/4
        st = circle_arc_state(256, 2.0, 0.25)
        expected = 3.0 * math.pi + 0.25 * 0.25 * 3.0 * math.pi
        h = 3.0 * math.pi / 256
        assert energy(st) == pytest.approx(expected, abs=h**2)

    def test_eps_zero_energy_is_length(self):
        st = FlowState.from_curve(
            make_initial_curve("flattened_sine", 64, amplitude=0.2), 0.0
        )
        assert energy(st) == pytest.approx(st.cache.total_length, abs=1e-12)


class TestDissipation:
    def test_stationary_segment_residual_vanishes(self):
        traj = run(
            make_initial_curve("segment", 64),
            FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=5e-3),
        )
        assert dissipation_residual(traj, 2) < 1e-12

    def test_residual_refines_with_dt(self):
        fs = make_initial_curve("flattened_sine", 128, amplitude=0.05)
        t_star = 0.05
        res = []
        for dt in (1e-4, 5e-5):
            traj = run(fs, FlowConfig(epsilon=0.1, n=128, dt=dt, t_end=t_star + 2 * dt))
            res.append(dissipation_residual(traj, round(t_star / dt)))
        assert math.log2(res[0] / res[1]) >= 0.9

    def test_eps_zero_length_dissipation(self):
        # d(length)/dt = -int kappa^2 when eps = 0
        fs = make_initial_curve("flattened_sine", 128, amplitude=0.05)
        traj = run(fs, FlowConfig(epsilon=0.0, n=128, dt=1e-4, t_end=0.02))
        k = 100
        recs = traj.diagnostics
        dldt = (recs[k + 1].length - recs[k - 1].length) / (2e-4)
        assert abs(dldt + recs[k].kappa_l2_sq[0]) < 1e-4


class TestBoundaryResiduals:
    def test_compatible_initial_data_j0(self):
        cache = compute_geometry(make_initial_curve("flattened_sine", 128, amplitude=0.1))
        assert np.abs(cache.kappa[[0, -1]]).max() <= 1e-8

    def test_nonuniform_grid_rejected(self):
        # the raw graph-parametrized sine has unequal chords
        cache = compute_geometry(make_initial_curve("flattened_sine", 64, amplitude=0.1))
        assert not cache.uniform
        with pytest.raises(ValueError, match="uniform grid"):
            boundary_residuals(cache)

    @pytest.fixture(scope="class")
    def doubled(self):
        # the residuals at t = 0.05 of one sine run at n = 128 and at n = 256
        vals = {}
        for n, dt in ((128, 1e-4), (256, 2.5e-5)):
            fs = make_initial_curve("flattened_sine", n, amplitude=0.05)
            traj = run(fs, FlowConfig(epsilon=0.1, n=n, dt=dt, t_end=0.05))
            vals[n] = boundary_residuals(traj.states[-1])
        return vals

    def test_j2_refines_under_doubling(self, doubled):
        ratios = doubled[128][1] / doubled[256][1]
        assert np.all(ratios >= 3.0)

    def test_j4_stays_bounded_under_doubling(self, doubled):
        assert np.all(doubled[256][2] <= doubled[128][2])

    def test_stacked_rows_equal_one_row_at_a_time(self):
        # reference: per-row weights applied with `w @ x`, the order `run`'s
        # records were computed in one state at a time
        from elastic_flow import stencils

        rng = np.random.default_rng(3)
        kappa = rng.normal(size=(40, 65)) * rng.uniform(0.01, 100.0, size=(40, 1))
        spacings = rng.uniform(0.5, 3.0, size=40).tolist()
        assert len(set(spacings)) == 40
        spacings = [length / 64 for length in spacings]
        got = endpoint_residuals(kappa, spacings)
        for i, (k, h) in enumerate(zip(kappa, spacings)):
            want = np.empty((3, 2))
            want[0] = abs(k[0]), abs(k[-1])
            for row, (order, width) in enumerate(((2, 4), (4, 5)), start=1):
                w = stencils.one_sided_weights(order, width, 0) / h**order
                want[row] = abs(w @ k[:width]), abs(w @ k[-width:][::-1])
            assert np.array_equal(got[i], want), i


class TestGNInequalities:
    def test_zero_field_slack_zero(self):
        cache = unit_speed_cache()
        u = np.zeros(129)
        assert gn_check(cache, u, 0, 1, 4, 1.0, 1.0) == 0.0
        assert _u4(cache, u, 1.0) == 0.0
        assert _u6(cache, u, 1.0) == 0.0

    def test_constant_field_needs_b_at_least_one(self):
        # L = 1, u = 1: LHS = 1 and only the B-term survives
        cache = unit_speed_cache(length=1.0)
        u = np.ones(129)
        assert gn_check(cache, u, 0, 1, 4, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert gn_check(cache, u, 0, 1, 4, 1.0, 1.2) > 0.0
        assert gn_check(cache, u, 0, 1, 4, 1.0, 0.8) < 0.0

    def test_constant_field_u4_holds_for_c_at_least_one(self):
        cache = unit_speed_cache(length=1.0)
        for c in (0.5, 1.5, 3.0):
            u = np.full(129, c)
            # int u^4 = c^4 vs C (c^6 + c^4): C = 1 suffices
            assert _u4(cache, u, 1.0) >= -1e-12

    def test_sine_u6_with_unit_constant(self):
        cache = unit_speed_cache(length=1.0)
        u = np.sin(2.0 * np.pi * cache.s)
        # the second-derivative term alone dominates int u^6
        assert _u6(cache, u, 1.0) > 0.0

    def test_bad_exponent(self):
        cache = unit_speed_cache()
        u = np.ones(129)
        with pytest.raises(BadExponent):
            gn_check(cache, u, 1, 1, 4, 1.0, 1.0)
        with pytest.raises(BadExponent):
            gn_check(cache, u, 0, 1, 1.5, 1.0, 1.0)

    def test_calibrated_constants_hold_on_fresh_samples(self):
        corpus = gn_corpus(seed=11, count=200)
        c4 = 2.0 * calibrate_gn_specialized(corpus, "u4")
        c6 = 2.0 * calibrate_gn_specialized(corpus, "u6")
        cg = 2.0 * calibrate_gn_general(corpus, 0, 1, 4)
        rng = np.random.default_rng(12)
        for _ in range(300):
            cache = compute_geometry(DiscreteCurve(_curve_block(96, [_draw_curve(rng)])[0]))
            u = _field_block(96, [_draw_field(rng)])[0]
            assert _u4(cache, u, c4) >= 0.0
            assert _u6(cache, u, c6) >= 0.0
            assert gn_check(cache, u, 0, 1, 4, cg, cg) >= 0.0

    def test_blocked_corpus_matches_the_per_sample_loop_bit_for_bit(self):
        corpus = gn_corpus(seed=11, count=200)
        assert [block.length.size for block in corpus] == [32] * 6 + [8]
        consts, slacks = _persample_gn_reference(11, 200)
        got = {kind: 2.0 * calibrate_gn_specialized(corpus, kind) for kind in ("u4", "u6")}
        got.update({case: 2.0 * calibrate_gn_general(corpus, *case) for case in GN_CASES})
        assert got == consts
        for kind in ("u4", "u6"):
            assert [x for b in corpus for x in gn_specialized_slacks(b, kind, consts[kind])] == slacks[kind]
        for case in GN_CASES:
            c = consts[case]
            assert [x for b in corpus for x in gn_slacks(b, *case, c, c)] == slacks[case]

    def test_evolved_curvature_satisfies_u4(self):
        corpus = gn_corpus(seed=11, count=200)
        c4 = 2.0 * calibrate_gn_specialized(corpus, "u4")
        fs = make_initial_curve("flattened_sine", 128, amplitude=0.05)
        traj = run(fs, FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.02))
        st = traj.states[-1]
        assert _u4(st.cache, st.cache.kappa, c4) >= 0.0


class TestStackedDraws:
    # criterion 8 draws fields (1,200 samples a seed), criterion 10 eps (200);
    # counts 1, 33 and 200 end in a partial block
    @pytest.mark.parametrize(
        "kind, seed, count",
        [("field", seed, 1200) for seed in range(10)]
        + [("eps", seed, 200) for seed in range(10)]
        + [(kind, 3, count) for kind in ("field", "eps") for count in (1, 33)],
    )
    def test_draws_match_the_frozen_per_sample_code_bit_for_bit(self, kind, seed, count):
        draw, frozen = {"field": (_draw_field, _frozen_field(96)), "eps": (_draw_eps, _frozen_eps)}[kind]
        want = _frozen_samples(seed, count, 96, frozen)
        got = []
        for nodes, draws, _ in _draw_blocks(seed, count, draw):
            values = _field_block(96, draws) if draw is _draw_field else draws
            got += [(_bits(x), _bits(v)) for x, v in zip(nodes, values)]
        assert got == [(_bits(x), _bits(v)) for x, _, v in want]
        # every full block stacks curves of 1, 2, 3 and 4 modes
        modes = [m for _, m, _ in want]
        assert all({1, 2, 3, 4} <= set(modes[i : i + 32]) for i in range(0, count // 32 * 32, 32))

    def test_single_draws_match_the_frozen_per_sample_code_bit_for_bit(self):
        for n in (16, 96, 128):
            mine, frozen = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(20):
                assert _bits(_curve_block(n, [_draw_curve(mine)])[0]) == _bits(_frozen_random_curve(frozen, n)[0])
                assert _bits(_field_block(n, [_draw_field(mine)])[0]) == _bits(_frozen_random_field(frozen, n))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 70))
    # blocks of 32, 32 and 6 samples, each full one mixing 1 to 4 modes
    @example(seed=0, count=70)
    def test_corpus_matches_the_frozen_per_sample_loop(self, seed, count):
        rows = [
            (_bits(b.ds[i]), float(b.length[i]), *(_bits(d[i]) for d in b.d))
            for b in gn_corpus(seed, count)
            for i in range(b.length.size)
        ]
        want = []
        for nodes, _, u in _frozen_samples(seed, count, 96, _frozen_field(96)):
            cache = compute_geometry(DiscreteCurve(nodes))
            d = (u, *(_d(cache, u, k) for k in (1, 2)))
            want.append((_bits(cache.ds), cache.total_length, *map(_bits, d)))
        assert rows == want


class TestComparison:
    def test_stationary_segment_always_below_majorant(self):
        traj = run(
            make_initial_curve("segment", 64),
            FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.01),
        )
        setup = GronwallSetup(g0=1e-6, coeff_C=1.0, t_max_query=0.01)
        ok, margin = comparison_check(traj, setup)
        assert ok and margin >= 0.0

    def test_benchmark_run_with_calibrated_constant(self):
        coeff = 2.0 * calibrate_comparison_constant(seed=5)
        fs = make_initial_curve("flattened_sine", 128, amplitude=0.05)
        traj = run(fs, FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.05))
        g0 = traj.diagnostics[0].kappa_l2_sq[0]
        setup = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=0.05)
        ok, margin = comparison_check(traj, setup)
        assert ok and margin > 0.0

    def test_blocked_calibration_matches_the_per_sample_loop_bit_for_bit(self):
        # the per-sample loop over geometry caches, kept as the reference
        worst = 0.0
        for nodes, _, eps in _frozen_samples(5, 200, 96, _frozen_eps):
            cache = compute_geometry(DiscreteCurve(nodes))
            rate = curvature_growth_rate(cache, eps)
            p = float(np.sum(cache.ds * cache.kappa**2))
            if rate > 0.0:
                worst = max(worst, rate / (p**5 + p**3 + p**2))
        assert calibrate_comparison_constant(seed=5) == worst

    def test_flat_majorant_fails_when_curvature_grows(self):
        # strong hook: int kappa^4 beats the gradient term initially, so
        # int kappa^2 grows and a constant majorant must be violated
        hook = make_initial_curve("arc_with_flat_ends", 128, turn_angle=2.2 * math.pi)
        traj = run(
            hook,
            FlowConfig(
                epsilon=0.0, n=128, dt=2.5e-5, t_end=2.5e-3, kappa_blowup_threshold=1e9
            ),
        )
        g0 = traj.diagnostics[0].kappa_l2_sq[0]
        measured = np.array([r.kappa_l2_sq[0] for r in traj.diagnostics])
        assert measured.max() > g0  # the premise of the negative control
        setup = GronwallSetup(g0=g0, coeff_C=0.0, t_max_query=2.5e-3)
        ok, margin = comparison_check(traj, setup)
        assert not ok and margin < 0.0

    def test_growth_rate_matches_finite_difference(self):
        # oracle: difference the measured int kappa^2 along a short run
        dt = 5e-5
        fs = make_initial_curve("flattened_sine", 128, amplitude=0.05)
        traj = run(
            fs,
            FlowConfig(epsilon=0.1, n=128, dt=dt, t_end=0.02),
            snapshot_times=[0.01],
        )
        k = round(0.01 / dt)
        recs = traj.diagnostics
        measured = (recs[k + 1].kappa_l2_sq[0] - recs[k - 1].kappa_l2_sq[0]) / (2 * dt)
        predicted = curvature_growth_rate(traj.state_at(0.01).cache, 0.1)
        assert abs(measured - predicted) <= 5e-3 * max(1.0, abs(predicted))


class TestUniformVelocityBounds:
    def test_common_bound_across_epsilon_ladder(self):
        fs = make_initial_curve("flattened_sine", 64, amplitude=0.05)
        sups_E, sups_lam = [], []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            traj = run(fs, FlowConfig(epsilon=eps, n=64, dt=1e-4, t_end=0.02))
            sups_E.append(max(r.max_abs_E for r in traj.diagnostics))
            sups_lam.append(max(r.max_abs_lambda for r in traj.diagnostics))
        assert max(sups_E) <= 10.0 * max(sups_E[0], 1e-6)
        assert max(sups_lam) <= 10.0 * max(sups_lam[0], 1e-6)
