import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_flow import OutOfDomain, gronwall
from elastic_flow.gronwall import (
    BLOWUP_CAP,
    GronwallSetup,
    comparison_margin,
    doubling_time,
    gronwall_solve,
)


def _inverse(sol, level):
    """The time at which `sol` reaches `level`: t_k plus the integral of 1/Z from g_k."""
    k = int(np.clip(np.searchsorted(sol.gs, level) - 1, 0, sol.gs.size - 2))
    return float(sol.ts[k] + gronwall._integral(sol.law, sol.gs[k], level))


class TestGronwallSolve:
    def test_exponential_law_closed_form(self):
        # Z(p) = p: g(t) = g0 exp(t)
        setup = GronwallSetup(g0=0.7, coeff_C=1.0, t_max_query=5.0)
        sol = gronwall_solve(setup, law=lambda p: p)
        ts = np.linspace(0.0, 5.0, 37)
        exact = 0.7 * np.exp(ts)
        assert np.max(np.abs(sol(ts) - exact) / exact) < 1e-9

    def test_quadratic_law_closed_form_and_blowup(self):
        # Z(p) = p^2, g0 = 1: g(t) = 1/(1-t), blow-up at t = 1
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=10.0)
        sol = gronwall_solve(setup, law=lambda p: p * p)
        ts = np.linspace(0.0, 0.9, 19)
        exact = 1.0 / (1.0 - ts)
        assert np.max(np.abs(sol(ts) - exact) / exact) < 1e-6
        assert sol.blow_up_time == pytest.approx(1.0, abs=1e-6)

    def test_strictly_increasing(self):
        for law in (lambda p: p, lambda p: p * p, None):
            setup = GronwallSetup(g0=0.5, coeff_C=2.0, t_max_query=3.0)
            sol = gronwall_solve(setup, law=law)
            assert np.all(np.diff(sol.gs) > 0.0)

    def test_ode_residual_at_nodes(self):
        setup = GronwallSetup(g0=0.3, coeff_C=1.5, t_max_query=10.0)
        sol = gronwall_solve(setup)
        zg = np.array([sol.law(g) for g in sol.gs])
        assert np.max(np.abs(sol.fs - zg) / (1.0 + np.abs(zg))) <= 1e-9

    def test_inverse_round_trip_up_to_the_last_node(self):
        # near blow-up the steps in t shrink to a few ulps of t; the nodes
        # end before their Hermite intervals get that narrow
        sol = gronwall_solve(GronwallSetup(g0=0.3, coeff_C=1.5, t_max_query=10.0))
        levels = np.geomspace(sol.gs[0], sol.gs[-1], 400)
        err = max(abs(sol(_inverse(sol, g)) - g) / g for g in levels)
        assert err <= 1e-6

    def test_default_law_blows_up(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=100.0)
        sol = gronwall_solve(setup)
        assert sol.blow_up_time is not None
        assert 0.0 < sol.blow_up_time < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([2, 3, 5]),
        g0=st.floats(0.05, 2.0),
        coeff=st.floats(0.2, 3.0),
    )
    def test_power_law_closed_form(self, k, g0, coeff):
        # Z(p) = C p^k: g(t) = (g0^{1-k} - C (k-1) t)^{1/(1-k)}, blow-up at T*
        t_star = g0 ** (1 - k) / (coeff * (k - 1))
        law = lambda p: coeff * p**k
        setup = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=2.0 * t_star)
        sol = gronwall_solve(setup, law=law)
        ts = np.linspace(0.0, 0.9 * t_star, 31)
        exact = (g0 ** (1 - k) - coeff * (k - 1) * ts) ** (1.0 / (1 - k))
        assert np.max(np.abs(sol(ts) - exact) / exact) < 1e-6
        assert sol.blow_up_time == pytest.approx(t_star, rel=1e-9)
        assert np.all(np.diff(sol.ts) > 0.0)
        assert np.array_equal(sol.fs, law(sol.gs))

    def test_ends_exactly_at_the_query_horizon(self):
        # no blow-up before t_max_query: the last node sits on it
        for law, g0, t_max in ((lambda p: p, 0.7, 5.0), (lambda p: p * p, 1.0, 0.9), (None, 0.3, 0.1)):
            setup = GronwallSetup(g0=g0, coeff_C=1.5, t_max_query=t_max)
            sol = gronwall_solve(setup, law=law)
            assert sol.blow_up_time is None
            assert sol.t_end == t_max
            assert float(sol(t_max)) == pytest.approx(sol.gs[-1], rel=1e-15)

    def test_written_out_rule_is_numpys(self):
        x, w = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(gronwall._GL_X, x) and np.array_equal(gronwall._GL_W, w)

    def test_domain_guard(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=1.0)
        sol = gronwall_solve(setup, law=lambda p: p)
        with pytest.raises(OutOfDomain):
            sol(2.0)

    @pytest.mark.parametrize("t", [math.nan, [0.01, math.nan]])
    def test_nan_time_is_out_of_domain(self, t):
        sol = gronwall_solve(GronwallSetup(g0=0.5, coeff_C=1.0, t_max_query=0.1))
        with pytest.raises(OutOfDomain):
            sol(t)


class TestDoublingTime:
    def test_exponential_law_constant_theta(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=10.0)
        for s in (0.25, 1.0, 6.0):
            theta = doubling_time(setup, s, law=lambda p: p)
            assert theta == pytest.approx(math.log(2.0), abs=1e-8)

    def test_quadratic_law_inverse_proportional(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=10.0)
        for s in (1.0, 2.5, 40.0):
            theta = doubling_time(setup, s, law=lambda p: p * p)
            assert theta == pytest.approx(1.0 / (2.0 * s), abs=1e-8)

    def test_positive_for_default_law(self):
        setup = GronwallSetup(g0=0.4, coeff_C=3.0, t_max_query=10.0)
        for s in (0.1, 0.4, 2.0):
            assert doubling_time(setup, s) > 0.0

    def test_level_below_initial_is_supported(self):
        setup = GronwallSetup(g0=5.0, coeff_C=1.0, t_max_query=10.0)
        theta = doubling_time(setup, 0.01, law=lambda p: p)
        assert theta == pytest.approx(math.log(2.0), abs=1e-8)

    def test_horizon_shorter_than_theta_is_out_of_domain(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=0.5)
        with pytest.raises(OutOfDomain, match="t_max_query"):
            doubling_time(setup, 1.0, law=lambda p: p)  # theta = log 2 > 0.5

    def test_level_above_the_cap_is_out_of_domain(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=10.0)
        with pytest.raises(OutOfDomain, match="blow-up guard"):
            doubling_time(setup, 0.75 * BLOWUP_CAP, law=lambda p: p * p)

    def test_bound_holds_on_the_doubling_window(self):
        # conclusion check: g(t) <= 2 g(T) for t in [T, T + Theta(g(T))]
        rng = np.random.default_rng(3)
        for _ in range(100):
            g0 = rng.uniform(0.05, 2.0)
            coeff = rng.uniform(0.2, 3.0)
            setup = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=50.0)
            sol = gronwall_solve(setup, cap=1e6)
            t_guard = sol.t_end
            T = rng.uniform(0.0, 0.5) * t_guard
            level = float(sol(T))
            theta = doubling_time(setup, level)
            upper = min(T + theta, t_guard)
            ts = np.linspace(T, upper, 64)
            # blow-up sensitivity magnifies the integrator tolerance
            assert np.all(np.asarray(sol(ts)) <= 2.0 * level * (1.0 + 1e-4))


def _quad_of_inverse_law(law, lo, hi):
    from scipy.integrate import quad

    return quad(lambda p: 1.0 / law(p), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


_LAWS = st.sampled_from([2, 3, 5, "default"])


class TestAgainstScipyQuad:
    # the k = 2, 3, 5 power laws C p^k and the default law, over the g0 and
    # C ranges of criterion 9's random draws
    @settings(max_examples=40, deadline=None)
    @given(k=_LAWS, g0=st.floats(0.05, 2.0), coeff=st.floats(0.2, 3.0))
    def test_doubling_time(self, k, g0, coeff):
        setup = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=1e9)
        law = setup.law() if k == "default" else (lambda p: coeff * p**k)
        want = _quad_of_inverse_law(law, g0, 2.0 * g0)
        assert doubling_time(setup, g0, law=law) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(k=_LAWS, g0=st.floats(0.05, 2.0), coeff=st.floats(0.2, 3.0))
    def test_blow_up_time(self, k, g0, coeff):
        setup = GronwallSetup(g0=g0, coeff_C=coeff, t_max_query=1e9)
        law = setup.law() if k == "default" else (lambda p: coeff * p**k)
        want = _quad_of_inverse_law(law, g0, math.inf)
        assert gronwall_solve(setup, law=law).blow_up_time == pytest.approx(want, rel=1e-12)


class TestComparisonMargin:
    def test_flat_measurement_below_growing_majorant(self):
        setup = GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=2.0)
        times = np.linspace(0.0, 2.0, 21)
        measured = np.full(21, 1.0)
        ok, margin = comparison_margin(times, measured, setup, law=lambda p: p)
        assert ok and margin > 0.0

    def test_violation_detected(self):
        setup = GronwallSetup(g0=1.0, coeff_C=0.0, t_max_query=2.0)
        times = np.linspace(0.0, 2.0, 21)
        measured = 1.0 + times  # grows while the majorant stays flat
        ok, margin = comparison_margin(times, measured, setup)
        assert not ok and margin < 0.0


class TestSetupValidation:
    def test_rejects_nonpositive_initial_value(self):
        with pytest.raises(ValueError):
            GronwallSetup(g0=0.0, coeff_C=1.0, t_max_query=1.0)

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            GronwallSetup(g0=1.0, coeff_C=-1.0, t_max_query=1.0)

    @pytest.mark.parametrize("field", ["g0", "coeff_C"])
    def test_rejects_infinite_initial_value_and_coefficient(self, field):
        kwargs = {"g0": 1.0, "coeff_C": 1.0, "t_max_query": 1.0, field: math.inf}
        with pytest.raises(ValueError, match=field):
            GronwallSetup(**kwargs)

    def test_infinite_horizon_runs_to_blow_up(self):
        sol = gronwall_solve(GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=math.inf))
        assert sol.blow_up_time == pytest.approx(0.1188, abs=1e-4)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            GronwallSetup(g0=1.0, coeff_C=1.0, t_max_query=0.0)

    def test_zero_coefficient_gives_flat_majorant(self):
        sol = gronwall_solve(GronwallSetup(g0=2.0, coeff_C=0.0, t_max_query=3.0))
        assert sol(1.5) == 2.0
        assert sol.blow_up_time is None
