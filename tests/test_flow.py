import dataclasses
import math

import numpy as np
import pytest

from elastic_flow import (
    BadParams,
    ConfigError,
    DiscreteCurve,
    make_initial_curve,
)
from elastic_flow.flow import (
    FlowConfig,
    FlowState,
    Terminated,
    curvature_evolution_rhs,
    normal_velocity,
    run,
    step,
    tangential_velocity,
)


def circle_state(n, r, eps):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    curve = DiscreteCurve(
        np.column_stack([r * np.cos(th), r * np.sin(th)]), closed=True
    )
    return FlowState.from_curve(curve, eps)


def sine_state(n=128, amplitude=0.05, eps=0.1):
    return FlowState.from_curve(
        make_initial_curve("flattened_sine", n, amplitude=amplitude), eps
    )


class TestFlowConfig:
    def test_epsilon_range(self):
        with pytest.raises(ConfigError):
            FlowConfig(epsilon=1.5)
        with pytest.raises(ConfigError):
            FlowConfig(epsilon=-0.1)

    def test_default_dt_is_resolved(self):
        cfg = FlowConfig(epsilon=0.1, n=128)
        assert cfg.dt == pytest.approx(min(1e-4, 0.1 / 128**2))

    def test_t_end_must_sit_on_dt_grid(self):
        with pytest.raises(ConfigError):
            FlowConfig(epsilon=0.1, dt=3e-4, t_end=1e-3).num_steps


class TestVelocities:
    def test_straight_segment_all_velocities_vanish(self):
        st = FlowState.from_curve(make_initial_curve("segment", 64), 0.3)
        assert np.max(np.abs(normal_velocity(st))) < 1e-12
        assert np.max(np.abs(tangential_velocity(st))) < 1e-12
        assert np.max(np.abs(curvature_evolution_rhs(st))) < 1e-12

    def test_unit_circle_eps_one_is_stationary(self):
        # E = -1 + 1*(0 + 1) = 0
        E = normal_velocity(circle_state(256, 1.0, 1.0))
        assert np.max(np.abs(E)) < 1e-6

    def test_circle_normal_velocity_value(self):
        # E = -1/2 + 0.5*(1/8) = -0.4375
        E = normal_velocity(circle_state(256, 2.0, 0.5))
        h = 4.0 * np.pi / 256
        assert np.max(np.abs(E + 0.4375)) <= h**2

    def test_circle_tangential_velocity_linear(self):
        st = circle_state(256, 2.0, 0.5)
        lam = tangential_velocity(st)
        expected = 0.21875 * st.cache.s
        h = 4.0 * np.pi / 256
        assert np.max(np.abs(lam - expected)) <= h**2
        assert lam[0] == 0.0

    def test_endpoint_velocity_identities_on_evolving_state(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01),
        )
        st = traj.states[-1]
        E = normal_velocity(st)
        lam = tangential_velocity(st)
        assert abs(E[0]) < 1e-14 and abs(E[-1]) < 1e-14
        assert lam[0] == 0.0

    def test_shrinking_circle_curvature_rate(self):
        # eps = 0: d(kappa)/dt = kappa^3 = 1 on the unit circle
        rhs = curvature_evolution_rhs(circle_state(256, 1.0, 0.0), "compact")
        h = 2.0 * np.pi / 256
        assert np.max(np.abs(rhs - 1.0)) <= h**2

    def test_compact_and_expanded_forms_agree_at_stencil_order(self):
        errs = []
        for n in (128, 256):
            st = sine_state(n=n)
            c = curvature_evolution_rhs(st, "compact")
            e = curvature_evolution_rhs(st, "expanded")
            errs.append(np.max(np.abs(c - e)[3:-3]))
        assert errs[0] / errs[1] > 3.0


    def test_replaced_state_does_not_reuse_velocities(self):
        st = sine_state(64, amplitude=0.3, eps=0.1)
        normal_velocity(st)
        tangential_velocity(st)
        changed = dataclasses.replace(st, epsilon=0.9)
        fresh = FlowState.from_curve(st.curve, 0.9)
        assert np.array_equal(normal_velocity(changed), normal_velocity(fresh))
        assert np.array_equal(tangential_velocity(changed), tangential_velocity(fresh))


class TestStep:
    def test_segment_is_stationary_for_all_eps(self):
        seg = make_initial_curve("segment", 128)
        for eps in (0.0, 0.1, 1.0):
            cfg = FlowConfig(epsilon=eps, n=128, dt=1e-3, t_end=0.02)
            traj = run(seg, cfg)
            disp = np.max(
                np.linalg.norm(traj.states[-1].curve.nodes - seg.nodes, axis=1)
            )
            assert disp <= 1e-12

    def test_endpoints_pinned_exactly(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.1),
            FlowConfig(epsilon=0.05, n=64, dt=1e-4, t_end=0.01),
        )
        for st in traj.states:
            assert np.all(st.curve.nodes[0] == (0.0, 0.0))
            assert np.all(st.curve.nodes[-1] == (1.0, 0.0))

    def test_energy_decreases_for_curvature_flow(self):
        traj = run(
            make_initial_curve("flattened_sine", 128, amplitude=0.05),
            FlowConfig(epsilon=0.0, n=128, dt=1e-4, t_end=0.02),
        )
        energies = np.array([r.energy_Feps for r in traj.diagnostics])
        assert np.all(np.diff(energies) < 0.0)

    def test_first_order_self_convergence(self):
        fs = make_initial_curve("flattened_sine", 128, amplitude=0.05)
        ends = []
        for dt in (2e-4, 1e-4, 5e-5):
            cfg = FlowConfig(epsilon=0.1, n=128, dt=dt, t_end=0.01)
            ends.append(run(fs, cfg).states[-1].curve.nodes)
        d_coarse = np.max(np.linalg.norm(ends[0] - ends[1], axis=1))
        d_fine = np.max(np.linalg.norm(ends[1] - ends[2], axis=1))
        assert math.log2(d_coarse / d_fine) >= 0.8

    def test_constant_speed_restored_each_step(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.1),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.005),
        )
        seg = np.linalg.norm(np.diff(traj.states[-1].curve.nodes, axis=0), axis=1)
        assert np.max(np.abs(seg - seg.mean())) / seg.mean() < 1e-10

    def test_scheme_boundary_curvature_is_zero(self):
        from elastic_flow.flow import flow_arrays

        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002),
        )
        arrays = flow_arrays(traj.states[-1])
        assert arrays["kappa"][0] == 0.0 and arrays["kappa"][-1] == 0.0
        assert abs(arrays["d2"][0]) < 1e-12 and abs(arrays["d2"][-1]) < 1e-12
        assert abs(arrays["d4"][0]) < 1e-12 and abs(arrays["d4"][-1]) < 1e-12

    def test_closed_curve_rejected(self):
        st = circle_state(64, 1.0, 0.1)
        with pytest.raises(BadParams):
            step(st, FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01))

    def test_banded_solve_matches_two_scipy_solves(self):
        from scipy.linalg import solve_banded as scipy_solve_banded

        from elastic_flow.flow import _assemble_uniform, _band_matvec, solve_banded

        state = sine_state()
        diags = _assemble_uniform(128, 1.0 / 128, 1e-4, 0.1)
        rhs = state.curve.nodes + 1e-3 * state.cache.normal
        sub2, sub1, main, sup1, sup2 = diags
        ab = np.zeros((5, 129))
        ab[0, 2:], ab[1, 1:], ab[2] = sup2[:-2], sup1[:-1], main
        ab[3, :-1], ab[4, :-2] = sub1[1:], sub2[2:]
        ref = scipy_solve_banded((2, 2), ab, rhs)
        ref += scipy_solve_banded((2, 2), ab, rhs - _band_matvec(diags, ref))
        assert np.array_equal(solve_banded(diags, rhs), ref)

    def test_nonuniform_grid_path(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.005, reparam_every=5),
        )
        assert traj.terminated_by is Terminated.REACHED_T_END
        energies = np.array([r.energy_Feps for r in traj.diagnostics])
        assert np.all(np.diff(energies) <= 1e-10 + 10.0 * 1e-4**2)


class TestRun:
    def test_snapshots_do_not_keep_cached_velocities(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002),
            snapshot_stride=1,
        )
        assert len(traj.states) == 21
        for st in traj.states[1:]:
            assert not {"arrays", "E", "lam"} & set(vars(st)), st.step_index

    def test_incompatible_initial_rejected(self):
        x = np.linspace(-1.0, 1.0, 65)
        parabola = DiscreteCurve(np.column_stack([x, x * x]))
        with pytest.raises(BadParams):
            run(parabola, FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.001))

    def test_trajectory_times_strictly_increase(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01),
        )
        assert np.all(np.diff(traj.times()) > 0.0)
        assert np.all(np.diff([st.time for st in traj.states]) > 0.0)

    def test_snapshot_times_are_honored(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01),
            snapshot_times=[0.004, 0.005, 0.006],
        )
        for t in (0.004, 0.005, 0.006):
            assert traj.state_at(t).time == pytest.approx(t, abs=1e-12)

    def test_loop_blows_up_under_curvature_flow(self):
        loop = make_initial_curve("arc_with_flat_ends", 128, turn_angle=2.6 * math.pi)
        cfg = FlowConfig(
            epsilon=0.0, n=128, dt=2.5e-5, t_end=0.02, kappa_blowup_threshold=40.0
        )
        traj = run(loop, cfg, snapshot_stride=10**9)
        assert traj.terminated_by is Terminated.SINGULARITY_DETECTED
        assert traj.event_time is not None and traj.event_time < 0.02

    def test_length_bounds_hold_along_runs(self):
        fs = make_initial_curve("flattened_sine", 64, amplitude=0.1)
        traj = run(fs, FlowConfig(epsilon=0.2, n=64, dt=1e-4, t_end=0.02))
        f0 = traj.diagnostics[0].energy_Feps
        for rec in traj.diagnostics:
            assert rec.length >= 1.0 - 1e-12          # chord distance |P-Q|
            assert rec.length <= f0 + 1e-8

    def test_energy_never_below_length(self):
        fs = make_initial_curve("flattened_sine", 64, amplitude=0.1)
        traj = run(fs, FlowConfig(epsilon=0.3, n=64, dt=1e-4, t_end=0.01))
        for rec in traj.diagnostics:
            assert rec.energy_Feps >= rec.length


class TestEndpointTangentialIdentity:
    def test_lambda_matches_length_rate(self):
        # oracle: centered finite difference of the measured length
        traj = run(
            make_initial_curve("flattened_sine", 128, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.02),
        )
        residuals = [r.lambda_endpoint_residual for r in traj.diagnostics[1:-1]]
        assert max(residuals) <= 5e-3


class TestReflectionClosedDerivatives:
    @pytest.mark.parametrize("kind", ["uniform", "graded"])
    def test_second_order_on_manufactured_odd_field(self, kind):
        # f = sin(pi s / L) is odd about both endpoints; derivatives known
        from elastic_flow import stencils

        L = 1.3
        errs = []
        for n in (64, 128):
            if kind == "uniform":
                s = np.linspace(0.0, L, n + 1)
            else:
                v = np.linspace(0.0, 1.0, n + 1)
                s = L * (v + 0.03 * np.sin(2.0 * np.pi * v))
            f = np.sin(np.pi * s / L)
            w = np.pi / L
            exact = {
                1: w * np.cos(w * s),
                2: -(w**2) * np.sin(w * s),
                3: -(w**3) * np.cos(w * s),
                4: w**4 * np.sin(w * s),
            }
            errs.append(
                [
                    np.max(np.abs(stencils.derivative(f, s, j, "odd") - exact[j]))
                    for j in (1, 2, 3, 4)
                ]
            )
        slopes = np.log2(np.array(errs[0]) / np.array(errs[1]))
        assert np.all(slopes >= 1.8), slopes
