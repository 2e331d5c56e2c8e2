import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_flow import (
    BadParams,
    ConfigError,
    DegenerateCurve,
    DiscreteCurve,
    SingularityDetected,
    flow,
    make_initial_curve,
)
from elastic_flow.estimates import DIAGNOSTICS, boundary_residuals, energy
from elastic_flow.flow import (
    RECORD_BLOCK,
    FlowConfig,
    FlowState,
    Terminated,
    curvature_evolution_rhs,
    curvature_rate_consistency,
    run,
    step,
)
from elastic_flow.geometry import compute_geometry
from elastic_flow.iotools import write_snapshot
from conftest import cache_field


def _poison_call(monkeypatch, name, at, poison):
    """Replace the `at`-th call of flow.<name> by poison(real, *args)."""
    real = getattr(flow, name)
    calls = []

    def wrapped(*args):
        calls.append(args)
        return poison(real, *args) if len(calls) == at else real(*args)

    monkeypatch.setattr(flow, name, wrapped)


def _nan_node(real, diags, rhs):
    # a NaN node passes the residual check (NaN > tol is False) and is
    # refused as a curve node
    out, failed = real(diags, rhs)
    out[..., 3, 1] = np.nan
    return out, failed


def _singular(real, n, h, dt, eps):
    # a zero matrix in place of the assembled one
    return 0.0 * real(n, h, dt, eps)


def _row_1_singular_at_step_11(monkeypatch, sink=None):
    # rows of eps 0.2, 0.0 and 1.0, 20 steps at stride 3; row 1's matrix is
    # zero at step 11 (the 32nd per-row assembly), so it stops mid-block
    # with its last good step, 10, off the stride
    _poison_call(monkeypatch, "_assemble_uniform", 32, _singular)
    return flow.run_batch(
        make_initial_curve("flattened_sine", 64, amplitude=0.3),
        FlowConfig(n=64, dt=1e-4, t_end=2e-3),
        (0.2, 0.0, 1.0),
        3,
        sink=sink,
    )


def _two_scipy_solves(diags, rhs):
    # the reference arithmetic of `solve_banded` for one system: a solve and
    # one round of refinement by scipy's own banded solver
    from scipy.linalg import solve_banded as scipy_solve_banded

    from elastic_flow.flow import _band_matvec

    sub2, sub1, main, sup1, sup2 = diags
    ab = np.zeros((5, len(main)))
    ab[0, 2:], ab[1, 1:], ab[2] = sup2[:-2], sup1[:-1], main
    ab[3, :-1], ab[4, :-2] = sub1[1:], sub2[2:]
    ref = scipy_solve_banded((2, 2), ab, rhs)
    ref += scipy_solve_banded((2, 2), ab, rhs - _band_matvec(diags, ref))
    return ref


def circle_state(n, r, eps):
    # an open arc of the circle of radius r, spanning 1.5 pi in n equal
    # chords; the flow pins kappa = 0 at the two end nodes, so the circle's
    # values hold on the nodes [2:-2]
    th = np.linspace(0.0, 1.5 * np.pi, n + 1)
    curve = DiscreteCurve(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    return FlowState.from_curve(curve, eps)


def spacing(cache) -> float:
    # the spacing of a uniform grid, as the stepper reads it
    assert cache.uniform
    return cache.total_length / (len(cache.s) - 1)


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

    @pytest.mark.parametrize("key", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_dt_and_t_end_must_be_finite(self, key, value):
        with pytest.raises(ConfigError) as info:
            FlowConfig(**{key: value})
        assert info.value.key == key

    @pytest.mark.parametrize("key", ["kappa_blowup_threshold"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerances_must_be_positive_and_finite(self, key, value):
        # an infinite tolerance would switch its check off
        with pytest.raises(ConfigError) as info:
            FlowConfig(**{key: value})
        assert info.value.key == key

    def test_step_count_must_be_finite(self):
        with pytest.raises(ConfigError) as info:
            FlowConfig(n=64, dt=1e-300, t_end=1e10)
        assert info.value.key == "t_end"
        with pytest.raises(ConfigError) as info:
            flow.snapshot_step(1e10, 1e-300)
        assert info.value.key == "snapshot_times"

    def test_step_count_is_at_most_max_steps(self):
        # only built, never run
        assert FlowConfig(n=64, dt=1e-6, t_end=1.0).num_steps == flow.MAX_STEPS
        with pytest.raises(ConfigError) as info:
            FlowConfig(n=64, dt=1e-6, t_end=1.000001)
        assert info.value.key == "t_end"

    def test_node_count_is_at_most_max_nodes(self):
        # only built, never run
        assert FlowConfig(n=flow.MAX_NODES - 1, dt=1e-4, t_end=1e-4).n == flow.MAX_NODES - 1
        with pytest.raises(ConfigError) as info:
            FlowConfig(n=10**9, dt=1e-4, t_end=1e-4)
        assert info.value.key == "n"
        assert str(info.value) == "n: 1000000001 nodes exceed MAX_NODES = 100000"
        with pytest.raises(ConfigError) as info:
            FlowConfig(n=10**5, dt=1e-6, t_end=1.0)  # 10**5 segments for 10**6 steps
        assert str(info.value) == "n: 100001 nodes exceed MAX_NODES = 100000"

    def test_node_steps_are_at_most_max_work(self):
        # only built, never run: a MAX_STEPS run is admitted up to n = 9,999
        assert FlowConfig(n=9999, dt=1e-6, t_end=1.0).num_steps == flow.MAX_STEPS
        with pytest.raises(ConfigError) as info:
            FlowConfig(n=10**4, dt=1e-6, t_end=1.0)
        assert info.value.key == "t_end"
        assert str(info.value) == (
            "t_end: steps x rows x nodes = 1000000 x 1 x 10001 = 10001000000 exceeds MAX_WORK = 10000000000"
        )

    @pytest.mark.parametrize("n", [512, 1000])
    def test_default_dt_runs_stay_admitted(self, n):
        # only built, never run: dt = 0.1 / n**2 and t_end = 0.1 take n**2
        # steps, so MAX_STEPS alone ends the default runs at n = 1,000
        assert FlowConfig(n=n).num_steps == n**2
        with pytest.raises(ConfigError) as info:
            FlowConfig(n=1001)
        assert "MAX_STEPS" in str(info.value)

    @pytest.mark.parametrize("t_end", [1e-3, 1e-4])
    def test_t_end_must_sit_on_dt_grid(self, t_end):
        # refused when the config is built, before any run
        with pytest.raises(ConfigError) as info:
            FlowConfig(epsilon=0.1, dt=3e-4, t_end=t_end)
        assert str(info.value) == "t_end: must be a positive multiple of dt"

    def test_step_count_is_read_only_and_not_acache_field(self):
        cfg = FlowConfig(n=64, dt=1e-4, t_end=1e-3)
        assert cfg.num_steps == 10
        assert "num_steps" not in {f.name for f in dataclasses.fields(FlowConfig)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_steps = 11
        assert dataclasses.replace(cfg, dt=5e-5).num_steps == 20


class TestVelocities:
    def test_straight_segment_all_velocities_vanish(self):
        st = FlowState.from_curve(make_initial_curve("segment", 64), 0.3)
        assert np.max(np.abs(st.E)) < 1e-12
        assert np.max(np.abs(st.lam)) < 1e-12
        assert np.max(np.abs(curvature_evolution_rhs(st))) < 1e-12

    def test_unit_circle_eps_one_is_stationary(self):
        # E = -1 + 1*(0 + 1) = 0
        E = circle_state(256, 1.0, 1.0).E
        assert np.max(np.abs(E[2:-2])) < 1e-6

    def test_circle_normal_velocity_value(self):
        # E = -1/2 + 0.5*(1/8) = -0.4375
        st = circle_state(256, 2.0, 0.5)
        E = st.E
        h = spacing(st.cache)
        assert np.max(np.abs(E[2:-2] + 0.4375)) <= h**2

    def test_circle_tangential_velocity_linear(self):
        # slope -E kappa = 0.21875 past the pinned end nodes
        st = circle_state(256, 2.0, 0.5)
        lam = st.lam
        s = st.cache.s
        expected = 0.21875 * (s[2:-2] - s[2])
        h = spacing(st.cache)
        assert np.max(np.abs(lam[2:-2] - lam[2] - expected)) <= h**2
        assert lam[0] == 0.0

    def test_endpoint_velocity_identities_on_evolving_state(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01),
        )
        st = traj.states[-1]
        E = st.E
        lam = st.lam
        assert abs(E[0]) < 1e-14 and abs(E[-1]) < 1e-14
        assert lam[0] == 0.0

    def test_shrinking_circle_curvature_rate(self):
        # eps = 0: d(kappa)/dt = kappa^3 = 1 on the unit circle
        st = circle_state(256, 1.0, 0.0)
        rhs = curvature_evolution_rhs(st, "compact")
        h = spacing(st.cache)
        assert np.max(np.abs(rhs[2:-2] - 1.0)) <= h**2

    def test_compact_and_expanded_forms_agree_at_stencil_order(self):
        errs = []
        for n in (128, 256):
            st = sine_state(n=n)
            c = curvature_evolution_rhs(st, "compact")
            e = curvature_evolution_rhs(st, "expanded")
            errs.append(np.max(np.abs(c - e)[3:-3]))
        assert errs[0] / errs[1] > 3.0


    def test_stack_rows_equal_each_state_alone(self):
        # one pass over a stack of raw (nonuniform) and constant-speed
        # geometries gives each state's own flow arrays, E and lambda
        from elastic_flow.geometry import open_geometry, stacked_grids

        curves = [
            make_initial_curve("flattened_sine", 64, amplitude=0.3),
            run(
                make_initial_curve("flattened_sine", 64, amplitude=0.3),
                FlowConfig(epsilon=0.3, n=64, dt=1e-4, t_end=1e-3),
            ).states[-1].curve,
            make_initial_curve("bump_perturbed_segment", 64, amplitude=0.6),
        ]
        nodes = np.array([c.nodes for c in curves])
        geo = open_geometry(nodes, *stacked_grids(nodes)[:2])
        assert geo.uniform.tolist() == [False, True, False]
        stacked = dict(zip(flow._FLOW_ARRAYS, flow._flow_fields(geo.kappa, geo.s, 0.3)))
        for j, curve in enumerate(curves):
            alone = FlowState.from_curve(curve, 0.3)
            row = FlowState(geo[j], 0.0, 0.3)
            want = {**flow.flow_arrays(alone), "E": alone.E, "lam": alone.lam}
            assert want.keys() == stacked.keys()
            for name, x in want.items():
                assert x.tobytes() == stacked[name][j].tobytes(), (j, name)
                assert x.tobytes() == row.arrays[name].tobytes(), (j, name)

    def test_replaced_state_does_not_reuse_velocities(self):
        st = sine_state(64, amplitude=0.3, eps=0.1)
        st.arrays  # cached on st before the copy
        changed = dataclasses.replace(st, epsilon=0.9)
        fresh = FlowState.from_curve(st.curve, 0.9)
        assert np.array_equal(changed.E, fresh.E)
        assert np.array_equal(changed.lam, fresh.lam)


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

    def test_banded_solve_matches_two_scipy_solves(self):
        from elastic_flow.flow import _assemble_uniform, solve_banded

        state = sine_state()
        diags = _assemble_uniform(128, 1.0 / 128, 1e-4, 0.1)
        rhs = state.curve.nodes + 1e-3 * state.cache.normal
        (got,), failed = solve_banded(diags[None], rhs[None])
        assert failed == {}
        assert np.array_equal(got, _two_scipy_solves(diags, rhs))

    def test_stacked_solve_equals_each_system_alone(self):
        # rows that differ in h and eps, eps = 0 among them, and a straight
        # segment whose y coordinates are +-0.0 between rows with negative
        # coordinates: every bit, the sign of zero included
        from elastic_flow.flow import _assemble_uniform, solve_banded

        n = 64
        state = sine_state(n)
        nodes = state.curve.nodes
        straight = np.column_stack([np.linspace(0.0, 1.0, n + 1), np.where(np.arange(n + 1) % 3, 0.0, -0.0)])
        rhs = np.stack([nodes + 1e-3 * state.cache.normal, -nodes[::-1], straight, nodes - 2.0])
        diags = np.array([_assemble_uniform(n, h / n, 1e-4, e) for h, e in [(1.0, 0.1), (1.3, 0.0), (0.7, 0.0), (1.1, 1.0)]])
        got, failed = solve_banded(diags, rhs)
        assert failed == {}
        for j in range(4):
            want = solve_banded(diags[j : j + 1], rhs[j : j + 1])[0][0]
            assert got[j].tobytes() == want.tobytes() == _two_scipy_solves(diags[j], rhs[j]).tobytes()
        assert np.signbit(got[2][got[2] == 0.0]).any() and (got[2] == 0.0).all(axis=0)[1]

    def test_singular_row_ends_only_its_own_row(self, monkeypatch):
        # a zero matrix in row 1 at step 3 (the 8th of the per-row
        # assemblies) fails that row's solve alone, and ends only that row
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.3)
        config, eps = FlowConfig(n=64, dt=1e-4, t_end=1e-3), (0.2, 0.0, 1.0)
        alone = [run(curve, dataclasses.replace(config, epsilon=e), snapshot_stride=1) for e in eps]
        _poison_call(monkeypatch, "_assemble_uniform", 8, _singular)
        batch = flow.run_batch(curve, config, eps, snapshot_stride=1)
        assert batch[1].terminated_by is Terminated.SOLVER_FAILURE
        assert batch[1].event_time == 3 * 1e-4
        assert len(batch[1].diagnostics) == 3
        assert batch[1].states[-1].cache.nodes.tobytes() == alone[1].states[2].cache.nodes.tobytes()
        for j in (0, 2):
            assert batch[j].terminated_by is Terminated.REACHED_T_END
            assert batch[j].diagnostics.tobytes() == alone[j].diagnostics.tobytes()
            for a, b in zip(alone[j].states, batch[j].states, strict=True):
                assert a.cache.nodes.tobytes() == b.cache.nodes.tobytes()

    def test_kept_states_of_a_batch_with_a_failed_row_hold_their_curves_geometry(self, monkeypatch):
        # the singular row 1 at step 3, as above: every kept state's cache,
        # the failed row's last good state included, is its curve's geometry
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.3)
        _poison_call(monkeypatch, "_assemble_uniform", 8, _singular)
        batch = flow.run_batch(curve, FlowConfig(n=64, dt=1e-4, t_end=1e-3), (0.2, 0.0, 1.0), snapshot_stride=1)
        assert [len(t.states) for t in batch] == [11, 3, 11]
        for traj in batch:
            for state in traj.states:
                want = compute_geometry(state.curve)
                assert state.cache.uniform == want.uniform
                for name in ("nodes", "total_length", "s", "ds", "normal", "kappa"):
                    assert getattr(state.cache, name).tobytes() == getattr(want, name).tobytes(), name

    def test_singular_system_is_named_and_left_unsolved(self):
        from elastic_flow.flow import _assemble_uniform, solve_banded

        n = 64
        nodes = sine_state(n).curve.nodes
        diags = np.array([_assemble_uniform(n, 1.0 / n, 1e-4, e) for e in (0.1, 0.0, 1.0)])
        diags[1] = 0.0
        rhs = np.stack([nodes, nodes + 1.0, nodes - 1.0])
        got, failed = solve_banded(diags, rhs)
        assert list(failed) == [1] and str(failed[1]) == "singular implicit matrix"
        assert not got[1].any()
        for j in (0, 2):
            assert got[j].tobytes() == _two_scipy_solves(diags[j], rhs[j]).tobytes()

    def test_stop_on_row_ends_the_batch_with_it(self, monkeypatch):
        # the same failure of row 1 at step 3: named as `stop_on`, it stops
        # rows 0 and 2 there too, with the records and states they had
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.3)
        config, eps = FlowConfig(n=64, dt=1e-4, t_end=1e-3), (0.2, 0.0, 1.0)
        alone = [run(curve, dataclasses.replace(config, epsilon=e), snapshot_stride=1) for e in eps]
        _poison_call(monkeypatch, "_assemble_uniform", 8, _singular)
        batch = flow.run_batch(curve, config, eps, snapshot_stride=1, stop_on=1)
        assert [t.terminated_by for t in batch] == [
            Terminated.BATCH_STOPPED, Terminated.SOLVER_FAILURE, Terminated.BATCH_STOPPED
        ]
        for j in range(3):
            assert batch[j].event_time == 3 * 1e-4
            assert batch[j].diagnostics.length.tobytes() == alone[j].diagnostics.length[:3].tobytes()
            assert [st.step_index for st in batch[j].states] == [0, 1, 2]
            for a, b in zip(batch[j].states, alone[j].states):
                assert a.cache.nodes.tobytes() == b.cache.nodes.tobytes()

    def test_step_continues_a_run_bit_for_bit(self):
        # `step` is the batch of one of the stepping: from any state of a run
        # it gives the run's next state
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.3),
            FlowConfig(epsilon=0.2, n=64, dt=1e-4, t_end=1e-3),
            snapshot_stride=1,
        )
        config = traj.config
        for before, after in zip(traj.states[:-1], traj.states[1:]):
            got = step(before, config)
            assert got.step_index == after.step_index
            assert got.time == after.time
            for name in ("nodes", "segments", "s", "ds", "tangent", "normal", "kappa"):
                assert cache_field(got.cache, name).tobytes() == cache_field(after.cache, name).tobytes(), name
            assert got.cache.total_length == after.cache.total_length

    @pytest.mark.parametrize("failure", ["blowup", "non_finite", "collapse"])
    def test_step_raises_what_ends_the_row(self, monkeypatch, failure):
        state = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=1e-4),
        ).states[-1]
        config = FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01)
        if failure == "blowup":
            config = dataclasses.replace(config, kappa_blowup_threshold=0.1)
            error = SingularityDetected
        elif failure == "non_finite":
            _poison_call(monkeypatch, "solve_banded", 1, _nan_node)
            error = BadParams
        else:
            def collapse(real, nodes, seg):
                pts, moved, _ = real(nodes, seg)
                return pts, moved, {0: DegenerateCurve("interpolant collapsed during redistribution")}

            _poison_call(monkeypatch, "redistribute", 1, collapse)
            error = DegenerateCurve
        with pytest.raises(error):
            step(state, config)

    def test_nonuniform_state_rejected(self):
        # the raw graph-parametrized sine has unequal chords
        state = sine_state(64)
        assert not state.cache.uniform
        with pytest.raises(BadParams, match="redistribute first"):
            step(state, FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01))


class TestRun:
    def test_snapshot_stride_not_a_positive_integer_rejected(self, monkeypatch):
        # a stride of 2.5 would keep steps 0, 5 and 10
        steps = []
        monkeypatch.setattr(flow, "_advance", lambda *args: steps.append(args))
        for stride in (0, 2.5):
            with pytest.raises(ConfigError) as info:
                run(
                    make_initial_curve("flattened_sine", 64, amplitude=0.05),
                    FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.001),
                    snapshot_stride=stride,
                )
            assert info.value.key == "snapshot_stride"
        assert steps == []

    def test_redistribution_stall_has_its_own_reason(self):
        # the chord equalization stalls at deviation 1.467e-10 in step 20
        traj = run(
            make_initial_curve("arc_with_flat_ends", 64, turn_angle=3.0),
            FlowConfig(epsilon=0.5, n=64, dt=5e-3, t_end=0.2),
        )
        assert traj.terminated_by is Terminated.REPARAM_FAILURE
        assert traj.event_time == pytest.approx(0.1)
        assert len(traj.diagnostics) == 20

    def test_non_finite_solve_has_its_own_reason(self, monkeypatch):
        # call 5 is step 5's solve
        _poison_call(monkeypatch, "solve_banded", 5, _nan_node)
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002),
        )
        assert traj.terminated_by is Terminated.NON_FINITE_STATE
        assert traj.event_time == pytest.approx(5e-4)
        assert len(traj.diagnostics) == 5
        assert traj.states[-1].step_index == 4

    def test_degenerate_mesh_has_its_own_reason(self, monkeypatch):
        # call 5 is step 5's redistribution of the stepped curves
        def collapse(real, nodes, seg):
            pts, moved, _ = real(nodes, seg)
            return pts, moved, {0: DegenerateCurve("interpolant collapsed during redistribution")}

        _poison_call(monkeypatch, "redistribute", 5, collapse)
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002),
        )
        assert traj.terminated_by is Terminated.DEGENERATE_MESH
        assert traj.event_time == pytest.approx(5e-4)
        assert len(traj.diagnostics) == 5
        assert traj.states[-1].step_index == 4

    def test_overflowing_chord_has_the_non_finite_reason(self, monkeypatch):
        # call 5 is step 5's redistribution; a node at 1e200 gives chords whose
        # squares overflow, which the row's curve check refuses without a warning
        def far(real, nodes, seg):
            pts, moved, failed = real(nodes, seg)
            pts = pts.copy()
            pts[0, 3, 1] = 1e200
            return pts, np.ones_like(moved), failed

        _poison_call(monkeypatch, "redistribute", 5, far)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(
                make_initial_curve("flattened_sine", 64, amplitude=0.05),
                FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002),
            )
        assert traj.terminated_by is Terminated.NON_FINITE_STATE
        assert traj.event_time == pytest.approx(5e-4)
        assert len(traj.diagnostics) == 5

    def test_snapshots_do_not_keep_cached_velocities(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002),
            snapshot_stride=1,
        )
        assert len(traj.states) == 21
        for st in traj.states[1:]:
            assert not {"arrays", "E", "lam"} & set(vars(st)), st.step_index

    def test_batch_refuses_an_epsilon_outside_the_unit_interval(self, monkeypatch):
        # every row's config is built before the first step
        steps = []
        monkeypatch.setattr(flow, "_advance", lambda *args: steps.append(args))
        with pytest.raises(ConfigError) as info:
            flow.run_batch(
                make_initial_curve("flattened_sine", 64, amplitude=0.05),
                FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01),
                [0.1, 1.5],
            )
        assert info.value.key == "epsilon"
        assert steps == []

    @pytest.mark.parametrize("epsilons, stop_on, key", [
        ([], None, "epsilons"),
        ([0.1] * 10_000, None, "epsilons"),  # 170,000 nodes, each row of 17 within the limits
        ([0.1], 3, "stop_on"),
        ([0.1, 0.2], -1, "stop_on"),
    ], ids=["no_rows", "over_max_nodes", "stop_on_past_the_rows", "negative_stop_on"])
    def test_batch_refuses_rows_it_cannot_step(self, monkeypatch, epsilons, stop_on, key):
        steps = []
        monkeypatch.setattr(flow, "_advance", lambda *args: steps.append(args))
        with pytest.raises(ConfigError) as info:
            flow.run_batch(make_initial_curve("segment", 16), FlowConfig(n=16, dt=1e-4, t_end=1e-3), epsilons,
                           stop_on=stop_on)
        assert info.value.key == key
        assert steps == []

    def test_batch_trajectories_carry_their_rows_config(self):
        # a field off its default, which a config rebuilt from eps alone would lose
        config = FlowConfig(epsilon=0.1, n=16, dt=1e-4, t_end=2e-4, kappa_blowup_threshold=50.0)
        eps = (0.0, 0.3, 1.0)
        batch = flow.run_batch(make_initial_curve("segment", 16), config, eps, records=False)
        assert [traj.config for traj in batch] == [dataclasses.replace(config, epsilon=e) for e in eps]

    def test_curve_with_other_node_count_refused(self, monkeypatch):
        # a 64-segment curve under n = 256 would otherwise run to t_end on 64
        steps = []
        monkeypatch.setattr(flow, "_advance", lambda *args: steps.append(args))
        with pytest.raises(ConfigError) as info:
            run(make_initial_curve("flattened_sine", 64, amplitude=0.05), FlowConfig(n=256, dt=1e-4, t_end=1e-3))
        assert info.value.key == "n"
        assert steps == []

    def test_unredistributable_initial_curve_refused(self):
        # the not-a-knot redistribution of this admitted bump stalls at
        # chord deviation 2.2e-6, before any step is taken
        bump = make_initial_curve("bump_perturbed_segment", 63, amplitude=0.852)
        with pytest.raises(BadParams, match="cannot be redistributed to constant speed"):
            run(bump, FlowConfig(epsilon=0.0, n=63, dt=5e-4, t_end=5e-3))

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
        assert np.all(np.diff(traj.diagnostics.t) > 0.0)
        assert np.all(np.diff([st.time for st in traj.states]) > 0.0)

    @pytest.mark.parametrize("t", [5e-3, -2e-4])
    def test_snapshot_times_outside_the_run_rejected(self, monkeypatch, t):
        # on the dt grid, but before 0 or after t_end: no state could be kept
        steps = []
        monkeypatch.setattr(flow, "_advance", lambda *args: steps.append(args))
        with pytest.raises(ConfigError) as info:
            run(
                make_initial_curve("segment", 64),
                FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=1e-3),
                snapshot_times=[t],
            )
        assert info.value.key == "snapshot_times"
        assert steps == []

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_snapshot_times_rejected(self, monkeypatch, t):
        steps = []
        monkeypatch.setattr(flow, "_advance", lambda *args: steps.append(args))
        with pytest.raises(ConfigError) as info:
            flow.run_batch(
                make_initial_curve("segment", 64),
                FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=1e-3),
                [0.1],
                snapshot_times=[t],
            )
        assert info.value.key == "snapshot_times"
        assert steps == []

    def test_snapshot_times_at_both_ends_accepted(self):
        traj = run(
            make_initial_curve("segment", 64),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=1e-3),
            snapshot_stride=4,
            snapshot_times=[0.0, 1e-3],
        )
        assert [st.step_index for st in traj.states] == [0, 4, 8, 10]

    def test_snapshot_times_are_honored(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01),
            snapshot_times=[0.004, 0.005, 0.006],
        )
        for t in (0.004, 0.005, 0.006):
            assert traj.state_at(t).time == pytest.approx(t, abs=1e-12)

    def test_times_match_steps_when_dt_is_below_the_tolerance_of_one(self):
        # at dt = 2.5e-10 a tolerance of 1e-9 max(1, t) spans four steps
        curve = make_initial_curve("segment", 16)
        config = FlowConfig(epsilon=0.1, n=16, dt=2.5e-10, t_end=2.5e-9)
        traj = run(curve, config, snapshot_stride=2)
        for k in range(0, 11, 2):
            assert traj.state_at(k * 2.5e-10).step_index == k
        assert traj.state_at(5e-10).step_index == 2
        assert traj.state_at(2e-9).step_index == 8
        for t in (2.5e-10, 3.7e-10):  # a step with no snapshot, and a time off the grid
            with pytest.raises(KeyError):
                traj.state_at(t)
        with pytest.raises(ConfigError, match="3.7e-10 is not a multiple of dt"):
            run(curve, config, snapshot_times=[3.7e-10])
        kept = run(curve, config, snapshot_stride=5, snapshot_times=[7.5e-10]).states
        assert [st.step_index for st in kept] == [0, 3, 5, 10]

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


_FAMILY_PARAMS = st.one_of(
    st.tuples(st.just("segment"), st.fixed_dictionaries({})),
    st.tuples(st.just("flattened_sine"), st.fixed_dictionaries({"amplitude": st.floats(-2.0, 2.0)})),
    st.tuples(
        st.just("bump_perturbed_segment"),
        st.fixed_dictionaries(
            {
                "amplitude": st.floats(-2.0, 2.0),
                # the margin keeps b - a >= 0.1 after rounding
                "support": st.floats(0.05, 0.84).flatmap(
                    lambda a: st.tuples(st.just(a), st.floats(a + 0.1 + 1e-12, 0.95))
                ),
            }
        ),
    ),
    st.tuples(
        st.just("arc_with_flat_ends"),
        st.fixed_dictionaries({"turn_angle": st.floats(-4.0 * math.pi, 4.0 * math.pi)}),
    ),
)


class TestRunOverDocumentedRanges:
    @settings(max_examples=40, deadline=None)
    @given(
        family_params=_FAMILY_PARAMS,
        n=st.integers(16, 128),
        dt=st.floats(1e-6, 1e-2),
        eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    @example(
        family_params=("bump_perturbed_segment", {"amplitude": 0.852, "support": (0.3, 0.7)}),
        n=63,
        dt=5e-4,
        eps=0.0,
    )
    # stops at step 3 with `reparam_failure`, so the stopped-run checks run
    @example(
        family_params=("bump_perturbed_segment", {"amplitude": 1.5, "support": (0.3, 0.7)}),
        n=32,
        dt=1e-3,
        eps=0.5,
    )
    def test_refuses_at_admission_or_ends_with_a_reason(self, family_params, n, dt, eps):
        family, params = family_params
        config = FlowConfig(epsilon=eps, n=n, dt=dt, t_end=10 * dt)
        try:
            # the family itself refuses some documented turn angles
            traj = run(make_initial_curve(family, n, **params), config, snapshot_stride=1)
        except BadParams:
            return
        assert isinstance(traj.terminated_by, Terminated)
        # every evolved state sits on a constant-speed grid
        assert all(state.cache.uniform for state in traj.states)
        # the reason matches the records: a finished run records t_end, a
        # stopped one stops one step after its last good record
        last = traj.diagnostics[-1].t
        if traj.terminated_by is Terminated.REACHED_T_END:
            assert traj.event_time is None
            assert last == pytest.approx(config.t_end, rel=1e-9)
        else:
            assert traj.event_time == last + dt
            assert traj.event_time <= config.t_end * (1 + 1e-9)
        assert all(np.all(np.isfinite(state.curve.nodes)) for state in traj.states)


def _record(state, ldot) -> dict:
    # reference: the diagnostics record of one state by field name, from its
    # cached arrays, given the run's dL/dt at that state
    cache = state.cache
    E = state.E
    lam = state.lam
    a = state.arrays
    w = cache.ds
    norms = np.array(
        [float(np.sum(w * a["kappa"] ** 2))]
        + [float(np.sum(w * a[f"d{j}"] ** 2)) for j in (1, 2, 3, 4)]
    )
    return dict(
        t=state.time,
        length=cache.total_length,
        energy_Feps=energy(state),
        dissipation_rate=float(np.sum(w * E**2)),
        kappa_l2_sq=norms,
        boundary_residuals=boundary_residuals(state),
        lambda_endpoint_residual=abs(float(lam[-1]) + ldot),
        max_abs_E=float(np.max(np.abs(E))),
        max_abs_lambda=float(np.max(np.abs(lam))),
    )


def assert_records_match_reference(traj):
    # with snapshot stride 1 the trajectory keeps every computed state
    assert len(traj.states) == len(traj.diagnostics)
    # dL/dt by centered differences, one-sided at the two ends
    lengths = np.array([st.cache.total_length for st in traj.states])
    ldot = np.gradient(lengths, traj.config.dt).tolist() if len(lengths) > 1 else [0.0]
    ref = [_record(st, v) for st, v in zip(traj.states, ldot)]
    for got, want in zip(traj.diagnostics, ref):
        for name in DIAGNOSTICS.names:
            a, b = got[name], want[name]
            assert np.array_equal(a, b, equal_nan=True), (got.t, name, a, b)


class TestBatchedRecords:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("count", [RECORD_BLOCK, RECORD_BLOCK + 1, 2 * RECORD_BLOCK + 2])
    def test_records_equal_per_state_reference(self, eps, count):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.3),
            FlowConfig(epsilon=eps, n=64, dt=1e-4, t_end=(count - 1) * 1e-4),
            snapshot_stride=1,
        )
        assert traj.terminated_by is Terminated.REACHED_T_END
        assert len(traj.diagnostics) == count
        assert_records_match_reference(traj)

    def test_records_do_not_depend_on_where_blocks_are_cut(self, monkeypatch):
        # the rows that go on are handed over at row 1's failing step, mid-block
        def batch(block):
            monkeypatch.undo()
            monkeypatch.setattr(flow, "RECORD_BLOCK", block)
            return _row_1_singular_at_step_11(monkeypatch)

        short, default = batch(7), batch(64)
        assert [t.terminated_by for t in default] == [
            Terminated.REACHED_T_END, Terminated.SOLVER_FAILURE, Terminated.REACHED_T_END
        ]
        for a, b in zip(short, default, strict=True):
            assert a.terminated_by is b.terminated_by
            assert a.diagnostics.tobytes() == b.diagnostics.tobytes()

    def test_run_stopped_at_first_step_has_one_record(self):
        traj = run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01, kappa_blowup_threshold=0.1),
            snapshot_stride=1,
        )
        assert traj.terminated_by is Terminated.SINGULARITY_DETECTED
        assert len(traj.diagnostics) == 1
        assert_records_match_reference(traj)

    def test_singular_run_has_one_record_per_computed_step(self):
        loop = make_initial_curve("arc_with_flat_ends", 64, turn_angle=2.6 * math.pi)
        cfg = FlowConfig(epsilon=0.0, n=64, dt=5e-5, t_end=0.02, kappa_blowup_threshold=20.0)
        traj = run(loop, cfg, snapshot_stride=1)
        assert traj.terminated_by is Terminated.SINGULARITY_DETECTED
        computed = round(traj.event_time / cfg.dt)  # steps 0 .. computed - 1
        assert computed > RECORD_BLOCK
        assert [round(r.t / cfg.dt) for r in traj.diagnostics] == list(range(computed))
        assert_records_match_reference(traj)


class TestSink:
    """A sink receives each row's snapshots, in step order and in record
    blocks, exactly as the sinkless call stores them."""

    @staticmethod
    def assert_sink_matches_states(tmp_path, batch) -> list:
        # batch(sink) runs the evolution, returning its trajectories; returns
        # those of the sinkless call
        handed = []
        streamed = batch(lambda r, states: handed.append((r, list(states))))
        stored = batch(None)
        assert all(traj.states == [] for traj in streamed)
        # the steps where some row stopped
        stops = {round(traj.event_time / traj.config.dt) for traj in stored if traj.event_time is not None}
        for r, traj in enumerate(stored):
            blocks = [states for row, states in handed if row == r]
            # the initial state alone, then one handover per record block: a
            # block ends RECORD_BLOCK steps after the last cut, or where some
            # row stopped, or at the row's end
            assert [st.step_index for st in blocks[0]] == [0]
            ends = [0, *sorted(k for k in stops if k < len(traj.diagnostics)), len(traj.diagnostics)]
            assert len(blocks) == 1 + sum(math.ceil((b - a) / RECORD_BLOCK) for a, b in zip(ends, ends[1:]))
            got = [st for states in blocks for st in states]
            steps = [st.step_index for st in got]
            assert all(a < b for a, b in zip(steps, steps[1:]))
            assert steps == [st.step_index for st in traj.states]
            if traj.terminated_by is not Terminated.REACHED_T_END:
                # the last good state
                assert got[-1].step_index == round(traj.event_time / traj.config.dt) - 1
            for a, b in zip(got, traj.states):
                write_snapshot(str(tmp_path / "a"), a)
                write_snapshot(str(tmp_path / "b"), b)
                assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes(), a.step_index
        return stored

    @pytest.mark.parametrize("stride", [None, 7])
    def test_non_finite_run(self, tmp_path, monkeypatch, stride):
        def batch(sink):
            monkeypatch.undo()
            _poison_call(monkeypatch, "solve_banded", 5, _nan_node)
            return [run(
                make_initial_curve("flattened_sine", 64, amplitude=0.05),
                FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.002), stride, sink=sink,
            )]

        (traj,) = self.assert_sink_matches_states(tmp_path, batch)
        assert traj.terminated_by is Terminated.NON_FINITE_STATE

    @pytest.mark.parametrize("stride", [None, 7])
    def test_stalled_run(self, tmp_path, stride):
        def batch(sink):
            return [run(
                make_initial_curve("arc_with_flat_ends", 64, turn_angle=3.0),
                FlowConfig(epsilon=0.5, n=64, dt=5e-3, t_end=0.2), stride, sink=sink,
            )]

        (traj,) = self.assert_sink_matches_states(tmp_path, batch)
        assert traj.terminated_by is Terminated.REPARAM_FAILURE

    def test_batch_snapshots_are_rows_of_one_stack(self):
        # a snapshot wraps its row of the stack it was stepped in, not a copy
        a, b = flow.run_batch(
            make_initial_curve("flattened_sine", 64, amplitude=0.05),
            FlowConfig(n=64, dt=1e-4, t_end=1e-3),
            [0.1, 0.2],
            snapshot_stride=5,
        )
        for x, y in zip(a.states[1:], b.states[1:]):
            assert x.step_index == y.step_index
            for name in ("nodes", "kappa", "normal"):
                xa, ya = getattr(x.cache, name), getattr(y.cache, name)
                assert xa.base is not None and xa.base is ya.base, name
            assert np.array_equal(x.curve.nodes, x.cache.nodes)

    def test_batch_with_a_row_failing_off_the_stride(self, tmp_path, monkeypatch):
        def batch(sink):
            monkeypatch.undo()
            return _row_1_singular_at_step_11(monkeypatch, sink)

        stored = self.assert_sink_matches_states(tmp_path, batch)
        assert [t.terminated_by for t in stored] == [
            Terminated.REACHED_T_END, Terminated.SOLVER_FAILURE, Terminated.REACHED_T_END
        ]
        assert [st.step_index for st in stored[1].states] == [0, 3, 6, 9, 10]
        assert [st.step_index for st in stored[0].states] == [0, 3, 6, 9, 12, 15, 18, 20]

    def test_batch_with_a_row_stopping_mid_block(self, tmp_path):
        # eps = 0 blows up in step 98; eps = 0.01 runs all 200 steps
        loop = make_initial_curve("arc_with_flat_ends", 64, turn_angle=2.6 * math.pi)
        config = FlowConfig(n=64, dt=5e-5, t_end=0.01, kappa_blowup_threshold=20.0)

        def batch(sink):
            return flow.run_batch(loop, config, [0.0, 0.01], 7, sink=sink)

        stored = self.assert_sink_matches_states(tmp_path, batch)
        reasons = [traj.terminated_by for traj in stored]
        assert reasons == [Terminated.SINGULARITY_DETECTED, Terminated.REACHED_T_END]


def test_curvature_rate_consistency_resamples_as_scipy_cubic_spline():
    # the same bits as interpolating each neighbour's curvature with
    # CubicSpline, as criterion 7 did
    from scipy.interpolate import CubicSpline

    cfg = FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=3e-4)
    traj = run(make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg, snapshot_stride=1)
    before, state, after = (traj.state_at(t) for t in (1e-4, 2e-4, 3e-4))
    s_grid = state.cache.s[4:-4]
    measured = (
        CubicSpline(after.cache.s, after.cache.kappa)(s_grid) - CubicSpline(before.cache.s, before.cache.kappa)(s_grid)
    ) / (2.0 * cfg.dt)
    want = float(np.max(np.abs(measured - curvature_evolution_rhs(state)[4:-4])))
    assert curvature_rate_consistency(traj, 2e-4) == want


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
    def test_second_order_on_manufactured_oddcache_field(self, kind):
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
