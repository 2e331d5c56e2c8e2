import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_flow import ConfigError, WindowMismatch, make_initial_curve, stencils
from elastic_flow.convergence import (
    SweepConfig,
    _common_snapshots,
    _resample,
    ck_distance,
    run_sweep,
)
from elastic_flow.flow import FlowConfig, FlowState, Terminated, run, run_batch
from elastic_flow.geometry import chord_lengths, open_geometry


def _bits(x):
    # the float64 bits, so that -0.0 and 0.0 differ
    return np.asarray(x, dtype=float).view(np.uint64)


def short_run(n=64, eps=0.1, dt=1e-4, t_end=0.01, family="flattened_sine", **kw):
    curve = make_initial_curve(family, n, **kw)
    cfg = FlowConfig(epsilon=eps, n=n, dt=dt, t_end=t_end)
    return run(curve, cfg, snapshot_stride=10)


class TestSweepConfig:
    def test_epsilons_must_decrease(self):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01)
        with pytest.raises(ConfigError):
            SweepConfig(epsilons=(0.05, 0.1), base=base)

    def test_epsilons_in_range(self):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01)
        with pytest.raises(ConfigError):
            SweepConfig(epsilons=(1.5, 0.1), base=base)

    def test_delta_below_t_end(self):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01)
        with pytest.raises(ConfigError):
            SweepConfig(epsilons=(0.1,), base=base, delta=0.02)

    def test_k_max_capped_at_three(self):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01)
        with pytest.raises(ConfigError):
            SweepConfig(epsilons=(0.1,), base=base, k_max=4)


    def test_stack_nodes_at_most_max_nodes(self):
        # only built, never run: the shipped sweep's base under 10**5 epsilons
        base = FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.2)
        with pytest.raises(ConfigError) as info:
            SweepConfig(epsilons=tuple(1 - i / 1e5 for i in range(10**5)), base=base)
        assert info.value.key == "epsilons"
        assert str(info.value) == "epsilons: rows x nodes = 100001 x 129 = 12900129 exceeds MAX_NODES = 100000"

    def test_rows_times_node_steps_at_most_max_work(self):
        # only built, never run: 100 rows of 100 nodes for 10**6 steps
        base = FlowConfig(epsilon=0.1, n=99, dt=1e-6, t_end=1.0)
        assert len(SweepConfig(epsilons=tuple(1 - i / 100 for i in range(99)), base=base).epsilons) == 99
        with pytest.raises(ConfigError) as info:
            SweepConfig(epsilons=tuple(1 - i / 100 for i in range(100)), base=base)
        assert info.value.key == "epsilons"
        assert str(info.value) == (
            "epsilons: steps x rows x nodes = 1000000 x 101 x 100 = 10100000000 exceeds MAX_WORK = 10000000000"
        )

    @pytest.mark.parametrize("delta", [0.0, 1e-4, 0.01, 0.05 * 0.2, 0.1, 0.1999])
    def test_grid_is_the_nine_rounded_points_for_delta_on_the_dt_grid(self, delta):
        base = FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.2)
        grid = np.linspace(max(delta, 1e-4), 0.2, 9)
        want = tuple(sorted({round(t / 1e-4) * 1e-4 for t in grid}))
        assert SweepConfig(epsilons=(0.1,), base=base, delta=delta).snapshot_times == want

    @pytest.mark.parametrize("delta", [0.01005, 0.01001, 0.19995, 1.5e-4, 0.01 + 5e-11])
    def test_grid_stays_at_or_above_a_delta_off_the_dt_grid(self, delta):
        base = FlowConfig(epsilon=0.1, n=128, dt=1e-4, t_end=0.2)
        times = SweepConfig(epsilons=(0.1,), base=base, delta=delta).snapshot_times
        assert delta <= times[0] < delta + 1e-4
        assert times[-1] == 0.2
        assert all(abs(t / 1e-4 - round(t / 1e-4)) < 1e-9 for t in times)

    def test_grid_is_read_only_and_not_a_field(self):
        cfg = SweepConfig(epsilons=(0.1,), base=FlowConfig(epsilon=0.1, n=64, dt=1e-4, t_end=0.01))
        with pytest.raises(AttributeError):
            cfg.snapshot_times = (0.01,)
        with pytest.raises(TypeError):
            SweepConfig(epsilons=(0.1,), base=cfg.base, snapshot_times=(0.01,))


class TestCkDistance:
    def test_identical_trajectories(self):
        traj = short_run()
        assert ck_distance(traj, traj, 1, (0.005, 0.01)) == 0.0

    def test_different_node_counts_resample_floor(self):
        a = short_run(n=64, family="segment")
        b = short_run(n=96, family="segment")
        d = ck_distance(a, b, 0, (0.005, 0.01))
        assert d <= (1.0 / 64) ** 2

    def test_monotone_in_k(self):
        a = short_run(eps=0.1)
        b = short_run(eps=0.05)
        window = (0.005, 0.01)
        dists = [ck_distance(a, b, k, window) for k in range(3)]
        assert dists[0] <= dists[1] <= dists[2]

    @pytest.mark.parametrize("n_target", [32, 63])
    def test_resample_equals_scipy_cubic_spline_bit_for_bit(self, n_target):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(4)
        nodes = make_initial_curve("flattened_sine", 96, amplitude=0.05).nodes
        nodes = nodes + rng.normal(scale=1e-3, size=nodes.shape)
        want = CubicSpline(np.linspace(0.0, 1.0, 97), nodes, axis=0)(np.linspace(0.0, 1.0, n_target + 1))
        assert _bits(_resample(nodes, n_target)).tobytes() == _bits(want).tobytes()

    def test_window_mismatch_raises(self):
        a = short_run(t_end=0.01)
        b = short_run(t_end=0.005)
        with pytest.raises(WindowMismatch):
            ck_distance(a, b, 0, (0.004, 0.01))

    def test_times_pair_on_their_step_when_dt_is_below_the_tolerance_of_one(self):
        # steps of 3e-10 and 2e-10 share only the multiples of 6e-10; a
        # tolerance of 1e-9 max(1, t) paired every step of a with one of b
        curve = make_initial_curve("segment", 16)
        a, b = (run(curve, FlowConfig(epsilon=0.1, n=16, dt=dt, t_end=3e-9), snapshot_stride=1)
                for dt in (3e-10, 2e-10))
        snaps = ([(st.time, st.cache.nodes) for st in traj.states] for traj in (a, b))
        pairs = _common_snapshots(*snaps, 2e-10, (0.0, 3e-9))
        want = [(a.states[2 * i].cache.nodes, b.states[3 * i].cache.nodes) for i in range(6)]
        assert [(x is p, y is q) for (x, y), (p, q) in zip(pairs, want)] == [(True, True)] * 6
        assert len(pairs) == 6

    def test_trajectory_without_snapshots_raises_window_mismatch(self):
        # a run whose snapshots went to a sink holds no states
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.05)
        cfg = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.005)
        held, sunk = run(curve, cfg), run(curve, cfg, sink=lambda r, states: None)
        with pytest.raises(WindowMismatch):
            ck_distance(held, sunk, 0, (0.0, 0.005))

    def test_record_less_trajectories_give_the_same_distances(self):
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.05)
        config = FlowConfig(n=64, dt=1e-3, t_end=0.01)
        recorded = run_batch(curve, config, (0.1, 0.0), snapshot_stride=2)
        bare = run_batch(curve, config, (0.1, 0.0), snapshot_stride=2, records=False)
        assert [t.diagnostics for t in bare] == [None, None]
        for k in range(4):
            assert ck_distance(*bare, k, (0.0, 0.01)) == ck_distance(*recorded, k, (0.0, 0.01)) > 0.0


def _param_derivative(values, order):
    if order == 0:
        return values
    n = values.shape[0] - 1
    return np.column_stack(
        [stencils.derivative_uniform(values[:, k], 1.0 / n, order) for k in range(2)]
    )


def _ck_distance_loop(traj_a, traj_b, k, window):
    # one snapshot pair and one order at a time, kept as the reference for
    # the stacked passes
    a, b = ([(st.time, st.cache.nodes) for st in traj.states] for traj in (traj_a, traj_b))
    worst = 0.0
    for nodes_a, nodes_b in _common_snapshots(a, b, traj_b.config.dt, window):
        nodes_a, nodes_b = np.ascontiguousarray(nodes_a), np.ascontiguousarray(nodes_b)
        n_common = min(len(nodes_a), len(nodes_b)) - 1
        nodes_a = _resample(nodes_a, n_common)
        nodes_b = _resample(nodes_b, n_common)
        for order in range(k + 1):
            diff = _param_derivative(nodes_a, order) - _param_derivative(nodes_b, order)
            worst = max(worst, float(np.max(np.linalg.norm(diff, axis=1))))
    return worst


class TestStackedDistances:
    @settings(max_examples=8)
    @given(amplitude=st.floats(0.01, 0.08), eps=st.floats(0.0, 0.5), n_b=st.sampled_from([64, 48]))
    @example(amplitude=0.05, eps=0.1, n_b=64)
    @example(amplitude=0.05, eps=0.1, n_b=48)
    def test_equal_the_per_pair_loop(self, amplitude, eps, n_b):
        # 41 snapshots per run, so the pairs span two stacked passes; n_b = 48
        # resamples the first run's snapshots
        runs = [
            run(make_initial_curve("flattened_sine", n, amplitude=amplitude),
                FlowConfig(epsilon=e, n=n, dt=2.5e-4, t_end=0.01), snapshot_stride=1)
            for n, e in ((64, eps), (n_b, 0.0))
        ]
        for k in range(4):
            got, want = ck_distance(*runs, k, (0.0, 0.01)), _ck_distance_loop(*runs, k, (0.0, 0.01))
            assert _bits(got) == _bits(want), k

    def test_non_finite_node_gives_nan(self):
        # open_geometry does not validate, so a state may hold a NaN node
        good = short_run()
        st = good.states[5]
        nodes = st.cache.nodes.copy()
        nodes[7, 1] = np.nan
        cache = open_geometry(nodes[None], chord_lengths(st.cache.nodes)[None], st.cache.total_length[None])[0]
        states = list(good.states)
        states[5] = FlowState(cache, st.time, st.epsilon, st.step_index)
        bad = replace(good, states=states)
        for k in range(4):
            assert math.isnan(ck_distance(bad, good, k, (0.0, 0.01))), k
            assert math.isnan(ck_distance(good, bad, k, (0.0, 0.01))), k
        # the per-pair loop lost it: Python's max(0.0, nan) is 0.0
        assert _ck_distance_loop(bad, good, 0, (0.0, 0.01)) == 0.0


class TestRunSweep:
    def test_distances_keep_their_bits(self):
        # recorded before the sweep measured its distances in stacked passes;
        # 37 pairs per row at every order
        base = FlowConfig(epsilon=0.1, n=64, dt=5e-4, t_end=0.02)
        cfg = SweepConfig(epsilons=(0.2, 0.1, 0.05), base=base, delta=0.002, k_max=3)
        rep = run_sweep(make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg)
        assert [[float(x).hex() for x in row] for row in rep.distances] == [
            ["0x1.6515634189672p-6", "0x1.17dfe72feb20dp-4", "0x1.bbf19297e8200p-3", "0x1.57df3200960dfp-1"],
            ["0x1.a848e144d3cacp-7", "0x1.4c127e3e8688dp-5", "0x1.08ab402a89e00p-3", "0x1.95b85f0e81f25p-2"],
            ["0x1.d0a96e8952750p-8", "0x1.6a9be2d6feb41p-6", "0x1.23ab40923f000p-4", "0x1.b3fc054c42a44p-3"],
        ]

    def test_memory_does_not_grow_with_kept_snapshots(self):
        # tracemalloc sees numpy's buffers. Below 200 steps every step is
        # kept, so 300 steps keep 200 more snapshots per row than 100; at
        # n = 64 the nodes of one are 1,040 bytes. Each handover's snapshots
        # are measured when they are handed over, so the peak grows by less
        # than the nodes of 30 snapshots, where holding the 600 more of the
        # three rows would take 624 kB
        import tracemalloc

        curve = make_initial_curve("flattened_sine", 64, amplitude=0.05)
        peaks = []
        for steps in (1, 100, 300):
            cfg = SweepConfig(epsilons=(0.2, 0.1), base=FlowConfig(n=64, dt=1e-4, t_end=steps * 1e-4), k_max=1)
            # the untraced one-step sweep loads what the first one loads
            if steps > 1:
                tracemalloc.start()
            try:
                run_sweep(curve, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < 30 * 1_040


    def test_segment_sweep_all_zero(self):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.01)
        cfg = SweepConfig(epsilons=(0.2, 0.1), base=base, delta=0.0, k_max=1)
        rep = run_sweep(make_initial_curve("segment", 64), cfg)
        assert np.all(rep.distances <= 1e-10)
        assert rep.fitted_order == [None, None]

    def test_distances_shrink_along_ladder(self):
        base = FlowConfig(epsilon=0.1, n=64, dt=2e-4, t_end=0.04)
        cfg = SweepConfig(
            epsilons=(0.2, 0.1, 0.05), base=base, delta=0.004, k_max=1
        )
        rep = run_sweep(
            make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg
        )
        assert rep.failed_rows == []
        assert rep.monotone == [True, True]
        assert all(np.diff(rep.distances[:, 0]) < 0.0)
        assert np.all(rep.distances[:, 1] >= rep.distances[:, 0])
        assert rep.fitted_order[0] is not None and rep.fitted_order[0] > 0.0

    def test_row_with_a_non_finite_state_is_a_failed_row(self, monkeypatch):
        from elastic_flow import flow

        real = flow.solve_banded
        calls = []

        def solve(diags, rhs):
            # one call per step solves every row still running, in the order
            # reference, 0.2, 0.1, 0.05: call 3 is step 3, row 2 the second
            # ladder row
            calls.append(len(rhs))
            out, failed = real(diags, rhs)
            if len(calls) == 3:
                out[2, 3, 1] = np.nan
            return out, failed

        monkeypatch.setattr(flow, "solve_banded", solve)
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.005)
        cfg = SweepConfig(epsilons=(0.2, 0.1, 0.05), base=base, delta=0.0, k_max=0)
        rep = run_sweep(make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg)
        assert sum(calls) == 5 + 5 + 3 + 5
        assert calls == [4, 4, 4, 3, 3]
        assert rep.failed_rows == [1]
        assert np.isnan(rep.distances[1, 0])
        assert np.all(np.isfinite(rep.distances[[0, 2], 0]))

    def test_initial_snapshot_shared_when_delta_zero(self):
        # all flows start from the same curve, so the t = dt distance is tiny
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.01)
        cfg = SweepConfig(
            epsilons=(0.2, 0.1),
            base=base,
            delta=0.0,
            k_max=0,
        )
        rep = run_sweep(make_initial_curve("flattened_sine", 64, amplitude=0.02), cfg)
        assert np.all(rep.distances[:, 0] < 0.05)


class TestSingularityEstimate:
    def test_none_for_completed_run(self):
        traj = short_run(family="segment")
        assert traj.terminated_by is Terminated.REACHED_T_END
        assert traj.event_time is None

    def test_estimate_for_loop_collapse(self):
        loop = make_initial_curve("arc_with_flat_ends", 128, turn_angle=2.6 * math.pi)
        cfg = FlowConfig(
            epsilon=0.0, n=128, dt=2.5e-5, t_end=0.02, kappa_blowup_threshold=40.0
        )
        traj = run(loop, cfg, snapshot_stride=10**9)
        assert traj.terminated_by is Terminated.SINGULARITY_DETECTED
        assert 0.0 < traj.event_time < 0.02

    def test_estimate_stable_under_refinement(self):
        t_by_n = {}
        for n, dt in ((128, 2.5e-5), (256, 2.5e-5)):
            loop = make_initial_curve(
                "arc_with_flat_ends", n, turn_angle=2.6 * math.pi
            )
            cfg = FlowConfig(
                epsilon=0.0, n=n, dt=dt, t_end=0.02, kappa_blowup_threshold=40.0
            )
            traj = run(loop, cfg, snapshot_stride=10**9)
            assert traj.terminated_by is Terminated.SINGULARITY_DETECTED
            t_by_n[n] = traj.event_time
        assert abs(t_by_n[128] - t_by_n[256]) <= 0.1 * t_by_n[128]


class TestSweepInfrastructure:
    def test_records_off_keeps_states_ends_and_sink_calls(self):
        # the eps = 0 row stops at t = 0.03, the 0.01 and 0.1 rows at 0.06 and
        # 1.29 (reparam_failure); 80 steps span two record blocks
        curve = make_initial_curve("arc_with_flat_ends", 64, turn_angle=12)
        config = FlowConfig(n=64, dt=0.03, t_end=2.4)

        def batch(records):
            calls = []
            sink = lambda r, states: calls.append((r, states))
            return run_batch(curve, config, (0.0, 1.0, 0.5, 0.1, 0.01), snapshot_stride=1, sink=sink,
                             records=records), calls

        (recorded, calls_on), (bare, calls_off) = batch(True), batch(False)
        assert [t.terminated_by for t in bare] == [t.terminated_by for t in recorded]
        assert [t.event_time for t in bare] == [t.event_time for t in recorded] == [0.03, None, None, 1.29, 0.06]
        assert [t.diagnostics for t in bare] == [None] * 5
        assert [r for r, _ in calls_off] == [r for r, _ in calls_on]
        for (_, states_off), (_, states_on) in zip(calls_off, calls_on):
            assert [st.time for st in states_off] == [st.time for st in states_on]
            for a, b in zip(states_off, states_on, strict=True):
                assert np.array_equal(_bits(a.cache.nodes), _bits(b.cache.nodes))
        # the last snapshot's time, which the sweep reads, is the last record's
        last = {r: states[-1].time for r, states in calls_on if states}
        assert [last[r] for r in range(5)] == [t.diagnostics[-1].t for t in recorded]

    def test_sweep_builds_no_records(self, monkeypatch):
        from elastic_flow import flow

        real = flow._record_columns
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(flow, "_record_columns", counted)
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.05)
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.005)
        run_sweep(curve, SweepConfig(epsilons=(0.2, 0.1), base=base, k_max=1))
        assert calls == []
        run(curve, base)
        assert calls == [6]
    def test_rows_share_the_identical_initial_state(self):
        # every flow starts from one curve: the t = 0 snapshots coincide
        curve = make_initial_curve("flattened_sine", 64, amplitude=0.05)
        states = []
        for eps in (0.2, 0.1):
            cfg = FlowConfig(epsilon=eps, n=64, dt=1e-3, t_end=0.005)
            states.append(run(curve, cfg).states[0])
        assert np.max(np.abs(states[0].curve.nodes - states[1].curve.nodes)) <= 1e-12

    def test_rows_run_on_calling_thread(self, monkeypatch):
        import threading

        from elastic_flow import flow

        real = flow.solve_banded
        threads = []

        def traced_solve(diags, rhs):
            # one entry per row and step
            threads.extend([threading.get_ident()] * len(rhs))
            return real(diags, rhs)

        monkeypatch.setattr(flow, "solve_banded", traced_solve)
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.005)
        cfg = SweepConfig(epsilons=(0.2, 0.1, 0.05), base=base, delta=0.0, k_max=0)
        run_sweep(make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg)
        assert threads == [threading.get_ident()] * (4 * 5)

    def test_batched_ladder_equals_rows_run_one_at_a_time(self):
        # the eps = 0 row and two rows that end early (at steps 26 and 34
        # with reparam_failure) among the rows of one batch
        curve = make_initial_curve("arc_with_flat_ends", 64, turn_angle=3.0)
        base = FlowConfig(epsilon=0.1, n=64, dt=2e-3, t_end=0.1)
        epsilons = (0.0, 1.0, 0.5, 0.1)
        batched = run_batch(curve, base, epsilons, snapshot_stride=1)
        alone = [run(curve, replace(base, epsilon=eps), snapshot_stride=1) for eps in epsilons]
        assert [t.terminated_by for t in batched] == [t.terminated_by for t in alone]
        assert [t.terminated_by for t in alone].count(Terminated.REACHED_T_END) == 2
        for got, want in zip(batched, alone):
            assert got.event_time == want.event_time
            assert [st.step_index for st in got.states] == [st.step_index for st in want.states]
            for a, b in zip(got.states, want.states):
                assert np.array_equal(_bits(a.curve.nodes), _bits(b.curve.nodes))
                assert np.array_equal(_bits(a.cache.kappa), _bits(b.cache.kappa))
                assert a.time == b.time
            # the flat float tables of the records
            tables = [np.ascontiguousarray(t.diagnostics).view((float, 18)) for t in (got, want)]
            assert np.array_equal(*map(_bits, tables))


def test_ck_distance_between_regularized_and_limit_flow():
    # no closed form exists; the measurement must be positive and finite
    curve = make_initial_curve("flattened_sine", 64, amplitude=0.05)
    runs = {}
    for eps in (0.1, 0.0):
        cfg = FlowConfig(epsilon=eps, n=64, dt=2e-4, t_end=0.04)
        runs[eps] = run(curve, cfg, snapshot_times=[0.02, 0.03, 0.04])
    d = ck_distance(runs[0.1], runs[0.0], 0, (0.02, 0.04))
    assert math.isfinite(d) and d > 0.0
