import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastic_flow import ConfigError, flow, make_initial_curve
from elastic_flow.convergence import SweepConfig, run_sweep
from elastic_flow.flow import FlowConfig, run
from elastic_flow.estimates import DIAGNOSTICS_HEADER
from elastic_flow.iotools import (
    SCHEMA,
    fmt,
    initial_curve,
    parse_config,
    write_diagnostics_csv,
    write_report_json,
    write_report_text,
    write_snapshot,
)
from conftest import write_states

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]


# [initial] sections: any family or none, and up to three other keys with
# finite, huge, tiny, NaN, infinite, negative, non-integer and non-numeric values
_FAMILIES = st.sampled_from([None, "1e200", "Segment"] + 3 * ["segment", "flattened_sine", "bump_perturbed_segment",
                                                              "arc_with_flat_ends"])
_VALUES = st.one_of(
    st.sampled_from(["0", "0.05", "0.3", "0.7", "1", "2.5", "-0.4", "1e200", "-1e200", "1e154", "1e-200",
                     "5e-324", "-1e-300", "nan", "inf", "-inf", "abc", "", "0x1p3"]),
    st.floats().map(repr),
)
_INITIAL_SECTIONS = st.builds(
    lambda family, keys: keys if family is None else {"family": family, **keys},
    _FAMILIES, st.dictionaries(st.sampled_from(sorted(set(SCHEMA["initial"]) - {"family"})), _VALUES, max_size=3),
)


# [flow] sections: n = 32, dt = 1e-3 and t_end = 0.01, with up to four keys
# drawn over them from the values above and the integers and round numbers
# that n, dt and t_end take; draws that would admit more than 64 segments or
# 20 steps are left out, so that each runs in milliseconds
_FLOW_VALUES = st.one_of(
    _VALUES,
    st.integers(-2, 100).map(str),
    st.sampled_from(["15", "16", "33", "64", "99999", "100000", "5e-4", "1e-3", "2e-3", "2.5e-3", "0.01", "0.02",
                     "0.1", "0.5", "1", "1e300", "1e301", "1e308", "1e-320", "-0.0", "1e-10"]),
)


def _short(section: dict) -> bool:
    # False when the section, if admitted, would step more than 64 segments
    # or take more than 20 steps: a draw's cap, below the limits it tests
    try:
        if 64 < int(section["n"]) < flow.MAX_NODES:
            return False
    except ValueError:
        pass
    try:
        steps = float(section["t_end"]) / float(section["dt"])
    except (ValueError, ZeroDivisionError):
        return True
    return not 20.5 < steps < 2 * flow.MAX_STEPS


_FLOW_SECTIONS = st.dictionaries(st.sampled_from(sorted(SCHEMA["flow"])), _FLOW_VALUES, max_size=4).map(
    lambda keys: {"n": "32", "dt": "1e-3", "t_end": "0.01", **keys}
).filter(_short)


def small_run(n=64, dt=1e-3, t_end=0.01, eps=0.1, stride=1):
    curve = make_initial_curve("flattened_sine", n, amplitude=0.05)
    cfg = FlowConfig(epsilon=eps, n=n, dt=dt, t_end=t_end)
    return run(curve, cfg, snapshot_stride=stride)


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        cfg, _ = parse_config("epsilon = 0.1\n")
        assert isinstance(cfg, FlowConfig)
        assert cfg.epsilon == 0.1
        assert cfg.n == 128
        assert cfg.kappa_blowup_threshold == 1e3
        assert flow.SOLVER_TOL == 1e-10

    def test_epsilon_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config("epsilon = 1.5\n")
        assert "epsilon" in str(err.value)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[flow]\nepsilon = 0.1\nwibble = 3\n")
        assert "flow.wibble" in str(err.value)

    def test_reparam_every_refused(self):
        # the stepper redistributes after every step; the key is gone
        with pytest.raises(ConfigError) as err:
            parse_config("[flow]\nepsilon = 0.1\nreparam_every = 2\n")
        assert "flow.reparam_every" in str(err.value)

    @pytest.mark.parametrize("value", ["1e-10", "inf", "nan", "0.0", "-1.0"])
    def test_solver_tol_refused(self, value):
        # the tolerance is the constant flow.SOLVER_TOL; the old default is refused too
        with pytest.raises(ConfigError) as err:
            parse_config(f"[flow]\nepsilon = 0.1\nsolver_tol = {value}\n")
        assert err.value.key == "flow.solver_tol"
        assert "unknown key" in str(err.value)

    def test_sweep_document(self):
        text = """
        [flow]
        epsilon = 0.1
        dt = 1e-4
        t_end = 0.01
        [sweep]
        epsilons = 0.2, 0.1, 0.05
        delta = 0.001
        k_max = 1
        """
        cfg, _ = parse_config(text)
        assert isinstance(cfg, SweepConfig)
        assert cfg.epsilons == (0.2, 0.1, 0.05)
        assert cfg.base.dt == 1e-4

    def test_sweep_epsilons_must_decrease(self):
        text = "[sweep]\nepsilons = 0.1, 0.2\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_comments_and_sections(self):
        text = "# header\nepsilon = 0.2  # trailing\n[initial]\nfamily = segment\n"
        cfg, spec = parse_config(text)
        assert cfg.epsilon == 0.2
        assert spec["family"] == "segment"

    def test_initial_spec_defaults(self):
        # the endpoints a document leaves out are make_initial_curve's own
        _, spec = parse_config("[initial]\nfamily = flattened_sine\namplitude = 0.07\n")
        assert spec == {"family": "flattened_sine", "amplitude": 0.07}
        nodes = make_initial_curve(n=64, **spec).nodes
        assert tuple(nodes[0]) == (0.0, 0.0) and tuple(nodes[-1]) == (1.0, 0.0)

    @pytest.mark.parametrize("keys,name,value", [
        ("px = 0.5", "p", (0.5, 0.0)),
        ("qy = 2", "q", (1.0, 2.0)),
        ("support_hi = 0.8", "support", (0.3, 0.8)),
    ])
    def test_one_key_of_a_pair_takes_the_other_default(self, keys, name, value):
        _, spec = parse_config(f"[initial]\nfamily = segment\n{keys}\n")
        assert spec[name] == value

    @settings(max_examples=300, deadline=None)
    @given(section=_INITIAL_SECTIONS)
    @example(section={"py": "1e200"})
    @example(section={"family": "bump_perturbed_segment", "qx": "1.3e154", "amplitude": "2.6e154",
                      "support_hi": "0.4"})
    def test_any_initial_section_builds_a_finite_curve_or_names_its_key(self, section):
        # as `simulate` and `sweep` admit it, with no stepping: a curve whose
        # nodes are all finite, or one refusal on an [initial] key; no warning
        text = "[flow]\nn = 32\n[initial]\n" + "".join(f"{key} = {value}\n" for key, value in section.items())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                config, spec = parse_config(text)
                curve = initial_curve(spec, config.n)
            except ConfigError as exc:
                section_name, key = exc.key.split(".")
                assert section_name == "initial" and key in SCHEMA["initial"], str(exc)
                assert "\n" not in str(exc)
                # an endpoint refusal names a coordinate the document wrote
                if key in ("px", "py", "qx", "qy"):
                    assert key in section, str(exc)
                return
        assert curve.n == 32 and np.isfinite(curve.nodes).all()

    @settings(max_examples=400, deadline=None)
    @given(section=_FLOW_SECTIONS)
    @example(section={"n": "32", "dt": "1e308", "t_end": "1e308"})
    def test_any_flow_section_runs_to_a_reason_or_names_its_key(self, section):
        # as `simulate` admits and runs it: a trajectory that ends with a
        # Terminated reason, or one refusal on a [flow] key; no warning
        text = "".join(f"{key} = {value}\n" for key, value in section.items())
        text += "[initial]\nfamily = flattened_sine\namplitude = 0.001\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                config, spec = parse_config(text)
            except ConfigError as exc:
                section_name, key = exc.key.split(".")
                assert section_name == "flow" and key in SCHEMA["flow"], str(exc)
                assert "\n" not in str(exc)
                return
            traj = run(initial_curve(spec, config.n), config)
        assert isinstance(traj.terminated_by, flow.Terminated)
        assert len(traj.diagnostics) == traj.states[-1].step_index + 1

    def test_flow_and_sweep_keys_are_the_config_fields(self):
        # a new config field cannot go unparsed
        assert set(SCHEMA["flow"]) == {f.name for f in dataclasses.fields(FlowConfig)}
        assert set(SCHEMA["sweep"]) == {f.name for f in dataclasses.fields(SweepConfig)} - {"base"}


class TestSnapshotRoundTrip:
    def test_bit_exact(self, tmp_path):
        traj = small_run()
        state = traj.states[-1]
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), state)
        with open(path, encoding="ascii") as fh:
            header = dict(field.split("=") for field in fh.readline().split())
        rows = np.loadtxt(path, skiprows=1)
        assert int(header["n"]) == len(rows) - 1
        assert np.array_equal(rows[:, :2], state.curve.nodes)
        assert np.array_equal(rows[:, 2], state.cache.kappa)
        assert float(header["t"]) == state.time and float(header["eps"]) == state.epsilon

    def test_rewrite_is_byte_identical(self, tmp_path):
        traj = small_run()
        state = traj.states[-1]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_snapshot(str(p1), state)
        write_snapshot(str(p2), state)
        assert p1.read_bytes() == p2.read_bytes()


class TestFormattedBytes:
    """The files equal the one-value-at-a-time `fmt` rendering, byte for byte."""

    def test_snapshot_matches_per_value_fmt(self, tmp_path):
        state = small_run().states[-1]
        nodes = state.curve.nodes.copy()
        nodes[1:6, 1] = [-0.0, 5e-324, -1e-300, 0.1, 1.0 / 3.0]
        kappa = state.cache.kappa.copy()
        kappa[3 : 3 + len(SPECIAL)] = SPECIAL
        state = dataclasses.replace(state, cache=dataclasses.replace(state.cache, nodes=nodes, kappa=kappa))
        lines = [
            f"n={state.curve.n} length={fmt(state.cache.total_length)} "
            f"t={fmt(state.time)} eps={fmt(state.epsilon)}"
        ]
        for (x, y), kap in zip(nodes, kappa):
            lines.append(f"{fmt(x)} {fmt(y)} {fmt(kap)}")
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), state)
        assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 11, 64, 65, 200])
    def test_diagnostics_csv_matches_per_value_fmt(self, tmp_path, count):
        # the file is written RECORD_BLOCK = 64 rows at a time: no block, a
        # partial one, one full one, and full ones followed by a partial one
        records = np.resize(small_run(t_end=0.2).diagnostics, count).view(np.recarray)
        if count:
            records.energy_Feps[-1] = SPECIAL[0]
            records.dissipation_rate[-1] = SPECIAL[1]
            records.kappa_l2_sq[-1] = SPECIAL[2:7]
            records.max_abs_E[-1] = SPECIAL[7]
            records.max_abs_lambda[-1] = SPECIAL[8]
        lines = [DIAGNOSTICS_HEADER]
        for rec in records:
            values = [rec.t, rec.length, rec.energy_Feps, rec.dissipation_rate, *rec.kappa_l2_sq,
                      *rec.boundary_residuals.reshape(-1), rec.lambda_endpoint_residual, rec.max_abs_E,
                      rec.max_abs_lambda]
            lines.append(",".join(fmt(v) for v in values))
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(str(path), records)
        assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"

    def test_strided_records_write_the_rows_they_hold(self, tmp_path):
        records = small_run().diagnostics
        write_diagnostics_csv(str(tmp_path / "all.csv"), records)
        write_diagnostics_csv(str(tmp_path / "strided.csv"), records[::3])
        lines = (tmp_path / "all.csv").read_text(encoding="ascii").splitlines()
        assert len(lines) == 1 + 11
        assert (tmp_path / "strided.csv").read_text(encoding="ascii").splitlines() == lines[:1] + lines[1::3]


class TestEmitOutputs:
    """The files `simulate` and `sweep` write, by the writers they call."""

    def test_snapshot_count_matches_stride_rule(self, tmp_path):
        # 10 steps, stride 10: states at steps 0, 10 -> ceil(10/10) + 1 files
        traj = small_run(t_end=0.01, dt=1e-3, stride=10)
        written = write_states(tmp_path, traj.states)
        assert len(written) == math.ceil(10 / 10) + 1
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in written)

    def test_snapshot_count_with_stride_4(self, tmp_path):
        traj = small_run(t_end=0.01, dt=1e-3, stride=4)
        written = write_states(tmp_path, traj.states)
        # steps 0, 4, 8 plus the final step 10
        assert [os.path.basename(p) for p in written] == [
            f"snapshot_{k:06d}.txt" for k in (0, 4, 8, 10)
        ]

    def test_deterministic_bytes(self, tmp_path):
        traj = small_run()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            write_states(out, traj.states)
            write_diagnostics_csv(str(out / "diagnostics.csv"), traj.diagnostics)
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_diagnostics_csv_round_trip(self, tmp_path):
        traj = small_run()
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(str(path), traj.diagnostics)
        assert path.read_text(encoding="ascii").split("\n", 1)[0] == DIAGNOSTICS_HEADER
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (len(traj.diagnostics), 18)
        # the flat float table of the records, bit for bit
        table = np.ascontiguousarray(traj.diagnostics).view((float, 18))
        assert np.array_equal(data.view(np.uint64), table.view(np.uint64))

    def test_report_text_and_json_agree(self, tmp_path):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.01)
        cfg = SweepConfig(epsilons=(0.2, 0.1), base=base, delta=0.0, k_max=1)
        report = run_sweep(make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg)
        write_report_text(str(tmp_path / "report.txt"), report)
        write_report_json(str(tmp_path / "report.json"), report)
        payload = json.loads((tmp_path / "report.json").read_text())
        text = (tmp_path / "report.txt").read_text().splitlines()
        rows = [line for line in text if line and not line.startswith(("#", "eps"))]
        for i, line in enumerate(rows):
            cells = [float(v) for v in line.split(",")]
            assert cells[0] == payload["epsilons"][i]
            for k in range(2):
                assert cells[1 + k] == payload["distances"][i][k]
