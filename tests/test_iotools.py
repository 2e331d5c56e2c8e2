import dataclasses
import json
import math
import os

import numpy as np
import pytest

from elastic_flow import ConfigError, make_initial_curve
from elastic_flow.convergence import SweepConfig, run_sweep
from elastic_flow.flow import FlowConfig, run
from elastic_flow.estimates import DiagnosticsRecord
from elastic_flow.geometry import DiscreteCurve
from elastic_flow.iotools import (
    RunManifest,
    emit_outputs,
    fmt,
    parse_config,
    parse_initial_spec,
    read_diagnostics_csv,
    read_snapshot,
    write_diagnostics_csv,
    write_snapshot,
)

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]


def small_run(n=64, dt=1e-3, t_end=0.01, eps=0.1, stride=1):
    curve = make_initial_curve("flattened_sine", n, amplitude=0.05)
    cfg = FlowConfig(epsilon=eps, n=n, dt=dt, t_end=t_end)
    return run(curve, cfg, snapshot_stride=stride)


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        cfg = parse_config("epsilon = 0.1\n")
        assert isinstance(cfg, FlowConfig)
        assert cfg.epsilon == 0.1
        assert cfg.n == 128
        assert cfg.reparam_every == 1
        assert cfg.kappa_blowup_threshold == 1e3
        assert cfg.solver_tol == 1e-10

    def test_epsilon_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config("epsilon = 1.5\n")
        assert "epsilon" in str(err.value)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[flow]\nepsilon = 0.1\nwibble = 3\n")
        assert "flow.wibble" in str(err.value)

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
        cfg = parse_config(text)
        assert isinstance(cfg, SweepConfig)
        assert cfg.epsilons == (0.2, 0.1, 0.05)
        assert cfg.base.dt == 1e-4

    def test_sweep_epsilons_must_decrease(self):
        text = "[sweep]\nepsilons = 0.1, 0.2\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_comments_and_sections(self):
        text = "# header\nepsilon = 0.2  # trailing\n[initial]\nfamily = segment\n"
        cfg = parse_config(text)
        assert cfg.epsilon == 0.2
        spec = parse_initial_spec(text)
        assert spec["family"] == "segment"

    def test_initial_spec_defaults(self):
        spec = parse_initial_spec("[initial]\nfamily = flattened_sine\namplitude = 0.07\n")
        assert spec["amplitude"] == 0.07
        assert spec["p"] == (0.0, 0.0) and spec["q"] == (1.0, 0.0)


class TestSnapshotRoundTrip:
    def test_bit_exact(self, tmp_path):
        traj = small_run()
        state = traj.states[-1]
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), state)
        nodes, kappa, t, eps = read_snapshot(str(path))
        assert np.array_equal(nodes, state.curve.nodes)
        assert np.array_equal(kappa, state.cache.kappa)
        assert t == state.time and eps == state.epsilon

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
        state = dataclasses.replace(
            state,
            curve=DiscreteCurve(nodes),
            cache=dataclasses.replace(state.cache, kappa=kappa),
        )
        lines = [
            f"n={state.curve.n} length={fmt(state.cache.total_length)} "
            f"t={fmt(state.time)} eps={fmt(state.epsilon)}"
        ]
        for (x, y), kap in zip(nodes, kappa):
            lines.append(f"{fmt(x)} {fmt(y)} {fmt(kap)}")
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), state)
        assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 11])
    def test_diagnostics_csv_matches_per_value_fmt(self, tmp_path, count):
        records = small_run().diagnostics[:count]
        if records:
            records[-1] = dataclasses.replace(
                records[-1],
                energy_Feps=SPECIAL[0],
                dissipation_rate=SPECIAL[1],
                kappa_l2_sq=np.array(SPECIAL[2:7]),
                max_abs_E=SPECIAL[7],
                max_abs_lambda=SPECIAL[8],
            )
        lines = [DiagnosticsRecord.CSV_HEADER]
        lines += [",".join(fmt(v) for v in rec.row()) for rec in records]
        path = tmp_path / "diagnostics.csv"
        write_diagnostics_csv(str(path), records)
        assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"


class TestEmitOutputs:
    def test_snapshot_count_matches_stride_rule(self, tmp_path):
        # 10 steps, stride 10: states at steps 0, 10 -> ceil(10/10) + 1 files
        traj = small_run(t_end=0.01, dt=1e-3, stride=10)
        manifest = RunManifest(command="simulate", out_dir=str(tmp_path), stride=10)
        written = emit_outputs(traj, manifest)
        snapshots = [p for p in written if os.path.basename(p).startswith("snapshot_")]
        assert len(snapshots) == math.ceil(10 / 10) + 1

    def test_snapshot_count_with_stride_4(self, tmp_path):
        traj = small_run(t_end=0.01, dt=1e-3, stride=4)
        manifest = RunManifest(command="simulate", out_dir=str(tmp_path), stride=4)
        written = emit_outputs(traj, manifest)
        snapshots = [p for p in written if os.path.basename(p).startswith("snapshot_")]
        # steps 0, 4, 8 plus the final step 10
        assert len(snapshots) == 4

    def test_deterministic_bytes(self, tmp_path):
        traj = small_run()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            emit_outputs(
                traj, RunManifest(command="simulate", out_dir=str(out), stride=1)
            )
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_diagnostics_csv_round_trip(self, tmp_path):
        traj = small_run()
        manifest = RunManifest(command="simulate", out_dir=str(tmp_path))
        emit_outputs(traj, manifest)
        data = read_diagnostics_csv(str(tmp_path / "diagnostics.csv"))
        assert data.shape == (len(traj.diagnostics), 18)
        assert np.array_equal(data[:, 0], np.array([r.t for r in traj.diagnostics]))
        energies = np.array([r.energy_Feps for r in traj.diagnostics])
        assert np.array_equal(data[:, 2], energies)

    def test_report_text_and_json_agree(self, tmp_path):
        base = FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=0.01)
        cfg = SweepConfig(epsilons=(0.2, 0.1), base=base, delta=0.0, k_max=1)
        report = run_sweep(make_initial_curve("flattened_sine", 64, amplitude=0.05), cfg)
        manifest = RunManifest(command="sweep", out_dir=str(tmp_path))
        emit_outputs(report, manifest)
        payload = json.loads((tmp_path / "report.json").read_text())
        text = (tmp_path / "report.txt").read_text().splitlines()
        rows = [line for line in text if line and not line.startswith(("#", "eps"))]
        for i, line in enumerate(rows):
            cells = [float(v) for v in line.split(",")]
            assert cells[0] == payload["epsilons"][i]
            for k in range(2):
                assert cells[1 + k] == payload["distances"][i][k]


class TestVerifyManifest:
    def test_wrapper_writes_report_and_reports_status(self, tmp_path):
        from elastic_flow.iotools import run_verify

        manifest = RunManifest(command="verify", out_dir=str(tmp_path), seed=5)
        status, text = run_verify(manifest, tag_filter="quick")
        assert status == 0
        assert (tmp_path / "verify_report.txt").read_text().startswith("[PASS]")
        assert "criteria passed" in text
