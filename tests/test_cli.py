import ast
import functools
import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from elastic_flow import acceptance, flow, geometry, make_initial_curve
from elastic_flow.cli import main
from elastic_flow.errors import IoError
from elastic_flow.iotools import parse_config, write_diagnostics_csv, write_snapshot
from conftest import write_states

SIMULATE_CFG = """
[flow]
epsilon = 0.1
n = 64
dt = 1e-3
t_end = 0.01

[initial]
family = flattened_sine
amplitude = 0.05
"""

SWEEP_CFG = """
[flow]
epsilon = 0.1
n = 64
dt = 1e-3
t_end = 0.01

[sweep]
epsilons = 0.2, 0.1
delta = 0.0
k_max = 1

[initial]
family = flattened_sine
amplitude = 0.05
"""

# the eps = 0 reference fails its first redistribution (reparam_failure at
# t = 0.03) while the rungs 1.0, 0.5 and 0.1 reach t_end
FAILED_REFERENCE_CFG = """
[flow]
n = 64
dt = 0.03
t_end = 1.2

[sweep]
epsilons = 1.0, 0.5, 0.1, 0.01
delta = 0

[initial]
family = arc_with_flat_ends
turn_angle = 12
"""

# 200 steps: three full record blocks and a partial fourth
LONG_CFG = SIMULATE_CFG.replace("dt = 1e-3", "dt = 1e-4").replace("t_end = 0.01", "t_end = 0.02")


@pytest.fixture
def cfg_file(tmp_path):
    def write(content, name="run.cfg"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestSimulate:
    def test_writes_outputs(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "out"
        code = main(
            ["simulate", "-c", cfg_file(SIMULATE_CFG), "-o", str(out), "--stride", "5"]
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert "diagnostics.csv" in names
        assert sum(n.startswith("snapshot_") for n in names) == 3  # steps 0, 5, 10

    def test_zero_stride_reports_error(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "-c", cfg_file(SIMULATE_CFG), "-o", str(out), "--stride", "0"])
        assert code == 2
        assert "error: snapshot_stride" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path, cfg_file):
        cfg = cfg_file(SIMULATE_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "-c", cfg, "-o", str(out_a)]) == 0
        assert main(["simulate", "-c", cfg, "-o", str(out_b)]) == 0
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unredistributable_initial_curve_reports_error(self, tmp_path, cfg_file, capsys):
        cfg = SIMULATE_CFG.replace("epsilon = 0.1", "epsilon = 0").replace("n = 64", "n = 63")
        cfg = cfg.replace("dt = 1e-3", "dt = 5e-4").replace("t_end = 0.01", "t_end = 5e-3")
        cfg = cfg.replace("flattened_sine", "bump_perturbed_segment").replace("0.05", "0.852")
        out = tmp_path / "out"
        code = main(["simulate", "-c", cfg_file(cfg), "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial curve cannot be redistributed to constant speed")
        assert not out.exists()

    def test_sweep_config_rejected(self, tmp_path, cfg_file, capsys):
        code = main(
            ["simulate", "-c", cfg_file(SWEEP_CFG), "-o", str(tmp_path / "x")]
        )
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_bad_config_reports_key(self, tmp_path, cfg_file, capsys):
        code = main(
            ["simulate", "-c", cfg_file("epsilon = 2.0\n"), "-o", str(tmp_path / "x")]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err


    @pytest.mark.parametrize("stride", [1, 7])
    def test_streamed_files_equal_in_memory_files(self, tmp_path, cfg_file, capsys, stride):
        streamed, stored = tmp_path / "streamed", tmp_path / "stored"
        assert main(["simulate", "-c", cfg_file(LONG_CFG), "-o", str(streamed), "--stride", str(stride)]) == 0
        traj = flow.run(
            make_initial_curve("flattened_sine", 64, amplitude=0.05), parse_config(LONG_CFG)[0],
            snapshot_stride=stride,
        )
        written = write_states(stored, traj.states)
        write_diagnostics_csv(str(stored / "diagnostics.csv"), traj.diagnostics)
        assert f"reached_t_end; wrote {len(written) + 1} files to" in capsys.readouterr().out
        names = sorted(os.listdir(stored))
        assert sorted(os.listdir(streamed)) == names
        for name in names:
            assert (streamed / name).read_bytes() == (stored / name).read_bytes(), name

    def test_uncreatable_output_fails_before_stepping(self, tmp_path, cfg_file, capsys, monkeypatch):
        steps = _count_calls(monkeypatch, flow, "_advance")
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["simulate", "-c", cfg_file(SIMULATE_CFG), "-o", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot create")
        assert steps == []

    def test_reused_output_refused_before_stepping(self, tmp_path, cfg_file, capsys, monkeypatch):
        cfg, out = cfg_file(SIMULATE_CFG), tmp_path / "out"
        assert main(["simulate", "-c", cfg, "-o", str(out), "--stride", "7"]) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(first) == 4  # steps 0, 7, 10 and diagnostics.csv
        steps = _count_calls(monkeypatch, flow, "_advance")
        assert main(["simulate", "-c", cfg, "-o", str(out), "--stride", "1000"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert steps == []
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_failing_write_stops_the_run_within_a_block(self, tmp_path, cfg_file, capsys, monkeypatch):
        steps = _count_calls(monkeypatch, flow, "_advance")
        out = tmp_path / "out"
        (out / "snapshot_000000.txt").mkdir(parents=True)
        code = main(["simulate", "-c", cfg_file(LONG_CFG), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert len(steps) <= flow.RECORD_BLOCK
        assert not (out / "diagnostics.csv").exists()

    def test_failing_write_in_the_writer_process_stops_the_run(self, tmp_path, cfg_file, capsys, monkeypatch):
        # snapshot 128 is handed to the writer process at step 192. The
        # writer's error surfaces at the handover of step 256, or at the one
        # of step 320 when the writer is slow; one raised only at close
        # would read all 1,000 steps
        steps = _count_calls(monkeypatch, flow, "_advance")
        out = tmp_path / "out"
        blocker = out / "snapshot_000128.txt"
        blocker.mkdir(parents=True)
        code = main(["simulate", "-c", cfg_file(LONG_CFG.replace("t_end = 0.02", "t_end = 0.1")), "-o", str(out)])
        assert code == 2
        with pytest.raises(IoError) as in_process:
            write_snapshot(str(blocker), flow.FlowState.from_curve(make_initial_curve("segment", 64), 0.1))
        assert capsys.readouterr().err == f"error: {in_process.value}\n"
        assert str(in_process.value).startswith("cannot write ")
        assert not (out / "diagnostics.csv").exists()
        assert len(steps) <= 128 + 3 * flow.RECORD_BLOCK

    @pytest.mark.parametrize("path", ["success", "write_error", "fork_error", "interrupt"])
    def test_no_process_or_descriptor_is_left_behind(self, tmp_path, cfg_file, capsys, monkeypatch, path):
        fds = _open_fds()
        out = tmp_path / "out"
        if path == "write_error":
            (out / "snapshot_000128.txt").mkdir(parents=True)
        elif path == "fork_error":
            def no_fork():
                raise OSError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        elif path == "interrupt":
            steps = _count_calls(monkeypatch, flow, "_advance")
            counted = flow._advance

            def interrupted(*args):
                if len(steps) == 99:
                    raise KeyboardInterrupt
                return counted(*args)

            monkeypatch.setattr(flow, "_advance", interrupted)
        args = ["simulate", "-c", cfg_file(LONG_CFG), "-o", str(out)]
        if path == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                main(args)
        else:
            assert main(args) == (0 if path == "success" else 2)
        err = capsys.readouterr().err
        if path in ("write_error", "fork_error"):
            assert err.startswith("error: ") and "Traceback" not in err
            assert not (out / "diagnostics.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _open_fds() == fds

    def test_memory_does_not_grow_with_snapshot_count(self, tmp_path, cfg_file):
        # tracemalloc sees numpy's buffers. A stored n = 128 state holds about
        # 10 kB of arrays, so keeping 600 more would add about 6 MB; the 600
        # more diagnostics records add about 0.2 MB.
        cfg = LONG_CFG.replace("n = 64", "n = 128")
        peaks = []
        for steps in (1, 200, 800):
            path = cfg_file(cfg.replace("t_end = 0.02", f"t_end = {steps * 1e-4}"), f"{steps}.cfg")
            # the untraced one-step run loads what the first run of a
            # process loads, so neither traced run counts it
            if steps > 1:
                tracemalloc.start()
            try:
                with redirect_stdout(io.StringIO()):
                    assert main(["simulate", "-c", path, "-o", str(tmp_path / str(steps))]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < 600 * 10_000 / 5


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _open_fds():
    # the descriptors this process holds, or None where /proc is missing
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestSweep:
    def test_writes_report_pair(self, tmp_path, cfg_file):
        out = tmp_path / "out"
        code = main(["sweep", "-c", cfg_file(SWEEP_CFG), "-o", str(out)])
        assert code == 0
        assert sorted(os.listdir(out)) == ["report.json", "report.txt"]

    def test_flow_config_rejected(self, tmp_path, cfg_file, capsys):
        code = main(["sweep", "-c", cfg_file(SIMULATE_CFG), "-o", str(tmp_path / "x")])
        assert code == 2

    def test_uncreatable_output_reports_error(self, tmp_path, cfg_file, capsys, monkeypatch):
        steps = _count_calls(monkeypatch, flow, "_advance")
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep", "-c", cfg_file(SWEEP_CFG), "-o", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot create")
        assert steps == []

    def test_failed_reference_is_refused(self, tmp_path, cfg_file, capsys, monkeypatch):
        # the reference stops at step 1 and the rungs stop with it
        steps = _count_calls(monkeypatch, flow, "_advance")
        out = tmp_path / "out"
        assert main(["sweep", "-c", cfg_file(FAILED_REFERENCE_CFG), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the epsilon = 0 reference ended with reparam_failure at t = 0.03, before t_end = 1.2\n"
        )
        assert os.listdir(out) == []
        assert len(steps) == 1


class TestVerify:
    def test_filtered_verify_passes_and_writes_report(self, tmp_path, capsys):
        code = main(["verify", "--filter", "gronwall", "--seed", "3", "-o", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "gronwall" in out
        assert (tmp_path / "verify_report.txt").exists()

    def test_quick_verify_writes_the_table_it_prints(self, tmp_path, capsys):
        code = main(["verify", "--filter", "quick", "--seed", "5", "-o", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        report = (tmp_path / "verify_report.txt").read_text()
        assert report.startswith("[PASS]")
        assert report == out
        assert "criteria passed" in out

    def test_uncreatable_output_fails_before_the_suite(self, tmp_path, capsys, monkeypatch):
        suites = _count_calls(monkeypatch, acceptance, "verify")
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["verify", "--filter", "gronwall", "-o", str(blocker)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot create")
        assert suites == []

    def test_filter_that_selects_nothing_writes_no_report(self, tmp_path, capsys, monkeypatch):
        suites = _count_calls(monkeypatch, acceptance, "verify")
        assert main(["verify", "--filter", "determinism", "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: --filter: 'determinism' selects none of criteria 1-11\n"
        assert not (tmp_path / "out").exists()
        assert suites == []

    def test_corrupted_stencil_fails(self, capsys):
        # a biased curvature stencil puts a dt-independent offset into the
        # dissipation identity, so its Richardson slope collapses
        geometry.set_stencil_corruption(0.05)
        try:
            code = main(["verify", "--filter", "dissipation", "--seed", "3"])
        finally:
            geometry.set_stencil_corruption(0.0)
        assert code != 0

    def test_same_seed_byte_identical_reports(self, capsys):
        assert main(["verify", "--filter", "gronwall", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--filter", "gronwall", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second


def _fresh_python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    # a fresh interpreter, so the suite's own imports do not count; `env`
    # replaces the environment it inherits
    src = str(Path(geometry.__file__).resolve().parents[1])
    env = {**(os.environ if env is None else env), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


@functools.cache
def _modules_after(code: str) -> tuple:
    # the modules loaded once `code` has run; tests that ask about the same
    # code share one fresh interpreter
    proc = _fresh_python(code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.split())


def _scipy_modules_after(code: str) -> list:
    return [m for m in _modules_after(code) if m == "scipy" or m.startswith("scipy.")]


def test_start_up_imports_no_scipy():
    # every command pays for what importing the entry points loads; LAPACK
    # loads on the first banded or tridiagonal solve
    assert _scipy_modules_after("import elastic_flow.cli, elastic_flow.acceptance") == []


_VERIFY = (
    "from contextlib import redirect_stdout\nimport io\nfrom elastic_flow.cli import main\n"
    "with redirect_stdout(io.StringIO()):\n    assert main(['verify', '--filter', '{}', '--seed', '0']) == 0\n"
)


def test_gn_verification_loads_no_scipy():
    assert _scipy_modules_after(_VERIFY.format("gn")) == []


_SHORT_RUN = (
    "from elastic_flow import FlowConfig, make_initial_curve, run\n"
    "curve = make_initial_curve('flattened_sine', 64, amplitude=0.05)\n"
    "run(curve, FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=3e-3))\n"
)


@pytest.mark.parametrize("code", [
    _SHORT_RUN,
    "from elastic_flow import FlowConfig, SweepConfig, make_initial_curve, run_sweep\n"
    "curve = make_initial_curve('flattened_sine', 64, amplitude=0.05)\n"
    "run_sweep(curve, SweepConfig((0.2, 0.1), FlowConfig(n=64, dt=1e-3, t_end=3e-3), k_max=0))\n",
    _VERIFY.format("quick"),
    _VERIFY.format("gronwall"),
    "from elastic_flow import FlowConfig, make_initial_curve, run\nfrom elastic_flow.flow import curvature_rate_consistency\n"
    "curve = make_initial_curve('flattened_sine', 64, amplitude=0.05)\n"
    "traj = run(curve, FlowConfig(epsilon=0.1, n=64, dt=1e-3, t_end=3e-3), snapshot_stride=1)\n"
    "curvature_rate_consistency(traj, 2e-3)\n",
    "from elastic_flow import FlowConfig, make_initial_curve, run\nfrom elastic_flow.convergence import ck_distance\n"
    "a, b = (run(make_initial_curve('segment', n), FlowConfig(n=n, dt=1e-3, t_end=3e-3)) for n in (32, 48))\n"
    "ck_distance(a, b, 1, (0.0, 3e-3))\n",
], ids=["run", "run_sweep", "verify_quick", "verify_gronwall", "curvature_rate", "ck_distance_resampled"])
def test_stepping_loads_only_the_lapack_wrappers(code):
    assert _scipy_modules_after(code) == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("command,config", [("simulate", SIMULATE_CFG), ("sweep", SWEEP_CFG)])
def test_simulate_and_sweep_do_not_load_the_suite(tmp_path, cfg_file, command, config):
    # `verify` alone imports acceptance
    args = [command, "-c", cfg_file(config), "-o", str(tmp_path / "out")]
    modules = _modules_after(
        "from contextlib import redirect_stdout\nimport io\nfrom elastic_flow.cli import main\n"
        f"with redirect_stdout(io.StringIO()):\n    assert main({args!r}) == 0\n"
    )
    assert "elastic_flow.cli" in modules and "elastic_flow.flow" in modules
    assert "elastic_flow.acceptance" not in modules
    # `simulate` alone imports the snapshot writer; no command needs `select`
    assert ("elastic_flow.writer" in modules) == (command == "simulate")
    assert "select" not in modules


def test_verify_loads_neither_the_writer_nor_select():
    modules = _modules_after(_VERIFY.format("quick"))
    assert "elastic_flow.acceptance" in modules
    assert "elastic_flow.writer" not in modules and "select" not in modules


_BAD_INPUT = {
    "t_end_inf": (["simulate"], SIMULATE_CFG.replace("t_end = 0.01", "t_end = inf"),
                  "error: flow.t_end: must be positive and finite, as must t_end / dt"),
    # the sweep always measures on its default grid
    "snapshot_times_key": (["sweep"], SWEEP_CFG.replace("k_max = 1", "k_max = 1\nsnapshot_times = 0.005"),
                           "error: sweep.snapshot_times: unknown key"),
    # refused when the config is built, before the output directory
    "t_end_off_dt_grid": (["sweep"], SWEEP_CFG.replace("dt = 1e-3", "dt = 3e-4"),
                          "error: flow.t_end: must be a positive multiple of dt"),
    "steps_overflow": (["simulate"], "[flow]\nn = 64\ndt = 1e-300\nt_end = 1e10\n[initial]\nfamily = segment\n",
                       "error: flow.t_end: must be positive and finite, as must t_end / dt"),
    "sweep_steps_overflow": (["sweep"],
                             SWEEP_CFG.replace("dt = 1e-3", "dt = 1e-300").replace("t_end = 0.01", "t_end = 1e10"),
                             "error: flow.t_end: must be positive and finite, as must t_end / dt"),
    # finite, but 1e300 steps: refused before the run starts
    "steps_above_max": (["simulate"], "[flow]\nn = 64\ndt = 1e-300\nt_end = 1\n[initial]\nfamily = segment\n",
                        "error: flow.t_end: t_end / dt = 1e+300 exceeds MAX_STEPS = 1000000"),
    "n_above_max": (["simulate"], SIMULATE_CFG.replace("n = 64", "n = 1000000000"),
                    "error: flow.n: 1000000001 nodes exceed MAX_NODES = 100000"),
    "work_above_max": (["simulate"], "[flow]\nn = 10000\ndt = 1e-4\nt_end = 100\n[initial]\nfamily = segment\n",
                       "error: flow.t_end: steps x rows x nodes = 1000000 x 1 x 10001 = 10001000000 "
                       "exceeds MAX_WORK = 10000000000"),
    "sweep_rows_above_max": (["sweep"], SWEEP_CFG.replace(
        "epsilons = 0.2, 0.1", "epsilons = " + ", ".join(repr(1 - i / 1e5) for i in range(10**5))
    ), "error: sweep.epsilons: rows x nodes = 100001 x 65 = 6500065 exceeds MAX_NODES = 100000"),
    "seed_negative": (["verify", "--seed", "-1"], None,
                      "elastic-flow verify: error: argument --seed: must be non-negative, got -1"),
    "filter_selects_nothing": (["verify", "--filter", "flwo"], None,
                               "error: --filter: 'flwo' selects none of criteria 1-11"),
    # criterion 12 alone would compare two empty tables
    "filter_selects_only_determinism": (["verify", "--filter", "12"], None,
                                        "error: --filter: '12' selects none of criteria 1-11"),
    "amplitude_nan": (["simulate"], SIMULATE_CFG.replace("amplitude = 0.05", "amplitude = nan"),
                      "error: initial.amplitude: amplitude outside documented range [0, 2|P-Q|]"),
    "amplitude_inf": (["simulate"], SIMULATE_CFG.replace("amplitude = 0.05", "amplitude = inf"),
                      "error: initial.amplitude: amplitude outside documented range [0, 2|P-Q|]"),
    "amplitude_huge": (["simulate"], SIMULATE_CFG.replace("amplitude = 0.05", "amplitude = 1e300"),
                       "error: initial.amplitude: amplitude outside documented range [0, 2|P-Q|]"),
    "turn_angle_nan": (["simulate"], SIMULATE_CFG.replace(
        "family = flattened_sine\namplitude = 0.05", "family = arc_with_flat_ends\nturn_angle = nan"
    ), "error: initial.turn_angle: turn angle outside documented range [-4pi, 4pi]"),
    "px_nan": (["simulate"], SIMULATE_CFG + "px = nan\n", "error: initial.px: endpoints must have finite coordinates"),
    "qx_inf": (["simulate"], SIMULATE_CFG + "qx = inf\n", "error: initial.qx: endpoints must have finite coordinates"),
    # finite, but the distance's square overflows: refused before numpy warns
    "py_huge": (["simulate"], SIMULATE_CFG.replace("n = 64", "n = 32") + "py = 1e200\n",
                "error: initial.py: endpoints too far apart: their squared distance overflows"),
    "coincident_endpoints": (["simulate"], SIMULATE_CFG + "qx = 0\n", "error: initial.qx: endpoints must be distinct"),
    "support_reversed": (["simulate"],
                         SIMULATE_CFG.replace("flattened_sine", "bump_perturbed_segment")
                         + "support_lo = 0.7\nsupport_hi = 0.3\n",
                         "error: initial.support_hi: support must satisfy 0.05 <= a < b <= 0.95, b-a >= 0.1"),
    "unknown_initial_key": (["simulate"], SIMULATE_CFG + "wibble = 1\n", "error: initial.wibble: unknown key"),
    # the solver tolerance is the constant flow.SOLVER_TOL
    "solver_tol_key": (["simulate"], SIMULATE_CFG.replace("n = 64", "n = 64\nsolver_tol = 1e-8"),
                       "error: flow.solver_tol: unknown key"),
    "n_not_integer": (["simulate"], SIMULATE_CFG.replace("n = 64", "n = 1.5"), "error: flow.n: not an integer: '1.5'"),
    "empty_epsilons": (["sweep"], SWEEP_CFG.replace("epsilons = 0.2, 0.1", "epsilons ="),
                       "error: sweep.epsilons: empty list"),
    "sweep_without_epsilons": (["sweep"], SWEEP_CFG.replace("epsilons = 0.2, 0.1\n", ""),
                               "error: sweep.epsilons: required for a sweep"),
    "duplicate_key": (["simulate"], SIMULATE_CFG.replace("n = 64", "n = 64\nn = 64"), "error: flow.n: duplicate key"),
    "unknown_section": (["simulate"], SIMULATE_CFG + "[wibble]\nx = 1\n",
                        "error: wibble: unknown section (line 11)"),
}


@pytest.mark.parametrize("args,config,message", list(_BAD_INPUT.values()), ids=list(_BAD_INPUT))
def test_bad_input_exits_2_without_traceback(tmp_path, cfg_file, args, config, message):
    if config is not None:
        args = args + ["-c", cfg_file(config), "-o", str(tmp_path / "out")]
    proc = _fresh_python("import sys\nfrom elastic_flow.cli import main\nsys.exit(main(sys.argv[1:]))", *args)
    assert proc.returncode == 2
    # the error line ends stderr; argparse prints a usage line before it
    assert proc.stderr.splitlines()[-1] == message
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert not (tmp_path / "out").exists()


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _without_blas_threads(**chosen: str) -> dict:
    # the suite's environment without a BLAS thread count, plus `chosen`
    return {**{k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}, **chosen}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_blas_loads_with_one_thread():
    # both OpenBLAS copies, numpy's and the one behind SciPy's LAPACK
    # wrappers, would start a worker per further core
    code = (
        "import os\nimport elastic_flow\nelastic_flow.geometry.lapack()\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = _fresh_python(code, env=_without_blas_threads())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


@pytest.mark.parametrize("name", _BLAS_THREADS)
def test_a_callers_blas_thread_count_is_kept(name):
    code = (
        "import os\nimport elastic_flow\nelastic_flow.geometry.lapack()\n"
        f"print(*(os.environ.get(k, '-') for k in {_BLAS_THREADS!r}))"
    )
    proc = _fresh_python(code, env=_without_blas_threads(**{name: "2"}))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2" if k == name else "-" for k in _BLAS_THREADS]


def test_no_module_imports_scipy():
    # SciPy is reached only through geometry.lapack, which loads the LAPACK
    # wrappers from their file
    package = Path(geometry.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("scipy_first", [True, False])
def test_lapack_routines_are_scipy_linalg_lapack_objects(scipy_first):
    # one module object, whether scipy.linalg comes before the first step
    # or after it
    code = _SHORT_RUN + (
        "import scipy.linalg.lapack\nfrom elastic_flow.geometry import lapack\n"
        "assert scipy.linalg.lapack._flapack is lapack()\n"
        "assert scipy.linalg.lapack.dgbtrf is lapack().dgbtrf and scipy.linalg.lapack.dgtsv is lapack().dgtsv\n"
    )
    if scipy_first:
        code = "import scipy.linalg\n" + code
    assert "scipy.linalg" in _scipy_modules_after(code)


def test_missing_scipy_raises_import_error():
    code = (
        "import sys\nfrom elastic_flow.geometry import lapack\n"
        "class NoSciPy:\n    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, NoSciPy())\n"
        "try:\n    lapack()\nexcept ImportError as exc:\n    assert exc.name == 'scipy', exc\n"
        "else:\n    raise AssertionError('no ImportError')\n"
    )
    assert _scipy_modules_after(code) == []


def test_lapack_falls_back_to_scipy_linalg_lapack():
    # a SciPy whose `_flapack` file is not where the loader looks: the run
    # steps with the routines of the public module
    code = (
        "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = []\n"
        "from elastic_flow.geometry import lapack\nfirst = lapack()\n"
        "import scipy.linalg.lapack\nassert first is scipy.linalg.lapack\n"
    ) + _SHORT_RUN + "assert lapack().dgbtrf is first.dgbtrf and lapack().dgtsv is first.dgtsv\n"
    assert "scipy.linalg" in _scipy_modules_after(code)
