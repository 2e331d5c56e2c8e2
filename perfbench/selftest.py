"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

About 10 s: one corrupted `simulate` run dominates.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from shim import package_bindings  # noqa: E402

LAYER_FUNCTIONS = [
    "flow.run", "flow.step", "flow.solve_banded", "flow.flow_arrays",
    "geometry.compute_geometry", "geometry.reparametrize_constant_speed",
    "stencils.fd_weights", "stencils.derivative_nonuniform", "stencils.derivative_uniform",
    "estimates.gn_corpus", "estimates.gn_check", "estimates.boundary_residuals", "estimates.energy",
    "gronwall.gronwall_solve", "gronwall.doubling_time", "gronwall.comparison_margin",
    "convergence.run_sweep", "convergence.ck_distance",
    "iotools.write_snapshot", "iotools.write_diagnostics_csv",
]
EXPECTED_PER_LAYER = (
    ["cli.main.calls", "cli.main.self_s"]
    + [f"{f}.{m}" for f in LAYER_FUNCTIONS for m in ("calls", "self_s")]
    + ["convergence.threads", "convergence.gil_wait_s", "iotools.bytes_written"]
    + [f"acceptance.{c}.s" for c in ("01-stationarity", "08-gn-inequalities", "09-gronwall-doubling", "12-determinism")]
    + ["trace.overhead_s"]
)


def _bench_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_per_layer_names_match_the_declared_list():
    names = [n for n, _ in tracer.metric_names()] + ["trace.overhead_s"]
    assert sorted(names) == sorted(EXPECTED_PER_LAYER)
    assert len(set(names)) == len(names)
    declared = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    assert declared == {**dict(tracer.metric_names()), "trace.overhead_s": "s"}


def test_end_to_end_and_workloads_match_benchmark_json():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_tracer_restores_package_and_parents_pool_threads(monkeypatch):
    monkeypatch.delenv("ELASTIC_FLOW_THREADS", raising=False)
    from elastic_flow import acceptance  # noqa: F401  (bound before the snapshot)
    from elastic_flow.convergence import SweepConfig, _worker_count
    from elastic_flow.flow import FlowConfig
    from elastic_flow.geometry import make_initial_curve

    before = package_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        base = FlowConfig(epsilon=0.1, n=32, dt=1e-4, t_end=4e-3)
        cfg = SweepConfig(epsilons=(0.2, 0.1, 0.05, 0.025), base=base, delta=1e-3, k_max=1)
        curve = make_initial_curve("segment", 32)
        import elastic_flow.convergence as conv

        conv.run_sweep(curve, cfg)  # through the patched module binding
    finally:
        t.uninstall()
    after = package_bindings()
    assert [k for k, v in before.items() if after.get(k) is not v] == []

    m = t.metrics()
    assert m["convergence.run_sweep.calls"] == 1
    assert m["flow.run.calls"] == 5
    assert m["flow.step.calls"] == 5 * 40
    # both pool threads normally take jobs; one may drain the queue first
    assert 1 <= m["convergence.threads"] <= _worker_count(5)
    assert m["convergence.run_sweep.self_s"] >= 0.0
    assert all(m[f"{f}.self_s"] >= -1e-6 for f in LAYER_FUNCTIONS)


def test_corrupted_stencil_fails_the_simulate_check(tmp_path):
    from elastic_flow import cli, geometry

    out = tmp_path / "sim"
    geometry.set_stencil_corruption(1e-3)
    try:
        status = cli.main(["simulate", "-c", str(ROOT / "configs" / "run.cfg"), "-o", str(out)])
    finally:
        geometry.set_stencil_corruption(0.0)
    outcome = check.check_simulate(out, "reached_t_end; wrote 2002 files to x", status)
    assert status == 0
    assert any("column" in p for p in outcome.problems), outcome.problems


def _table(*rows: str) -> str:
    failed = sum(r.startswith("[FAIL]") for r in rows)
    return "\n".join([*rows, f"{len(rows) - failed}/{len(rows)} criteria passed"])


@pytest.mark.parametrize(
    "table, status, ok",
    [
        (_table("[FAIL] 08-gn-inequalities   1000 fresh samples, min slack 1.2e-01; runtime over 30 s budget"), 1, True),
        (_table("[PASS] 08-gn-inequalities   1000 fresh samples, min slack 1.2e-01; runtime within 30 s budget"), 0, True),
        (_table("[FAIL] 08-gn-inequalities   1000 fresh samples, min slack -1.0e-03; runtime over 30 s budget"), 1, False),
        (_table("[FAIL] 08-gn-inequalities   1000 fresh samples, min slack -1.0e-03; runtime within 30 s budget"), 1, False),
        (_table("[PASS] 08-gn-inequalities   1000 fresh samples, min slack 1.2e-01; runtime within 30 s budget"), 1, False),
    ],
)
def test_verify_check_sets_budgets_aside(table, status, ok):
    assert check.check_verify("gn", table, status).ok is ok


def test_determinism_fail_is_attributed_to_a_budget_miss():
    over = "[FAIL] 01-stationarity   max node displacement 1.665e-15; runtime over 5 s budget"
    within = "[PASS] 01-stationarity   max node displacement 1.665e-15; runtime within 5 s budget"
    gron = "[PASS] 09-gronwall-doubling   closed-form errors <= 2.919e-09 (tol 1e-6); doubling bound on 100 draws: True"
    det_fail = "[FAIL] 12-determinism   report bytes differ between passes"
    det_pass = "[PASS] 12-determinism   two passes with one seed agree byte for byte"
    assert check.check_verify("quick", _table(over, gron, det_fail), 1).ok
    assert check.check_verify("quick", _table(within, gron, det_pass), 0).ok
    assert not check.check_verify("quick", _table(within, gron, det_fail), 1).ok


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
