"""Output checks for the benchmark workloads, against recorded references.

    python3 perfbench/check.py --record    # rewrite perfbench/reference/*.json

Tolerances:
- simulate: every sampled diagnostics value and every value of the final
  snapshot lies within SIM_TOL (1e-6) of the largest magnitude in its
  column. A relative perturbation of 2e-16 on every banded solve (a
  stand-in for reordered sums) moves these columns by at most 1.3e-8 of
  that scale; a stencil corrupted by 1e-6 moves them by 2e-6. The
  endpoint-residual columns (RESIDUAL_COLUMNS) sit at round-off level, so
  the same perturbation moves them by up to 7e-4 of their scale; they are
  held to RESIDUAL_TOL (5e-2) of it.
- sweep: each C^k distance and fitted order within SWEEP_RTOL (1e-6)
  relative; `monotone`, `failed_rows` and the epsilons exactly.
- verify: the PASS/FAIL column of the table, judged on the numbers rather
  than on the wall-clock budgets inside criteria 1, 8 and 11. A row that
  fails only because it ran over its budget, with its numbers inside
  tolerance, reads as the numeric verdict PASS. 12-determinism compares
  two passes of the table, and the second pass reuses cached evolutions,
  so a budget miss in the first pass makes it FAIL as well; that FAIL is
  attributed to the budget when another row of the table ran over. Budget
  misses still count in `criteria_failed`.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

SIM_TOL = 1e-6
RESIDUAL_TOL = 5e-2
RESIDUAL_COLUMNS = ("b0L", "b0R", "b2L", "b2R", "b4L", "b4R", "lam_res")
SWEEP_RTOL = 1e-6
DIAG_STRIDE = 20  # every 20th diagnostics row is kept in the reference
FINAL_SNAPSHOT = "snapshot_002000.txt"

ROW = re.compile(r"^\[(PASS|FAIL)\] (\S+)\s+(.*)$")
SUMMARY = re.compile(r"^(\d+)/(\d+) criteria passed$")
OVER_BUDGET = re.compile(r"runtime over \d+ s budget")

# The numeric part of a time-budgeted criterion, read from its detail.
NUMERIC_VERDICT = {
    "01-stationarity": lambda d: float(re.search(r"displacement (\S+);", d)[1]) <= 1e-10,
    "08-gn-inequalities": lambda d: float(re.search(r"min slack (\S+);", d)[1]) >= 0.0,
}


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    criteria_failed: int | None = None
    budget_misses: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _load(name: str) -> dict:
    with open(REFERENCE / name, encoding="utf-8") as fh:
        return json.load(fh)


def dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _read_snapshot(path: Path) -> tuple[dict, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header = dict(part.split("=", 1) for part in fh.readline().split())
        data = np.loadtxt(fh, ndmin=2)
    return header, data


def _read_diagnostics(path: Path) -> tuple[str, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _compare_columns(what: str, got: np.ndarray, ref: np.ndarray, tol) -> list[str]:
    """Columns where |got - ref| exceeds tol times the column's largest |ref|."""
    if got.shape != ref.shape:
        return [f"{what}: shape {got.shape} != reference {ref.shape}"]
    scale = np.max(np.abs(ref), axis=0)
    err = np.max(np.abs(got - ref), axis=0)
    bad = np.flatnonzero(~(err <= tol * scale))
    return [
        f"{what}: column {j} off by {err[j]:.3e} (column scale {scale[j]:.3e})" for j in bad
    ]


# --- per-workload checks --------------------------------------------------


def check_simulate(out_dir: Path, stdout: str, status: int) -> Outcome:
    ref = _load("simulate.json")
    out = Outcome(output_bytes=dir_bytes(out_dir))
    if status != 0:
        out.problems.append(f"exit status {status}")
        return out
    files = sorted(os.listdir(out_dir)) if out_dir.is_dir() else []
    if len(files) != ref["files"]:
        out.problems.append(f"{len(files)} files written, reference {ref['files']}")
    if f"wrote {ref['files']} files" not in stdout:
        out.problems.append("stdout lacks the files-written line")
    try:
        header, diag = _read_diagnostics(out_dir / "diagnostics.csv")
        snap_header, snap = _read_snapshot(out_dir / FINAL_SNAPSHOT)
    except (OSError, ValueError) as exc:
        out.problems.append(f"cannot read outputs: {exc}")
        return out
    d = ref["diagnostics"]
    if header != d["header"]:
        out.problems.append("diagnostics.csv header differs")
    if diag.shape[0] != d["rows"]:
        out.problems.append(f"diagnostics.csv has {diag.shape[0]} rows, reference {d['rows']}")
    else:
        sample = np.vstack([diag[::DIAG_STRIDE], diag[-1:]])
        tol = np.array([RESIDUAL_TOL if c in RESIDUAL_COLUMNS else SIM_TOL for c in header.split(",")])
        out.problems += _compare_columns("diagnostics", sample, np.array(d["sample"]), tol)
    s = ref["final_snapshot"]
    if {k: snap_header.get(k) for k in ("n", "t", "eps")} != s["exact_header"]:
        out.problems.append(f"final snapshot header {snap_header} differs")
    elif not math.isclose(float(snap_header["length"]), s["length"], rel_tol=SIM_TOL):
        out.problems.append("final snapshot length differs")
    out.problems += _compare_columns("final snapshot", snap, np.array(s["data"]), SIM_TOL)
    return out


def check_sweep(out_dir: Path, stdout: str, status: int) -> Outcome:
    ref = _load("sweep.json")
    out = Outcome(output_bytes=dir_bytes(out_dir))
    if status != 0:
        out.problems.append(f"exit status {status}")
        return out
    try:
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            got = json.load(fh)
    except (OSError, ValueError) as exc:
        out.problems.append(f"cannot read report.json: {exc}")
        return out
    if not (out_dir / "report.txt").is_file():
        out.problems.append("report.txt missing")
    for key in ("epsilons", "monotone", "failed_rows"):
        if got.get(key) != ref[key]:
            out.problems.append(f"{key} {got.get(key)} != reference {ref[key]}")
    for key in ("distances", "fitted_order"):
        a = np.array(got.get(key), dtype=float)
        b = np.array(ref[key], dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=SWEEP_RTOL, atol=0.0):
            out.problems.append(f"{key} {got.get(key)} differs from reference {ref[key]}")
    return out


def parse_table(stdout: str) -> tuple[list[tuple[str, str, str]], tuple[int, int] | None]:
    rows, summary = [], None
    for line in stdout.splitlines():
        m = ROW.match(line)
        if m:
            rows.append((m[2], m[1], m[3]))
        m = SUMMARY.match(line.strip())
        if m:
            summary = (int(m[1]), int(m[2]))
    return rows, summary


def numeric_verdicts(rows) -> list[tuple[str, str]]:
    """(label, PASS/FAIL) per row with the wall-clock budgets set aside."""
    any_over = any(OVER_BUDGET.search(detail) for _, _, detail in rows)
    out = []
    for label, status, detail in rows:
        verdict = status
        if status == "FAIL":
            if OVER_BUDGET.search(detail) and label in NUMERIC_VERDICT:
                try:
                    verdict = "PASS" if NUMERIC_VERDICT[label](detail) else "FAIL"
                except (TypeError, ValueError):
                    verdict = "FAIL"
            elif label == "12-determinism" and any_over:
                verdict = "PASS"
        out.append((label, verdict))
    return out


def check_verify(tag: str, stdout: str, status: int) -> Outcome:
    expected = [tuple(row) for row in _load("verify.json")[tag]]
    out = Outcome()
    rows, summary = parse_table(stdout)
    failed = sum(s == "FAIL" for _, s, _ in rows)
    out.criteria_failed = failed
    out.budget_misses = sum(bool(OVER_BUDGET.search(d)) for _, _, d in rows)
    if summary != (len(rows) - failed, len(rows)):
        out.problems.append(f"summary line {summary} does not match the {len(rows)} rows")
    if status != (1 if failed else 0):
        out.problems.append(f"exit status {status} with {failed} failed rows")
    got = numeric_verdicts(rows)
    if got != expected:
        out.problems.append(f"verdicts {got} != reference {expected}")
    return out


# --- recording ------------------------------------------------------------


def _cli(args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ELASTIC_FLOW_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "elastic_flow.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    return proc.stdout


def record() -> None:
    """Run each workload once and store the values the checks compare."""
    tmp = ROOT / ".perfbench_tmp" / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    try:
        sim = tmp / "simulate"
        _cli(["simulate", "-c", "configs/run.cfg", "-o", str(sim)])
        header, diag = _read_diagnostics(sim / "diagnostics.csv")
        snap_header, snap = _read_snapshot(sim / FINAL_SNAPSHOT)
        simulate = {
            "files": len(os.listdir(sim)),
            "diagnostics": {
                "header": header,
                "rows": diag.shape[0],
                "sample": np.vstack([diag[::DIAG_STRIDE], diag[-1:]]).tolist(),
            },
            "final_snapshot": {
                "exact_header": {k: snap_header[k] for k in ("n", "t", "eps")},
                "length": float(snap_header["length"]),
                "data": snap.tolist(),
            },
        }
        swp = tmp / "sweep"
        _cli(["sweep", "-c", "configs/sweep.cfg", "-o", str(swp)])
        with open(swp / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        sweep = {k: report[k] for k in ("epsilons", "distances", "fitted_order", "monotone", "failed_rows")}
        verify = {}
        for tag in ("gn", "quick"):
            rows, _ = parse_table(_cli(["verify", "--filter", tag, "--seed", "0"]))
            verify[tag] = numeric_verdicts(rows)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, payload in (("simulate", simulate), ("sweep", sweep), ("verify", verify)):
        with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
