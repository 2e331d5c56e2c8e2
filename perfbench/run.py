"""Benchmark of the elastic-flow command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each run of the workload's CLI command starts in
a fresh Python process (perfbench/shim.py) and the next starts when it has
exited, until S seconds have passed (at least one run). Every run's output
is checked against perfbench/reference (see check.py). When the runs gave
fewer than SETUP_SAMPLES set-up times, extra processes time set-up alone.
wall_s and cpu_s are those of the fastest run, setup_s and peak_rss_mb
medians.

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced run
and then traced runs until S seconds have passed (at least one), and
prints the per-layer metrics of tracer.py plus the tracing overhead. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. Inputs come from the
shipped configs, which take no seed; --seed goes to `verify --seed`.
The program is imported from src/ of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIM = HERE / "shim.py"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run of the benchmark ends within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    check: str  # "simulate", "sweep" or a verify filter tag
    writes_output: bool


WORKLOADS = {
    # simulate: n = 128, eps = 0.1, 2,000 IMEX steps at the CLI default
    # stride 1, so 2,002 files. The only workload where iotools does real
    # work (write_snapshot is about a third of the time); the rest is the
    # stepper: redistribution, banded solve, per-step diagnostics.
    "simulate": Workload(("simulate", "-c", "configs/run.cfg"), "simulate", True),
    # sweep: five 2,000-step evolutions (the eps = 0 reference and four
    # rungs) on the default thread pool (ELASTIC_FLOW_THREADS unset, so
    # min(5, cores, 4) workers). Exercises flow and convergence and writes
    # almost nothing; a pool or batching change shows only here.
    "sweep": Workload(("sweep", "-c", "configs/sweep.cfg"), "sweep", True),
    # verify-gn: criterion 8 alone, the randomized interpolation-inequality
    # corpus. No time stepping: stencils.fd_weights under compute_geometry
    # dominates, so a Fornberg or lazy-geometry change shows here and a
    # stepper change should move nothing.
    "verify-gn": Workload(("verify", "--filter", "gn"), "gn", False),
    # verify-quick: criteria 1, 9 and 12. Three 1,000-step stationary
    # segment runs (eps 0, 0.1, 1; dt 1e-3), cached across the determinism
    # pass, plus the Gronwall checks: the only workload where gronwall
    # does work.
    "verify-quick": Workload(("verify", "--filter", "quick"), "quick", False),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    status: int
    stdout: str
    report: dict


def run_child(cli_args: list[str], tmp: Path, *, setup_only=False, trace=False, timeout=DEADLINE_S) -> Sample:
    """One fresh process; wall from spawn to reap, CPU and peak RSS from wait4."""
    report_path, stdout_path = tmp / "report.json", tmp / "stdout.txt"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(SHIM), "--report", str(report_path)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--", *cli_args]
    env = dict(os.environ)
    env.pop("ELASTIC_FLOW_THREADS", None)
    with open(stdout_path, "w", encoding="utf-8") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {}
    first = report.get("first_work")
    return Sample(
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if first is None else first - t0,
        status=proc.returncode,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        report=report,
    )


def cli_args(work: Workload, seed: int, out_dir: Path) -> list[str]:
    if work.writes_output:
        return [*work.argv, "-o", str(out_dir)]
    return [*work.argv, "--seed", str(seed)]


def run_workload(work: Workload, seed: int, tmp: Path, *, trace=False, timeout=DEADLINE_S):
    """One checked run; returns (sample, check outcome)."""
    out_dir = tmp / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    sample = run_child(cli_args(work, seed, out_dir), tmp, trace=trace, timeout=timeout)
    if work.check == "simulate":
        outcome = check.check_simulate(out_dir, sample.stdout, sample.status)
    elif work.check == "sweep":
        outcome = check.check_sweep(out_dir, sample.stdout, sample.status)
    else:
        outcome = check.check_verify(work.check, sample.stdout, sample.status)
    if trace and sample.report.get("restored") is not True:
        outcome.problems.append("tracer left package attributes patched")
    if sample.setup_s is None:
        outcome.problems.append("no set-up stamp from the child")
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample, outcome


def _fmt(value: float) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _report_failures(name: str, outcomes) -> None:
    for i, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"  FAILED {name} run {i}: {problem}", file=sys.stderr)


def run_loop(work: Workload, seed: int, tmp: Path, seconds: float, start: float, since: float, *, trace=False):
    """Checked runs back to back until `seconds` have passed since `since`
    (at least one), stopping early rather than overrun DEADLINE_S."""
    samples, outcomes = [], []
    while True:
        remaining = DEADLINE_S - (time.monotonic() - start)
        sample, outcome = run_workload(work, seed, tmp, trace=trace, timeout=remaining)
        samples.append(sample)
        outcomes.append(outcome)
        now = time.monotonic()
        if now - since >= seconds or now - start + sample.wall_s > DEADLINE_S:
            return samples, outcomes


def measure(name: str, work: Workload, seed: int, seconds: float, tmp: Path, start: float) -> dict:
    """End-to-end metrics; prints each by name with its unit."""
    samples, outcomes = run_loop(work, seed, tmp, seconds, start, time.monotonic())
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    failed_probes = probes = 0
    while len(setups) < SETUP_SAMPLES and time.monotonic() - start < DEADLINE_S - 10.0:
        probes += 1
        probe = run_child(cli_args(work, seed, tmp / "probe"), tmp, setup_only=True)
        if probe.status == 0 and probe.setup_s is not None:
            setups.append(probe.setup_s)
        else:
            failed_probes += 1
            print(f"  FAILED {name} set-up probe: exit {probe.status}\n{probe.stdout}", file=sys.stderr)
            break
    _report_failures(name, outcomes)

    walls = [s.wall_s for s in samples]
    failed = failed_probes + sum(not o.ok for o in outcomes)
    attempted = probes + len(samples)
    # The host's CPU speed swings by +-20% over seconds to minutes and
    # contention only ever slows a run, so the fastest run of the loop is
    # the steadiest estimate of the program's own cost.
    metrics = {
        "wall_s": min(walls),
        "cpu_s": min(s.cpu_s for s in samples),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    print(f"workload {name}  seed {seed}  runs {len(samples)}  set-up samples {len(setups)}")
    print(f"  wall_s           {_fmt(metrics['wall_s'])} s   (fastest of {len(walls)}; median {statistics.median(walls):.4f} s, max {max(walls):.4f} s)")
    print(f"  cpu_s            {_fmt(metrics['cpu_s'])} s   (user + system of the process, fastest of {len(walls)})")
    print(f"  setup_s          {_fmt(metrics['setup_s'])} s   (spawn to first unit of work, median of {len(setups)})")
    print(f"  peak_rss_mb      {_fmt(metrics['peak_rss_mb'])} MB  (max resident set, MiB)")
    out_mb = statistics.median(o.output_bytes for o in outcomes) / 2**20
    print(f"  output_mb        {out_mb:.4f} MB  (bytes written to the output directory)")
    print(f"  fail_ratio       {failed / attempted:.4f}     ({failed} of {attempted} processes)")
    if outcomes[0].criteria_failed is None:
        print("  criteria_failed  n/a          (no verify table)")
    else:
        fails = [o.criteria_failed for o in outcomes]
        misses = [o.budget_misses for o in outcomes]
        print(f"  criteria_failed  {statistics.median(fails):g} count  (per run {fails}; over a wall-clock budget {misses})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def measure_traced(name: str, work: Workload, seed: int, seconds: float, tmp: Path, start: float) -> dict:
    """One untraced run, then traced runs; per-layer metrics and overhead."""
    since = time.monotonic()
    base, base_outcome = run_workload(work, seed, tmp)
    samples, outcomes = run_loop(work, seed, tmp, seconds, start, since, trace=True)
    outcomes.insert(0, base_outcome)
    _report_failures(name, outcomes)
    failed = sum(not o.ok for o in outcomes)
    units = dict(tracer.metric_names())
    traces = [s.report.get("trace") or {} for s in samples]
    values = {
        key: statistics.median(t.get(key, float("nan")) for t in traces) for key in units
    }
    traced_wall = statistics.median(s.wall_s for s in samples)
    values["trace.overhead_s"] = traced_wall - base.wall_s
    units["trace.overhead_s"] = "s"

    print(f"workload {name}  seed {seed}  traced runs {len(samples)}")
    print(f"  traced wall {traced_wall:.4f} s, untraced wall {base.wall_s:.4f} s, overhead {values['trace.overhead_s']:.4f} s")
    for key in units:
        print(f"  {key:<46} {_fmt(values[key]):>14} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    needed = [ROOT / "src" / "elastic_flow" / "cli.py", ROOT / "configs" / "run.cfg", ROOT / "configs" / "sweep.cfg"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the program is not in this checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        measure_fn = measure_traced if args.trace else measure
        result = measure_fn(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, tmp, start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
