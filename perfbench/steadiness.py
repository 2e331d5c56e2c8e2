"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads simulate,sweep --seeds 0-9 \
        [--out results.jsonl] [--baseline]

Runs `run.py` (BENCHMARK.json's command, its run_seconds, --trace 0)
once per (seed, workload), seed-major so that drift in the
machine's load touches every workload alike. For each end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json.
--out appends every run's result line as JSON. --baseline rewrites
perfbench/baseline.json with these figures and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    env = dict(os.environ)
    env.pop("ELASTIC_FLOW_THREADS", None)
    workers = subprocess.run(
        [sys.executable, "-c", "from elastic_flow.convergence import _worker_count; print(_worker_count(5))"],
        cwd=ROOT, env={**env, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, check=True,
    ).stdout.strip()
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "cores_nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # inherited value; run.py removes it from the program's environment
        "ELASTIC_FLOW_THREADS": os.environ.get("ELASTIC_FLOW_THREADS"),
        "sweep_threads_used": int(workers),
        "src_lines": src_lines,
    }


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "n": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for name in workloads:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            took = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if result is None or proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                result = result or {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            result.update(workload=name, seed=seed, took_s=took)
            results[name].append(result)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items() if k in
                              {m["name"] for m in bench["end_to_end"]})
            print(f"{name:<13} seed {seed:<3} {took:6.1f} s  correct={result['correct']} {values}", flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(result) + "\n")

    summary = {}
    print(f"\n{'workload':<13} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name in workloads:
        summary[name] = {}
        for metric in bench["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in results[name] if metric["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            s = summarize(vals)
            s["unit"] = metric["unit"]
            summary[name][metric["name"]] = s
            print(f"{name:<13} {metric['name']:<12} {s['median']:>10.4f} {s['q1']:>10.4f} {s['q3']:>10.4f} "
                  f"{s['spread']:>8.4f} {metric['bound']:>6}")
        summary[name]["all_correct"] = all(r["correct"] for r in results[name])
        summary[name]["seeds"] = [r["seed"] for r in results[name]]
    if args.baseline:
        path = HERE / "baseline.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        payload = {
            "machine": machine_record(),
            "run_seconds": seconds,
            "measured": time.strftime("%Y-%m-%d", time.gmtime()),
            "workloads": {**old.get("workloads", {}), **summary},
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
