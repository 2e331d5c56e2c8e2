"""Time in-process stepping against a git revision, in alternating pairs.

    python3 tools/pairs.py REV

Exports REV as `same_bytes.py` does. Then runs PAIRS pairs; each pair times
every case once on REV's tree and once on the working tree the script sits
in, each in a fresh process with its own src/ on PYTHONPATH and its own
configs/. Even pairs run REV first, odd pairs the working tree. The cases:

    run        `flow.run` of configs/run.cfg at stride 1 into a sink that
               discards the snapshots
    run_sweep  `convergence.run_sweep` of configs/sweep.cfg

A process times its case REPEAT times and reports the fastest; the config
is parsed and the initial curve built before the clock starts. Prints, per
case, the median and quartiles (inclusive method) of each side and the
pairs the working tree won, and writes them, every time and the machine
into BENCH_<date>_<rev>.json at the repository root, <rev> being REV's
short hash.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from same_bytes import export  # noqa: E402

CASES = {"run": "configs/run.cfg", "run_sweep": "configs/sweep.cfg"}
PAIRS = 10
REPEAT = 5
_TIMER = """
import math, sys, time
from elastic_flow import iotools
from elastic_flow.convergence import run_sweep
from elastic_flow.flow import run
from elastic_flow.geometry import make_initial_curve

case, path, repeat = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(path, encoding="utf-8") as fh:
    config, initial = iotools.parse_config(fh.read())
if case == "run_sweep":
    curve = make_initial_curve(n=config.base.n, **initial)
    work = lambda: run_sweep(curve, config)
else:
    curve = make_initial_curve(n=config.n, **initial)
    work = lambda: run(curve, config, snapshot_stride=1, sink=lambda r, states: None)
best = math.inf
for _ in range(repeat):
    start = time.perf_counter()
    work()
    best = min(best, time.perf_counter() - start)
print(best)
"""


def time_case(tree: Path, case: str) -> float:
    """The fastest of REPEAT timings of `case` on `tree`, in seconds, from a
    fresh process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _TIMER, case, str(tree / CASES[case]), str(REPEAT)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def summary(times: list[float]) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "iqr": round(q3 - q1, 4),
            "n": len(times)}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time in-process stepping against REV in alternating pairs.")
    parser.add_argument("rev", help="a git revision, for example HEAD")
    args = parser.parse_args(argv)
    short = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev], capture_output=True, text=True)
    if short.returncode:
        print(short.stderr.strip(), file=sys.stderr)
        return 2
    rev = short.stdout.strip()
    times = {case: {"parent": [], "change": []} for case in CASES}
    with tempfile.TemporaryDirectory(prefix="pairs_") as tmp:
        tree = Path(tmp) / "rev"
        error = export(ROOT, args.rev, tree)
        if error:
            print(error, file=sys.stderr)
            return 2
        sides = {"parent": tree, "change": ROOT}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for case in CASES:
                for side in order:
                    times[case][side].append(time_case(sides[side], case))
    workloads = {}
    for case, runs in times.items():
        wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        entry = {"pairs": PAIRS, "parent": summary(runs["parent"]), "change": summary(runs["change"]),
                 "change_lower_in_pairs": f"{wins}/{PAIRS}", "runs": runs}
        workloads[case] = entry
        p, c = entry["parent"], entry["change"]
        print(f"{case}: {rev} {p['median']:.4f} s [{p['q1']:.4f}, {p['q3']:.4f}], working tree {c['median']:.4f} s "
              f"[{c['q1']:.4f}, {c['q3']:.4f}]; working tree lower in {wins}/{PAIRS} pairs")
    today = datetime.date.today().isoformat()
    record = {
        "date": today,
        "parent": rev,
        "change": "the working tree",
        "command": f"python3 tools/pairs.py {args.rev}",
        "cases": CASES,
        "statistics": f"each time is the fastest of {REPEAT} in one fresh process, `run` at stride 1 into a sink "
                      "that discards the snapshots; median and quartiles (inclusive method) over pairs; even pairs "
                      "ran the parent first",
        "machine": machine(),
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{today}_{rev}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
