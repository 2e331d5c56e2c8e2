"""Command-line front end: simulate, sweep, verify."""

from __future__ import annotations

import argparse
import os
import sys

from . import iotools
from .convergence import SweepConfig, run_sweep
from .errors import ConfigError, CurveError, IoError, WindowMismatch
from .flow import FlowConfig, run
from .geometry import make_initial_curve


def _load(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    config, initial = iotools.parse_config(_load(args.config))
    if isinstance(config, SweepConfig):
        raise ConfigError("sweep", "config declares a sweep; use the sweep command")
    curve = make_initial_curve(n=config.n, **initial)
    iotools.refuse_earlier_outputs(args.out)
    with iotools.SnapshotWriter(args.out) as snapshots:
        traj = run(curve, config, snapshot_stride=args.stride, sink=snapshots)
    iotools.write_diagnostics_csv(os.path.join(args.out, "diagnostics.csv"), traj.diagnostics)
    print(f"{traj.terminated_by.value}; wrote {snapshots.count + 1} files to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config, initial = iotools.parse_config(_load(args.config))
    if isinstance(config, FlowConfig):
        raise ConfigError("sweep", "config lacks a [sweep] section")
    curve = make_initial_curve(n=config.base.n, **initial)
    iotools.make_dir(args.out)
    report = run_sweep(curve, config)
    iotools.write_report_text(os.path.join(args.out, "report.txt"), report)
    iotools.write_report_json(os.path.join(args.out, "report.json"), report)
    print(f"wrote 2 files to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    # the suite loads only for this command
    from . import acceptance

    if args.out:
        iotools.make_dir(args.out)
    status, text = acceptance.verify(seed=args.seed, tag_filter=args.filter)
    if args.out:
        iotools._write_text(os.path.join(args.out, "verify_report.txt"), text + "\n")
    print(text)
    return status


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastic-flow",
        description="Evolve pinned plane curves by the regularized curvature "
        "flow and verify its identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one evolution and emit snapshots")
    sim.add_argument("-c", "--config", required=True, help="config file path")
    sim.add_argument("-o", "--out", required=True, help="output directory")
    sim.add_argument("--stride", type=int, default=1, help="snapshot stride in steps")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="run the epsilon ladder experiment")
    swp.add_argument("-c", "--config", required=True, help="config file path")
    swp.add_argument("-o", "--out", required=True, help="output directory")
    swp.set_defaults(func=_cmd_sweep)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--filter", default=None, help="criterion tag or name substring")
    ver.add_argument("--seed", type=non_negative_int, default=0, help="seed for randomized checks")
    ver.add_argument("-o", "--out", default=None, help="also write the report here")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CurveError, IoError, WindowMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
