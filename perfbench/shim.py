"""Child process of the benchmark: one elastic-flow CLI command, in process.

    python3 perfbench/shim.py --report FILE [--setup-only] [--trace] -- ARGS...

ARGS are the `elastic-flow` command-line arguments. The shim imports the
package from `src/`, hooks the command's first unit of work (`run` for
simulate, `run_sweep` for sweep, `acceptance.verify` for verify) to stamp
the end of set-up on the system-wide monotonic clock, and runs
`elastic_flow.cli.main`. With --setup-only it stops at that hook. With
--trace it runs under `tracer.Tracer`. FILE receives a JSON record of the
set-up stamp, the trace metrics and whether every patched attribute was
restored. The exit status is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

FIRST_WORK = {"simulate": ("cli", "run"), "sweep": ("cli", "run_sweep"), "verify": ("acceptance", "verify")}


class _SetupDone(BaseException):
    """Raised at the first unit of work when only set-up is timed."""


def package_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and name.split(".")[0] == "elastic_flow"
        for attr, value in vars(mod).items()
    }


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    report_path = opts[opts.index("--report") + 1]
    setup_only = "--setup-only" in opts
    traced = "--trace" in opts

    from elastic_flow import acceptance, cli

    record = {"first_work": None, "trace": None, "restored": None}
    tracer = None
    if traced:
        import tracer as tracer_mod

        before = package_bindings()
        tracer = tracer_mod.Tracer()
        tracer.install()

    module_name, attr = FIRST_WORK[cli_args[0]]
    module = {"cli": cli, "acceptance": acceptance}[module_name]
    inner = getattr(module, attr)

    def first_work(*args, **kwargs):
        record["first_work"] = time.monotonic()
        setattr(module, attr, inner)
        if setup_only:
            raise _SetupDone
        return inner(*args, **kwargs)

    setattr(module, attr, first_work)
    try:
        status = cli.main(cli_args)
    except _SetupDone:
        status = 0
    finally:
        setattr(module, attr, inner)
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.metrics()
            after = package_bindings()
            record["restored"] = all(after.get(key) is value for key, value in before.items())
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
