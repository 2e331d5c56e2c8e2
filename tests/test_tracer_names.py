"""The benchmark tracer wraps package functions by name; keep them all."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{func}"
        for module, func in tracer.FUNCTIONS
        if not hasattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), func)
    ]
    assert not missing, f"traced names gone from the package: {missing}"


def test_benchmark_tools_find_the_worker_count():
    # perfbench/selftest.py and perfbench/steadiness.py import it
    convergence = importlib.import_module("elastic_flow.convergence")
    assert callable(getattr(convergence, "_worker_count", None))
