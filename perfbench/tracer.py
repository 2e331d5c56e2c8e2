"""Outside-in tracer for the elastic_flow package.

The tracer wraps public functions of the package from outside: every
module that bound a traced function (by `from .x import f` or by defining
it) gets the wrapper, so intra-module calls are traced as well. Spans are
kept as per-thread aggregates (calls and self time) rather
than as individual records, because `stencils.fd_weights` alone is entered
more than a million times on the verify-gn workload.

Self time is a span's duration minus the part of it covered by its child
spans. Spans that start on a thread-pool thread with no open span of
their own are parented to the open `convergence.run_sweep` span; since
those children overlap each other, run_sweep subtracts the union of its
child intervals rather than their sum.

Usage:
    tracer = Tracer()
    tracer.install()
    try:
        ...
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "elastic_flow"

# (module, function) pairs wrapped as spans, in the order they are reported.
FUNCTIONS = (
    ("cli", "main"),
    ("flow", "run"),
    ("flow", "step"),
    ("flow", "solve_banded"),
    ("flow", "flow_arrays"),
    ("geometry", "compute_geometry"),
    ("geometry", "reparametrize_constant_speed"),
    ("stencils", "fd_weights"),
    ("stencils", "derivative_nonuniform"),
    ("stencils", "derivative_uniform"),
    ("estimates", "gn_corpus"),
    ("estimates", "gn_check"),
    ("estimates", "boundary_residuals"),
    ("estimates", "energy"),
    ("gronwall", "gronwall_solve"),
    ("gronwall", "doubling_time"),
    ("gronwall", "comparison_margin"),
    ("convergence", "run_sweep"),
    ("convergence", "ck_distance"),
    ("iotools", "write_snapshot"),
    ("iotools", "write_diagnostics_csv"),
)

# Criteria the benchmark workloads run; 12-determinism is the second pass
# of `acceptance._run_core`, not a function of its own.
CRITERIA = (
    "01-stationarity",
    "08-gn-inequalities",
    "09-gronwall-doubling",
    "12-determinism",
)

EXTRA_METRICS = (
    ("convergence.threads", "count"),
    ("convergence.gil_wait_s", "s"),
    ("iotools.bytes_written", "bytes"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, func in FUNCTIONS:
        names.append((f"{module}.{func}.calls", "count"))
        names.append((f"{module}.{func}.self_s", "s"))
    names.extend(EXTRA_METRICS)
    names.extend((f"acceptance.{label}.s", "s") for label in CRITERIA)
    return names


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Installs span wrappers into the package and aggregates their times."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.main_thread()
        self._adopter = None  # open run_sweep frame, parent of pool spans
        self._run_threads: set[int] = set()
        self._gil_wait = 0.0
        self._bytes = 0
        self._passes: list[float] = []  # inclusive time of each verify pass
        self._first_pass: dict[str, float] = {}

    # --- span bookkeeping -------------------------------------------------

    def _stats(self) -> dict:
        try:
            return self._tls.stats
        except AttributeError:
            self._tls.stats = stats = {}
            self._tls.stack = []
            with self._lock:
                self._thread_stats.append(stats)
            return stats

    def _span(self, name: str, func, adopter: bool = False):
        """Wrap `func` so each call is a span called `name`.

        A frame is [child_time, child_intervals]; child_intervals is a list
        only for an adopting span, whose children may overlap.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stats = tracer._stats()
            stack = tracer._tls.stack
            frame = [0.0, [] if adopter else None]
            parent = stack[-1] if stack else None
            if parent is None and adopter is False and threading.current_thread() is not tracer._main:
                parent = tracer._adopter
            if adopter:
                tracer._adopter = frame
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if adopter:
                    tracer._adopter = None
                    covered = _union_length(frame[1])
                else:
                    covered = frame[0]
                dur = t1 - t0
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += dur - covered
                if parent is not None:
                    if parent[1] is not None:
                        with tracer._lock:
                            parent[1].append((t0, t1))
                    else:
                        parent[0] += dur

        return wrapper

    def _run_probe(self, func):
        """Around flow.run: which threads evolve, and how long they wait."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                wait = (time.perf_counter() - t0) - (time.thread_time() - c0)
                with tracer._lock:
                    tracer._run_threads.add(threading.get_ident())
                    tracer._gil_wait += max(wait, 0.0)

        return wrapper

    def _byte_counter(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(path, content):
            with tracer._lock:
                tracer._bytes += len(content)  # the package writes ASCII
            return func(path, content)

        return wrapper

    def _criterion(self, label: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(seed):
            t0 = time.perf_counter()
            try:
                return func(seed)
            finally:
                if len(tracer._passes) <= 1 and label not in tracer._first_pass:
                    tracer._first_pass[label] = time.perf_counter() - t0

        return wrapper

    def _verify_pass(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._passes.append(0.0)
            index = len(tracer._passes) - 1
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer._passes[index] = time.perf_counter() - t0

        return wrapper

    # --- installation -----------------------------------------------------

    def _bind_everywhere(self, original, replacement) -> int:
        """Replace every module-level binding of `original` in the package."""
        count = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    count += 1
        return count

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, _ in FUNCTIONS:
            importlib.import_module(f"{PACKAGE}.{module}")
        acceptance = importlib.import_module(f"{PACKAGE}.acceptance")
        iotools = sys.modules[f"{PACKAGE}.iotools"]

        # read every original before the first patch rebinds any name
        originals = {
            (module, func): getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            for module, func in FUNCTIONS
        }
        for (module, func), original in originals.items():
            name = f"{module}.{func}"
            inner = self._run_probe(original) if name == "flow.run" else original
            wrapper = self._span(name, inner, adopter=(name == "convergence.run_sweep"))
            if self._bind_everywhere(original, wrapper) == 0:
                raise RuntimeError(f"{name} is bound nowhere in the package")
        self._bind_everywhere(iotools._write_text, self._byte_counter(iotools._write_text))
        self._bind_everywhere(acceptance._run_core, self._verify_pass(acceptance._run_core))

        wrapped = tuple(
            (label, tags, self._span(f"acceptance.{label}", self._criterion(label, func)))
            for label, tags, func in acceptance.CRITERIA
        )
        self._patches.append((acceptance, "CRITERIA", acceptance.CRITERIA))
        acceptance.CRITERIA = wrapped

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    # --- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        merged: dict[str, list] = {}
        with self._lock:
            for stats in self._thread_stats:
                for name, (calls, self_s) in stats.items():
                    rec = merged.setdefault(name, [0, 0.0])
                    rec[0] += calls
                    rec[1] += self_s
        out: dict[str, float] = {}
        for module, func in FUNCTIONS:
            calls, self_s = merged.get(f"{module}.{func}", (0, 0.0))
            out[f"{module}.{func}.calls"] = calls
            out[f"{module}.{func}.self_s"] = self_s
        out["convergence.threads"] = len(self._run_threads)
        out["convergence.gil_wait_s"] = self._gil_wait
        out["iotools.bytes_written"] = self._bytes
        for label in CRITERIA:
            if label == "12-determinism":
                value = sum(self._passes[1:], 0.0)
            else:
                value = self._first_pass.get(label, 0.0)
            out[f"acceptance.{label}.s"] = value
        return out
