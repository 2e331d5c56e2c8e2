"""Config parsing and file emission.

The config format is line-oriented `key = value` with optional `[section]`
headers and `#` comments. Keys before any header belong to [flow]. One
table, `SCHEMA`, names every key of every section with the reader of its
value, and `parse_config` applies it in one pass over the lines. All
floating-point output is printed with 17 significant digits, which
round-trips doubles exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .convergence import ConvergenceReport, SweepConfig
from .errors import BadParams, ConfigError, IoError
from .estimates import DIAGNOSTICS, DIAGNOSTICS_HEADER
from .flow import RECORD_BLOCK, FlowConfig, FlowState
from .geometry import INITIAL_DEFAULTS, INITIAL_KEYS, make_initial_curve


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

def _reader(kind, noun: str):
    # a reader of one value: `kind` of it, or ValueError with the reason
    def read(value: str):
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"not {noun}: {value!r}") from None
    return read


_number = _reader(float, "a number")
_integer = _reader(int, "an integer")


def _numbers(value: str) -> tuple[float, ...]:
    items = [v for v in (part.strip() for part in value.split(",")) if v]
    if not items:
        raise ValueError("empty list")
    return tuple(_number(v) for v in items)


# every key of every section, with the reader of its value
SCHEMA = {
    "flow": {"epsilon": _number, "n": _integer, "dt": _number, "t_end": _number,
             "kappa_blowup_threshold": _number},
    "sweep": {"epsilons": _numbers, "delta": _number, "k_max": _integer},
    "initial": {"family": str, "amplitude": _number, "turn_angle": _number, "px": _number, "py": _number,
                "qx": _number, "qy": _number, "support_lo": _number, "support_hi": _number},
}


def parse_config(text: str) -> tuple[FlowConfig | SweepConfig, dict]:
    """Parse a config document into a flow or sweep configuration and the
    initial-curve spec, the arguments of `make_initial_curve` but n.

    A document with a [sweep] key yields a SweepConfig around the [flow]
    base; otherwise the flow keys alone define a FlowConfig. An unknown
    section or key, a repeated key and an unreadable value are refused with
    the offending key path, at the first one in the document.
    """
    entries = {section: {} for section in SCHEMA}
    section = "flow"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in SCHEMA:
                raise ConfigError(section, f"unknown section (line {lineno})")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        path = f"{section}.{key}"
        if key in entries[section]:
            raise ConfigError(path, "duplicate key")
        if key not in SCHEMA[section]:
            raise ConfigError(path, "unknown key")
        try:
            entries[section][key] = SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    flow, sweep, initial = entries.values()
    config = _build(FlowConfig, "flow", flow)
    if sweep:
        if "epsilons" not in sweep:
            raise ConfigError("sweep.epsilons", "required for a sweep")
        config = _build(SweepConfig, "sweep", {"base": config, **sweep})
    spec = {"family": "flattened_sine", **initial}
    for name, keys in INITIAL_KEYS.items():
        if any(key in spec for key in keys):
            spec[name] = tuple(spec.pop(key, x) for key, x in zip(keys, INITIAL_DEFAULTS[name]))
    return config, spec


def _build(kind, section: str, kwargs: dict):
    # the refusals of a config class or of `make_initial_curve`, under the
    # section's key path
    try:
        return kind(**kwargs)
    except (ConfigError, BadParams) as exc:
        raise ConfigError(f"{section}.{exc.key}", exc.reason) from None


def initial_curve(spec: dict, n: int):
    """`make_initial_curve(n=n, **spec)` of the initial-curve spec of
    `parse_config`, each refusal a ConfigError on its [initial] key."""
    return _build(make_initial_curve, "initial", {"n": n, **spec})


# ---------------------------------------------------------------------------
# snapshot and diagnostics files
# ---------------------------------------------------------------------------

def snapshot_path(out_dir: str, step: int) -> str:
    return os.path.join(out_dir, f"snapshot_{step:06d}.txt")


def _snapshot_text(table: np.ndarray, length: float, time: float, eps: float) -> str:
    # one header line, then the `x y kappa` rows of the (n+1, 3) table
    header = f"n={len(table) - 1} length={fmt(length)} t={fmt(time)} eps={fmt(eps)}\n"
    return header + _format_rows(table, " ")


def write_snapshot(path: str, state: FlowState) -> None:
    """Plain-text curve snapshot: one header line, then `x y kappa` rows."""
    cache = state.cache
    table = np.column_stack([cache.nodes, cache.kappa])
    _write_text(path, _snapshot_text(table, cache.total_length, state.time, state.epsilon))


_HEAD = 4  # step, time, eps and total length lead each packed row


def _pack(states: list[FlowState]) -> np.ndarray:
    """One float64 row per state: step, time, eps, total length, then its
    (n+1, 3) table of `nodes | kappa`, row by row."""
    n1 = len(states[0].cache.nodes)
    block = np.empty((len(states), _HEAD + 3 * n1))
    block[:, :_HEAD] = [(st.step_index, st.time, st.epsilon, st.cache.total_length) for st in states]
    tables = block[:, _HEAD:].reshape(len(states), n1, 3)
    tables[..., :2] = [st.cache.nodes for st in states]
    tables[..., 2] = [st.cache.kappa for st in states]
    return block


def _write_rows(out_dir: str, block: np.ndarray) -> None:
    """Write the snapshot file of each row of a packed block."""
    for row in block:
        step, time, eps, length = row[:_HEAD]
        _write_text(snapshot_path(out_dir, int(step)), _snapshot_text(row[_HEAD:].reshape(-1, 3), length, time, eps))


def write_diagnostics_csv(path: str, records: np.ndarray) -> None:
    """One CSV row per record of `DIAGNOSTICS`, its fields flattened in order,
    formatted and written RECORD_BLOCK rows at a time, so that the text in
    memory does not grow with the run."""
    table = np.ascontiguousarray(records, dtype=DIAGNOSTICS).view((float, DIAGNOSTICS.itemsize // 8))
    with _text_file(path) as fh:
        fh.write(DIAGNOSTICS_HEADER + "\n")
        for lo in range(0, len(table), RECORD_BLOCK):
            fh.write(_format_rows(table[lo : lo + RECORD_BLOCK], ","))


def _format_rows(rows, sep: str) -> str:
    # one `%` call for the rows; "%.17g" prints what `fmt` prints
    line = sep.join(["%.17g"] * len(rows[0])) + "\n" if len(rows) else ""
    return (line * len(rows)) % tuple(np.ravel(rows).tolist())


def _report_payload(report: ConvergenceReport) -> dict:
    return {
        "meta": {
            **{k: v for k, v in report.meta.items()},
            "k_max": report.k_max,
            "window": list(report.window),
        },
        "epsilons": list(report.epsilons),
        "distances": [
            [None if not math.isfinite(v) else v for v in row]
            for row in report.distances.tolist()
        ],
        "fitted_order": report.fitted_order,
        "monotone": report.monotone,
        "failed_rows": report.failed_rows,
    }


def write_report_text(path: str, report: ConvergenceReport) -> None:
    meta = report.meta
    lines = ["# convergence sweep report"]
    lines.append(
        "# "
        + " ".join(
            f"{key}={fmt(meta[key]) if isinstance(meta[key], float) else meta[key]}"
            for key in ("n", "dt", "t_end", "delta")
            if key in meta
        )
        + f" k_max={report.k_max}"
    )
    lines.append(f"# window=[{fmt(report.window[0])},{fmt(report.window[1])}]")
    times = meta.get("snapshot_times")
    if times:
        lines.append("# snapshot_times=" + ",".join(fmt(t) for t in times))
    lines.append("eps," + ",".join(f"d{k}" for k in range(report.k_max + 1)))
    for i, eps in enumerate(report.epsilons):
        row = report.distances[i]
        cells = [fmt(eps)] + [
            "nan" if not math.isfinite(v) else fmt(v) for v in row
        ]
        lines.append(",".join(cells))
    for k, order in enumerate(report.fitted_order):
        shown = "n/a" if order is None else fmt(order)
        lines.append(f"# fitted_order k={k}: {shown}")
    for k, mono in enumerate(report.monotone):
        lines.append(f"# monotone k={k}: {str(mono).lower()}")
    if report.failed_rows:
        lines.append("# failed_rows=" + ",".join(str(i) for i in report.failed_rows))
    _write_text(path, "\n".join(lines) + "\n")


def write_report_json(path: str, report: ConvergenceReport) -> None:
    _write_text(path, json.dumps(_report_payload(report), indent=2, sort_keys=True) + "\n")


def make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path}: {exc}") from exc


def refuse_earlier_outputs(out_dir: str) -> None:
    """Raise IoError if `out_dir` already holds snapshot or diagnostics
    files, which a new run's files would mix with."""
    try:
        names = [entry.name for entry in os.scandir(out_dir) if entry.is_file()]
    except OSError:
        return  # no directory yet: creating it reports its own errors
    if "diagnostics.csv" in names or any(n.startswith("snapshot_") and n.endswith(".txt") for n in names):
        raise IoError(f"{out_dir} already holds the outputs of an earlier run")


def _write_text(path: str, content: str) -> None:
    with _text_file(path) as fh:
        fh.write(content)


@contextlib.contextmanager
def _text_file(path: str):
    # the ASCII text file at `path`, open for writing; an OSError of opening
    # or writing it is an IoError
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
