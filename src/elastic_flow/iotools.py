"""Config parsing and file emission.

The config format is line-oriented `key = value` with optional `[section]`
headers and `#` comments. Keys before any header belong to [flow]. All
floating-point output is printed with 17 significant digits, which
round-trips doubles exactly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .convergence import ConvergenceReport, SweepConfig
from .errors import ConfigError, IoError
from .estimates import DIAGNOSTICS, DIAGNOSTICS_HEADER
from .flow import FlowConfig, FlowState


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

_FLOW_KEYS = {
    "epsilon",
    "n",
    "dt",
    "t_end",
    "kappa_blowup_threshold",
    "solver_tol",
}
_SWEEP_KEYS = {"epsilons", "delta", "k_max", "snapshot_times"}
_INITIAL_KEYS = {"family", "amplitude", "turn_angle", "px", "py", "qx", "qy",
                 "support_lo", "support_hi"}


def _tokenize(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {"flow": {}, "sweep": {}, "initial": {}}
    current = "flow"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                raise ConfigError(current, f"unknown section (line {lineno})")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in sections[current]:
            raise ConfigError(f"{current}.{key}", "duplicate key")
        sections[current][key] = value
    return sections


def _as_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"not a number: {value!r}") from exc


def _as_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"not an integer: {value!r}") from exc


def _as_float_list(section: str, key: str, value: str) -> tuple[float, ...]:
    items = [v for v in (part.strip() for part in value.split(",")) if v]
    if not items:
        raise ConfigError(f"{section}.{key}", "empty list")
    return tuple(_as_float(section, key, v) for v in items)


def _build_flow_config(entries: dict[str, str]) -> FlowConfig:
    unknown = set(entries) - _FLOW_KEYS
    if unknown:
        raise ConfigError(f"flow.{sorted(unknown)[0]}", "unknown key")
    kwargs = {}
    for key, value in entries.items():
        if key == "n":
            kwargs[key] = _as_int("flow", key, value)
        else:
            kwargs[key] = _as_float("flow", key, value)
    try:
        return FlowConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"flow.{exc.key}", exc.reason) from None


def parse_config(text: str) -> FlowConfig | SweepConfig:
    """Parse a config document into a flow or sweep configuration.

    A document with a [sweep] section yields a SweepConfig around the [flow]
    base; otherwise the flow keys alone define a FlowConfig. Unknown keys
    are rejected with the offending key path.
    """
    sections = _tokenize(text)
    base = _build_flow_config(sections["flow"])
    sweep_entries = sections["sweep"]
    if not sweep_entries:
        return base
    unknown = set(sweep_entries) - _SWEEP_KEYS
    if unknown:
        raise ConfigError(f"sweep.{sorted(unknown)[0]}", "unknown key")
    if "epsilons" not in sweep_entries:
        raise ConfigError("sweep.epsilons", "required for a sweep")
    kwargs = {"epsilons": _as_float_list("sweep", "epsilons", sweep_entries["epsilons"])}
    if "delta" in sweep_entries:
        kwargs["delta"] = _as_float("sweep", "delta", sweep_entries["delta"])
    if "k_max" in sweep_entries:
        kwargs["k_max"] = _as_int("sweep", "k_max", sweep_entries["k_max"])
    if "snapshot_times" in sweep_entries:
        kwargs["snapshot_times"] = _as_float_list(
            "sweep", "snapshot_times", sweep_entries["snapshot_times"]
        )
    try:
        return SweepConfig(base=base, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"sweep.{exc.key}", exc.reason) from None


def parse_initial_spec(text: str) -> dict:
    """Initial-curve family and parameters from the [initial] section."""
    entries = _tokenize(text)["initial"]
    unknown = set(entries) - _INITIAL_KEYS
    if unknown:
        raise ConfigError(f"initial.{sorted(unknown)[0]}", "unknown key")
    spec: dict = {"family": entries.get("family", "flattened_sine")}
    if "amplitude" in entries:
        spec["amplitude"] = _as_float("initial", "amplitude", entries["amplitude"])
    if "turn_angle" in entries:
        spec["turn_angle"] = _as_float("initial", "turn_angle", entries["turn_angle"])
    p = (
        _as_float("initial", "px", entries.get("px", "0")),
        _as_float("initial", "py", entries.get("py", "0")),
    )
    q = (
        _as_float("initial", "qx", entries.get("qx", "1")),
        _as_float("initial", "qy", entries.get("qy", "0")),
    )
    spec["p"], spec["q"] = p, q
    if "support_lo" in entries or "support_hi" in entries:
        spec["support"] = (
            _as_float("initial", "support_lo", entries.get("support_lo", "0.3")),
            _as_float("initial", "support_hi", entries.get("support_hi", "0.7")),
        )
    return spec


# ---------------------------------------------------------------------------
# snapshot and diagnostics files
# ---------------------------------------------------------------------------

def write_snapshot(path: str, state: FlowState) -> None:
    """Plain-text curve snapshot: one header line, then `x y kappa` rows."""
    cache = state.cache
    header = (
        f"n={len(cache.nodes) - 1} length={fmt(cache.total_length)} "
        f"t={fmt(state.time)} eps={fmt(state.epsilon)}\n"
    )
    _write_text(path, header + _format_rows(np.column_stack([cache.nodes, cache.kappa]), " "))


def write_snapshots(out_dir: str, states: list[FlowState]) -> list[str]:
    """Write out_dir/snapshot_<step>.txt for each state, creating out_dir."""
    make_dir(out_dir)
    paths = [os.path.join(out_dir, f"snapshot_{st.step_index:06d}.txt") for st in states]
    for path, state in zip(paths, states):
        write_snapshot(path, state)
    return paths


def write_diagnostics_csv(path: str, records: np.ndarray) -> None:
    """One CSV row per record of `DIAGNOSTICS`, its fields flattened in order."""
    table = np.ascontiguousarray(records, dtype=DIAGNOSTICS).view((float, DIAGNOSTICS.itemsize // 8))
    _write_text(path, DIAGNOSTICS_HEADER + "\n" + _format_rows(table, ","))


def _format_rows(rows, sep: str) -> str:
    # one `%` call for the whole table; "%.17g" prints what `fmt` prints
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
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
