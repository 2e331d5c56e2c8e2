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
from dataclasses import dataclass

import numpy as np

from .convergence import ConvergenceReport, SweepConfig
from .errors import ConfigError, IoError
from .estimates import DiagnosticsRecord
from .flow import FlowConfig, FlowState, Trajectory


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class RunManifest:
    """What to run and where to put the results."""

    command: str  # simulate | sweep | verify
    config_path: str | None = None
    out_dir: str | None = None
    seed: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.command not in ("simulate", "sweep", "verify"):
            raise ConfigError("command", f"unknown command {self.command!r}")
        if self.stride < 1:
            raise ConfigError("stride", "must be at least 1")


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

_FLOW_KEYS = {
    "epsilon",
    "n",
    "dt",
    "t_end",
    "reparam_every",
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
        if key in ("n", "reparam_every"):
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
    curve = state.curve
    cache = state.cache
    header = (
        f"n={curve.n} length={fmt(cache.total_length)} "
        f"t={fmt(state.time)} eps={fmt(state.epsilon)}\n"
    )
    _write_text(path, header + _format_rows(np.column_stack([curve.nodes, cache.kappa]), " "))


def read_snapshot(path: str):
    """Inverse of write_snapshot: returns (nodes, kappa, t, eps)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split())
        n = int(fields["n"])
        t = float(fields["t"])
        eps = float(fields["eps"])
        rows = [fh.readline().split() for _ in range(n + 1)]
    data = np.array(rows, dtype=float)
    return data[:, :2], data[:, 2], t, eps


def write_diagnostics_csv(path: str, records: list[DiagnosticsRecord]) -> None:
    rows = [rec.row() for rec in records]
    _write_text(path, DiagnosticsRecord.CSV_HEADER + "\n" + _format_rows(rows, ","))


def _format_rows(rows, sep: str) -> str:
    # one `%` call for the whole table; "%.17g" prints what `fmt` prints
    line = sep.join(["%.17g"] * len(rows[0])) + "\n" if len(rows) else ""
    return (line * len(rows)) % tuple(np.ravel(rows).tolist())


def read_diagnostics_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
    if header != DiagnosticsRecord.CSV_HEADER:
        raise IoError(f"unexpected diagnostics header in {path}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


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


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def run_verify(manifest: RunManifest, tag_filter: str | None = None) -> tuple[int, str]:
    """Run the verification suite per the manifest; returns (status, table).

    Status is zero iff every selected criterion passed. When the manifest
    names an output directory the table is also written there.
    """
    from .acceptance import verify as _verify

    status, text = _verify(seed=manifest.seed, tag_filter=tag_filter)
    if manifest.out_dir:
        os.makedirs(manifest.out_dir, exist_ok=True)
        _write_text(os.path.join(manifest.out_dir, "verify_report.txt"), text + "\n")
    return status, text


def emit_outputs(artifact, manifest: RunManifest) -> list[str]:
    """Write a trajectory or sweep report to manifest.out_dir.

    Trajectories produce snapshot_<step>.txt per stored state plus
    diagnostics.csv; reports produce report.txt and report.json with
    identical values. Output is deterministic for fixed inputs.
    """
    out_dir = manifest.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if isinstance(artifact, Trajectory):
        for state in artifact.states:
            name = f"snapshot_{state.step_index:06d}.txt"
            path = os.path.join(out_dir, name)
            write_snapshot(path, state)
            written.append(path)
        path = os.path.join(out_dir, "diagnostics.csv")
        write_diagnostics_csv(path, artifact.diagnostics)
        written.append(path)
    elif isinstance(artifact, ConvergenceReport):
        for name, writer in (
            ("report.txt", write_report_text),
            ("report.json", write_report_json),
        ):
            path = os.path.join(out_dir, name)
            writer(path, artifact)
            written.append(path)
    else:
        raise IoError(f"cannot emit object of type {type(artifact).__name__}")
    return written
