"""Parameter sweep engine binding the solver to tabular output.

A sweep is a base parameter map plus up to two axes.  Axes address
either a bare parameter name or one of the convenience names:

    mu   assigns mu1 = mu2 = value (common chemical potential),
    T    assigns t1 = t2 = value (common temperature),
    dT   assigns t2 = t1 + value (temperature bias),
    dmu  assigns mu1 = mu2 + value (chemical bias on reservoir 1).

Offsets (dT, dmu) resolve after all direct assignments, so e.g. axes
(mu2, dmu) sweep both the common level and the bias.  Grid points are
evaluated row-major (first axis outer); rows of failed points carry the
error cause in the ``flags`` column instead of being dropped.  Output is
deterministic byte-for-byte.  A solved row also holds the steady state
``rho`` and its dressed-mode ``basis``; they are not columns, so they are
never emitted, but the single-point report reads them.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .liouvillian import SteadyStateError, solve_ness
from .metrology import QfiStepError, RankChangeError, qfi_spectral
from .model import BathParams, SystemParams
from .observables import (
    coherence,
    concurrence,
    discord,
    linear_entropy,
    mutual_information,
)
from .thermo import transport_report

__all__ = [
    "Axis",
    "SweepSpec",
    "SweepResult",
    "ConfigError",
    "run_sweep",
    "emit",
    "load_config",
    "sweep_spec_from_config",
]

BASE_PARAMS = (
    "omega1",
    "omega2",
    "delta",
    "gamma1",
    "gamma2",
    "t1",
    "t2",
    "mu1",
    "mu2",
)

# name -> (parameters the axis assigns, parameters it additionally reads)
_DIRECT_AXES = {name: ((name,), ()) for name in BASE_PARAMS}
_DIRECT_AXES["mu"] = (("mu1", "mu2"), ())
_DIRECT_AXES["T"] = (("t1", "t2"), ())
_OFFSET_AXES = {"dT": (("t2",), ("t1",)), "dmu": (("mu1",), ("mu2",))}

OBSERVABLE_BLOCKS = ("thermo", "correlations", "discord", "qfi")

_QFI_COLUMNS = ("qfi_total", "qfi_fe", "qfi_fn", "qfi_step")
_CORR_COLUMNS = ("coherence", "linear_entropy", "concurrence", "qmi")
_DISCORD_COLUMNS = ("classical_corr", "discord")
_THERMO_COLUMNS = (
    "current_n1",
    "current_n2",
    "current_e1",
    "current_e2",
    "epr",
    "epr_regime_ok",
)


class ConfigError(ValueError):
    """Sweep specification or config file is invalid."""


@dataclass(frozen=True)
class Axis:
    """One swept parameter: count values from start to stop."""

    name: str
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description; construction rejects bad specs."""

    fixed: dict[str, float]
    axes: tuple[Axis, ...] = ()
    observables: tuple[str, ...] = OBSERVABLE_BLOCKS
    qfi_step: float | None = None

    def __post_init__(self):
        if len(self.axes) > 2:
            raise ConfigError("at most two sweep axes are supported")
        assigned: set[str] = set()
        for ax in self.axes:
            if ax.name not in _DIRECT_AXES and ax.name not in _OFFSET_AXES:
                raise ConfigError(f"unknown axis name {ax.name!r}")
            if ax.count < 2:
                raise ConfigError(f"axis {ax.name!r}: count must be at least 2")
            if ax.scale not in ("linear", "log"):
                raise ConfigError(f"axis {ax.name!r}: scale must be linear or log")
            if ax.scale == "log" and (ax.start <= 0.0 or ax.stop <= 0.0):
                raise ConfigError(f"axis {ax.name!r}: log scale needs positive bounds")
            targets, _ = (_DIRECT_AXES.get(ax.name) or _OFFSET_AXES[ax.name])
            overlap = assigned.intersection(targets)
            if overlap:
                raise ConfigError(f"axes assign {sorted(overlap)} more than once")
            assigned.update(targets)
        unknown = set(self.fixed) - set(BASE_PARAMS)
        if unknown:
            raise ConfigError(f"unknown parameters {sorted(unknown)}")
        clash = assigned.intersection(self.fixed)
        if clash:
            raise ConfigError(f"parameters {sorted(clash)} are both fixed and swept")
        for ax in self.axes:
            if ax.name in _OFFSET_AXES:
                _, reads = _OFFSET_AXES[ax.name]
                for name in reads:
                    if name not in self.fixed and name not in assigned:
                        raise ConfigError(
                            f"axis {ax.name!r} needs parameter {name!r} to be set"
                        )
        missing = set(BASE_PARAMS) - set(self.fixed) - assigned
        if missing:
            raise ConfigError(f"parameters {sorted(missing)} are neither fixed nor swept")
        bad = [b for b in self.observables if b not in OBSERVABLE_BLOCKS]
        if bad:
            raise ConfigError(f"unknown observable blocks {bad}")
        if not self.observables:
            raise ConfigError("at least one observable block is required")
        if self.qfi_step is not None and not self.qfi_step > 0.0:
            raise ConfigError("qfi_step must be positive")

    def columns(self) -> tuple[str, ...]:
        # derived axis coordinates (mu, T, dT, dmu) get their own column;
        # a bare parameter axis is already covered by the parameter block
        cols: list[str] = [ax.name for ax in self.axes if ax.name not in BASE_PARAMS]
        cols.extend(BASE_PARAMS)
        if "qfi" in self.observables:
            cols.extend(_QFI_COLUMNS)
        if "correlations" in self.observables:
            cols.extend(_CORR_COLUMNS)
        if "discord" in self.observables:
            cols.extend(_DISCORD_COLUMNS)
        if "thermo" in self.observables:
            cols.extend(_THERMO_COLUMNS)
        cols.extend(("residual", "flags"))
        return tuple(cols)

    def grid(self) -> list[tuple[float, ...]]:
        """Axis coordinates in row-major order."""
        if not self.axes:
            return [()]
        arrays = [ax.values() for ax in self.axes]
        if len(arrays) == 1:
            return [(float(v),) for v in arrays[0]]
        return [(float(a), float(b)) for a in arrays[0] for b in arrays[1]]

    def resolve(self, coords: tuple[float, ...]) -> dict[str, float]:
        """Full parameter map for one grid point."""
        values = dict(self.fixed)
        for ax, v in zip(self.axes, coords):
            if ax.name in _DIRECT_AXES:
                for target in _DIRECT_AXES[ax.name][0]:
                    values[target] = v
        for ax, v in zip(self.axes, coords):
            if ax.name == "dT":
                values["t2"] = values["t1"] + v
            elif ax.name == "dmu":
                values["mu1"] = values["mu2"] + v
        return values


@dataclass
class SweepResult:
    """Rows (dict per grid point) plus the column order for emission; a
    solved row also holds ``rho`` and ``basis``, which are not emitted."""

    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[dict[str, Any]] = field(default_factory=list)


def _evaluate_point(spec: SweepSpec, coords: tuple[float, ...]) -> dict[str, Any]:
    row: dict[str, Any] = {ax.name: c for ax, c in zip(spec.axes, coords)}
    values = spec.resolve(coords)
    row.update(values)
    try:
        params = SystemParams(**{k: values[k] for k in _SYSTEM_KEYS})
        baths = BathParams(**{k: values[k] for k in _BATH_KEYS})
    except ValueError as err:
        row["flags"] = f"params:{err}"
        return row
    try:
        result = solve_ness(params, baths)
    except SteadyStateError as err:
        row["flags"] = f"solver:{type(err).__name__}:{err}"
        return row
    row["residual"] = result.residual
    row["flags"] = ""
    rho = row["rho"] = result.rho
    row["basis"] = result.basis

    if "thermo" in spec.observables:
        report = transport_report(result, params, baths)
        row["current_n1"] = report.i1
        row["current_n2"] = report.i2
        row["current_e1"] = report.j1
        row["current_e2"] = report.j2
        row["epr"] = report.epr
        row["epr_regime_ok"] = report.epr_regime_ok
    if "discord" in spec.observables:
        d = discord(rho)
        row["classical_corr"] = d.classical_corr
        row["discord"] = d.discord
    if "correlations" in spec.observables:
        row["coherence"] = coherence(rho)
        row["linear_entropy"] = linear_entropy(rho)
        row["concurrence"] = concurrence(rho)
        # discord has already computed the same mutual information
        row["qmi"] = d.qmi if "discord" in spec.observables else mutual_information(rho)
    if "qfi" in spec.observables:
        try:
            qreport = qfi_spectral(params, baths, h=spec.qfi_step, center=result)
            row["qfi_total"] = qreport.f_total
            row["qfi_fe"] = qreport.f_e
            row["qfi_fn"] = qreport.f_n
            row["qfi_step"] = qreport.step
        except (QfiStepError, RankChangeError, SteadyStateError) as err:
            row["flags"] = f"qfi:{type(err).__name__}:{err}"
    return row


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point in row-major order."""
    rows = [_evaluate_point(spec, coords) for coords in spec.grid()]
    return SweepResult(spec=spec, columns=spec.columns(), rows=rows)


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize a sweep result.

    ``csv``: header row then one line per point, floats with 17
    significant digits (round-trippable).  ``jsonl``: one JSON object
    per line, missing values as null.  Both are byte-deterministic.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_format_cell(row.get(col)) for col in result.columns])
        return buf.getvalue().encode()
    if fmt == "jsonl":
        lines = []
        for row in result.rows:
            record = {col: row.get(col) for col in result.columns}
            lines.append(json.dumps(record, separators=(", ", ": ")))
        return ("\n".join(lines) + "\n").encode() if lines else b""
    raise ConfigError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_CONFIG_SECTIONS = {"system", "baths", "sweep"}
_SYSTEM_KEYS = {"omega1", "omega2", "delta", "gamma1", "gamma2"}
_BATH_KEYS = {"t1", "t2", "mu1", "mu2"}
_SWEEP_KEYS = {"axes", "observables", "qfi_step"}


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    return obj


def _numeric_section(section: dict, allowed: set[str], where: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, val in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{where}.{key} must be a number")
        out[key] = float(val)
    return out


def load_config(path: str) -> dict:
    """Parse and structurally validate a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    cfg = _require_mapping(raw, "config")
    unknown = set(cfg) - _CONFIG_SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    return cfg


def sweep_spec_from_config(cfg: dict) -> SweepSpec:
    """Build a validated SweepSpec from a parsed config."""
    system = _numeric_section(
        _require_mapping(cfg.get("system", {}), "system"), _SYSTEM_KEYS, "system"
    )
    baths = _numeric_section(
        _require_mapping(cfg.get("baths", {}), "baths"), _BATH_KEYS, "baths"
    )
    fixed = {**system, **baths}
    sweep_cfg = _require_mapping(cfg.get("sweep", {}), "sweep")
    unknown = set(sweep_cfg) - _SWEEP_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in sweep")
    axes = []
    for i, ax_cfg in enumerate(sweep_cfg.get("axes", []) or []):
        ax = _require_mapping(ax_cfg, f"sweep.axes[{i}]")
        extra = set(ax) - {"name", "start", "stop", "count", "scale"}
        if extra:
            raise ConfigError(f"unknown keys {sorted(extra)} in sweep.axes[{i}]")
        try:
            axes.append(
                Axis(
                    name=str(ax["name"]),
                    start=float(ax["start"]),
                    stop=float(ax["stop"]),
                    count=int(ax["count"]),
                    scale=str(ax.get("scale", "linear")),
                )
            )
        except KeyError as err:
            raise ConfigError(f"sweep.axes[{i}] is missing {err.args[0]!r}") from None
    observables = sweep_cfg.get("observables")
    if observables is None:
        observables = OBSERVABLE_BLOCKS
    elif isinstance(observables, (list, tuple)):
        observables = tuple(str(b) for b in observables)
    else:
        raise ConfigError("sweep.observables must be a list")
    qfi_step = sweep_cfg.get("qfi_step")
    if qfi_step is not None:
        qfi_step = float(qfi_step)
    return SweepSpec(
        fixed=fixed, axes=tuple(axes), observables=observables, qfi_step=qfi_step
    )
