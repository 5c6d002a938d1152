"""Parameter sweep engine binding the solver to tabular output.

A sweep is a base parameter map plus up to two axes.  Axes address
either a bare parameter name or one of the convenience names:

    mu   assigns mu1 = mu2 = value (common chemical potential),
    T    assigns t1 = t2 = value (common temperature),
    dT   assigns t2 = t1 + value (temperature bias),
    dmu  assigns mu1 = mu2 + value (chemical bias on reservoir 1).

Offsets (dT, dmu) resolve after all direct assignments, so e.g. axes
(mu2, dmu) sweep both the common level and the bias.  Rows come in
row-major order (first axis outer).  The whole grid is evaluated as one
stack: each layer (solve, currents, correlations, discord, QFI) is one
call on arrays with a leading grid axis.  A point that fails is
evaluated again alone, so its row carries the typed error of that point
in the ``flags`` column instead of being dropped.  Output is
deterministic byte-for-byte.  A solved row also holds the steady state
``rho`` and its dressed-mode ``basis``; they are not columns, so they are
never emitted, but the single-point report reads them.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np
import yaml

from .liouvillian import SteadyStateError, solve_ness
from .metrology import QfiStepError, RankChangeError, qfi_spectral
from .model import BathParams, EigenBasis, SystemParams, take
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

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """One array per axis holding its coordinate at every grid point,
        row-major (first axis outer)."""
        arrays = [ax.values() for ax in self.axes]
        return tuple(m.ravel() for m in np.meshgrid(*arrays, indexing="ij"))

    def grid(self) -> list[tuple[float, ...]]:
        """Axis coordinates in row-major order."""
        if not self.axes:
            return [()]
        return list(zip(*(c.tolist() for c in self.coordinates())))

    def resolve(self, coords: tuple[float, ...]) -> dict[str, float]:
        """Full parameter map for one grid point, or for many when each
        coordinate is an array."""
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


_QFI_ERRORS = (QfiStepError, RankChangeError, SteadyStateError)


def _flag(stage: str, err: Exception) -> dict[str, str]:
    return {"flags": f"{stage}:{type(err).__name__}:{err}"}


def _stack_params(values: dict[str, Any]) -> tuple[SystemParams, BathParams]:
    return (
        SystemParams(**{k: values[k] for k in _SYSTEM_KEYS}),
        BathParams(**{k: values[k] for k in _BATH_KEYS}),
    )


def _rows(columns: dict[str, Any]) -> list[dict[str, Any]]:
    """One dict per point from columns of per-point values; array values
    become Python scalars, so the rows serialize as JSON."""
    lists = [v if isinstance(v, list) else np.atleast_1d(v).tolist() for v in columns.values()]
    return [dict(zip(columns, vals)) for vals in zip(*lists)]


def _qfi(spec: SweepSpec, params, baths, ness) -> tuple[dict[str, Any], dict[int, dict]]:
    """QFI columns of solved points (a stack, or one point alone), and the
    cells of each point whose QFI fails there, evaluated alone so that it
    raises its typed error."""
    try:
        q = qfi_spectral(params, baths, h=spec.qfi_step, center=ness)
    except _QFI_ERRORS as err:
        if np.ndim(params.delta) == 0:
            return {}, {0: _flag("qfi", err)}
        cols, failed = {}, range(np.size(params.delta))
    else:
        cols = dict(qfi_total=q.f_total, qfi_fe=q.f_e, qfi_fn=q.f_n, qfi_step=q.step)
        failed = np.flatnonzero(np.isnan(q.f_total))
    alone = {}
    for i in failed:
        point_cols, point_failure = _qfi(spec, take(params, i), take(baths, i), take(ness, i))
        alone[i] = point_failure.get(0) or _rows(point_cols)[0]
    return cols, alone


def _observe(spec: SweepSpec, params, baths, ness) -> list[dict[str, Any]]:
    """Cells of solved points: a stack, or one point alone."""
    cols: dict[str, Any] = {"residual": ness.residual}
    if "thermo" in spec.observables:
        report = transport_report(ness, params, baths)
        cols.update(
            current_n1=report.i1,
            current_n2=report.i2,
            current_e1=report.j1,
            current_e2=report.j2,
            epr=report.epr,
            epr_regime_ok=report.epr_regime_ok,
        )
    rho = ness.rho
    if "discord" in spec.observables:
        d = discord(rho)
        cols.update(classical_corr=d.classical_corr, discord=d.discord)
    if "correlations" in spec.observables:
        cols.update(
            coherence=coherence(rho),
            linear_entropy=linear_entropy(rho),
            concurrence=concurrence(rho),
            # discord has already computed the same mutual information
            qmi=d.qmi if "discord" in spec.observables else mutual_information(rho),
        )
    qfi_alone: dict[int, dict] = {}
    if "qfi" in spec.observables:
        qfi_cols, qfi_alone = _qfi(spec, params, baths, ness)
        cols.update(qfi_cols)
    bases = zip(*(np.atleast_1d(getattr(ness.basis, f.name)).tolist() for f in fields(EigenBasis)))
    cols["flags"] = [""] * np.size(ness.residual)
    cols["rho"] = list(np.reshape(rho, (-1,) + rho.shape[-2:]))
    cols["basis"] = [EigenBasis(*b) for b in bases]
    rows = _rows(cols)
    for i, cells in qfi_alone.items():
        for col in _QFI_COLUMNS:
            rows[i].pop(col, None)
        rows[i].update(cells)
    return rows


def _evaluate(spec: SweepSpec, params, baths) -> list[dict[str, Any]]:
    """Cells of each point of a stack of valid points (or of one point,
    unstacked): one solve for the stack, and each point it leaves
    unsolved evaluated again alone, where the solve raises its typed
    error."""
    try:
        ness = solve_ness(params, baths)
    except SteadyStateError as err:
        if np.ndim(params.delta) == 0:
            return [_flag("solver", err)]
        solved = np.zeros(np.size(params.delta), dtype=bool)
    else:
        solved = ~np.isnan(np.atleast_1d(ness.residual))
    if solved.all():
        return _observe(spec, params, baths, ness)
    cells: list[dict[str, Any]] = [{}] * solved.size
    good = np.flatnonzero(solved)
    if good.size:
        subset = (take(x, good) for x in (params, baths, ness))
        for i, row in zip(good, _observe(spec, *subset)):
            cells[i] = row
    for i in np.flatnonzero(~solved):
        cells[i] = _evaluate(spec, take(params, i), take(baths, i))[0]
    return cells


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the whole grid as one stack; rows in row-major order."""
    coords = spec.coordinates()
    n = coords[0].size if coords else 1
    resolved = spec.resolve(coords)
    values = {k: np.broadcast_to(np.asarray(resolved[k], dtype=float), (n,)) for k in BASE_PARAMS}
    rows = _rows({**{ax.name: c for ax, c in zip(spec.axes, coords)}, **values})
    try:
        params, baths = _stack_params(values)
        valid = np.arange(n)
    except ValueError:
        valid = []
        for i, row in enumerate(rows):
            try:
                _stack_params(row)
                valid.append(i)
            except ValueError as err:
                row["flags"] = f"params:{err}"
        params, baths = _stack_params({k: values[k][valid] for k in BASE_PARAMS})
    if len(valid):
        for i, cells in zip(valid, _evaluate(spec, params, baths)):
            rows[i].update(cells)
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


# libyaml's parser when PyYAML was built with it; same documents, ~5x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> dict:
    """Parse and structurally validate a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as err:
            raise ConfigError(f"invalid YAML: {err}") from None
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
