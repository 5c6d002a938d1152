"""Parameter sweep engine binding the solver to tabular output.

A sweep is a base parameter map plus up to two axes.  Axes address
either a bare parameter name or one of the convenience names:

    mu   assigns mu1 = mu2 = value (common chemical potential),
    T    assigns t1 = t2 = value (common temperature),
    dT   assigns t2 = t1 + value (temperature bias),
    dmu  assigns mu1 = mu2 + value (chemical bias on reservoir 1).

Offsets (dT, dmu) resolve after all direct assignments, so e.g. axes
(mu2, dmu) sweep both the common level and the bias.  Points come in
row-major order (first axis outer).  The whole grid is evaluated as one
stack: each layer (solve, currents, correlations, discord, QFI) is one
call on arrays with a leading grid axis, and the result stays a table of
columns up to the emitted bytes.  A point that fails is evaluated again
alone and its cells are written back by index, so its ``flags`` cell
carries the typed error of that point instead of the point being
dropped.  Output is deterministic byte-for-byte.  The table also holds
each solved point's steady state ``rho`` and dressed-mode ``basis``;
they are not emitted, but the single-point report reads them.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np
import yaml

from .liouvillian import SteadyStateError, solve_ness
from .metrology import FrameFlipError, QfiStepError, RankChangeError, qfi_spectral
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


@dataclass(frozen=True)
class SweepResult:
    """The grid as a column table: ``table[name][i]`` is the value of
    point i, None where the point has none.  Besides the emitted
    ``columns`` the table holds each solved point's ``rho`` and ``basis``."""

    spec: SweepSpec
    columns: tuple[str, ...]
    table: dict[str, list] = field(default_factory=dict)

    @functools.cached_property
    def rows(self) -> tuple[Mapping[str, Any], ...]:
        """Read-only dict per point, built on first access; a point's
        missing cells are absent from its dict."""
        names = tuple(self.table)
        return tuple(
            MappingProxyType({k: v for k, v in zip(names, cells) if v is not None})
            for cells in zip(*self.table.values())
        )


_QFI_ERRORS = (QfiStepError, FrameFlipError, RankChangeError, SteadyStateError)


def _flag(stage: str, err: Exception) -> dict[str, list]:
    return {"flags": [f"{stage}:{type(err).__name__}:{err}"]}


def _stack_params(values: dict[str, Any]) -> tuple[SystemParams, BathParams]:
    return (
        SystemParams(**{k: values[k] for k in _SYSTEM_KEYS}),
        BathParams(**{k: values[k] for k in _BATH_KEYS}),
    )


def _columns(arrays: dict[str, Any]) -> dict[str, list]:
    """A list per column from per-point arrays; array values become
    Python scalars, so the rows serialize as JSON."""
    return {k: v if isinstance(v, list) else np.atleast_1d(v).tolist() for k, v in arrays.items()}


def _scatter(table: dict[str, list], n: int, index, part: dict[str, list]) -> None:
    """Write the cells of the points ``index`` (one per index, in
    ``part``'s columns) into a table of n points."""
    for name, values in part.items():
        column = table.setdefault(name, [None] * n)
        for i, v in zip(index, values):
            column[i] = v


def _qfi(spec: SweepSpec, params, baths, ness) -> dict[str, list]:
    """QFI columns and flags of solved points (a stack, or one point
    alone); a point whose QFI fails there is evaluated alone, so that it
    raises its typed error."""
    n = np.size(params.delta)
    try:
        q = qfi_spectral(params, baths, h=spec.qfi_step, center=ness)
    except _QFI_ERRORS as err:
        if np.ndim(params.delta) == 0:
            return _flag("qfi", err)
        table, failed = {}, range(n)
    else:
        table = _columns(dict(qfi_total=q.f_total, qfi_fe=q.f_e, qfi_fn=q.f_n, qfi_step=q.step))
        failed = np.flatnonzero(np.isnan(q.f_total))
    table["flags"] = [""] * n
    for i in failed:
        for column in table.values():
            column[i] = None
        _scatter(table, n, [i], _qfi(spec, take(params, i), take(baths, i), take(ness, i)))
    return table


def _observe(spec: SweepSpec, params, baths, ness) -> dict[str, list]:
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
    table = _columns(cols)
    if "qfi" in spec.observables:
        table.update(_qfi(spec, params, baths, ness))
    else:
        table["flags"] = [""] * np.size(ness.residual)
    bases = zip(*(np.atleast_1d(getattr(ness.basis, f.name)).tolist() for f in fields(EigenBasis)))
    table["rho"] = list(np.reshape(rho, (-1,) + rho.shape[-2:]))
    table["basis"] = [EigenBasis(*b) for b in bases]
    return table


def _evaluate(spec: SweepSpec, params, baths) -> dict[str, list]:
    """Cells of a stack of valid points (or of one point, unstacked): one
    solve for the stack, and each point it leaves unsolved evaluated
    again alone, where the solve raises its typed error."""
    try:
        ness = solve_ness(params, baths)
    except SteadyStateError as err:
        if np.ndim(params.delta) == 0:
            return _flag("solver", err)
        solved = np.zeros(np.size(params.delta), dtype=bool)
    else:
        solved = ~np.isnan(np.atleast_1d(ness.residual))
    if solved.all():
        return _observe(spec, params, baths, ness)
    table: dict[str, list] = {}
    good = np.flatnonzero(solved)
    if good.size:
        subset = (take(x, good) for x in (params, baths, ness))
        _scatter(table, solved.size, good, _observe(spec, *subset))
    for i in np.flatnonzero(~solved):
        _scatter(table, solved.size, [i], _evaluate(spec, take(params, i), take(baths, i)))
    return table


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the whole grid as one stack; points in row-major order."""
    coords = spec.coordinates()
    n = coords[0].size if coords else 1
    resolved = spec.resolve(coords)
    values = {k: np.broadcast_to(np.asarray(resolved[k], dtype=float), (n,)) for k in BASE_PARAMS}
    table = _columns({**{ax.name: c for ax, c in zip(spec.axes, coords)}, **values})
    try:
        params, baths = _stack_params(values)
    except ValueError:
        valid, flags = [], [None] * n
        for i in range(n):
            try:
                _stack_params({k: table[k][i] for k in BASE_PARAMS})
                valid.append(i)
            except ValueError as err:
                flags[i] = f"params:{err}"
        table["flags"] = flags
        if valid:
            params, baths = _stack_params({k: values[k][valid] for k in BASE_PARAMS})
            _scatter(table, n, valid, _evaluate(spec, params, baths))
    else:
        table.update(_evaluate(spec, params, baths))
    return SweepResult(spec=spec, columns=spec.columns(), table=table)


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _quote(text: str) -> str:
    """One non-empty text field as ``csv.writer`` writes it: quoted when
    it holds a delimiter, a quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,))
    return buf.getvalue()[:-1]


def _column_text(values: list) -> list[str]:
    """The CSV cells of one column, each distinct value formatted once.
    Zero cells are formatted one by one: 0.0 and -0.0 (and False) are
    one key, but 0.0 prints 0 and -0.0 prints -0."""
    text = {
        v: _quote(v) if isinstance(v, str) and v else _format_cell(v)
        for v in dict.fromkeys(values)
    }
    if 0.0 in text:
        return [text[v] if v else _format_cell(v) for v in values]
    return list(map(text.__getitem__, values))


def emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize a sweep result.

    ``csv``: header row then one line per point, floats with 17
    significant digits (round-trippable).  ``jsonl``: one JSON object
    per line, missing values as null.  Both are byte-deterministic.
    """
    if fmt == "csv":
        n = len(next(iter(result.table.values()), ()))
        blank = [None] * n
        cells = [_column_text(result.table.get(col, blank)) for col in result.columns]
        lines = [",".join(result.columns), *map(",".join, zip(*cells))]
        return ("\n".join(lines) + "\n").encode()
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


def _number(val: Any, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, an infinity or an int past the float range
        raise ConfigError(f"{where} must be a finite number")
    return float(val)


def _numeric_section(section: dict, allowed: set[str], where: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, val in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        out[key] = _number(val, f"{where}.{key}")
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
        where = f"sweep.axes[{i}]"
        ax = _require_mapping(ax_cfg, where)
        extra = set(ax) - {"name", "start", "stop", "count", "scale"}
        if extra:
            raise ConfigError(f"unknown keys {sorted(extra)} in {where}")
        missing = [k for k in ("name", "start", "stop", "count") if k not in ax]
        if missing:
            raise ConfigError(f"{where} is missing {missing[0]!r}")
        count = _number(ax["count"], f"{where}.count")
        if not count.is_integer():
            raise ConfigError(f"{where}.count must be a whole number")
        axes.append(
            Axis(
                name=str(ax["name"]),
                start=_number(ax["start"], f"{where}.start"),
                stop=_number(ax["stop"], f"{where}.stop"),
                count=int(count),
                scale=str(ax.get("scale", "linear")),
            )
        )
    observables = sweep_cfg.get("observables")
    if observables is None:
        observables = OBSERVABLE_BLOCKS
    elif isinstance(observables, (list, tuple)):
        observables = tuple(str(b) for b in observables)
    else:
        raise ConfigError("sweep.observables must be a list")
    qfi_step = sweep_cfg.get("qfi_step")
    if qfi_step is not None:
        qfi_step = _number(qfi_step, "sweep.qfi_step")
    return SweepSpec(
        fixed=fixed, axes=tuple(axes), observables=observables, qfi_step=qfi_step
    )
