"""Parameter sweep engine binding the solver to tabular output.

A sweep is a base parameter map plus up to two axes.  Axes address
either a bare parameter name or one of the convenience names:

    mu   assigns mu1 = mu2 = value (common chemical potential),
    T    assigns t1 = t2 = value (common temperature),
    dT   assigns t2 = t1 + value (temperature bias),
    dmu  assigns mu1 = mu2 + value (chemical bias on reservoir 1).

Offsets (dT, dmu) resolve after all direct assignments, so e.g. axes
(mu2, dmu) sweep both the common level and the bias.  Points come in
row-major order (first axis outer).  The valid points of the grid are
evaluated as one stack: each layer (solve, currents, correlations,
discord, QFI) is one call on arrays with a leading grid axis, and the
result is the table of emitted columns plus the solved stack it came
from.  Each stage gives the typed error of each point it fails: the
solve and the QFI on the stack, invalid parameters and a correlation
measure that raises on the stack by taking each point alone.  A failed
point's ``flags`` cell is the error of its first failed stage, so a
flagged row is the row that its one-point sweep writes.  Output is
deterministic byte-for-byte.  The layers after the solve read only the
solved state, which carries its parameters and mode basis, and the
measures take its charge-neutral sector ``v``.
"""
from __future__ import annotations

import io
import sys
from dataclasses import dataclass, fields
from itertools import chain
from typing import Any

import numpy as np

from .liouvillian import NessResult, solve_ness
from .metrology import qfi_spectral
from .model import BathParams, SystemParams
from .observables import coherence, concurrence, discord, linear_entropy, mutual_information
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

_SYSTEM_KEYS = tuple(f.name for f in fields(SystemParams))
_BATH_KEYS = tuple(f.name for f in fields(BathParams))
BASE_PARAMS = _SYSTEM_KEYS + _BATH_KEYS

# name -> the parameters the axis assigns its value to
_DIRECT_AXES = {name: (name,) for name in BASE_PARAMS}
_DIRECT_AXES["mu"] = ("mu1", "mu2")
_DIRECT_AXES["T"] = ("t1", "t2")
# name -> (the parameter the axis assigns, the parameter its value offsets)
_OFFSET_AXES = {"dT": ("t2", "t1"), "dmu": ("mu1", "mu2")}

# observable block -> its columns, in column order
_BLOCK_COLUMNS = {
    "qfi": ("qfi_total", "qfi_fe", "qfi_fn", "qfi_step"),
    "correlations": ("coherence", "linear_entropy", "concurrence", "qmi"),
    "discord": ("classical_corr", "discord"),
    "thermo": ("current_n1", "current_n2", "current_e1", "current_e2", "epr", "epr_regime_ok"),
}
OBSERVABLE_BLOCKS = tuple(_BLOCK_COLUMNS)


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
        """The axis values for count >= 2 (which ``SweepSpec`` checks): the
        floats of ``np.linspace`` or, on a log scale, 10 ** those of the
        logs with the ends pinned to start and stop (``np.geomspace``'s),
        formed as np.linspace forms them, without its Python set-up."""
        log = self.scale == "log"
        start, stop = map(np.log10 if log else float, (self.start, self.stop))
        y, div = np.arange(self.count, dtype=float), self.count - 1
        step = (stop - start) / div
        if step == 0:  # np.linspace's order where the step underflows
            y /= div
        y *= step or stop - start
        y += start
        y[-1] = stop
        if log:
            y = 10.0 ** y
            y[0], y[-1] = self.start, self.stop
        return y


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description; construction rejects bad specs."""

    fixed: dict[str, float]
    axes: tuple[Axis, ...] = ()
    observables: tuple[str, ...] = OBSERVABLE_BLOCKS

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
            targets = _DIRECT_AXES.get(ax.name) or _OFFSET_AXES[ax.name][:1]
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
                base = _OFFSET_AXES[ax.name][1]
                if base not in self.fixed and base not in assigned:
                    raise ConfigError(f"axis {ax.name!r} needs parameter {base!r} to be set")
        missing = set(BASE_PARAMS) - set(self.fixed) - assigned
        if missing:
            raise ConfigError(f"parameters {sorted(missing)} are neither fixed nor swept")
        bad = [b for b in self.observables if b not in OBSERVABLE_BLOCKS]
        if bad:
            raise ConfigError(f"unknown observable blocks {bad}")
        if not self.observables:
            raise ConfigError("at least one observable block is required")

    def columns(self) -> tuple[str, ...]:
        # derived axis coordinates (mu, T, dT, dmu) get their own column;
        # a bare parameter axis is already covered by the parameter block
        cols: list[str] = [ax.name for ax in self.axes if ax.name not in BASE_PARAMS]
        cols.extend(BASE_PARAMS)
        for block, names in _BLOCK_COLUMNS.items():
            if block in self.observables:
                cols.extend(names)
        cols.extend(("residual", "flags"))
        return tuple(cols)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """One array per axis holding its coordinate at every grid point,
        row-major (first axis outer): the ravelled ``np.meshgrid(...,
        indexing="ij")`` of the axis values."""
        arrays = tuple(ax.values() for ax in self.axes)
        if len(arrays) < 2:
            return arrays
        outer, inner = arrays
        grid = np.empty((2, outer.size, inner.size))
        grid[0], grid[1] = outer[:, None], inner
        return grid[0].ravel(), grid[1].ravel()

    def resolve(self, coords: tuple[float, ...]) -> dict[str, float]:
        """Full parameter map for one grid point, or for many when each
        coordinate is an array."""
        values = dict(self.fixed)
        for ax, v in zip(self.axes, coords):
            for target in _DIRECT_AXES.get(ax.name, ()):
                values[target] = v
        for ax, v in zip(self.axes, coords):
            if ax.name in _OFFSET_AXES:
                target, base = _OFFSET_AXES[ax.name]
                values[target] = values[base] + v
        return values


@dataclass(frozen=True)
class SweepResult:
    """The grid as a column table, ``table[name][i]`` the value of point
    i in column ``name`` (None where the point has none), and ``ness``,
    the stack solved for the points with valid parameters, in grid order,
    or None where no point has them.  ``run_sweep`` fills every one of
    the ``columns``; ``emit`` writes a column absent from the table as
    empty cells."""

    columns: tuple[str, ...]
    table: dict[str, list]
    ness: NessResult | None = None


def _stack_params(values: dict[str, Any]) -> tuple[SystemParams, BathParams]:
    return (
        SystemParams(**{k: values[k] for k in _SYSTEM_KEYS}),
        BathParams(**{k: values[k] for k in _BATH_KEYS}),
    )


def _columns(arrays: dict[str, Any]) -> dict[str, list]:
    """A list per column from the 1-d per-point arrays of a stack; array
    values become Python scalars, which both formats write."""
    return {k: v if isinstance(v, list) else v.tolist() for k, v in arrays.items()}


def _block(name: str, *values) -> dict[str, Any]:
    """A block's cells: its values under its column names, in order."""
    return dict(zip(_BLOCK_COLUMNS[name], values, strict=True))


def _measures(spec: SweepSpec, v) -> dict[str, Any]:
    """The correlations and discord cells of the sectors v."""
    cells: dict[str, Any] = {}
    if "discord" in spec.observables:
        d = discord(v)
        cells.update(_block("discord", d.classical_corr, d.discord))
    if "correlations" in spec.observables:
        local = (coherence(v), linear_entropy(v), concurrence(v))
        # discord has already computed the same mutual information
        qmi = d.qmi if "discord" in spec.observables else mutual_information(v)
        cells.update(_block("correlations", *local, qmi))
    return cells


def _each_alone(fn, points) -> tuple[list, np.ndarray]:
    """``fn`` of each point alone: the results, None where it raised
    ValueError, and an object array of those errors, None elsewhere."""
    results, errors = [], np.empty(len(points), dtype=object)
    for i, point in enumerate(points):
        try:
            results.append(fn(point))
        except ValueError as err:
            results.append(None)
            errors[i] = err
    return results, errors


def _observe(spec: SweepSpec, ness) -> dict[str, list]:
    """The cells of a stack of solved points.  Each stage hands the flag
    pass its typed errors (None where a point passed) and the columns its
    failure empties: every column for the solve, the QFI cells for the
    QFI and none for the measures, whose failed points (a stacked measure
    raised ValueError, and the point alone) already have no correlations
    or discord cells.  A failed point is flagged by its first failed
    stage, of solver, qfi and measure: ``<stage>:<error type>:<message>``."""
    cells: dict[str, Any] = {"residual": ness.residual}
    # a failed solve keeps no cell: cells holds every column by the flag pass
    stages = [("solver", ness.errors, cells)]
    if "thermo" in spec.observables:
        r = transport_report(ness)
        cells.update(_block("thermo", r.i1, r.i2, r.j1, r.j2, r.epr, r.epr_regime_ok))
    if "qfi" in spec.observables:
        q = qfi_spectral(ness)
        # the derivative is exact: no step
        cells.update(_block("qfi", q.f_total, q.f_e, q.f_n, [0.0] * len(ness.v)))
        stages.append(("qfi", q.errors, _BLOCK_COLUMNS["qfi"]))
    try:
        cells.update(_measures(spec, ness.v))
    except ValueError:
        # each point alone, so that only the points that raise fail
        alone, errors = _each_alone(lambda point: _measures(spec, point), ness.v)
        names = dict.fromkeys(chain(*filter(None, alone)))
        cells.update({k: [a and a[k] for a in alone] for k in names})
        stages.append(("measure", errors, ()))
    table = _columns(cells)
    flags = [""] * len(ness.v)
    for stage, errors, lost in stages:
        for i in errors.nonzero()[0]:
            if not flags[i]:
                flags[i] = f"{stage}:{type(errors[i]).__name__}:{errors[i]}"
                for name in lost:
                    table[name][i] = None
    table["flags"] = flags
    return table


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid's points with valid parameters as one stack, in
    row-major order."""
    coords = spec.coordinates()
    n = coords[0].size if coords else 1
    resolved = spec.resolve(coords)
    # one (parameter, point) array: each row a parameter at every point
    grid = np.empty((len(BASE_PARAMS), n))
    table = {ax.name: c.tolist() for ax, c in zip(spec.axes, coords)}
    for row, k in zip(grid, BASE_PARAMS):
        row[...] = value = resolved[k]
        # a fixed parameter's cells repeat its float
        table[k] = row.tolist() if isinstance(value, np.ndarray) else [float(value)] * n
    values = dict(zip(BASE_PARAMS, grid))
    stacked = range(n)  # the grid points held in the stack
    try:
        params, baths = _stack_params(values)
    except ValueError:
        _, errors = _each_alone(_stack_params, [dict(zip(BASE_PARAMS, p)) for p in grid.T])
        table["flags"] = [f"params:{err}" if err else "" for err in errors]
        stacked = [i for i, err in enumerate(errors) if err is None]
        params, baths = _stack_params({k: v[stacked] for k, v in values.items()})
    ness = solve_ness(params, baths) if stacked else None
    if len(stacked) == n:
        table.update(_observe(spec, ness))
    elif stacked:
        for name, column in _observe(spec, ness).items():
            full = table.setdefault(name, [None] * n)
            for i, v in zip(stacked, column):
                full[i] = v
    columns = spec.columns()
    return SweepResult(columns, {name: table.get(name) or [None] * n for name in columns}, ness)


def _format_cell(value: Any) -> str:
    """One cell as ``csv.writer`` writes it, floats with 17 significant
    digits and a missing value empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if not isinstance(value, str) or not value:
        return str(value)
    import csv  # here: only a text cell needs the stdlib writer's quoting
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value,))
    return buf.getvalue()[:-1]


def _template_cell(values: list) -> tuple[str, Any]:
    """One column's cell of the CSV row template and the values it takes
    per row, or None for a literal cell."""
    kinds = set(map(type, values))
    distinct = set(values)
    if kinds == {float} and (0.0 in distinct or len(distinct) == len(values)):
        return "%.17g", values
    # one set key can stand for values that print apart: 1.0 and True,
    # 0.0 and -0.0, or equal values of other types
    if kinds not in ({float}, {bool}, {int}, {str}, {type(None)}):
        return "%s", map(_format_cell, values)
    if kinds == {float}:
        floats = tuple(distinct)
        texts = dict(zip(floats, ("%.17g\0" * len(floats) % floats).split("\0")))
    else:
        texts = {v: _format_cell(v) for v in distinct}
    if len(distinct) == 1:
        return texts[distinct.pop()].replace("%", "%%"), None
    return "%s", map(texts.__getitem__, values)


def emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize a sweep result.

    ``csv``: header row then one line per point, floats with 17
    significant digits (round-trippable), from one row template filled
    in one ``%`` pass.  A column's cell is a literal when every row
    prints the same text, ``%.17g`` for a float column whose values are
    all distinct or hold a zero, else ``%s`` with each row's text (each
    distinct value formatted once where the column holds one type).
    ``jsonl``: one JSON object per line, missing values as null.  Both
    are byte-deterministic.
    """
    n = len(next(iter(result.table.values()), ()))
    blank = [None] * n
    if fmt == "csv":
        cells = [_template_cell(result.table.get(col, blank)) for col in result.columns]
        row = ",".join(cell for cell, _ in cells) + "\n"
        per_row = [values for _, values in cells if values is not None]
        body = (row * n) % tuple(chain.from_iterable(zip(*per_row)))
        return (",".join(result.columns) + "\n" + body).encode()
    if fmt == "jsonl":
        import json  # here, so that importing the package does not import json
        cells = zip(*(result.table.get(col, blank) for col in result.columns))
        return "".join(json.dumps(dict(zip(result.columns, row))) + "\n" for row in cells).encode()
    raise ConfigError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_CONFIG_SECTIONS = {"system", "baths", "sweep"}
_SWEEP_KEYS = {"axes", "observables"}


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


def _numeric_section(section: dict, allowed: tuple[str, ...], where: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, val in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        out[key] = _number(val, f"{where}.{key}")
    return out


def _yaml_loader():
    """libyaml's parser when PyYAML was built with it; same documents,
    ~5x faster."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> dict:
    """Parse and structurally validate a YAML config file."""
    import yaml  # here, so that importing the package does not import PyYAML

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_yaml_loader())
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
    axes_cfg = sweep_cfg.get("axes")
    if not isinstance(axes_cfg, (list, tuple, type(None))):
        raise ConfigError("sweep.axes must be a list")
    axes = []
    for i, ax_cfg in enumerate(axes_cfg or ()):
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
    return SweepSpec(fixed=fixed, axes=tuple(axes), observables=observables)
