"""Sweep engine: validation, determinism, serialization round-trips."""
import csv
import importlib.util
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermijunction import (
    Axis,
    ConfigError,
    SweepSpec,
    emit,
    load_config,
    run_sweep,
    sweep_spec_from_config,
)
from fermijunction import liouvillian, metrology, model, sweep, thermo
from fermijunction.liouvillian import SteadyStateError, solve_ness
from fermijunction.sweep import SweepResult

ROOT = Path(__file__).resolve().parent.parent

EQ_FIXED = {
    "omega1": 1.0,
    "omega2": 1.0,
    "delta": 0.005,
    "gamma1": 0.002,
    "gamma2": 0.002,
    "t1": 0.2,
    "t2": 0.2,
    "mu1": 0.5,
    "mu2": 0.5,
}


def fixed_without(*names):
    return {k: v for k, v in EQ_FIXED.items() if k not in names}


def small_spec(observables=("thermo", "correlations")):
    return SweepSpec(
        fixed=fixed_without("mu1"),
        axes=(Axis("mu1", 0.5, 1.0, 3),),
        observables=observables,
    )


def test_axis_values_linear_and_log():
    np.testing.assert_allclose(Axis("mu1", 0.0, 1.0, 5).values(), np.linspace(0, 1, 5))
    np.testing.assert_allclose(
        Axis("gamma1", 1e-4, 1e-2, 3, scale="log").values(), [1e-4, 1e-3, 1e-2]
    )


def test_spec_validation_errors():
    with pytest.raises(ConfigError, match="at most two"):
        SweepSpec(
            fixed=fixed_without("mu1", "mu2", "t2"),
            axes=(
                Axis("mu1", 0, 1, 2),
                Axis("mu2", 0, 1, 2),
                Axis("t2", 0.1, 1, 2),
            ),
        )
    with pytest.raises(ConfigError, match="count"):
        SweepSpec(fixed=fixed_without("mu1"), axes=(Axis("mu1", 0, 1, 1),))
    with pytest.raises(ConfigError, match="unknown axis"):
        SweepSpec(fixed=EQ_FIXED, axes=(Axis("voltage", 0, 1, 3),))
    with pytest.raises(ConfigError, match="scale"):
        SweepSpec(fixed=fixed_without("mu1"), axes=(Axis("mu1", 0, 1, 3, "cubic"),))
    with pytest.raises(ConfigError, match="positive bounds"):
        SweepSpec(fixed=fixed_without("mu1"), axes=(Axis("mu1", -1, 1, 3, "log"),))
    with pytest.raises(ConfigError, match="both fixed and swept"):
        SweepSpec(fixed=EQ_FIXED, axes=(Axis("mu1", 0, 1, 3),))
    with pytest.raises(ConfigError, match="neither fixed nor swept"):
        SweepSpec(fixed=fixed_without("mu1", "mu2"), axes=(Axis("mu1", 0, 1, 3),))
    with pytest.raises(ConfigError, match="more than once"):
        SweepSpec(
            fixed=fixed_without("mu1", "mu2"),
            axes=(Axis("mu", 0, 1, 2), Axis("mu1", 0, 1, 2)),
        )
    with pytest.raises(ConfigError, match="unknown parameters"):
        SweepSpec(fixed={**EQ_FIXED, "phase": 0.1})
    with pytest.raises(ConfigError, match="observable"):
        SweepSpec(fixed=EQ_FIXED, observables=("thermo", "entropy"))
    with pytest.raises(ConfigError, match="observable"):
        SweepSpec(fixed=EQ_FIXED, observables=())


def test_grid_row_major_order():
    spec = SweepSpec(
        fixed=fixed_without("mu1", "t2"),
        axes=(Axis("mu1", 0.0, 1.0, 2), Axis("t2", 0.2, 0.4, 2)),
        observables=("correlations",),
    )
    mu1, t2 = spec.coordinates()
    assert list(zip(mu1.tolist(), t2.tolist())) == [(0.0, 0.2), (0.0, 0.4), (1.0, 0.2), (1.0, 0.4)]


@st.composite
def axis_grids(draw):
    """Specs with 0, 1 or 2 axes, each linear (any sign) or log."""
    names = draw(st.sampled_from([(), ("delta",), ("delta", "t2")]))
    axes = []
    for name in names:
        scale = draw(st.sampled_from(["linear", "log"]))
        bound = st.floats(1e-3, 2.0) if scale == "log" else st.floats(-2.0, 2.0)
        axes.append(Axis(name, draw(bound), draw(bound), draw(st.integers(2, 9)), scale))
    return SweepSpec(fixed=fixed_without(*names), axes=tuple(axes), observables=("correlations",))


@settings(max_examples=40, deadline=None)
@given(axis_grids())
def test_coordinates_are_the_ravelled_meshgrid(spec):
    arrays = [ax.values() for ax in spec.axes]
    for ax, values in zip(spec.axes, arrays):
        spaced = np.geomspace if ax.scale == "log" else np.linspace
        assert values.tobytes() == spaced(ax.start, ax.stop, ax.count).tobytes()
    want = [m.ravel() for m in np.meshgrid(*arrays, indexing="ij")]
    got = spec.coordinates()
    assert len(got) == len(want) == len(spec.axes)
    for g, w in zip(got, want):
        # bit for bit, in the same order
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@st.composite
def axes(draw, name="delta"):
    """An axis of 2-500 values, linear between bounds of any sign over
    twelve decades or log between positive ones over sixteen."""
    scale = draw(st.sampled_from(["linear", "log"]))
    if scale == "log":
        bound = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
    else:
        bound = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-6, 6))
    return Axis(name, draw(bound), draw(bound), draw(st.integers(2, 500)), scale)


@settings(max_examples=300, deadline=None)
@given(axes(), axes("t2"))
@example(Axis("delta", 1.0, 1.0, 3), Axis("t2", 0.0, 5e-324, 3))
def test_axis_values_are_linspace_bit_for_bit(first, second):
    # values() forms what np.linspace forms, the log scale 10 ** that of
    # the logs with the ends pinned; coordinates() is the ravelled
    # meshgrid of the two axes' values, in row-major order
    for ax in (first, second):
        if ax.scale == "linear":
            want = np.linspace(ax.start, ax.stop, ax.count)
        else:
            want = 10.0 ** np.linspace(np.log10(ax.start), np.log10(ax.stop), ax.count)
            want[0], want[-1] = ax.start, ax.stop
        assert ax.values().tobytes() == want.tobytes()
    spec = SweepSpec(fixed=fixed_without("delta", "t2"), axes=(first, second),
                     observables=("correlations",))
    want = [m.ravel() for m in np.meshgrid(first.values(), second.values(), indexing="ij")]
    got = spec.coordinates()
    assert [g.dtype for g in got] == [w.dtype for w in want]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_resolve_offset_axes_after_direct():
    spec = SweepSpec(
        fixed=fixed_without("mu1", "mu2"),
        axes=(Axis("mu2", 0.2, 0.4, 2), Axis("dmu", 0.0, 1.0, 3)),
        observables=("correlations",),
    )
    values = spec.resolve((0.4, 0.25))
    assert values["mu2"] == 0.4
    assert values["mu1"] == pytest.approx(0.65)
    # common-level aliases assign both reservoirs
    spec2 = SweepSpec(
        fixed=fixed_without("t1", "t2"),
        axes=(Axis("T", 0.1, 0.4, 2),),
        observables=("correlations",),
    )
    values2 = spec2.resolve((0.3,))
    assert values2["t1"] == values2["t2"] == 0.3


def test_offset_axis_requires_reference_value():
    with pytest.raises(ConfigError, match="needs parameter"):
        SweepSpec(
            fixed=fixed_without("t1", "t2"),
            axes=(Axis("dT", 0.0, 1.0, 3),),
        )


def test_columns_layout():
    spec = SweepSpec(
        fixed=fixed_without("mu2", "mu1"),
        axes=(Axis("mu2", 0.2, 0.4, 2), Axis("dmu", 0.0, 1.0, 3)),
    )
    # derived axis gets a column, bare mu2 does not; the blocks follow in
    # one fixed order, whatever order the spec lists them in
    assert spec.columns() == (
        "dmu",
        "omega1", "omega2", "delta", "gamma1", "gamma2", "t1", "t2", "mu1", "mu2",
        "qfi_total", "qfi_fe", "qfi_fn", "qfi_step",
        "coherence", "linear_entropy", "concurrence", "qmi",
        "classical_corr", "discord",
        "current_n1", "current_n2", "current_e1", "current_e2", "epr", "epr_regime_ok",
        "residual", "flags",
    )
    reordered = SweepSpec(fixed=spec.fixed, axes=spec.axes, observables=("thermo", "qfi"))
    assert reordered.columns() == spec.columns()[:14] + spec.columns()[-8:]


def test_single_point_sweep_at_equilibrium():
    spec = SweepSpec(fixed=EQ_FIXED, observables=("thermo", "correlations"))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert abs(row["current_n1"]) < 1e-14
    assert abs(row["current_e1"]) < 1e-14
    assert abs(row["epr"]) < 1e-14
    assert row["coherence"] < 1e-14
    assert row["flags"] == ""
    assert row["epr_regime_ok"] is True


def test_sweep_all_blocks_repeat_identical():
    spec = SweepSpec(
        fixed=fixed_without("mu1"),
        axes=(Axis("mu1", 0.5, 1.5, 5),),
        observables=("thermo", "correlations", "discord", "qfi"),
    )
    first = emit(run_sweep(spec))
    second = emit(run_sweep(spec))
    assert first == second


def test_sweep_repeat_identical_bytes():
    spec = small_spec(observables=("correlations", "discord"))
    a = emit(run_sweep(spec))
    b = emit(run_sweep(spec))
    assert a == b


def test_csv_round_trip_exact():
    spec = small_spec()
    payload = emit(run_sweep(spec), fmt="csv")
    reader = csv.DictReader(io.StringIO(payload.decode()))
    parsed = list(reader)
    assert len(parsed) == 3
    result = run_sweep(spec)
    for row, ref in zip(parsed, result.rows):
        for col in ("mu1", "epr", "coherence", "linear_entropy", "residual"):
            assert float(row[col]) == ref[col]
        assert row["epr_regime_ok"] == "True"


def test_jsonl_round_trip_exact():
    spec = small_spec()
    payload = emit(run_sweep(spec), fmt="jsonl")
    lines = payload.decode().splitlines()
    assert len(lines) == 3
    result = run_sweep(spec)
    for line, ref in zip(lines, result.rows):
        record = json.loads(line)
        assert record["epr"] == ref["epr"]
        assert record["qmi"] == ref["qmi"]
        assert record["epr_regime_ok"] is True


def test_emit_empty_result():
    spec = small_spec()
    empty = SweepResult(spec=spec, columns=spec.columns(), table={c: [] for c in spec.columns()})
    assert empty.rows == ()
    csv_payload = emit(empty, fmt="csv")
    assert csv_payload.decode().strip() == ",".join(spec.columns())
    assert emit(empty, fmt="jsonl") == b""
    with pytest.raises(ConfigError):
        emit(empty, fmt="parquet")


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _reference_csv(result):
    """The CSV emit wrote row by row through csv.writer; the oracle for
    the column-wise emit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_reference_cell(row.get(col)) for col in result.columns])
    return buf.getvalue().encode()


_EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, 0.1, 1.0)
_CSV_SPECIALS = st.text(alphabet=st.sampled_from(list('ab:,"\n\r ')), max_size=6)


@st.composite
def cell_tables(draw):
    """Column tables of n points: float columns drawn from a small pool,
    so values repeat, with edge values; a column mixing such floats with
    bools; a bool column; free text flags holding delimiters, quotes and
    line breaks; any cell may be missing."""
    n = draw(st.integers(0, 12))
    pools = st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(), min_size=1, max_size=4)

    def column(values):
        return draw(st.lists(st.none() | values, min_size=n, max_size=n))

    table = {f"x{k}": column(st.sampled_from(draw(pools))) for k in range(draw(st.integers(1, 4)))}
    # floats and bools in one column: 1.0 == True and 0.0 == False
    table["mixed"] = column(st.sampled_from(draw(pools)) | st.booleans())
    table["ok"] = column(st.booleans())
    table["flags"] = column(st.just("") | _CSV_SPECIALS | st.text(max_size=8))
    return table


@settings(max_examples=200, deadline=None)
@given(cell_tables(), st.booleans())
@example({"x0": [0.0, -0.0, 0.0, -0.0, None], "ok": [False] * 5, "flags": [""] * 5}, False)
@example({"x0": [-0.0, 0.0, math.nan, math.nan, 1e308], "ok": [True, False, None, True, False],
          "flags": ["a,b", 'say "x"', "line\nbreak", "cr\r", ""]}, True)
# equal values of different types print as their own type
@example({"x0": [1.0, True, 1.0], "flags": [""] * 3}, False)
@example({"x0": [True, 1.0], "flags": [""] * 2}, False)
@example({"x0": [10**17, 1e17], "flags": [""] * 2}, False)
# the row template: a literal holding %, signed zeros, a constant bool
# column, one row and no row
@example({"x0": ["a%sb"] * 3, "flags": [""] * 3}, False)
@example({"x0": [-0.0] * 3, "x1": [0.0, -0.0, 0.0], "flags": [""] * 3}, False)
@example({"x0": [0.5, 0.5], "ok": [False] * 2, "flags": [""] * 2}, True)
@example({"x0": [0.25], "ok": [True], "flags": ["a,b"]}, True)
@example({"x0": [], "ok": [], "flags": []}, True)
def test_emit_csv_matches_row_writer(table, absent_column):
    # a column named but absent from the table emits empty cells
    columns = tuple(table) + (("absent",) if absent_column else ())
    result = SweepResult(spec=small_spec(), columns=columns, table=table)
    assert emit(result) == _reference_csv(result)


@pytest.mark.parametrize(("fixed", "axes", "kinds"), [
    # the corners fail: gamma1 < 0 is invalid, gamma1 or gamma2 = 0 degenerate
    ({"omega1": 1.0, "omega2": 1.0, "delta": 0.0, "t1": 0.2, "t2": 0.7, "mu1": 1.0, "mu2": 0.5},
     (Axis("gamma1", -0.002, 0.002, 3), Axis("gamma2", 0.0, 0.002, 2)), {"params", "solver"}),
    # cold and strongly biased: the QFI of the t1 = 0.0529 point fails
    ({"omega1": 1.0, "omega2": 1.0, "delta": 0.0983, "gamma1": 0.01159, "gamma2": 0.01729,
      "t2": 0.0129, "mu1": 0.0653, "mu2": 0.7232}, (Axis("t1", 0.0529, 0.06, 2),), {"qfi"}),
])
def test_emit_csv_of_failing_sweep_matches_row_writer(fixed, axes, kinds):
    result = run_sweep(SweepSpec(fixed=fixed, axes=axes))
    assert {flag.split(":")[0] for flag in result.table["flags"] if flag} == kinds
    assert emit(result) == _reference_csv(result)


def test_invalid_parameter_point_is_recorded():
    # t2 crosses zero: the first grid point is invalid, the sweep survives
    spec = SweepSpec(
        fixed=fixed_without("t2"),
        axes=(Axis("t2", -0.1, 0.3, 2),),
        observables=("thermo",),
    )
    result = run_sweep(spec)
    assert result.rows[0]["flags"].startswith("params:")
    assert "epr" not in result.rows[0]
    assert result.rows[1]["flags"] == ""
    assert result.rows[1]["epr"] >= 0.0
    # the failed row serializes with empty cells, not a crash
    payload = emit(result).decode().splitlines()
    assert payload[1].split(",")[spec.columns().index("epr")] == ""


@pytest.mark.parametrize(("name", "value"), [("delta", math.nan), ("mu1", math.inf)])
def test_non_finite_parameter_is_flagged_per_point(name, value):
    # the Python API takes no config parser: the parameters themselves
    # turn a non-finite value into a params flag on every point it reaches
    spec = SweepSpec(
        fixed={**fixed_without(name, "t2"), name: value},
        axes=(Axis("t2", 0.1, 0.3, 2),),
        observables=("thermo",),
    )
    rows = run_sweep(spec).rows
    assert [row["flags"] for row in rows] == [f"params:{name} must be finite"] * 2
    assert all("epr" not in row for row in rows)


def test_solver_failure_is_recorded(monkeypatch):
    sizes = []

    def failing(params, baths):
        # as the real solver does on a stack: NaN state and residual, and
        # each point's typed error
        shape = np.shape(params.delta)
        sizes.append(shape)
        ness = solve_ness(params, baths)
        error = SteadyStateError("fabricated breakdown", residual=1.0)
        return replace(ness, v=np.full_like(ness.v, np.nan),
                       residual=np.full_like(ness.residual, np.nan),
                       errors=np.full(shape, error, dtype=object))

    monkeypatch.setattr("fermijunction.sweep.solve_ness", failing)
    # every observable block reads the failed stack
    result = run_sweep(small_spec(observables=sweep.OBSERVABLE_BLOCKS))
    # one call for the 3-point grid
    assert sizes == [(3,)]
    for row in result.rows:
        assert row["flags"].startswith("solver:SteadyStateError")
        assert "residual" not in row


def test_config_round_trip(tmp_path):
    cfg_file = tmp_path / "sweep.yaml"
    cfg_file.write_text(
        "system:\n"
        "  omega1: 1.0\n"
        "  omega2: 1.0\n"
        "  delta: 0.005\n"
        "  gamma1: 0.002\n"
        "  gamma2: 0.002\n"
        "baths:\n"
        "  t1: 0.2\n"
        "  t2: 0.2\n"
        "  mu2: 0.5\n"
        "sweep:\n"
        "  axes:\n"
        "    - name: dmu\n"
        "      start: 0.0\n"
        "      stop: 1.0\n"
        "      count: 4\n"
        "  observables: [thermo]\n"
    )
    spec = sweep_spec_from_config(load_config(str(cfg_file)))
    assert spec.axes[0].name == "dmu"
    assert spec.observables == ("thermo",)
    result = run_sweep(spec)
    assert len(result.rows) == 4
    assert result.rows[0]["mu1"] == 0.5


def test_config_rejects_unknown_structure(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("system:\n  omega1: 1.0\nplotting:\n  style: dark\n")
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_config(str(bad))
    bad2 = tmp_path / "bad2.yaml"
    bad2.write_text("system:\n  omega3: 1.0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        sweep_spec_from_config(load_config(str(bad2)))
    bad3 = tmp_path / "bad3.yaml"
    bad3.write_text("system:\n  omega1: resonant\n")
    with pytest.raises(ConfigError, match="must be a number"):
        sweep_spec_from_config(load_config(str(bad3)))
    bad4 = tmp_path / "bad4.yaml"
    bad4.write_text("sweep:\n  axes:\n    - name: mu1\n      start: 0.0\n")
    with pytest.raises(ConfigError, match="missing"):
        sweep_spec_from_config(load_config(str(bad4)))


def test_config_loaders_agree(tmp_path):
    if not getattr(yaml, "__with_libyaml__", False):
        pytest.skip("PyYAML is built without libyaml")
    assert sweep._yaml_loader() is yaml.CSafeLoader
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "sweepbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    paths = sorted((ROOT / "configs").glob("*.yaml"))
    for name in workloads.WORKLOADS:
        paths.append(tmp_path / f"{name}.yaml")
        workloads.write_config(workloads.make_config(name, 0), paths[-1])
    assert len(paths) == 8
    for path in paths:
        text = path.read_text()
        reference = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == reference, path.name
        assert load_config(str(path)) == reference, path.name


_POPULATION_CELLS = ("current_n1", "current_n2", "current_e1", "current_e2", "epr",
                     "coherence", "linear_entropy", "concurrence", "qmi",
                     "classical_corr", "discord")
_QFI_CELLS = ("qfi_total", "qfi_fe", "qfi_fn")


def _alone(row):
    """The same parameter point as a one-point sweep over every block."""
    return run_sweep(SweepSpec(fixed={k: row[k] for k in EQ_FIXED})).rows[0]


def _exact(cells):
    """Cells as bytes: repr of each value, the buffer of each array."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v) for k, v in cells.items()}


def _assert_matches_alone(row):
    alone = _alone(row)
    assert row["flags"] == alone["flags"]
    assert set(row) == set(alone) | {ax for ax in ("dmu", "dT") if ax in row}
    # besides the emitted columns a row holds only its steady state
    assert set(alone) - set(SweepSpec(fixed=EQ_FIXED).columns()) <= {"v"}
    if row["flags"]:
        # a flagged row is the row its one-point sweep writes, cell for cell
        assert _exact({k: row[k] for k in alone}) == _exact(alone)
        return
    for got, want in zip(row["v"][:4], alone["v"][:4]):
        assert abs(got - want) <= 1e-12 * abs(want)
    for col in _POPULATION_CELLS + _QFI_CELLS:
        assert abs(row[col] - alone[col]) <= 1e-12 * max(abs(row[col]), abs(alone[col])), col


@st.composite
def biased_grids(draw):
    """Detuned junctions with unequal couplings under a chemical and a
    thermal bias at every grid point."""
    omega1 = draw(st.floats(0.8, 1.2))
    delta = draw(st.floats(0.003, 0.05))
    fixed = {
        "omega1": omega1,
        "omega2": omega1 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.005, 0.05)),
        "delta": delta,
        "gamma1": delta * draw(st.floats(0.02, 0.1)),
        "gamma2": delta * draw(st.floats(0.11, 0.2)),
        "t1": draw(st.floats(0.1, 0.5)),
        "mu2": draw(st.floats(0.2, 1.0)),
    }
    axes = (
        Axis("dmu", draw(st.floats(0.05, 0.5)), draw(st.floats(0.6, 1.2)), 3),
        Axis("dT", draw(st.floats(0.02, 0.1)), draw(st.floats(0.2, 0.5)), 2),
    )
    return SweepSpec(fixed=fixed, axes=axes)


@settings(max_examples=15, deadline=None)
@given(biased_grids())
def test_grid_row_equals_the_point_alone(spec):
    # populations, currents, correlations and the QFI within 1e-12 relative
    rows = run_sweep(spec).rows
    assert len(rows) == 6 and all(r["flags"] == "" for r in rows)
    for row in rows:
        _assert_matches_alone(row)


def test_cold_grid_is_solved_once(monkeypatch):
    # cold, strongly biased baths: about half the points lose positivity,
    # in the solve or, with a sizable derivative, in the QFI
    calls = []

    def counting_solve(params, baths):
        calls.append(np.shape(params.delta))
        return solve_ness(params, baths)

    monkeypatch.setattr(sweep, "solve_ness", counting_solve)
    fixed = {"omega1": 1.0, "omega2": 1.0, "gamma1": 0.01159, "gamma2": 0.01729,
             "t2": 0.0129, "mu1": 0.0653, "mu2": 0.7232}
    axes = (Axis("delta", 0.05, 0.12, 20), Axis("t1", 0.02, 0.08, 20))
    rows = run_sweep(SweepSpec(fixed=fixed, axes=axes)).rows
    assert calls == [(400,)]
    kinds = {row["flags"].split(":")[0] for row in rows}
    assert kinds == {row["flags"].split(":")[0] for row in rows[::17]} == {"", "qfi", "solver"}
    for row in rows[::17]:
        _assert_matches_alone(row)


def test_qfi_sweep_takes_fermi_factors_and_bath_pieces_once(monkeypatch):
    # the QFI's tangent reuses the weights and occupations of the solve and
    # forms both product-rule terms in one pass: one Fermi call for the
    # grid, one bath-piece pass for the generator and one for the tangent
    calls = {"fermi_occupation": 0, "_sources": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        for module in (liouvillian, metrology, thermo, model):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    fixed = {"omega1": 1.0, "omega2": 1.03, "gamma1": 0.001, "gamma2": 0.003,
             "t1": 0.2, "t2": 0.5, "mu2": 0.5}
    axes = (Axis("delta", 0.01, 0.05, 5), Axis("dmu", -0.5, 0.5, 5))
    rows = run_sweep(SweepSpec(fixed=fixed, axes=axes, observables=("qfi",))).rows
    assert all(row["flags"] == "" for row in rows)
    assert calls["fermi_occupation"] == 1
    assert calls["_sources"] <= 2


@pytest.mark.parametrize(
    ("fixed", "axes", "expected"),
    [
        # gamma1 < 0 is a params error; gamma1 = gamma2 = 0 leaves the
        # steady state not unique; both rates positive solves
        (
            {**fixed_without("gamma1", "gamma2"), "omega2": 1.03, "t2": 0.4, "mu1": 0.9},
            (Axis("gamma1", -0.002, 0.002, 3), Axis("gamma2", 0.0, 0.002, 2)),
            {0: "params:decay rates", 1: "params:decay rates",
             2: "solver:DegenerateNullSpaceError:", 5: ""},
        ),
        # omega1 = omega2 under biased baths, delta crossing 0 where the
        # mode frame flips: the QFI at delta = 0 takes the delta -> 0+
        # frame, so no point is flagged
        (
            {**fixed_without("delta", "gamma1"), "t2": 0.4, "mu1": 0.9},
            (Axis("delta", -0.01, 0.01, 3), Axis("gamma1", 0.001, 0.002, 2)),
            {i: "" for i in range(6)},
        ),
        # cold biased baths: at delta = 0.0983 the Redfield state loses
        # positivity (eigenvalue -7.4e-10) and the QFI raises
        # RankChangeError; the stacked point is redone alone and keeps its
        # residual, while its neighbours at smaller delta keep their cells
        (
            {"omega1": 1.0, "omega2": 1.0, "gamma1": 0.01159, "gamma2": 0.01729,
             "t1": 0.0529, "t2": 0.0129, "mu1": 0.0653, "mu2": 0.7232},
            (Axis("delta", 0.0783, 0.0983, 3),),
            {0: "", 1: "", 2: "qfi:RankChangeError:"},
        ),
    ],
    ids=["couplings", "delta-through-zero", "rank-change"],
)
def test_mixed_failure_grid_flags_each_point_as_alone(fixed, axes, expected):
    rows = run_sweep(SweepSpec(fixed=fixed, axes=axes)).rows
    for i, want in expected.items():
        assert rows[i]["flags"].startswith(want) and bool(rows[i]["flags"]) == bool(want)
    for row in rows:
        _assert_matches_alone(row)
        if row["flags"]:
            assert "qfi_total" not in row
            assert ("residual" in row) == row["flags"].startswith("qfi:")
