"""Sweep engine: validation, determinism, serialization round-trips."""
import csv
import io
import json

import numpy as np
import pytest

from fermijunction import (
    Axis,
    ConfigError,
    SweepSpec,
    emit,
    load_config,
    run_sweep,
    sweep_spec_from_config,
)
from fermijunction.liouvillian import SteadyStateError
from fermijunction.sweep import SweepResult

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
    with pytest.raises(ConfigError, match="qfi_step"):
        SweepSpec(fixed=EQ_FIXED, qfi_step=0.0)


def test_grid_row_major_order():
    spec = SweepSpec(
        fixed=fixed_without("mu1", "t2"),
        axes=(Axis("mu1", 0.0, 1.0, 2), Axis("t2", 0.2, 0.4, 2)),
        observables=("correlations",),
    )
    assert spec.grid() == [(0.0, 0.2), (0.0, 0.4), (1.0, 0.2), (1.0, 0.4)]


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
    cols = spec.columns()
    assert cols[0] == "dmu"  # derived axis gets a column, bare mu2 does not
    assert cols.count("mu2") == 1
    assert cols[-2:] == ("residual", "flags")
    assert "qfi_total" in cols and "discord" in cols and "epr" in cols


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
    empty = SweepResult(spec=spec, columns=spec.columns(), rows=[])
    csv_payload = emit(empty, fmt="csv")
    assert csv_payload.decode().strip() == ",".join(spec.columns())
    assert emit(empty, fmt="jsonl") == b""
    with pytest.raises(ConfigError):
        emit(empty, fmt="parquet")


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


def test_solver_failure_is_recorded(monkeypatch):
    calls = {"n": 0}

    def failing(params, baths):
        calls["n"] += 1
        raise SteadyStateError("fabricated breakdown", residual=1.0)

    monkeypatch.setattr("fermijunction.sweep.solve_ness", failing)
    result = run_sweep(small_spec(observables=("thermo",)))
    assert calls["n"] == 3
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
        "  qfi_step: 2.0e-6\n"
    )
    spec = sweep_spec_from_config(load_config(str(cfg_file)))
    assert spec.axes[0].name == "dmu"
    assert spec.qfi_step == 2e-6
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


def test_qfi_step_override_reaches_report():
    spec = SweepSpec(fixed=EQ_FIXED, observables=("qfi",), qfi_step=3e-6)
    result = run_sweep(spec)
    assert result.rows[0]["qfi_step"] == 3e-6
