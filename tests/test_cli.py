"""Command-line interface: subcommands, exit codes, determinism."""
import subprocess
import sys

import pytest

from fermijunction import sweep, verify
from fermijunction.cli import main
from fermijunction.liouvillian import SteadyStateError, solve_ness
from fermijunction.observables import DiscordOptimizationError

GOOD_POINT = (
    "system:\n"
    "  omega1: 1.0\n"
    "  omega2: 1.0\n"
    "  delta: 0.005\n"
    "  gamma1: 0.002\n"
    "  gamma2: 0.002\n"
    "baths:\n"
    "  t1: 0.2\n"
    "  t2: 0.2\n"
    "  mu1: 0.5\n"
    "  mu2: 0.5\n"
)

SWEEP_TAIL = (
    "sweep:\n"
    "  axes:\n"
    "    - name: dmu\n"
    "      start: 0.0\n"
    "      stop: 0.6\n"
    "      count: 3\n"
    "  observables: [thermo, correlations]\n"
)


@pytest.fixture
def point_config(tmp_path):
    path = tmp_path / "point.yaml"
    path.write_text(GOOD_POINT)
    return str(path)


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(GOOD_POINT.replace("  mu1: 0.5\n", "") + SWEEP_TAIL)
    return str(path)


def test_point_reports_equilibrium(point_config, capsys):
    assert main(["point", point_config]) == 0
    out = capsys.readouterr().out
    assert "entropy production = 0" in out
    assert "coherence |rho23| = 0" in out
    assert "validated regime" in out


def test_point_missing_parameter_is_validation_error(tmp_path, capsys):
    path = tmp_path / "incomplete.yaml"
    path.write_text("system:\n  delta: 0.005\n")
    assert main(["point", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_validation_error(capsys):
    assert main(["point", "no/such/file.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


def test_point_invalid_parameter_is_validation_error(tmp_path, capsys):
    path = tmp_path / "negative.yaml"
    path.write_text(GOOD_POINT.replace("omega1: 1.0", "omega1: -1.0"))
    assert main(["point", str(path)]) == 1
    assert "site energies" in capsys.readouterr().err


def test_point_solver_failure_exit_code(tmp_path, capsys):
    # both couplings zero: the stationary state is not unique
    path = tmp_path / "uncoupled.yaml"
    path.write_text(
        GOOD_POINT.replace("gamma1: 0.002", "gamma1: 0.0").replace(
            "gamma2: 0.002", "gamma2: 0.0"
        )
    )
    assert main(["point", str(path)]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_point_reports_discord_failure(point_config, monkeypatch, capsys):
    def failing_discord(rho):
        raise DiscordOptimizationError("no convergence", best_value=0.5)

    monkeypatch.setattr(sweep, "discord", failing_discord)
    assert main(["point", point_config]) == 0
    out = capsys.readouterr().out
    assert "discord unavailable: no convergence" in out
    assert "qfi_total=" in out and "entropy production" in out


def test_point_reports_qfi_solver_failure(point_config, monkeypatch, capsys):
    def failing_qfi(params, baths, h=None, center=None):
        raise SteadyStateError("stencil solve failed", residual=1.0)

    monkeypatch.setattr(sweep, "qfi_spectral", failing_qfi)
    assert main(["point", point_config]) == 0
    out = capsys.readouterr().out
    assert "qfi unavailable: stencil solve failed" in out
    assert "discord=" in out and "entropy production" in out


def test_sweep_writes_deterministic_csv(sweep_config, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", sweep_config, "--out", str(out1)]) == 0
    assert main(["sweep", sweep_config, "--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    header = data.decode().splitlines()[0]
    assert header.startswith("dmu,omega1")
    assert len(data.decode().splitlines()) == 4


def test_sweep_jsonl_to_stdout(sweep_config, capsysbinary):
    assert main(["sweep", sweep_config, "--format", "jsonl"]) == 0
    lines = capsysbinary.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(b'{"dmu": 0.0')


def test_sweep_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text(GOOD_POINT + "sweep:\n  axes:\n    - name: mu1\n"
                    "      start: 0\n      stop: 1\n      count: 3\n")
    assert main(["sweep", str(path)]) == 1
    assert "both fixed and swept" in capsys.readouterr().err


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert main(["verify"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("PASS") == 7
    assert "verification passed" in first


def test_verify_transport_checks_solve_each_grid_once(monkeypatch):
    calls = []

    def counting_solve(params, baths):
        calls.append(params.delta)
        return solve_ness(params, baths)

    monkeypatch.setattr(sweep, "solve_ness", counting_solve)
    verify._weak_grid_rows.cache_clear()
    checks = dict(verify.CHECKS)
    assert checks["current-conservation"]()[0]
    assert checks["epr-positivity"]()[0]
    assert len(calls) == 882  # the delta = 0.005 and 0.05 grids, 441 points each


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fermijunction.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "verify" in proc.stdout
