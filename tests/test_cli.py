"""Command-line interface: subcommands, exit codes, determinism."""
import argparse
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fermijunction import sweep, verify
from fermijunction.cli import main
from fermijunction.liouvillian import solve_ness
from fermijunction.metrology import QfiReport, RankChangeError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"

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


def test_point_reports_qfi_solver_failure(point_config, monkeypatch, capsys):
    def failing_qfi(ness):
        # as the real layer does on a stack: NaN values and the typed errors
        shape = np.shape(ness.params.delta)
        nan = np.full(shape, np.nan)
        errors = np.full(shape, RankChangeError("fabricated rank change"), dtype=object)
        return QfiReport(f_total=nan, f_e=nan, f_n=nan, errors=errors)

    monkeypatch.setattr(sweep, "qfi_spectral", failing_qfi)
    assert main(["point", point_config]) == 0
    out = capsys.readouterr().out
    assert "qfi unavailable: fabricated rank change" in out
    assert "discord=" in out and "entropy production" in out


@pytest.mark.parametrize(("measure", "blocks"), [
    ("concurrence", "[thermo, correlations]"),
    ("mutual_information", "[thermo, correlations]"),
    ("discord", "[qfi, correlations, discord, thermo]"),
])
def test_failing_measure_flags_only_its_point(measure, blocks, sweep_config, tmp_path,
                                              monkeypatch):
    # a stacked measure that raises ValueError at one point is evaluated
    # again point by point: only that point is flagged, with its
    # correlations and discord cells empty, and every other row is the
    # row of the sweep without the failure
    config = tmp_path / "measure.yaml"
    with open(sweep_config, encoding="utf-8") as fh:
        config.write_text(fh.read().replace("[thermo, correlations]", blocks))
    clean, planted = tmp_path / "clean.csv", tmp_path / "planted.csv"
    assert main(["sweep", str(config), "--out", str(clean)]) == 0
    spec = sweep.sweep_spec_from_config(sweep.load_config(str(config)))
    target = sweep.run_sweep(spec).table["v"][1]
    real = getattr(sweep, measure)

    def failing(v):
        if (np.asarray(v) == target).all(axis=-1).any():
            raise ValueError("planted: not a state")
        return real(v)

    monkeypatch.setattr(sweep, measure, failing)
    assert main(["sweep", str(config), "--out", str(planted)]) == 0
    want, got = clean.read_bytes().splitlines(), planted.read_bytes().splitlines()
    assert len(got) == len(want) == 4
    assert [line for k, line in enumerate(got) if k != 2] == [
        line for k, line in enumerate(want) if k != 2]
    header = got[0].decode().split(",")
    row = dict(zip(header, got[2].decode().split(",")))
    assert row.pop("flags") == "measure:ValueError:planted: not a state"
    lost = {"coherence", "linear_entropy", "concurrence", "qmi", "classical_corr", "discord"}
    assert {k for k, v in row.items() if not v} == lost.intersection(header)
    assert row["residual"] == dict(zip(header, want[2].decode().split(",")))["residual"]


def test_point_reports_measure_failure(point_config, monkeypatch, capsys):
    def failing_discord(v):
        raise ValueError("planted: not a state")

    monkeypatch.setattr(sweep, "discord", failing_discord)
    assert main(["point", point_config]) == 0
    out = capsys.readouterr().out
    assert "correlations unavailable: planted: not a state" in out
    assert "coherence |rho23|" not in out and "discord=" not in out
    assert "qfi_total=" in out and "entropy production" in out


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


def test_sweep_over_a_longer_file_writes_fresh_bytes(sweep_config, tmp_path):
    # --out is written in place and then cut to length: no old tail survives
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", sweep_config, "--out", str(fresh)]) == 0
    junk = tmp_path / "junk.csv"
    junk.write_bytes(np.random.default_rng(0).bytes(100_000))
    assert main(["sweep", sweep_config, "--out", str(junk)]) == 0
    assert junk.read_bytes() == fresh.read_bytes()
    out = tmp_path / "out"
    assert main(["sweep", sweep_config, "--format", "jsonl", "--out", str(out)]) == 0
    assert out.stat().st_size > fresh.stat().st_size
    assert main(["sweep", sweep_config, "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_sweep_opens_out_without_truncating(sweep_config, tmp_path, monkeypatch):
    # the in-place write is the speed-up: an O_TRUNC open of an existing
    # file makes ext4 flush it on close, so --out must not ask for one
    calls = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        calls.append((path, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 10_000)
    assert main(["sweep", sweep_config, "--out", str(out)]) == 0
    assert [path for path, _ in calls] == [str(out)]
    (flags,) = [flags for _, flags in calls]
    assert not flags & os.O_TRUNC
    assert flags & os.O_CREAT and flags & os.O_WRONLY
    assert out.read_bytes().startswith(b"dmu,omega1") and out.stat().st_size < 10_000


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX symlinks and modes")
def test_sweep_out_keeps_symlink_and_mode(sweep_config, tmp_path):
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", sweep_config, "--out", str(fresh)]) == 0
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n" * 5_000)
    target.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["sweep", sweep_config, "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_sweep_out_to_devices_and_directories(sweep_config, tmp_path, capsys):
    # a device is written, never cut to length; a directory is an error
    assert main(["sweep", sweep_config, "--out", os.devnull]) == 0
    assert main(["sweep", sweep_config, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_sweep_out_to_dev_stdout_pipe(sweep_config, tmp_path):
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", sweep_config, "--out", str(fresh)]) == 0
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from fermijunction.cli import main
sys.exit(main(["sweep", {sweep_config!r}, "--out", "/dev/stdout"]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == fresh.read_bytes()


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


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("start", "true", "sweep.axes[0].start must be a number"),
        ("start", "low", "sweep.axes[0].start must be a number"),
        ("stop", "false", "sweep.axes[0].stop must be a number"),
        ("stop", "[0.6]", "sweep.axes[0].stop must be a number"),
        ("count", "true", "sweep.axes[0].count must be a number"),
        ("count", "'3'", "sweep.axes[0].count must be a number"),
        ("count", "3.9", "sweep.axes[0].count must be a whole number"),
        ("count", ".nan", "sweep.axes[0].count must be a finite number"),
        ("count", ".inf", "sweep.axes[0].count must be a finite number"),
        ("start", ".nan", "sweep.axes[0].start must be a finite number"),
        ("stop", "-.inf", "sweep.axes[0].stop must be a finite number"),
    ],
)
def test_sweep_rejects_bad_axis_field(field, value, message, sweep_config, capsys):
    # the axis fields are validated like the system and baths sections:
    # a bool or a fractional count must not be coerced into a sweep
    text = Path(sweep_config).read_text()
    old = {"start": "start: 0.0", "stop": "stop: 0.6", "count": "count: 3"}[field]
    Path(sweep_config).write_text(text.replace(old, f"{field}: {value}"))
    assert main(["sweep", sweep_config]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["sweep", "point"])
@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("delta: 0.005", "delta: .nan", "system.delta must be a finite number"),
        ("mu2: 0.5", "mu2: .inf", "baths.mu2 must be a finite number"),
        ("gamma1: 0.002", "gamma1: 1" + "0" * 400, "system.gamma1 must be a finite number"),
        (GOOD_POINT.split("baths:")[0], "system: [1, 2]\n", "system must be a mapping"),
        ("count: 3\n", "count: 3\n      step: 1\n", "unknown keys ['step'] in sweep.axes[0]"),
        ("observables: [thermo, correlations]", "observables: qfi",
         "sweep.observables must be a list"),
    ],
    ids=["nan-delta", "inf-mu2", "int-overflow", "system-list", "axis-step", "observables-str"],
)
def test_non_finite_number_is_validation_error(command, old, new, message, sweep_config, capsys):
    # a non-finite number never reaches the solver: no SVD failure, no
    # silently infinite entropy production; nor does a malformed section
    Path(sweep_config).write_text(Path(sweep_config).read_text().replace(old, new))
    assert main([command, sweep_config]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["sweep", "point"])
@pytest.mark.parametrize("value", ["1.0e-4", ".nan"])
def test_config_qfi_step_is_rejected(command, value, sweep_config, capsys):
    # the QFI takes no step setting: a config naming it is invalid
    # (the sweep section ends the file)
    Path(sweep_config).write_text(Path(sweep_config).read_text() + f"  qfi_step: {value}\n")
    assert main([command, sweep_config]) == 1
    assert capsys.readouterr().err == "error: unknown keys ['qfi_step'] in sweep\n"


def test_sweep_accepts_whole_float_count(sweep_config, capsysbinary):
    Path(sweep_config).write_text(Path(sweep_config).read_text().replace("count: 3", "count: 3.0"))
    assert main(["sweep", sweep_config, "--format", "jsonl"]) == 0
    assert len(capsysbinary.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("command", ["sweep", "point"])
def test_malformed_yaml_exit_code(command, tmp_path, capsys):
    path = tmp_path / "malformed.yaml"
    path.write_text("system:\n  omega1: [1.0\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_shared_parser_is_reentrant(sweep_config, point_config, tmp_path, monkeypatch, capsys):
    # main parses with the parser built at import: it builds none, and no
    # call (a JSONL sweep, a usage error) changes what a later call writes
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out = tmp_path / "out"

    def sweep_bytes(*options):
        assert main(["sweep", sweep_config, "--out", str(out), *options]) == 0
        return out.read_bytes()

    def sequence():
        written = [sweep_bytes("--format", "jsonl"), sweep_bytes()]
        for argv in (["sweep"], ["sweep", sweep_config, "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "usage: fermijunction sweep" in capsys.readouterr().err
        assert main(["point", point_config]) == 0
        written.append(capsys.readouterr().out)
        written.append(sweep_bytes())
        return written

    first = sequence()
    assert first[0].startswith(b'{"dmu": 0.0') and first[1].startswith(b"dmu,omega1")
    assert first[3] == first[1]  # CSV is the default again after the JSONL call
    assert sequence() == first
    assert built == []


def test_package_import_leaves_the_cli_unloaded():
    # the parser is built when fermijunction.cli is imported; the library
    # alone must not pay for it
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import fermijunction
print("fermijunction.cli" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_package_import_leaves_pyyaml_unloaded():
    # only load_config parses YAML, so only a config pays for PyYAML
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import fermijunction
print("yaml" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_package_exports_each_module_public_name():
    import fermijunction
    from fermijunction import liouvillian, metrology, model, observables, thermo

    assert sorted(fermijunction.__all__) == [
        "Axis", "BathParams", "CHECKS", "ConfigError", "DIM", "DegenerateNullSpaceError",
        "DiscordResult", "EigenBasis", "Liouvillian", "NessResult", "QfiReport",
        "RankChangeError", "SteadyStateError", "SweepResult", "SweepSpec", "SystemParams",
        "ThermoReport", "build_liouvillian", "coherence", "concurrence", "diagonalize",
        "discord", "discord_brute_force", "emit", "entropy_production_rate",
        "epr_leading_order", "epr_regime_ok", "fermi_occupation", "fidelity",
        "generator_derivative", "grand_canonical_state", "linear_entropy", "load_config",
        "mutual_information", "ness_leading_order", "qfi_equilibrium_approx",
        "qfi_fidelity_oracle", "qfi_spectral", "reduced_states", "run_sweep",
        "run_verification", "sector_vector", "site_basis_state", "solve_ness",
        "spectral_decompose", "state_derivative", "steady_state", "sweep_spec_from_config",
        "take", "transport_report", "x_state",
    ]
    modules = (model, liouvillian, observables, metrology, thermo, sweep, verify)
    for module in modules:
        for name in module.__all__:
            assert getattr(fermijunction, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from fermijunction import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fermijunction.__all__)


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
        calls.append((np.shape(params.delta), np.unique(params.delta).tolist()))
        return solve_ness(params, baths)

    monkeypatch.setattr(sweep, "solve_ness", counting_solve)
    verify._weak_grid_rows.cache_clear()
    checks = dict(verify.CHECKS)
    assert checks["current-conservation"]()[0]
    assert checks["epr-positivity"]()[0]
    # one grid-sized solve each for the delta = 0.005 and 0.05 grids
    assert calls == [((441,), [0.005]), ((441,), [0.05])]


def test_paper_claims_check_runs_the_shipped_config():
    cfg = sweep.load_config(str(CONFIGS / "qfi_vs_epr.yaml"))
    assert sweep.sweep_spec_from_config(cfg) == verify.PAPER_CLAIMS_SPEC
    start = time.perf_counter()
    ok, detail = dict(verify.CHECKS)["paper-claims"]()
    assert ok, detail
    assert time.perf_counter() - start < 1.0


def test_runtime_runs_without_scipy(tmp_path):
    # numpy and PyYAML are the only runtime dependencies; scipy is for tests
    script = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.path.insert(0, {str(SRC)!r})
from fermijunction import cli
codes = [
    cli.main(["point", {str(CONFIGS / "equilibrium_point.yaml")!r}]),
    cli.main(["sweep", {str(CONFIGS / "transport_vs_bias.yaml")!r},
              "--out", {str(tmp_path / "transport.csv")!r}]),
    cli.main(["verify"]),
]
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
print("RESULT", codes, loaded)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT [0, 0, 0] []"
    assert (tmp_path / "transport.csv").read_text().count("\n") == 52


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fermijunction.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "verify" in proc.stdout
