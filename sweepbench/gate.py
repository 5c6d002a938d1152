"""Correctness gate for one workload's sweep output.

Built from invariants and independent oracles, not from a golden file,
so physics fixes that change the emitted values do not trip it.  It
runs outside every timed region and never aborts: each violated check
is one entry in ``Gate.failures``.

What it does not catch: the gamma-indexing defect in the dissipators
and the QFI frame defect.  Both oracles (the brute-force discord grid
and the fidelity QFI) work on the same mode-frame steady state as the
code they check, so they agree with it whether or not those defects
are present.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import points

_BASE = ("omega1", "omega2", "delta", "gamma1", "gamma2", "t1", "t2", "mu1", "mu2")
BLOCK_COLUMNS = {
    "qfi": ("qfi_total", "qfi_fe", "qfi_fn", "qfi_step"),
    "correlations": ("coherence", "linear_entropy", "concurrence", "qmi"),
    "discord": ("classical_corr", "discord"),
    "thermo": ("current_n1", "current_n2", "current_e1", "current_e2", "epr",
               "epr_regime_ok"),
}
_DERIVED_AXES = ("mu", "T", "dT", "dmu")

RESIDUAL_TOL = 1e-10
CONSERVATION_TOL = 1e-10
EPR_TOL = 1e-10
ROUNDOFF = 1e-12  # entropies in bits: qmi, discord and classical_corr
DISCORD_ORACLE_TOL = 1e-6  # grid minus optimizer, as in verify
QFI_ORACLE_TOL = 1e-3  # relative gap to the fidelity route, as in verify
ORACLE_ROWS = 2  # rows per oracle, drawn from the benchmark seed


@dataclass
class Gate:
    rows: int = 0
    failed_rows: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def required_columns(cfg: dict) -> list[str]:
    axes = [a["name"] for a in cfg["sweep"]["axes"] if a["name"] in _DERIVED_AXES]
    blocks = [c for b in cfg["sweep"]["observables"] for c in BLOCK_COLUMNS[b]]
    return axes + list(_BASE) + blocks + ["residual", "flags"]


def _row_invariants(gate: Gate, i: int, row: dict[str, str], blocks) -> None:
    num = {k: float(v) for k, v in row.items() if v not in ("", "True", "False")
           and k != "flags"}
    gate.expect(num["residual"] < RESIDUAL_TOL, f"row {i}: residual {num['residual']:.3e}")
    if "thermo" in blocks:
        gate.expect(abs(num["current_n1"] + num["current_n2"]) <= CONSERVATION_TOL,
                    f"row {i}: |I1+I2| = {abs(num['current_n1'] + num['current_n2']):.3e}")
        gate.expect(abs(num["current_e1"] + num["current_e2"]) <= CONSERVATION_TOL,
                    f"row {i}: |J1+J2| = {abs(num['current_e1'] + num['current_e2']):.3e}")
        if row["epr_regime_ok"] == "True":
            gate.expect(num["epr"] >= -EPR_TOL, f"row {i}: epr {num['epr']:.3e}")
    if "correlations" in blocks:
        for col in ("concurrence", "linear_entropy"):
            gate.expect(0.0 <= num[col] <= 1.0, f"row {i}: {col} {num[col]!r}")
        gate.expect(num["qmi"] >= -ROUNDOFF, f"row {i}: qmi {num['qmi']:.3e}")
    if "discord" in blocks:
        gate.expect(num["discord"] >= -ROUNDOFF, f"row {i}: discord {num['discord']:.3e}")
        if "qmi" in num:
            gate.expect(num["classical_corr"] <= num["qmi"] + ROUNDOFF,
                        f"row {i}: classical_corr above qmi")
    if "qfi" in blocks:
        q = num["qfi_total"]
        gate.expect(math.isfinite(q) and q >= 0.0, f"row {i}: qfi_total {q!r}")


def _oracles(gate: Gate, rows: list[tuple[int, dict]], blocks, seed: int) -> None:
    from fermijunction.liouvillian import solve_ness
    from fermijunction.metrology import qfi_fidelity_oracle
    from fermijunction.model import BathParams, SystemParams
    from fermijunction.observables import discord_brute_force

    rng = np.random.default_rng([seed, 0x6a7e])
    picks = rng.choice(len(rows), size=min(ORACLE_ROWS, len(rows)), replace=False)
    for k in sorted(int(p) for p in picks):
        i, row = rows[k]
        v = {name: float(row[name]) for name in _BASE}
        try:
            params = SystemParams(**{n: v[n] for n in _BASE[:5]})
            baths = BathParams(**{n: v[n] for n in _BASE[5:]})
            if "discord" in blocks:
                rho = solve_ness(params, baths).rho
                grid_cc = discord_brute_force(rho, resolution=200).classical_corr
                gap = grid_cc - float(row["classical_corr"])
                gate.expect(gap < DISCORD_ORACLE_TOL, f"row {i}: discord oracle gap {gap:.3e}")
            if "qfi" in blocks:
                spectral = float(row["qfi_total"])
                oracle = qfi_fidelity_oracle(params, baths)
                rel = abs(spectral - oracle) / max(abs(spectral), 1e-300)
                gate.expect(rel < QFI_ORACLE_TOL, f"row {i}: QFI oracle rel gap {rel:.3e}")
        except Exception as err:  # the gate counts a failing oracle and goes on
            gate.expect(False, f"row {i}: oracle raised {type(err).__name__}: {err}")


def check(cfg: dict, payload: bytes, digests: list[str], seed: int) -> Gate:
    """Run every check on one sweep's CSV bytes and its repeat digests."""
    gate = Gate()
    gate.expect(len(set(digests)) == 1,
                f"output differs across repeats: {len(set(digests))} digests")
    reader = csv.DictReader(io.StringIO(payload.decode()))
    header = reader.fieldnames or []
    missing = [c for c in required_columns(cfg) if c not in header]
    gate.expect(not missing, f"missing columns {missing}")
    if missing:
        return gate
    rows = list(reader)
    gate.rows = len(rows)
    expected = points(cfg)
    gate.expect(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    blocks = cfg["sweep"]["observables"]
    requested = [c for b in blocks for c in BLOCK_COLUMNS[b]]
    clean = []
    for i, row in enumerate(rows):
        if any(row[c] == "" for c in requested):
            gate.failed_rows += 1
        elif not row["flags"]:
            try:
                _row_invariants(gate, i, row, blocks)
            except ValueError as err:
                gate.expect(False, f"row {i}: unparsable cell ({err})")
                continue
            clean.append((i, row))
    if clean and ("discord" in blocks or "qfi" in blocks):
        _oracles(gate, clean, blocks, seed)
    return gate
