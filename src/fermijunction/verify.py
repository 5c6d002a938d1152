"""Analytic-limit verification battery behind the ``verify`` subcommand.

Every check compares the numerics against a limit that is known in
closed form (equilibrium Gibbs state, leading-order steady state,
conservation laws, entropy production positivity, independent QFI
routes, exhaustive discord search) or that the source paper states
(the bias response of the QFI).  Output is deterministic text, one
PASS/FAIL line per check.  The acceptance tests run the first five
checks as their criteria 1-5, so each limit is coded once, here.  The
transport checks read their grid from ``run_sweep``, so they test the
numbers a sweep emits.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Callable

import numpy as np

from .liouvillian import grand_canonical_state, solve_ness
from .metrology import qfi_equilibrium_approx, qfi_fidelity_oracle, qfi_spectral
from .model import BathParams, SystemParams, diagonalize
from .observables import coherence, discord, discord_brute_force, x_state
from .sweep import Axis, SweepSpec, run_sweep
from .thermo import epr_leading_order, ness_leading_order

__all__ = ["run_verification", "CHECKS"]


def _check_equilibrium_gibbs() -> tuple[bool, str]:
    params = SystemParams(delta=0.005, gamma1=0.0002, gamma2=0.0002)
    baths = BathParams(t1=0.2, t2=0.2, mu1=0.5, mu2=0.5)
    result = solve_ness(params, baths)
    gibbs = grand_canonical_state(result.basis, 0.2, 0.5)
    diag_dev = float(np.max(np.abs(result.v[:4] - gibbs[:4]) / gibbs[:4]))
    coh = coherence(result.v)
    ok = diag_dev < 1e-4 and coh < 1e-8
    return ok, f"diagonal rel dev {diag_dev:.3e} (<1e-4), coherence {coh:.3e} (<1e-8)"


def _check_leading_order_slope() -> tuple[bool, str]:
    # one stack: gamma x (t2 - t1) x (mu1 - mu2)
    gammas = np.array([0.002, 0.001, 0.0005])[:, None, None]
    offsets = np.linspace(0.0, 1.0, 5)
    params = SystemParams(delta=0.005, gamma1=gammas, gamma2=gammas)
    baths = BathParams(t1=0.2, t2=0.2 + offsets[:, None], mu1=0.5 + offsets, mu2=0.5)
    result = solve_ness(params, baths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # largest gamma sits at g = 0.4
        ref = ness_leading_order(result.basis, baths, params)
    devs = np.abs(result.rho - x_state(ref)).max(axis=(1, 2, 3, 4))
    slope = float(np.polyfit(np.log(gammas.ravel()), np.log(devs), 1)[0])
    ok = 1.7 <= slope <= 2.3
    return ok, (f"deviation slope {slope:.3f} (want 2 +- 0.3) "
                f"over {devs.size} x {result.residual[0].size} points")


@functools.cache
def _weak_grid_rows(delta: float) -> tuple[dict, ...]:
    """Sweep rows of transport on the 21 x 21 (t2, mu) grid at t1 = 0.2,
    gamma = 0.002; cached, so each grid is solved once per process."""
    fixed = dict(omega1=1.0, omega2=1.0, delta=delta, gamma1=0.002, gamma2=0.002, t1=0.2)
    spec = SweepSpec(
        fixed=fixed,
        axes=(Axis("t2", 0.2, 1.2, 21), Axis("mu", 0.0, 2.0, 21)),
        observables=("thermo",),
    )
    return tuple(run_sweep(spec).rows)


def _check_conservation() -> tuple[bool, str]:
    rows = _weak_grid_rows(0.005) + _weak_grid_rows(0.05)
    pairs = (("current_n1", "current_n2"), ("current_e1", "current_e2"))
    worst = max(abs(r[a] + r[b]) for r in rows for a, b in pairs)
    ok = worst < 1e-10
    return ok, f"max |I1+I2|, |J1+J2| = {worst:.3e} (<1e-10) over {len(rows)} points"


def _check_epr_positivity() -> tuple[bool, str]:
    rows = _weak_grid_rows(0.005)
    lowest = min(r["epr"] for r in rows)
    rng = np.random.default_rng(20240814)
    # one row per draw of (t1, t2, mu1, mu2, omega)
    t1, t2, mu1, mu2, omega = rng.uniform(
        [0.05, 0.05, 0.0, 0.0, 0.5], [1.0, 1.0, 2.0, 2.0, 2.0], size=(10_000, 5)
    ).T
    lead_min = epr_leading_order(BathParams(t1=t1, t2=t2, mu1=mu1, mu2=mu2), omega).min()
    ok = lowest > -1e-10 and lead_min >= 0.0
    return ok, (
        f"min numeric EPR {lowest:.3e} (>-1e-10) over {len(rows)} points, "
        f"min leading-order EPR {lead_min:.3e} (>=0) over {t1.size} draws"
    )


def _biased_baths(rng: np.random.Generator) -> BathParams:
    t1 = float(rng.uniform(0.1, 0.5))
    return BathParams(
        t1=t1,
        t2=t1 + float(rng.uniform(0.0, 0.7)),
        mu1=float(rng.uniform(0.1, 1.5)),
        mu2=float(rng.uniform(0.1, 1.5)),
    )


def _check_qfi_cross() -> tuple[bool, str]:
    rng = np.random.default_rng(20240815)
    draws = []
    for _ in range(100):  # omega1 == omega2
        delta = float(np.exp(rng.uniform(np.log(3e-3), np.log(0.1))))
        gamma1, gamma2 = np.exp(rng.uniform(np.log(5e-4), np.log(5e-3), size=2))
        params = SystemParams(delta=delta, gamma1=float(gamma1), gamma2=float(gamma2))
        draws.append((params, _biased_baths(rng)))
    for _ in range(20):  # detuned, with unequal couplings: mean(gamma) <= 0.4 delta
        delta = float(np.exp(rng.uniform(np.log(3e-3), np.log(0.1))))
        gamma_mean = 0.4 * delta * float(rng.uniform(0.25, 1.0))
        asym = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.6))
        params = SystemParams(
            omega2=1.0 + float(rng.choice((-1.0, 1.0)) * rng.uniform(0.005, 0.05)),
            delta=delta,
            gamma1=gamma_mean * (1.0 + asym),
            gamma2=gamma_mean * (1.0 - asym),
        )
        draws.append((params, _biased_baths(rng)))
    worst = 0.0
    for params, baths in draws:
        spectral = qfi_spectral(solve_ness(params, baths)).f_total
        oracle = qfi_fidelity_oracle(params, baths)
        worst = max(worst, abs(spectral - oracle) / abs(spectral))
    eq_dev = 0.0
    eq_points = list(itertools.product((0.1, 0.2, 0.5), (0.3, 0.5, 1.5), (0.005, 0.01)))
    for t, mu, delta in eq_points:
        gamma = delta / 20.0
        params = SystemParams(delta=delta, gamma1=gamma, gamma2=gamma)
        baths = BathParams(t1=t, t2=t, mu1=mu, mu2=mu)
        approx = qfi_equilibrium_approx(params, t, mu)
        for value in (
            qfi_spectral(solve_ness(params, baths)).f_total,
            qfi_fidelity_oracle(params, baths),
        ):
            eq_dev = max(eq_dev, abs(value - approx) / approx)
    ok = worst < 1e-3 and eq_dev < 1e-2
    return ok, (
        f"max cross-route rel dev {worst:.3e} (<1e-3) over {len(draws)} points "
        f"({sum(p.omega2 != p.omega1 for p, _ in draws)} detuned), "
        f"equilibrium closed-form dev {eq_dev:.3e} (<1e-2) over {len(eq_points)} points"
    )


def _random_x_sector(rng: np.random.Generator) -> np.ndarray:
    """The sector v of an X state: random populations and a coherence
    within |rho12|^2 <= rho11 rho22."""
    p = rng.dirichlet(np.ones(4))
    mag = rng.uniform(0.0, math.sqrt(p[1] * p[2]))
    coh = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return np.concatenate([p, [coh.real, coh.imag]])


def _check_discord_oracle() -> tuple[bool, str]:
    """Three coherent random sectors, searched, and the Gibbs sector of a
    detuned junction, a product state below the mutual-information floor
    that takes theta = 0 unsearched."""
    rng = np.random.default_rng(20240813)
    gibbs = grand_canonical_state(diagonalize(SystemParams(omega2=1.05, delta=0.02)), 0.3, 0.8)
    worst_short = 0.0
    for v in [_random_x_sector(rng) for _ in range(3)] + [gibbs]:
        opt = discord(v).classical_corr
        grid = discord_brute_force(x_state(v), resolution=200).classical_corr
        worst_short = max(worst_short, grid - opt)
    ok = worst_short < 1e-6
    return ok, f"max (grid - optimizer) = {worst_short:.3e} over 3 coherent and 1 Gibbs sectors"


# The grid of configs/qfi_vs_epr.yaml: chemical bias at weak (delta ~
# gamma) and strong (delta >> gamma) tunneling.
PAPER_CLAIMS_SPEC = SweepSpec(
    fixed=dict(omega1=1.0, omega2=1.0, gamma1=0.002, gamma2=0.002, t1=0.2, t2=0.2, mu2=0.5),
    axes=(Axis("dmu", 0.0, 8.0, 17), Axis("delta", 0.005, 0.05, 2)),
    observables=("qfi", "thermo"),
)


def _check_paper_claims() -> tuple[bool, str]:
    """Weak tunneling: QFI does not decrease as the bias raises the EPR.
    Strong tunneling: QFI peaks inside the bias window and ends below
    its equilibrium value."""
    rows = run_sweep(PAPER_CLAIMS_SPEC).rows
    weak, strong = ([r for r in rows if r["delta"] == d] for d in (0.005, 0.05))
    rising = all(
        b[col] >= a[col] - 1e-9 * abs(a[col])
        for col in ("epr", "qfi_total")
        for a, b in zip(weak, weak[1:])
    )
    q = [r["qfi_total"] for r in strong]
    k = q.index(max(q))
    ok = rising and 0 < k < len(q) - 1 and q[-1] < q[0]
    return ok, (
        f"delta=0.005 QFI {weak[0]['qfi_total']:.4g} -> {weak[-1]['qfi_total']:.4g} "
        f"nondecreasing with EPR (1e-9 rel): {rising}; delta=0.05 QFI {q[0]:.4g} -> peak "
        f"{q[k]:.4g} at dmu={strong[k]['dmu']:g} -> {q[-1]:.4g} over {len(rows)} points"
    )


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("equilibrium-gibbs", _check_equilibrium_gibbs),
    ("leading-order-slope", _check_leading_order_slope),
    ("current-conservation", _check_conservation),
    ("epr-positivity", _check_epr_positivity),
    ("qfi-cross-routes", _check_qfi_cross),
    ("discord-oracle", _check_discord_oracle),
    ("paper-claims", _check_paper_claims),
)


def run_verification() -> bool:
    """Run all checks, print one line per check, return overall success."""
    all_ok = True
    for name, check in CHECKS:
        ok, detail = check()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print("verification " + ("passed" if all_ok else "FAILED"))
    return all_ok
