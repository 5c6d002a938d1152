"""Particle/energy currents and entropy production for the junction.

Currents are traces of per-bath generator pieces against the number and
energy operators: I_l = Tr(D_l[rho] N) and J_l = Tr(D_l[rho] H) with
D_l = -(N_l + S_l), the part of d rho/dt owned by reservoir l.  N and H
are diagonal, so each current is a fixed row functional of the
populations of D_l[rho] = D_l v on the charge-neutral sector, with D_l
the real 6x6 matrices a solve keeps in ``NessResult.dissipators``.  Positive
values mean flow from the reservoir into the system.  The unitary
commutator contributes nothing because [N, H] = 0 (a unit test guards
this basis/sign convention).

The semi-classical entropy production rate

    S_dot = -J_1 (1/T1 - 1/T2) + I_1 (mu1/T1 - mu2/T2)

is provably nonnegative at leading order in (coupling / tunneling) for a
symmetric weakly tunneling junction; outside that regime the report
carries ``epr_regime_ok = False`` instead of clipping the value.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .liouvillian import (
    _NUMBERS, DIM, NessResult, _level_energies, _occupations, _x_state, sector_vector,
)
from .model import BathParams, EigenBasis, SystemParams, fermi_occupation

__all__ = [
    "ThermoReport",
    "entropy_production_rate",
    "transport_report",
    "ness_leading_order",
    "epr_leading_order",
    "epr_regime_ok",
]


@dataclass(frozen=True)
class ThermoReport:
    """Currents into the system from each reservoir plus the EPR.

    ``epr_regime_ok`` is False when the parameters leave the validated
    weak-tunneling window, where the semi-classical EPR may go negative.
    """

    i1: float
    i2: float
    j1: float
    j2: float
    epr: float
    epr_regime_ok: bool


def entropy_production_rate(j1: float, i1: float, baths: BathParams) -> float:
    """Semi-classical entropy production rate of the two reservoirs."""
    return -j1 * (1.0 / baths.t1 - 1.0 / baths.t2) + i1 * (
        baths.mu1 / baths.t1 - baths.mu2 / baths.t2
    )


def epr_regime_ok(params: SystemParams) -> bool:
    """True inside the window where the EPR positivity argument applies:
    symmetric junction, |delta| <= 0.01 omega, mean coupling <= |delta|/2."""
    omega1 = np.asarray(params.omega1)
    delta = np.abs(params.delta)
    symmetric = np.abs(omega1 - params.omega2) <= 1e-12 * omega1
    tunneling = delta <= 0.01 * omega1 * (1.0 + 1e-12)
    mean_gamma = 0.5 * (np.asarray(params.gamma1) + params.gamma2)
    return (symmetric & tunneling & (mean_gamma <= 0.5 * delta * (1.0 + 1e-12)))[()]


def transport_report(ness: NessResult) -> ThermoReport:
    """Currents and EPR for a solved steady state (or a stack of them)."""
    v = sector_vector(ness.rho)[..., None, :, None]
    flows = (ness.dissipators @ v)[..., :DIM, 0]  # (..., bath, level)
    charges = np.stack(np.broadcast_arrays(_NUMBERS, _level_energies(ness.basis)), axis=-1)
    currents = flows @ charges  # (..., bath, particle/energy)
    i1, j1, i2, j2 = (currents[..., l, k][()] for l in (0, 1) for k in (0, 1))
    return ThermoReport(
        i1=i1,
        i2=i2,
        j1=j1,
        j2=j2,
        epr=entropy_production_rate(j1, i1, ness.baths),
        epr_regime_ok=epr_regime_ok(ness.params),
    )


def ness_leading_order(
    basis: EigenBasis, baths: BathParams, params: SystemParams
) -> np.ndarray:
    """Analytic steady state to first order in g = coupling / tunneling,
    for each point of a stack.

    With n_{a,p/m} = [n(omega'_a, T1, mu1) +- n(omega'_a, T2, mu2)] / 2
    for mode a, the populations factorize over the two modes through the
    half-sums n_{a,p}, and the single coherence is -i (n1m + n2m) g / 2.
    Valid for |g| << 1; a warning naming the largest |g| is emitted
    when any point lies above |g| = 0.2.
    """
    delta = np.asarray(params.delta)
    if np.any(delta == 0.0):
        raise ValueError("leading-order solution requires nonzero tunneling")
    g = 0.5 * (np.asarray(params.gamma1) + params.gamma2) / delta
    if np.any(np.abs(g) > 0.2):
        warnings.warn(
            f"leading-order state requested at g = {np.abs(g).max():.3f} (largest |g|); "
            "first-order accuracy degrades above 0.2",
            stacklevel=2,
        )
    occ = np.stack(_occupations(basis, baths)[0])  # (mode, ..., bath)
    n1p, n2p = 0.5 * (occ[..., 0] + occ[..., 1])
    n1m, n2m = 0.5 * (occ[..., 0] - occ[..., 1])
    return _x_state(np.stack(np.broadcast_arrays(
        (1.0 - n1p) * (1.0 - n2p), n1p * (1.0 - n2p), n2p * (1.0 - n1p), n1p * n2p,
        0.0, -0.5 * (n1m + n2m) * g,
    ), axis=-1))


def epr_leading_order(baths: BathParams, omega: float) -> float:
    """Leading-order entropy production rate; manifestly nonnegative.

    Evaluates (ln A - ln B)(A - B) / [(e^{mu1 b1} + e^{omega b1})
    (e^{mu2 b2} + e^{omega b2})] with A = e^{mu1 b1 + omega b2},
    B = e^{mu2 b2 + omega b1} and b_i = 1/T_i, through the equivalent
    overflow-free form

        (ln A - ln B) * [n(omega, T1, mu1) - n(omega, T2, mu2)].

    Both factors share the sign of (mu1 b1 + omega b2) - (mu2 b2 + omega b1),
    so the product is >= 0 and vanishes exactly when that combination does.

    The result carries the conventional b1*b2 normalization; the numeric
    EPR of a junction with couplings gamma converges to gamma / (b1 b2)
    times it as g -> 0.
    """
    b1 = 1.0 / baths.t1
    b2 = 1.0 / baths.t2
    affinity = (baths.mu1 * b1 + omega * b2) - (baths.mu2 * b2 + omega * b1)
    occ_gap = fermi_occupation(omega, baths.t1, baths.mu1) - fermi_occupation(
        omega, baths.t2, baths.mu2
    )
    return b1 * b2 * affinity * occ_gap
