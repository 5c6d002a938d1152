"""Particle/energy currents and entropy production for the junction.

Currents are bath l's shares of the rates of change of the particle
number N = n1 + n2 and the energy H = omega'_1 n1 + omega'_2 n2.  Both
are quadratic, so each is linear in the correlations x: with dn_a,l/dt
the n-rows of bath l's share of M x + b, 2 w_al (o_al - n_a) - 2 s_a'l X
from the solve's weights and occupations,

    I_l = dn1,l/dt + dn2,l/dt,    J_l = omega'_1 dn1,l/dt + omega'_2 dn2,l/dt.

Positive values mean flow from the reservoir into the system.  The
unitary part moves no charge: its rotation acts only on the coherence
rows, because [N, H] = 0 (a unit test guards this basis/sign
convention).

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

from .liouvillian import NessResult, _n_rates, _occupations, _sources
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
    w, e1, e2 = ness.weights, ness.basis.omega_p1, ness.basis.omega_p2
    b = _sources(w, ness.occupations)
    # each bath's dn1/dt and dn2/dt: the n-rows of its share of M x + b
    (i1, j1), (i2, j2) = (
        ((dn1 + dn2)[()], (e1 * dn1 + e2 * dn2)[()])
        for dn1, dn2 in (_n_rates(w[..., l, :], b[..., l, :], ness.x) for l in (0, 1))
    )
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
    as its charge-neutral sector v, for each point of a stack.

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
    occ = np.moveaxis(_occupations(basis, baths), -1, 0)  # (mode, ..., bath)
    n1p, n2p = 0.5 * (occ[..., 0] + occ[..., 1])
    n1m, n2m = 0.5 * (occ[..., 0] - occ[..., 1])
    return np.stack(np.broadcast_arrays(
        (1.0 - n1p) * (1.0 - n2p), n1p * (1.0 - n2p), n2p * (1.0 - n1p), n1p * n2p,
        0.0, -0.5 * (n1m + n2m) * g,
    ), axis=-1)


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
