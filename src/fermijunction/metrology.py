"""Quantum Fisher information with respect to the tunneling amplitude.

Two independent numerical routes plus one closed form:

* ``qfi_spectral``: finite differences of the steady state's spectral
  data (eigenvalues and mixing angles), split into the population part
  F^E and the basis-rotation part F^N.
* ``qfi_fidelity_oracle``: Bures-distance estimate 8 (1 - A)/h^2 from
  the Uhlmann fidelity A of two nearby steady states, Richardson
  extrapolated.  Used as the cross-check of the spectral route.
* ``qfi_equilibrium_approx``: weak-tunneling closed form valid for a
  symmetric junction with equal reservoirs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .liouvillian import NessResult, solve_ness
from .model import BathParams, SystemParams, fermi_occupation
from .observables import SpectralDecomp, spectral_decompose

__all__ = [
    "QfiReport",
    "QfiStepError",
    "RankChangeError",
    "qfi_spectral",
    "qfi_fidelity_oracle",
    "qfi_equilibrium_approx",
    "fidelity",
]

_P_FLOOR = 1e-12  # eigenvalues below this count as zero rank
_DP_FLOOR = 1e-8  # derivative magnitude separating "stays zero" from rank change


class QfiStepError(RuntimeError):
    """Finite-difference step produced no resolvable change; enlarge h."""


class RankChangeError(RuntimeError):
    """An eigenvalue crosses zero at this point; the spectral QFI formula
    does not apply (rank-change singularity)."""


@dataclass(frozen=True)
class QfiReport:
    """QFI and its two contributions; step is the stencil spacing used."""

    f_total: float
    f_e: float
    f_n: float
    step: float


def default_step(delta: float) -> float:
    """Default central-difference step for d/d(delta)."""
    return max(1e-6, 1e-4 * abs(delta))


def _decompose_at(params: SystemParams, baths: BathParams, delta: float) -> SpectralDecomp:
    result = solve_ness(replace(params, delta=delta), baths)
    return spectral_decompose(result.rho)


def qfi_spectral(
    params: SystemParams,
    baths: BathParams,
    h: float | None = None,
    *,
    center: NessResult | None = None,
) -> QfiReport:
    """QFI for estimating the tunneling amplitude, from spectral data.

    Solves the steady state at delta - h, delta, delta + h, and applies

        F = sum_i (dp_i)^2 / p_i
            + ((p2 - p3)^2 / (p2 + p3)) [(d alpha)^2 + (d phi)^2 sin^2 alpha]

    with central differences.  Eigenvalues below 1e-12 whose derivative
    is also negligible are dropped; a sizable derivative at a vanishing
    eigenvalue raises RankChangeError.  The phase track is unwrapped
    across the stencil before differencing.  ``center``, if given, must be
    ``solve_ness(params, baths)``; its state is then reused instead of
    solving at delta again.
    """
    if h is None:
        h = default_step(params.delta)
    lo = _decompose_at(params, baths, params.delta - h)
    if center is None:
        mid = _decompose_at(params, baths, params.delta)
    else:
        mid = spectral_decompose(center.rho)
    hi = _decompose_at(params, baths, params.delta + h)

    p_lo = np.array([lo.p1, lo.p2, lo.p3, lo.p4])
    p_mid = np.array([mid.p1, mid.p2, mid.p3, mid.p4])
    p_hi = np.array([hi.p1, hi.p2, hi.p3, hi.p4])
    phis = np.unwrap([lo.phi, mid.phi, hi.phi])
    changes = np.abs(p_hi - p_lo).max()
    changes = max(changes, abs(hi.alpha - lo.alpha), abs(phis[2] - phis[0]))
    if changes < 1e-13:
        raise QfiStepError(
            f"no resolvable change across the stencil (step {h:.3e}); "
            "increase the finite-difference step"
        )

    f_e = 0.0
    for p0, dp in zip(p_mid, (p_hi - p_lo) / (2.0 * h)):
        if p0 < _P_FLOOR:
            if abs(dp) < _DP_FLOOR:
                continue
            raise RankChangeError(
                f"eigenvalue {p0:.3e} with derivative {dp:.3e}: "
                "rank changes across the stencil"
            )
        f_e += dp * dp / p0

    p_sum = mid.p2 + mid.p3
    f_n = 0.0
    if p_sum > _P_FLOOR:
        d_alpha = (hi.alpha - lo.alpha) / (2.0 * h)
        d_phi = (phis[2] - phis[0]) / (2.0 * h)
        sin_a = math.sin(mid.alpha)
        weight = (mid.p2 - mid.p3) ** 2 / p_sum
        f_n = weight * (d_alpha * d_alpha + d_phi * d_phi * sin_a * sin_a)

    return QfiReport(f_total=f_e + f_n, f_e=f_e, f_n=f_n, step=h)


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))."""
    w, v = np.linalg.eigh(rho1)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    inner = np.linalg.eigvalsh(root @ rho2 @ root)
    inner = np.clip(inner, 0.0, None)
    return float(np.sqrt(inner).sum())


def _rho_at(params: SystemParams, baths: BathParams, delta: float) -> np.ndarray:
    return solve_ness(replace(params, delta=delta), baths).rho


def _fidelity_estimate(
    params: SystemParams, baths: BathParams, h: float
) -> tuple[float, float]:
    """(estimate, fidelity loss) from states at delta -+ h/2."""
    a = fidelity(
        _rho_at(params, baths, params.delta - 0.5 * h),
        _rho_at(params, baths, params.delta + 0.5 * h),
    )
    loss = 1.0 - a
    return 8.0 * loss / (h * h), loss


def qfi_fidelity_oracle(
    params: SystemParams, baths: BathParams, h: float | None = None
) -> float:
    """Fidelity-based QFI estimate, Richardson extrapolated over (h, h/2).

    With no explicit step the routine starts from 5% of |delta| and
    doubles the step until the fidelity loss rises clearly above
    roundoff (1e-9), so the quadratic loss is resolvable in double
    precision; the extrapolation then removes the leading truncation
    error.  Pass ``h`` to pin the step instead.
    """
    if h is None:
        h = max(0.05 * abs(params.delta), 2e-5)
        h_cap = max(abs(params.delta), 0.05)
        f_h, loss = _fidelity_estimate(params, baths, h)
        while loss < 1e-9 and h < h_cap:
            h = 2.0 * h
            f_h, loss = _fidelity_estimate(params, baths, h)
    else:
        f_h, _ = _fidelity_estimate(params, baths, h)
    f_half, _ = _fidelity_estimate(params, baths, 0.5 * h)
    return (4.0 * f_half - f_h) / 3.0


def qfi_equilibrium_approx(params: SystemParams, t: float, mu: float) -> float:
    """Weak-tunneling closed form of the equilibrium QFI.

    For a symmetric junction (omega1 == omega2 == omega) with both
    reservoirs at (t, mu):

        F = beta^2 (e^{beta(omega + delta - mu)} + e^{beta(omega - delta - mu)}) / Z,
        Z = (1 + e^{beta(omega - mu)})^2,

    evaluated here in the overflow-free form
    2 beta^2 cosh(beta delta) n (1 - n) with n the occupation at omega.
    Validity: relative error below 1% against the numeric QFI for
    delta <= 0.01 omega and couplings well below delta.
    """
    if abs(params.omega1 - params.omega2) > 1e-12 * max(params.omega1, params.omega2):
        raise ValueError("closed form requires a symmetric junction (omega1 == omega2)")
    if t <= 0.0:
        raise ValueError("temperature must be strictly positive")
    beta = 1.0 / t
    occ = fermi_occupation(params.omega1, t, mu)
    return 2.0 * beta * beta * math.cosh(beta * params.delta) * occ * (1.0 - occ)
