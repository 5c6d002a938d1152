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
from .model import BathParams, SystemParams, fermi_occupation, take
from .observables import spectral_decompose

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


def default_step(delta):
    """Default central-difference step for d/d(delta)."""
    return np.maximum(1e-6, 1e-4 * np.abs(delta))[()]


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

    For stacked parameters the two outer stencil points of every point
    are one stacked solve and all three states one decomposition; a
    point whose stencil fails gets NaN in every field, and evaluating it
    alone raises its QfiStepError, RankChangeError or SteadyStateError.
    """
    if center is None:
        center = solve_ness(params, baths)
    delta = np.asarray(params.delta)
    step = np.broadcast_to(default_step(delta) if h is None else h, delta.shape)
    shifts = np.array([-1.0, 1.0]).reshape((2,) + (1,) * delta.ndim)
    outer = replace(params, delta=delta + shifts * step)
    stencil = solve_ness(outer, baths)
    lo, hi = stencil.rho
    dec = spectral_decompose(np.stack([lo, center.rho, hi]))

    p = np.stack([dec.p1, dec.p2, dec.p3, dec.p4])  # (eigenvalue, stencil point, ...)
    p_lo, p_mid, p_hi = p[:, 0], p[:, 1], p[:, 2]
    alpha = dec.alpha
    phis = np.unwrap(dec.phi, axis=0)
    changes = np.maximum(
        np.abs(p_hi - p_lo).max(axis=0),
        np.maximum(np.abs(alpha[2] - alpha[0]), np.abs(phis[2] - phis[0])),
    )
    dp = (p_hi - p_lo) / (2.0 * step)
    empty = p_mid < _P_FLOOR
    rank_change = empty & (np.abs(dp) >= _DP_FLOOR)
    f_e = np.where(empty, 0.0, dp * dp / np.where(empty, 1.0, p_mid)).sum(axis=0)

    p_sum = p_mid[1] + p_mid[2]
    coherent = p_sum > _P_FLOOR
    d_alpha = (alpha[2] - alpha[0]) / (2.0 * step)
    d_phi = (phis[2] - phis[0]) / (2.0 * step)
    sin_a = np.sin(alpha[1])
    weight = (p_mid[1] - p_mid[2]) ** 2 / np.where(coherent, p_sum, 1.0)
    f_n = np.where(
        coherent, weight * (d_alpha * d_alpha + d_phi * d_phi * sin_a * sin_a), 0.0
    )

    unsolved = np.isnan(stencil.residual).any(axis=0)
    failed = unsolved | ~(changes >= 1e-13) | rank_change.any(axis=0)
    if failed.ndim == 0 and failed:
        for k in np.flatnonzero(np.isnan(stencil.residual)):
            solve_ness(take(outer, k), baths)  # raises the typed solver error
        if not changes >= 1e-13:
            raise QfiStepError(
                f"no resolvable change across the stencil (step {step:.3e}); "
                "increase the finite-difference step"
            )
        k = np.flatnonzero(rank_change)[0]
        raise RankChangeError(
            f"eigenvalue {p_mid[k]:.3e} with derivative {dp[k]:.3e}: "
            "rank changes across the stencil"
        )
    f_e, f_n = np.where(failed, np.nan, f_e), np.where(failed, np.nan, f_n)
    return QfiReport(f_total=(f_e + f_n)[()], f_e=f_e[()], f_n=f_n[()], step=step[()])


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
