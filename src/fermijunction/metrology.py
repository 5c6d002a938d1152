"""Quantum Fisher information with respect to the tunneling amplitude.

Two independent numerical routes plus one closed form:

* ``qfi_spectral``: the SLD formula in closed form on the steady X
  state and its central difference d rho (both live in the 6-entry
  charge-neutral sector), split into the population part F^E and the
  basis-rotation part F^N of the X state's eigenbasis.
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
from .model import BathParams, SystemParams, diagonalize, fermi_occupation, take
from .observables import spectral_decompose

__all__ = [
    "FrameFlipError",
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


class FrameFlipError(RuntimeError):
    """The dressed-mode frame turns by more than a right angle across the
    stencil (omega1 == omega2 with the stencil straddling delta = 0), so
    the difference of the stencil states is the flip, not a derivative."""


class RankChangeError(RuntimeError):
    """An eigenvalue crosses zero at this point; the SLD formula does not
    apply (rank-change singularity)."""


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
    """QFI for estimating the tunneling amplitude, in closed form on the
    charge-neutral sector.

    Solves the steady state at delta - h, delta, delta + h and takes
    d rho = (rho(delta + h) - rho(delta - h)) / 2h.  The X state's
    eigenvalues are rho00, rho33 and t/2 +- R with (t, b) the trace and
    Bloch vector of the singly occupied block and R = |b|
    (``spectral_decompose``, which also maps d rho to (dt, db)); by
    Hellmann-Feynman their derivatives are d rho00, d rho33 and
    dt/2 +- b.db/R.  The SLD formula 2 sum |<i|d rho|j>|^2 / (p_i + p_j)
    then splits into

        F^E = sum_i dp_i^2 / p_i,    F^N = 4 |b x db|^2 / (R^2 t).

    Eigenvalues below 1e-12 whose derivative is also negligible are
    dropped; a sizable derivative at a vanishing eigenvalue raises
    RankChangeError, and a stencil across which the mode frame flips
    raises FrameFlipError.  ``center``, if given, must be
    ``solve_ness(params, baths)``; its state is then reused instead of
    solving at delta again.

    For stacked parameters the two outer stencil points of every point
    are one stacked solve and the centre states with d rho one
    decomposition; a point whose stencil fails gets NaN in every field,
    and evaluating it alone raises its QfiStepError, FrameFlipError,
    RankChangeError or SteadyStateError.
    """
    if center is None:
        center = solve_ness(params, baths)
    delta = np.asarray(params.delta)
    step = np.broadcast_to(default_step(delta) if h is None else h, delta.shape)
    shifts = np.array([-1.0, 1.0]).reshape((2,) + (1,) * delta.ndim)
    outer = replace(params, delta=delta + shifts * step)
    stencil = solve_ness(outer, baths)
    lo, hi = stencil.rho
    changes = np.abs(hi - lo).max(axis=(-2, -1))
    d_rho = (hi - lo) / (2.0 * step[..., None, None])

    p, (t, dt), (b, db) = spectral_decompose(np.stack([center.rho, d_rho]))
    r = np.linalg.norm(b, axis=-1)
    split = r > 0.0
    # dR = b.db/R; a degenerate block (R = 0) splits along db, by |db|
    d_r = np.where(
        split, (b * db).sum(axis=-1) / np.where(split, r, 1.0), np.linalg.norm(db, axis=-1)
    )
    p = np.moveaxis(p[0], -1, 0)
    d_diag = d_rho.diagonal(axis1=-2, axis2=-1).real
    dp = np.stack([d_diag[..., 0], 0.5 * dt + d_r, 0.5 * dt - d_r, d_diag[..., 3]])
    empty = p < _P_FLOOR
    rank_change = empty & (np.abs(dp) >= _DP_FLOOR)
    f_e = np.where(empty, 0.0, dp * dp / np.where(empty, 1.0, p)).sum(axis=0)

    coherent = split & (t > _P_FLOOR)
    turn = np.cross(b, db)
    f_n = np.where(
        coherent,
        4.0 * (turn * turn).sum(axis=-1) / np.where(coherent, r * r * t, 1.0),
        0.0,
    )

    # a flip: the mode frames of the two stencil solves more than a right angle apart
    frame = diagonalize(outer)
    cos, sin = frame.cos_theta, frame.sin_theta
    flipped = cos[0] * cos[1] + sin[0] * sin[1] < 0.0
    unsolved = np.isnan(stencil.residual).any(axis=0)
    failed = unsolved | flipped | ~(changes >= 1e-13) | rank_change.any(axis=0)
    if failed.ndim == 0 and failed:
        for k in np.flatnonzero(np.isnan(stencil.residual)):
            solve_ness(take(outer, k), baths)  # raises the typed solver error
        if flipped:
            raise FrameFlipError(
                f"the mode frame flips between delta -+ h = {delta - step:.3e}, "
                f"{delta + step:.3e}; no derivative across the degenerate point"
            )
        if not changes >= 1e-13:
            raise QfiStepError(
                f"no resolvable change across the stencil (step {step:.3e}); "
                "increase the finite-difference step"
            )
        k = np.flatnonzero(rank_change)[0]
        raise RankChangeError(
            f"eigenvalue {p[k]:.3e} with derivative {dp[k]:.3e}: "
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
