"""Quantum Fisher information with respect to the tunneling amplitude.

The QFI is that of the state in the fixed site frame.  The solver works
in the dressed-mode frame, which turns with delta whenever omega1 !=
omega2; a state's QFI in a frame that moves with the parameter misses
that turn.  Two independent numerical routes plus one closed form:

* ``qfi_spectral``: the SLD formula in closed form on a solved steady
  X state's charge-neutral sector v and its exact derivative dv / d
  delta (``liouvillian.state_derivative`` differentiates the solve in
  the mode frame, and the frame's turn ``EigenBasis.d_theta`` is
  added), split into the population part F^E and the basis-rotation
  part F^N of its eigenbasis.
* ``qfi_fidelity_oracle``: Bures-distance estimate 8 (1 - A)/h^2 from
  the Uhlmann fidelity A of two nearby steady states taken to the site
  frame (``site_basis_state``), Richardson extrapolated.  Used as the
  cross-check of the spectral route; it shares no frame term with it.
* ``qfi_equilibrium_approx``: weak-tunneling closed form valid for a
  symmetric junction with equal reservoirs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .liouvillian import NessResult, solve_ness, state_derivative
from .model import BathParams, SystemParams, _point_errors, fermi_occupation
from .observables import site_basis_state, spectral_decompose, x_state

__all__ = [
    "QfiReport",
    "RankChangeError",
    "qfi_spectral",
    "qfi_fidelity_oracle",
    "qfi_equilibrium_approx",
    "fidelity",
]

_P_FLOOR = 1e-12  # eigenvalues below this count as zero rank
_DP_FLOOR = 1e-8  # derivative magnitude separating "stays zero" from rank change
_AXIS = np.array([0.0, 0.0, 1.0])  # Bloch axis the mode frame turns about


class RankChangeError(RuntimeError):
    """An eigenvalue of the state is zero or negative here with a sizable
    derivative, so the SLD formula does not apply: the rank of the state
    changes at this point, or the Redfield state lost positivity."""


@dataclass(frozen=True)
class QfiReport:
    """QFI and its two contributions; ``errors`` holds each failed point's
    RankChangeError (None where the QFI is defined)."""

    f_total: float
    f_e: float
    f_n: float
    errors: np.ndarray


def qfi_spectral(ness: NessResult) -> QfiReport:
    """QFI for estimating the tunneling amplitude, in closed form on the
    charge-neutral sector, for a solved steady state (or a stack of them).

    dv is the exact derivative in delta of the solved state's sector v
    (``state_derivative``: dx = -M^-1 (dM x + db) with the inverse the
    solve kept, no second solve, then Wick's chain rule).  The X state's
    eigenvalues are rho00, rho33 and t/2 +- R with (t, b) the trace and
    Bloch vector of the singly occupied block and R = |b|
    (``spectral_decompose``, which also maps dv to (dt, db)); by
    Hellmann-Feynman their derivatives are
    d rho00, d rho33 and dt/2 +- b.db/R.  That dv is in the mode frame;
    in the fixed site frame b also turns with the frame, at d theta
    (``EigenBasis.d_theta``) about its third axis e_3, which moves no
    eigenvalue.  The SLD formula 2 sum |<i|d rho|j>|^2 / (p_i + p_j) of
    the site-frame state then splits into

        F^E = sum_i dp_i^2 / p_i,
        F^N = 4 |b x (db + d theta e_3 x b)|^2 / (R^2 t).

    Eigenvalues below 1e-12 whose derivative is also negligible are
    dropped, so a cold, nearly frozen state gets its small true value; a
    sizable derivative at a vanishing or negative eigenvalue is a
    RankChangeError.  Where the singly occupied block's trace t is below
    1e-12, F^N is left out whole, its site-frame term too: that term is
    about t d theta^2, so at most 1e-12 d theta^2.  At omega1 == omega2,
    delta == 0 the derivative is the one from delta > 0 (see
    ``generator_derivative``), so the value there is the delta -> 0 limit.

    For a stack every point is one stacked derivative and decomposition;
    a point that fails gets NaN in ``f_total``, ``f_e`` and ``f_n`` and
    its RankChangeError in ``errors``, an object array shaped like the
    stack.  An unstacked state raises that error.
    """
    dv = state_derivative(ness)
    p, (t, dt), (b, db) = spectral_decompose(np.stack([ness.v, dv]))
    r = np.linalg.norm(b, axis=-1)
    split = r > 0.0
    # dR = b.db/R; a degenerate block (R = 0) splits along db, by |db|
    d_r = np.where(
        split, (b * db).sum(axis=-1) / np.where(split, r, 1.0), np.linalg.norm(db, axis=-1)
    )
    p = np.moveaxis(p[0], -1, 0)
    dp = np.stack([dv[..., 0], 0.5 * dt + d_r, 0.5 * dt - d_r, dv[..., 3]])
    empty = p < _P_FLOOR
    rank_change = empty & (np.abs(dp) >= _DP_FLOOR)
    f_e = np.where(empty, 0.0, dp * dp / np.where(empty, 1.0, p)).sum(axis=0)

    coherent = split & (t > _P_FLOOR)
    # in the site frame b also turns with the mode frame, about its third axis
    turn = np.cross(b, db + np.asarray(ness.basis.d_theta)[..., None] * np.cross(_AXIS, b))
    f_n = np.where(
        coherent,
        4.0 * (turn * turn).sum(axis=-1) / np.where(coherent, r * r * t, 1.0),
        0.0,
    )

    def rank_change_error(i):
        k = (rank_change[(slice(None), *i)].argmax(), *i)  # the point's first such level
        cause = (
            "the Redfield state lost positivity"
            if p[k] < 0.0
            else "the rank of the state changes at this point"
        )
        return RankChangeError(f"eigenvalue {p[k]:.3e} with derivative {dp[k]:.3e}: {cause}")

    failed = rank_change.any(axis=0)
    errors = _point_errors(failed, rank_change_error)
    f_e, f_n = np.where(failed, np.nan, f_e), np.where(failed, np.nan, f_n)
    return QfiReport(f_total=(f_e + f_n)[()], f_e=f_e[()], f_n=f_n[()], errors=errors)


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))."""
    w, v = np.linalg.eigh(rho1)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    inner = np.linalg.eigvalsh(root @ rho2 @ root)
    inner = np.clip(inner, 0.0, None)
    return float(np.sqrt(inner).sum())


def _rho_at(params: SystemParams, baths: BathParams, delta: float) -> np.ndarray:
    ness = solve_ness(replace(params, delta=delta), baths)
    return x_state(site_basis_state(ness.v, ness.basis))


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


def qfi_fidelity_oracle(params: SystemParams, baths: BathParams) -> float:
    """Fidelity-based QFI estimate, Richardson extrapolated over (h, h/2),
    from the site-frame states at delta -+ h/2.

    The routine starts from 5% of |delta| and doubles the step until the
    fidelity loss rises clearly above roundoff (1e-9), so the quadratic
    loss is resolvable in double precision; the extrapolation then removes
    the leading truncation error.
    """
    h = max(0.05 * abs(params.delta), 2e-5)
    h_cap = max(abs(params.delta), 0.05)
    f_h, loss = _fidelity_estimate(params, baths, h)
    while loss < 1e-9 and h < h_cap:
        h = 2.0 * h
        f_h, loss = _fidelity_estimate(params, baths, h)
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
    occ = fermi_occupation(params.omega1, t, mu)
    beta = 1.0 / t
    return 2.0 * beta * beta * math.cosh(beta * params.delta) * occ * (1.0 - occ)
