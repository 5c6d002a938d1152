"""Quantum Fisher information with respect to the tunneling amplitude.

The QFI is that of the state in the fixed site frame.  The solver works
in the dressed-mode frame, which turns with delta whenever omega1 !=
omega2; a state's QFI in a frame that moves with the parameter misses
that turn.  Two independent numerical routes plus one closed form:

* ``qfi_spectral``: the Gaussian-state QFI in closed form on the 2x2
  correlation matrix C of a solved steady state, from its correlations
  x and their exact derivative dx / d delta
  (``liouvillian.state_derivative`` differentiates the solve in the
  mode frame, and the frame's turn ``EigenBasis.d_theta`` is added),
  split into the part F^E from C's eigenvalues and the part F^N from
  the turn of its eigenbasis.
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
# spectral_decompose is not called here: sweepbench's layer table times it at this module
from .observables import site_basis_state, spectral_decompose, x_state  # noqa: F401

__all__ = [
    "QfiReport",
    "RankChangeError",
    "qfi_spectral",
    "qfi_fidelity_oracle",
    "qfi_equilibrium_approx",
    "fidelity",
]

_P_FLOOR = 1e-12  # lambda or 1 - lambda below this: an empty or full level
_DP_FLOOR = 1e-8  # derivative magnitude separating "stays zero" from rank change
_PM = np.array([1.0, -1.0])  # lambda+- = (n1 + n2)/2 +- R, on a leading axis


class RankChangeError(RuntimeError):
    """An eigenvalue lambda of the correlation matrix, or 1 - lambda, is
    zero or negative here with a sizable derivative, so the QFI formula
    does not apply: the rank of the state changes at this point, or the
    Redfield state lost positivity."""


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
    correlation matrix C of a solved steady state (or a stack of them).

    The state is Gaussian, fixed by x = (n1, n2, X, Y); dx is its exact
    delta-derivative (``state_derivative``, no second solve).  C has the
    eigenvalues lambda+- = (n1 + n2)/2 +- R, b = ((n1 - n2)/2, X, Y),
    R = |b|, so d lambda+- = (dn1 + dn2)/2 +- b.db/R.  dx is in the mode
    frame; in the site frame b also turns, at d theta
    (``EigenBasis.d_theta``) about its third axis e_3.  The Gaussian-state
    QFI (Banchi, Giorda & Zanardi, PRE 89, 022102 (2014)) splits into the
    Fisher information of C's eigenvalues and the turn of its eigenbasis,

        F^E = sum_+- d lambda+-^2 / (lambda+- (1 - lambda+-)),
        F^N = 4 |b x (db + d theta e_3 x b)|^2 / (R^2 t),

    t = lambda+ + lambda- - 2 lambda+ lambda- the singly occupied block's
    trace: the SLD sums over the X state's four eigenvalues.

    A level with lambda or 1 - lambda below 1e-12 is empty or full: with
    a negligible derivative it is dropped, leaving out lambda (d ln
    lambda)^2 < 1e-12 / T^2, so a cold, nearly frozen state is no
    failure; with a sizable one it is a RankChangeError.  Where t <
    1e-12, F^N is left out whole, its site-frame term (about t d theta^2
    <= 1e-12 d theta^2) too.  At omega1 == omega2, delta == 0 the
    derivative is the one from delta > 0 (``generator_derivative``): the
    value is the delta -> 0 limit.  In a stack a failed point gets NaN
    values and its error in ``errors``, an object array shaped like the
    stack; an unstacked state raises it.
    """
    x, dx, d_theta = ness.x, state_derivative(ness), ness.basis.d_theta
    n1, n2, re, im = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    dn1, dn2, d_re, d_im = dx[..., 0], dx[..., 1], dx[..., 2], dx[..., 3]
    z, dz = 0.5 * (n1 - n2), 0.5 * (dn1 - dn2)
    mean, d_mean = 0.5 * (n1 + n2), 0.5 * (dn1 + dn2)
    r = np.hypot(z, np.hypot(re, im))
    split = r > 0.0
    # dR = b.db/R; a degenerate C (R = 0) splits along db, by |db|
    d_r = z * dz + re * d_re + im * d_im
    d_r = (d_r / r if split.all() else np.where(
        split, d_r / np.where(split, r, 1.0), np.sqrt(dz * dz + d_re * d_re + d_im * d_im)))
    lam, d_lam = mean + np.multiply.outer(_PM, r), d_mean + np.multiply.outer(_PM, d_r)
    hole = 1.0 - lam
    edge = np.minimum(lam, hole)  # each level's distance from empty or full
    frozen = edge < _P_FLOOR
    rank_change = frozen & (np.abs(d_lam) >= _DP_FLOOR)
    fisher = (np.where(frozen, 0.0, d_lam * d_lam / np.where(frozen, 1.0, lam * hole))
              if frozen.any() else d_lam * d_lam / (lam * hole))
    f_e = fisher[0] + fisher[1]

    t = lam[0] + lam[1] - 2.0 * lam[0] * lam[1]
    coherent = split & (t > _P_FLOOR)
    # in the site frame b also turns with the mode frame, about its third axis
    u_z, u_x = dz - d_theta * re, d_re + d_theta * z
    turn = (re * d_im - im * u_x) ** 2 + (im * u_z - z * d_im) ** 2 + (z * u_x - re * u_z) ** 2
    f_n = (4.0 * turn / (r * r * t) if coherent.all() else np.where(
        coherent, 4.0 * turn / np.where(coherent, r * r * t, 1.0), 0.0))

    def rank_change_error(i):
        k = (rank_change[(slice(None), *i)].argmax(), *i)  # the point's first such level
        cause = ("the Redfield state lost positivity" if edge[k] < 0.0
                 else "the rank of the state changes at this point")
        rate = d_lam[k] if lam[k] == edge[k] else -d_lam[k]  # of lambda, or of 1 - lambda
        return RankChangeError(f"eigenvalue {edge[k]:.3e} with derivative {rate:.3e}: {cause}")

    errors = _point_errors(rank_change[0] | rank_change[1], rank_change_error, f_e, f_n)
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
