"""Single-particle model of a two-site fermionic junction.

Two tunnel-coupled fermionic sites, each attached to its own wide-band
reservoir.  The quadratic part of the Hamiltonian is diagonalized exactly
by a 2x2 rotation; everything downstream (dissipators, steady state,
transport) works in the resulting delocalized-mode basis.

Units: hbar = k_B = 1 throughout.  Energies, temperatures and chemical
potentials share the same unit; rates are energies.

Every field may also be an array: a stack of points with leading batch
axes, evaluated elementwise by the same code.  ``take`` picks points out
of any such stacked container.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

__all__ = [
    "SystemParams",
    "BathParams",
    "EigenBasis",
    "diagonalize",
    "fermi_occupation",
    "take",
]


def _require_finite(params) -> None:
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    # one check over all fields; the bad ones are named only on failure
    if not np.isfinite(np.concatenate(list(values.values()), axis=None)).all():
        bad = [name for name, x in values.items() if not np.isfinite(x).all()]
        raise ValueError(f"{', '.join(bad)} must be finite")


@dataclass(frozen=True)
class SystemParams:
    """Junction parameters, all finite.

    omega1, omega2 : bare site energies (> 0)
    delta          : tunneling amplitude between the sites (any real)
    gamma1, gamma2 : wide-band couplings to reservoir 1 and 2 (>= 0): the
                     self-energy -i gamma_l of site l, so its level width
                     is Gamma_l = 2 gamma_l
    """

    omega1: float = 1.0
    omega2: float = 1.0
    delta: float = 0.005
    gamma1: float = 0.002
    gamma2: float = 0.002

    def __post_init__(self):
        _require_finite(self)
        if not (np.greater(self.omega1, 0.0).all() and np.greater(self.omega2, 0.0).all()):
            raise ValueError("site energies omega1, omega2 must be positive")
        if np.less(self.gamma1, 0.0).any() or np.less(self.gamma2, 0.0).any():
            raise ValueError("decay rates gamma1, gamma2 must be nonnegative")


@dataclass(frozen=True)
class BathParams:
    """Reservoir parameters: temperatures and chemical potentials.

    Every field must be finite and temperatures strictly positive; the
    T -> 0 step function is not supported (occupations would lose the
    smoothness the solver and the QFI's exact delta-derivative rely on).
    """

    t1: float = 0.2
    t2: float = 0.2
    mu1: float = 0.5
    mu2: float = 0.5

    def __post_init__(self):
        _require_finite(self)
        if not (np.greater(self.t1, 0.0).all() and np.greater(self.t2, 0.0).all()):
            raise ValueError("temperatures t1, t2 must be strictly positive")


@dataclass(frozen=True)
class EigenBasis:
    """Diagonalized single-particle data.

    omega_p1 >= omega_p2 are the dressed mode energies and
    (cos_theta, sin_theta) fix the 2x2 rotation from site to mode
    operators.  At omega1 == omega2, delta == 0 the angle is a convention,
    theta = pi/2: the delta -> 0+ limit, which the QFI's derivative there
    uses.  d_theta is the rate d theta / d delta at which the mode frame
    turns against the fixed site frame (see ``diagonalize``).
    """

    omega_p1: float
    omega_p2: float
    cos_theta: float
    sin_theta: float
    d_theta: float


def take(stack, index):
    """Points ``index`` of a stacked dataclass (parameters, basis, solver
    result): every array field, nested dataclasses included, indexed along
    its leading batch axes.  An integer index gives one point, unstacked."""
    picked = {}
    for f in fields(stack):
        value = getattr(stack, f.name)
        if is_dataclass(value):
            value = take(value, index)
        elif isinstance(value, np.ndarray):
            value = value[index]
        picked[f.name] = value
    return replace(stack, **picked)


def _point_errors(failed, error):
    """The typed error of each failed point of a stack: an object array
    shaped like ``failed`` holding ``error(i)`` at each failed index i and
    None elsewhere.  An unstacked point (``failed`` 0-d) raises its error."""
    errors = np.full(failed.shape, None, dtype=object)
    if not failed.any():
        return errors
    for i in map(tuple, np.argwhere(failed)):
        errors[i] = error(i)
    if failed.ndim == 0:
        raise errors[()]
    return errors


def diagonalize(params: SystemParams) -> EigenBasis:
    """Diagonalize the single-particle Hamiltonian of the junction.

    Returns the dressed energies

        omega'_{1,2} = (omega1 + omega2)/2 +- sqrt((omega1-omega2)^2 + 4 delta^2)/2

    and the rotation angle theta = atan2(2 delta, omega2 - omega1), so
    sin(theta) >= 0 for delta >= 0.  Mode 1 always carries the larger
    energy.  For delta -> 0 with omega2 > omega1 the rotation becomes the
    swap (mode 1 is site 2); with omega1 > omega2 it is the identity.  At
    omega1 == omega2, delta == 0 every angle diagonalizes, and theta = pi/2
    is taken: the delta -> 0+ limit, so the QFI's derivative there is the
    one from delta > 0.  The frame turns at d theta = 2 (omega2 - omega1)
    / s^2 per unit delta, s = omega'_1 - omega'_2, formed from the
    parameters: 2 cos theta / s would be O(1) at tiny delta on the tuned
    line (cos(pi/2) and omega'_1 - omega'_2 are roundoff there), where it
    is exactly 0, s = 0 included.
    """
    omega1, omega2 = np.asarray(params.omega1), np.asarray(params.omega2)
    half_sum = 0.5 * (omega1 + omega2)
    detuning = omega2 - omega1
    coupling = 2.0 * np.asarray(params.delta)
    split = np.hypot(detuning, coupling)
    theta = np.arctan2(coupling, detuning)
    # omega1 == omega2 and delta == 0: any rotation; take the delta -> 0+ one
    degenerate = split == 0.0
    safe = np.where(degenerate, np.inf, split)
    return EigenBasis(
        omega_p1=(half_sum + 0.5 * split)[()],
        omega_p2=(half_sum - 0.5 * split)[()],
        cos_theta=np.where(degenerate, 0.0, np.cos(theta))[()],
        sin_theta=np.where(degenerate, 1.0, np.sin(theta))[()],
        d_theta=(2.0 * detuning / safe / safe)[()],
    )


def fermi_occupation(omega, t, mu):
    """Fermi-Dirac occupation 1/(exp((omega-mu)/t) + 1), elementwise.

    Strictly in (0, 1) for t > 0.  Large |omega - mu|/t is handled
    through the stable exp(-|x|) form, so no overflow warnings.
    """
    if np.less_equal(t, 0.0).any():
        raise ValueError("temperature must be strictly positive")
    x = np.subtract(omega, mu) / t
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))[()]
