"""Redfield-type generator for the junction and its steady state.

The two dressed fermionic modes span a 4-dimensional Fock space ordered as

    {|00>, |10>, |01>, |11>}

(occupations of mode 1, mode 2; index 0 is the empty state, index 3 the
doubly occupied one).  The generator is

    d rho / dt = i [rho, H] - (N1 + S1) - (N2 + S2)

where N_l keeps each mode in touch with reservoir l (occupation-weighted
thermalization) and S_l carries the cross-mode terms a secular
approximation would drop; S_l sources the steady-state coherence between
the singly occupied states.  The per-bath generator piece retained for
currents is D_l = -(N_l + S_l), which is the part of d rho/dt owned by
reservoir l.

Total particle number is a weak symmetry of the generator: L maps the
charge-neutral sector into itself and never couples it to the other ten
entries of rho.  The trace lives in the sector, so the unique steady
state does too, and it is an X state by construction.  With rho21 =
conj(rho12) the sector is six real numbers,

    v = (rho00, rho11, rho22, rho33, Re rho12, Im rho12),

on which the generator is a real rate equation.  A level's partner
under mode a is the level with mode a's occupation flipped; n is a
reservoir's occupation at that mode's energy, and c = 2 Re rho12.

- Thermal bracket of mode a: population leaves each level with mode a
  filled for its partner at 2(1 - n), and comes back at 2n.  Re rho12
  and Im rho12 decay at 1.
- Cross line of mode a: c moves population out of each level with the
  other mode filled into its partner, at 1 - n where mode a is empty
  and at n where it is filled.  Re rho12 gains n times the populations
  with mode a empty and loses 1 - n times those with mode a filled.
- Unitary part: rho12 rotates at -i s, s = omega'_1 - omega'_2, so
  d Re rho12 = s Im rho12 and d Im rho12 = -s Re rho12.

Bath l weights mode a's thermal bracket by gamma_a |U_la|^2, with
|U_la|^2 = (1 +- cos theta)/2, and its cross line by (+-1/2) gamma_a
sin theta.  The global-approach rate is gamma_l |U_la|^2 (Hofer et al.,
NJP 19, 123037 (2017)); the two agree at gamma_1 = gamma_2.  At
delta = 0 the populations relax at 2 gamma_1 and 2 gamma_2 and the
coherence at gamma_1 + gamma_2: each gamma is the self-energy -i gamma
of a site, whose level width is Gamma = 2 gamma.

Each bracket is affine in its occupation, so

    L = (omega'_1 - omega'_2) R + sum_{l,k} c_{lk} M_k

with R the rotation and M_k (k < 8) the brackets' values at n = 0 and
slopes in n, as decay rates (constant small-integer matrices).  A build
computes only the 2x8 coefficients c_{lk} and one matrix product.  The
same product of their closed-form delta-derivatives, plus the rotation
times d(omega'_1 - omega'_2), is d L / d delta; with the inverse the
solve keeps it gives the exact d rho / d delta of the steady state.

Parameters, bases, generators and states may carry leading batch axes
(see ``model``): a whole sweep grid is diagonalized, built and solved by
one call each.  A point that fails its solve fails alone: an unstacked
solve raises the typed error, a stacked one returns NaN in that point's
state and residual, that error in its ``errors`` cell, and solves the
other points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathParams, EigenBasis, SystemParams, diagonalize, fermi_occupation
from .observables import _EIG_FLOOR, spectral_decompose

__all__ = [
    "DIM",
    "Liouvillian",
    "NessResult",
    "SteadyStateError",
    "DegenerateNullSpaceError",
    "build_liouvillian",
    "generator_derivative",
    "sector_vector",
    "steady_state",
    "solve_ness",
    "state_derivative",
    "grand_canonical_state",
]

DIM = 4
_RESIDUAL_TOL = 1e-10  # largest ||L v|| accepted from a steady-state solve
# Largest condition number of the trace-replaced generator accepted as
# invertible.  It is ~2/gamma for the couplings a unique steady state
# has; a null space of dimension > 1 makes it singular, and in floating
# point it then measures >= 1e18 when LU finds no exact zero pivot.
_COND_LIMIT = 1e14

# The trace as a functional on the sector v.
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])

# Populations of v by mode: _LEVELS[a] = (levels with mode a empty,
# their partners with it filled), the pair with the other mode empty
# first.  The coherence is v[4:].
_LEVELS = (([0, 2], [1, 3]), ([0, 1], [2, 3]))


def _thermal_rates(a: int) -> tuple[np.ndarray, np.ndarray]:
    """(value at n = 0, slope in n) of mode a's thermal bracket."""
    empty, filled = _LEVELS[a]
    at_zero, slope = np.zeros((2, 6, 6))
    # filled -> empty at 2(1 - n)
    at_zero[filled, filled], at_zero[empty, filled] = 2.0, -2.0
    slope[filled, filled], slope[empty, filled] = -2.0, 2.0
    # empty -> filled at 2n
    slope[empty, empty], slope[filled, empty] = 2.0, -2.0
    # Re rho12 and Im rho12 decay at 1
    at_zero[[4, 5], [4, 5]] = 1.0
    return at_zero, slope


def _cross_rates(a: int) -> tuple[np.ndarray, np.ndarray]:
    """(value at n = 0, slope in n) of mode a's cross line."""
    empty, filled = _LEVELS[a]
    into, out_of = _LEVELS[1 - a]  # the other mode's empty / filled levels
    at_zero, slope = np.zeros((2, 6, 6))
    # c moves out_of[i] -> into[i] at 1 - n for i = 0 (mode a empty), n for i = 1
    at_zero[out_of[0], 4], at_zero[into[0], 4] = 2.0, -2.0
    slope[out_of, 4], slope[into, 4] = [-2.0, 2.0], [2.0, -2.0]
    # Re rho12 loses 1 - n of the filled levels and gains n of the empty
    at_zero[4, filled] = 1.0
    slope[4, :4] = -1.0
    return at_zero, slope


# Rows: thermal bracket of mode 1, of mode 2, cross line 1, cross line 2,
# each as (value at zero occupation, slope).
_BATH_STACK = np.stack(
    [m for rates in (_thermal_rates, _cross_rates) for a in (0, 1) for m in rates(a)]
).reshape(8, 36)

# The unitary part i[rho, H] per unit of omega'_1 - omega'_2.
_ROTATION = np.zeros((6, 6))
_ROTATION[4, 5], _ROTATION[5, 4] = 1.0, -1.0


# Particle number of each level.
_NUMBERS = np.array([0.0, 1.0, 1.0, 2.0])


def _level_energies(basis: EigenBasis) -> np.ndarray:
    """Energies (0, omega'_1, omega'_2, omega'_1 + omega'_2) of the four
    levels, on the last axis."""
    w1, w2 = np.asarray(basis.omega_p1), np.asarray(basis.omega_p2)
    return np.stack([np.zeros_like(w1), w1, w2, w1 + w2], axis=-1)


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; carries the achieved residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateNullSpaceError(SteadyStateError):
    """The generator has more than one stationary state."""

    def __init__(self, dimension: int):
        super().__init__(
            f"stationary state is not unique: null space dimension {dimension}"
        )
        self.dimension = dimension


_BATH_SIGN = np.array([-1.0, 1.0])  # bath 1, bath 2


def _angular_weights(unit, cos_theta, sin_theta, params: SystemParams):
    """Weights (n1, n2, s1, s2) of the thermal brackets and cross lines of
    modes 1 and 2, each (..., 2) with bath l on the last axis:
    gamma_a (unit +- cos theta)/2 and (+-1/2) gamma_a sin theta.  With
    unit = 1 these are the weights; with unit = 0 and the derivatives of
    cos theta and sin theta they are the weights' derivatives."""
    sign = _BATH_SIGN
    ct, st, g1, g2 = (
        np.asarray(x)[..., None] for x in (cos_theta, sin_theta, params.gamma1, params.gamma2)
    )
    return (
        g1 * 0.5 * (unit + sign * ct),
        g2 * 0.5 * (unit - sign * ct),
        -sign * 0.5 * st * g1,
        -sign * 0.5 * st * g2,
    )


def _occupations(basis: EigenBasis, baths: BathParams):
    """((occupations of modes 1 and 2 in each reservoir), the reservoirs'
    temperatures), each (..., 2) with bath l on the last axis."""
    t = np.stack(np.broadcast_arrays(baths.t1, baths.t2), axis=-1)
    mu = np.stack(np.broadcast_arrays(baths.mu1, baths.mu2), axis=-1)
    occ1 = fermi_occupation(np.asarray(basis.omega_p1)[..., None], t, mu)
    occ2 = fermi_occupation(np.asarray(basis.omega_p2)[..., None], t, mu)
    return (occ1, occ2), t


def _bath_coefficients(weights, occupations, unit=1.0) -> np.ndarray:
    """Weights c_{lk} of the rows of _BATH_STACK in D_l = -(N_l + S_l),
    shape (..., 2, 8) with bath l on the second-to-last axis: each of
    the angular weights (n1, n2, s1, s2) times unit and times its mode's
    occupation in (occ1, occ2).

    N_l thermalizes each dressed mode against reservoir l with the
    angular weights (1 +- cos theta)/2; S_l holds the nonsecular
    cross-mode terms, weighted by (+-1/2) gamma_a sin theta.
    """
    n1, n2, s1, s2 = weights
    occ1, occ2 = occupations
    terms = (n1 * unit, n1 * occ1, n2 * unit, n2 * occ2, s1 * unit, s1 * occ1, s2 * unit, s2 * occ2)
    return -np.stack(np.broadcast_arrays(*terms), axis=-1)


def _bath_product(coeffs: np.ndarray) -> np.ndarray:
    """The 6x6 matrices sum_k c_k M_k of coefficients (..., 8)."""
    return (coeffs.reshape(-1, _BATH_STACK.shape[0]) @ _BATH_STACK).reshape(
        coeffs.shape[:-1] + _ROTATION.shape
    )


@dataclass(frozen=True)
class Liouvillian:
    """Real generator and its per-bath pieces on the charge-neutral sector.

    matrix = i[rho, H] + D_1 + D_2; ``dissipators`` stacks the
    D_l = -(N_l + S_l), (..., 2, 6, 6) with bath l on axis -3, which the
    currents trace against observables.
    """

    matrix: np.ndarray
    dissipators: np.ndarray


def build_liouvillian(
    basis: EigenBasis, baths: BathParams, params: SystemParams
) -> Liouvillian:
    """Build the full generator d rho/dt = i[rho, H] - sum_l (N_l + S_l)."""
    split = np.asarray(basis.omega_p1) - basis.omega_p2
    weights = _angular_weights(1.0, basis.cos_theta, basis.sin_theta, params)
    dissipators = _bath_product(_bath_coefficients(weights, _occupations(basis, baths)[0]))
    return Liouvillian(
        matrix=split[..., None, None] * _ROTATION + dissipators.sum(axis=-3),
        dissipators=dissipators,
    )


def generator_derivative(
    basis: EigenBasis, baths: BathParams, params: SystemParams
) -> np.ndarray:
    """d L / d delta of the sector generator in the mode frame of
    ``basis`` (the frame ``build_liouvillian`` works in), (..., 6, 6).

    d omega'_1 = -d omega'_2 = sin theta, the frame turns at the basis's
    d theta, and each Fermi occupation moves by d n = -n (1 - n) d omega'_a
    / T.  L is linear in s = omega'_1 - omega'_2 and in the coefficients
    c_{lk} = weight x (1 or occupation), so d L is the rotation times d s
    plus the _BATH_STACK product of d c_{lk}, by the product rule: the
    weights' derivatives with the occupations, plus the weights with the
    occupations' derivatives and unit 0.  At s = 0 d theta is 0 in the
    delta -> 0+ frame, so this is the one-sided derivative from delta > 0.
    """
    ct, st, d_theta = (np.asarray(x) for x in (basis.cos_theta, basis.sin_theta, basis.d_theta))
    weights = _angular_weights(1.0, ct, st, params)
    d_weights = _angular_weights(0.0, -st * d_theta, ct * d_theta, params)
    occ, t = _occupations(basis, baths)
    # d omega'_1 = -d omega'_2 = sin theta
    d_occ = [sign * n * (1.0 - n) / t * st[..., None] for sign, n in zip((-1.0, 1.0), occ)]
    d_coeffs = _bath_coefficients(d_weights, occ) + _bath_coefficients(weights, d_occ, 0.0)
    return (2.0 * st)[..., None, None] * _ROTATION + _bath_product(d_coeffs.sum(axis=-2))


def sector_vector(rho: np.ndarray) -> np.ndarray:
    """The charge-neutral sector v of a 4x4 Hermitian density matrix."""
    entries = rho[..., (0, 1, 2, 3, 1), (0, 1, 2, 3, 2)]  # populations, rho12
    return np.concatenate([entries.real, entries[..., 4:].imag], axis=-1)


def _x_state(v: np.ndarray) -> np.ndarray:
    """The 4x4 X state whose charge-neutral sector is v."""
    rho = np.zeros(v.shape[:-1] + (DIM, DIM), dtype=complex)
    rho[..., range(DIM), range(DIM)] = v[..., :DIM]
    rho[..., 1, 2] = v[..., 4] + 1j * v[..., 5]
    rho[..., 2, 1] = rho[..., 1, 2].conj()
    return rho


def _finalize(v: np.ndarray, lv: Liouvillian):
    """Normalized states of sector vectors v with their residuals ||L v||
    and smallest eigenvalues."""
    # a sum, not v @ _TRACE_ROW, whose rounding depends on the stack size
    v = v / v[..., :DIM].sum(axis=-1, keepdims=True)
    rho = _x_state(v)
    residual = np.linalg.norm((lv.matrix @ v[..., None])[..., 0], axis=-1)
    return rho, residual, spectral_decompose(rho)[0].min(axis=-1)


def _failed(singular, residual, min_eig):
    return singular | ~(residual < _RESIDUAL_TOL) | (min_eig < _EIG_FLOOR)


def _failure(matrix: np.ndarray, singular, residual, min_eig) -> SteadyStateError:
    """The typed error of one generator matrix whose solve failed its checks."""
    dim = _null_space_dimension(np.linalg.svd(matrix, compute_uv=False))
    if dim > 1:
        return DegenerateNullSpaceError(dim)
    if singular:
        return SteadyStateError("steady-state linear solve is singular")
    if not residual < _RESIDUAL_TOL:
        return SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}",
            residual=float(residual),
        )
    return SteadyStateError(
        f"steady state not positive semidefinite: min eigenvalue {min_eig:.3e}"
    )


def _null_space_dimension(svals: np.ndarray) -> int:
    # <=, so that an all-zero generator has every dimension null
    return int(np.sum(svals <= 1e-10 * svals[0]))


def _invert_each(a: np.ndarray) -> np.ndarray:
    """Invert the stacked matrices one by one: NaN where LU fails."""
    inverse = np.full(a.shape, np.nan)
    for i in np.ndindex(a.shape[:-2]):
        try:
            inverse[i] = np.linalg.inv(a[i])
        except np.linalg.LinAlgError:
            pass
    return inverse


def steady_state(lv: Liouvillian) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Unique stationary density matrix of the generator, its residual,
    the inverse it was solved with and the typed error of each failed solve.

    Replaces the first row of the sector generator with the trace
    constraint and inverts that 6x6 matrix A, for every generator of a
    stack in one call.  Returns (rho, ||L v||, A^-1, errors) with rho the
    4x4 X state, whose sector is the first column of A^-1.  A solve fails
    with DegenerateNullSpaceError when the stationary state is not
    unique (e.g. both couplings zero) and with SteadyStateError when the
    system is singular or its state misses the residual tolerance or
    positivity.  An unstacked generator raises that error; in a stack
    such a point gets NaN state and residual and its error in
    ``errors``, an object array shaped like the stack that holds None
    where the solve passed.
    """
    a = lv.matrix.copy()
    a[..., 0, :] = _TRACE_ROW
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inverse = _invert_each(a)
    v = inverse[..., :, 0]  # A^-1 (1, 0, ..., 0): trace 1, L v = 0
    cond = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))
    singular = ~(cond < _COND_LIMIT)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, residual, min_eig = _finalize(v, lv)
    failed = _failed(singular, residual, min_eig)
    errors = np.full(failed.shape, None, dtype=object)
    for i in map(tuple, np.argwhere(failed)):
        errors[i] = _failure(lv.matrix[i], singular[i], residual[i], min_eig[i])
    if failed.ndim == 0:
        if failed:
            raise errors[()]
        return rho, float(residual), inverse, errors
    rho[failed] = np.nan
    residual[failed] = np.nan
    return rho, residual, inverse, errors


@dataclass(frozen=True)
class NessResult:
    """Steady state plus the parameters it was solved for and the objects
    that produced it, all stacked alike: ``dissipators`` are the real
    per-bath pieces of ``Liouvillian`` (the generator is not kept),
    ``residual`` is ||L v|| (an array for a stack), ``inverse`` is the
    inverse of the trace-replaced generator that ``steady_state`` solved
    with, and ``errors`` holds each failed point's typed error (None where
    the solve passed)."""

    rho: np.ndarray
    dissipators: np.ndarray
    basis: EigenBasis
    residual: float | np.ndarray
    params: SystemParams
    baths: BathParams
    inverse: np.ndarray
    errors: np.ndarray


def solve_ness(params: SystemParams, baths: BathParams) -> NessResult:
    """Diagonalize, build the generator and solve, in one call."""
    basis = diagonalize(params)
    lv = build_liouvillian(basis, baths, params)
    rho, residual, inverse, errors = steady_state(lv)
    return NessResult(rho=rho, dissipators=lv.dissipators, basis=basis, residual=residual,
                      params=params, baths=baths, inverse=inverse, errors=errors)


def state_derivative(ness: NessResult) -> np.ndarray:
    """d rho / d delta of solved steady states in their mode frame, as
    4x4 X states, for each point of a stack.

    The solve makes A v = (1, 0, ..., 0) hold at every delta, with A the
    generator whose first row is the trace, so dv = -A^-1 (dA) v, where
    dA is ``generator_derivative`` with that row zeroed (the trace row
    does not depend on delta): two stacked matrix-vector products with
    the inverse the solve kept.  At omega1 == omega2, delta == 0 it is
    the derivative from delta > 0.
    """
    v = sector_vector(ness.rho)[..., None]
    d_lv = generator_derivative(ness.basis, ness.baths, ness.params) @ v
    d_lv[..., 0, :] = 0.0
    return _x_state(-(ness.inverse @ d_lv)[..., 0])


def grand_canonical_state(basis: EigenBasis, t: float, mu: float) -> np.ndarray:
    """Grand-canonical Gibbs state exp(-(H - mu N)/t)/Z of the two modes,
    for each point of a stacked basis (t and mu broadcast against it).

    This is the exact stationary state whenever both reservoirs share
    (t, mu), for any coupling strength.
    """
    t, mu = np.asarray(t)[..., None], np.asarray(mu)[..., None]
    log_w = -(_level_energies(basis) - mu * _NUMBERS) / t
    w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    return (w / w.sum(axis=-1, keepdims=True))[..., None] * np.eye(DIM, dtype=complex)
