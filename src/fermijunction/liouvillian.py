"""Redfield-type generator for the junction and its steady state.

The two dressed fermionic modes span a 4-dimensional Fock space ordered as

    {|00>, |10>, |01>, |11>}

(occupations of mode 1, mode 2; index 0 is the empty state, index 3 the
doubly occupied one).  Mode operators follow the Jordan-Wigner
construction

    zeta1 = lower (x) I,     zeta2 = Z (x) lower,

with ``lower`` the 2x2 lowering matrix and ``Z`` the parity matrix, so
zeta2_dag |10> = -|11> (the sign every anticommutation check below relies
on).

Superoperators act on column-stacked density matrices:

    vec(A rho B) = kron(B.T, A) vec(rho),

so entry (i, j) of rho sits at vec index 4*j + i.  The full generator is

    d rho / dt = i [rho, H] - (N1 + S1) - (N2 + S2)

where N_l keeps each mode in touch with reservoir l (occupation-weighted
thermalization) and S_l carries the cross-mode terms a secular
approximation would drop; S_l sources the steady-state coherence between
the singly occupied states.  The per-bath generator piece retained for
currents is D_l = -(N_l + S_l), which is the part of d rho/dt owned by
reservoir l.

Total particle number is a weak symmetry of the generator: L maps the
charge-neutral sector

    v = (rho00, rho11, rho22, rho33, rho12, rho21)  (vec indices 0, 5, 10, 15, 9, 6)

into itself and never couples it to the other ten entries.  The trace
lives in the sector, so the unique steady state does too, and it is an
X state by construction.  Everything below is therefore the 6x6 block
of the 16x16 superoperators.

Every bracket is affine in the one occupation it carries, so the
generator is a fixed linear combination of constant 6x6 matrices,

    L = omega'_1 U_1 + omega'_2 U_2 + sum_{l,k} c_{lk} M_k,

with U_a the commutator with mode a's number operator and M_k (k < 8)
the value at zero occupation and the occupation slope of the two
thermal brackets and the two cross-bracket lines.  Both sets are built
once at import, as sector slices of the full brackets; a generator
build only computes the 2x8 coefficients c_{lk} (rates x angular
weights x occupations) and one matrix product.

Parameters, bases, generators and states may carry leading batch axes
(see ``model``): a whole sweep grid is diagonalized, built and solved by
one call each.  A point that fails its solve fails alone: an unstacked
solve raises the typed error, a stacked one returns NaN in that point's
state and residual and solves the other points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathParams, EigenBasis, SystemParams, diagonalize, fermi_occupation
from .observables import _EIG_FLOOR, spectral_decompose

__all__ = [
    "DIM",
    "SECTOR",
    "Liouvillian",
    "NessResult",
    "SteadyStateError",
    "DegenerateNullSpaceError",
    "mode_operators",
    "hamiltonian",
    "number_operator",
    "build_liouvillian",
    "sector_vector",
    "steady_state",
    "steady_state_svd",
    "solve_ness",
    "grand_canonical_state",
]

DIM = 4
_RESIDUAL_TOL = 1e-10  # largest ||L v|| accepted from a steady-state solve
# Largest condition number of the trace-replaced generator accepted as
# invertible.  It is ~2/gamma for the couplings a unique steady state
# has; a null space of dimension > 1 makes it singular, and in floating
# point it then measures >= 1e18 when LU finds no exact zero pivot.
_COND_LIMIT = 1e14

# vec indices of the charge-neutral sector v = (rho00, rho11, rho22,
# rho33, rho12, rho21), and the trace as a functional on v.
SECTOR = np.array([0, 5, 10, 15, 9, 6])
_SECTOR_ROWS, _SECTOR_COLS = SECTOR % DIM, SECTOR // DIM
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])
_PARITY = np.diag([1.0, -1.0])
_I2 = np.eye(2)

# Spec'd basis order {|00>,|10>,|01>,|11>} vs the kron order
# {|00>,|01>,|10>,|11>}: swap the middle two indices.
_PERM = np.array([0, 2, 1, 3])


def mode_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation/creation matrices (zeta1, zeta2, zeta1_dag, zeta2_dag)."""
    z1 = np.kron(_LOWER, _I2)[np.ix_(_PERM, _PERM)]
    z2 = np.kron(_PARITY, _LOWER)[np.ix_(_PERM, _PERM)]
    return z1, z2, z1.conj().T, z2.conj().T


_Z1, _Z2, _Z1D, _Z2D = mode_operators()


def hamiltonian(basis: EigenBasis) -> np.ndarray:
    """System Hamiltonian, diagonal in the mode occupation basis."""
    w1, w2 = np.asarray(basis.omega_p1), np.asarray(basis.omega_p2)
    h = np.zeros(w1.shape + (DIM, DIM))
    h[..., 1, 1], h[..., 2, 2], h[..., 3, 3] = w1, w2, w1 + w2
    return h


def number_operator() -> np.ndarray:
    """Total particle number zeta1_dag zeta1 + zeta2_dag zeta2."""
    return np.diag([0.0, 1.0, 1.0, 2.0])


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


def _sup(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> a @ rho @ b under column stacking."""
    return np.kron(b.T, a)


def _bracket_plus_hc(terms) -> np.ndarray:
    """Sum coef * A rho B over terms, plus the Hermitian conjugate images."""
    out = np.zeros((DIM * DIM, DIM * DIM))
    for coef, a, b in terms:
        out += coef * _sup(a, b)
        out += coef * _sup(b.conj().T, a.conj().T)
    return out


def _thermal_bracket(z: np.ndarray, occ: float) -> np.ndarray:
    """Single-mode thermalization bracket (before the rate prefactor).

    (1-n)(zd z rho - z rho zd) + n (z zd rho - zd rho z) + h.c.
    """
    zd = z.conj().T
    return _bracket_plus_hc(
        [
            (1.0 - occ, zd @ z, np.eye(DIM)),
            (-(1.0 - occ), z, zd),
            (occ, z @ zd, np.eye(DIM)),
            (-occ, zd, z),
        ]
    )


def _cross_bracket(occ1: float, occ2: float) -> tuple[np.ndarray, np.ndarray]:
    """Cross-mode bracket coupling populations to the 2<->3 coherence.

    First line exchanges through mode 1's occupation, second through
    mode 2's; both lines plus their Hermitian conjugates.
    """
    eye = np.eye(DIM)
    line1 = _bracket_plus_hc(
        [
            (1.0 - occ1, _Z2D @ _Z1, eye),
            (-(1.0 - occ1), _Z1, _Z2D),
            (occ1, _Z2 @ _Z1D, eye),
            (-occ1, _Z1D, _Z2),
        ]
    )
    line2 = _bracket_plus_hc(
        [
            (1.0 - occ2, _Z1D @ _Z2, eye),
            (-(1.0 - occ2), _Z1, _Z2D),
            (occ2, _Z1 @ _Z2D, eye),
            (-occ2, _Z1D, _Z2),
        ]
    )
    return line1, line2


def _affine_pair(bracket) -> tuple[np.ndarray, np.ndarray]:
    """(value at occupation 0, slope in the occupation) of an affine bracket."""
    at_zero = bracket(0.0)
    return at_zero, bracket(1.0) - at_zero


def _sector(superop: np.ndarray) -> np.ndarray:
    """The charge-neutral block of a 16x16 superoperator."""
    return superop[np.ix_(SECTOR, SECTOR)]


# Rows: thermal bracket of mode 1, of mode 2, cross line 1, cross line 2,
# each as (value at zero occupation, slope).
_BATH_STACK = np.stack(
    [
        _sector(m)
        for m in (
            *_affine_pair(lambda n: _thermal_bracket(_Z1, n)),
            *_affine_pair(lambda n: _thermal_bracket(_Z2, n)),
            *_affine_pair(lambda n: _cross_bracket(n, 0.0)[0]),
            *_affine_pair(lambda n: _cross_bracket(0.0, n)[1]),
        )
    ]
).reshape(8, SECTOR.size**2)

# i (rho h_a - h_a rho) for the mode number operators h_1, h_2.
_UNITARY_1, _UNITARY_2 = (
    _sector(1j * (_sup(np.eye(DIM), h) - _sup(h, np.eye(DIM))))
    for h in (_Z1D @ _Z1, _Z2D @ _Z2)
)

_BATH_SIGN = np.array([-1.0, 1.0])  # bath 1, bath 2


def _bath_coefficients(
    basis: EigenBasis, baths: BathParams, params: SystemParams
) -> np.ndarray:
    """Weights c_{lk} of the rows of _BATH_STACK in D_l = -(N_l + S_l),
    shape (..., 2, 8) with bath l on the second-to-last axis.

    N_l thermalizes each dressed mode against reservoir l with the
    angular weights (1 +- cos theta)/2; S_l holds the nonsecular
    cross-mode terms, weighted by (+-1/2) Gamma sin theta.
    """
    sign = _BATH_SIGN
    ct, st, g1, g2 = (
        np.asarray(x)[..., None]
        for x in (basis.cos_theta, basis.sin_theta, params.gamma1, params.gamma2)
    )
    t = np.stack(np.broadcast_arrays(baths.t1, baths.t2), axis=-1)
    mu = np.stack(np.broadcast_arrays(baths.mu1, baths.mu2), axis=-1)
    occ1 = fermi_occupation(np.asarray(basis.omega_p1)[..., None], t, mu)
    occ2 = fermi_occupation(np.asarray(basis.omega_p2)[..., None], t, mu)
    n1 = g1 * 0.5 * (1.0 + sign * ct)
    n2 = g2 * 0.5 * (1.0 - sign * ct)
    s1 = -sign * 0.5 * st * g1
    s2 = -sign * 0.5 * st * g2
    terms = (n1, n1 * occ1, n2, n2 * occ2, s1, s1 * occ1, s2, s2 * occ2)
    return -np.stack(np.broadcast_arrays(*terms), axis=-1)


@dataclass(frozen=True)
class Liouvillian:
    """Generator and its per-bath pieces on the charge-neutral sector, 6x6.

    matrix = unitary + bath1 + bath2 with bath_l = -(N_l + S_l) and the
    unitary part i[rho, H]; the bath pieces are the per-reservoir
    contributions traced against observables for currents.
    """

    matrix: np.ndarray
    bath1: np.ndarray
    bath2: np.ndarray
    hamiltonian: np.ndarray


def build_liouvillian(
    basis: EigenBasis, baths: BathParams, params: SystemParams
) -> Liouvillian:
    """Build the full generator d rho/dt = i[rho, H] - sum_l (N_l + S_l)."""
    unitary = (
        np.asarray(basis.omega_p1)[..., None, None] * _UNITARY_1
        + np.asarray(basis.omega_p2)[..., None, None] * _UNITARY_2
    )
    coeffs = _bath_coefficients(basis, baths, params)
    pieces = (coeffs.reshape(-1, _BATH_STACK.shape[0]) @ _BATH_STACK).reshape(
        coeffs.shape[:-1] + (SECTOR.size, SECTOR.size)
    ).astype(complex)
    bath1, bath2 = pieces[..., 0, :, :], pieces[..., 1, :, :]
    return Liouvillian(
        matrix=unitary + bath1 + bath2,
        bath1=bath1,
        bath2=bath2,
        hamiltonian=hamiltonian(basis),
    )


def sector_vector(rho: np.ndarray) -> np.ndarray:
    """The charge-neutral sector v of a 4x4 density matrix."""
    return rho[..., _SECTOR_ROWS, _SECTOR_COLS]


def _x_state(v: np.ndarray) -> np.ndarray:
    """The 4x4 X state whose charge-neutral sector is v."""
    rho = np.zeros(v.shape[:-1] + (DIM, DIM), dtype=complex)
    rho[..., _SECTOR_ROWS, _SECTOR_COLS] = v
    return rho


def _finalize(v: np.ndarray, lv: Liouvillian):
    """Hermitized, normalized states of sector vectors v with their
    residuals ||L v|| and smallest eigenvalues."""
    rho = _x_state(v)
    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    lv_v = lv.matrix @ sector_vector(rho)[..., None]
    residual = np.linalg.norm(lv_v[..., 0], axis=-1)
    return rho, residual, spectral_decompose(rho)[0].min(axis=-1)


def _failed(singular, residual, min_eig):
    return singular | ~(residual < _RESIDUAL_TOL) | (min_eig < _EIG_FLOOR)


def _failure(lv: Liouvillian, singular, residual, min_eig) -> SteadyStateError:
    """The typed error of one generator whose solve failed its checks."""
    dim = _null_space_dimension(np.linalg.svd(lv.matrix, compute_uv=False))
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
    inverse = np.full(a.shape, np.nan, dtype=complex)
    for i in np.ndindex(a.shape[:-2]):
        try:
            inverse[i] = np.linalg.inv(a[i])
        except np.linalg.LinAlgError:
            pass
    return inverse


def steady_state(lv: Liouvillian) -> tuple[np.ndarray, float]:
    """Unique stationary density matrix of the generator and its residual.

    Replaces the first row of the sector generator with the trace
    constraint and solves the 6x6 system, for every generator of a stack
    in one call.  Returns the pair (rho, ||L v||) with rho the 4x4 X
    state.  An unstacked generator raises DegenerateNullSpaceError when
    the stationary state is not unique (e.g. both couplings zero) and
    SteadyStateError when the system is singular or its state misses the
    residual tolerance or positivity; in a stack such a point gets NaN
    state and residual, and solving it alone gives its error.
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
    if failed.ndim == 0:
        if failed:
            raise _failure(lv, singular, residual, min_eig)
        return rho, float(residual)
    rho[failed] = np.nan
    residual[failed] = np.nan
    return rho, residual


def steady_state_svd(lv: Liouvillian) -> np.ndarray:
    """Stationary state of one generator via the SVD null vector;
    independent of the row-replacement path, used as the cross-check
    oracle."""
    _, svals, vh = np.linalg.svd(lv.matrix)
    dim = _null_space_dimension(svals)
    if dim > 1:
        raise DegenerateNullSpaceError(dim)
    v = vh[-1, :].conj()
    tr = _TRACE_ROW @ v
    if abs(tr) < 1e-12:
        raise SteadyStateError("null vector is traceless; no valid state found")
    rho, residual, min_eig = _finalize(v / tr, lv)
    if _failed(False, residual, min_eig):
        raise _failure(lv, False, residual, min_eig)
    return rho


@dataclass(frozen=True)
class NessResult:
    """Steady state plus the objects that produced it, stacked like the
    parameters they were solved for."""

    rho: np.ndarray
    liouvillian: Liouvillian
    basis: EigenBasis
    residual: float


def solve_ness(params: SystemParams, baths: BathParams) -> NessResult:
    """Diagonalize, build the generator and solve, in one call."""
    basis = diagonalize(params)
    lv = build_liouvillian(basis, baths, params)
    rho, residual = steady_state(lv)
    return NessResult(rho=rho, liouvillian=lv, basis=basis, residual=residual)


def grand_canonical_state(basis: EigenBasis, t: float, mu: float) -> np.ndarray:
    """Grand-canonical Gibbs state exp(-(H - mu N)/t)/Z of the two modes.

    This is the exact stationary state whenever both reservoirs share
    (t, mu), for any coupling strength.
    """
    energies = np.array(
        [0.0, basis.omega_p1, basis.omega_p2, basis.omega_p1 + basis.omega_p2]
    )
    numbers = np.array([0.0, 1.0, 1.0, 2.0])
    log_w = -(energies - mu * numbers) / t
    w = np.exp(log_w - log_w.max())
    return np.diag(w / w.sum()).astype(complex)
