"""Redfield-type generator for the junction and its steady state.

The two dressed fermionic modes span a 4-dimensional Fock space ordered as

    {|00>, |10>, |01>, |11>}

(occupations of mode 1, mode 2; index 0 is the empty state, index 3 the
doubly occupied one).  The generator is

    d rho / dt = i [rho, H] - (N1 + S1) - (N2 + S2)

where N_l keeps each mode in touch with reservoir l (occupation-weighted
thermalization) and S_l carries the cross-mode terms a secular
approximation would drop; S_l sources the steady-state coherence between
the singly occupied states.  D_l = -(N_l + S_l) is the part of d rho/dt
owned by reservoir l.

H is quadratic and every term of D_l is bilinear in the mode operators,
so the equations of motion of the correlations C_ab = <c_b^dag c_a>
close and the steady state is Gaussian (Prosen, NJP 10, 043026 (2008);
Purkayastha, Dhar & Kulkarni, PRA 93, 062114 (2016)).  It is fixed by
four real numbers x = (n1, n2, X, Y), the mode occupations and
X + iY = rho12, which obey the real affine system dx/dt = M x + b:

    dn1/dt = 2 sum_l w1l (o1l - n1) - 2 S2 X
    dn2/dt = 2 sum_l w2l (o2l - n2) - 2 S1 X
    dX/dt  = sum_a sum_l s_al (o_al - n_a) - (W1 + W2) X + s Y
    dY/dt  = -(W1 + W2) Y - s X

with o_al the occupation of mode a in reservoir l, w_al and s_al bath
l's weights of mode a's thermal bracket and cross line, W_a and S_a
their sums over the baths, and s = omega'_1 - omega'_2 the rotation of
rho12 by the unitary part.  Bath l's share D_l is the same system
with its own weights and no rotation.  The state's charge-neutral
sector

    v = (rho00, rho11, rho22, rho33, Re rho12, Im rho12)

follows from x by Wick's theorem: rho33 = n1 n2 - X^2 - Y^2,
rho11 = n1 - rho33, rho22 = n2 - rho33, rho00 = 1 - n1 - n2 + rho33.
v is the state format every measure but the QFI (which takes x)
takes; ``observables.x_state`` builds the 4x4 X state where a dense
oracle needs it.

Bath l weights mode a's thermal bracket by w_al = gamma_a |U_la|^2,
with |U_la|^2 = (1 +- cos theta)/2, and its cross line by
s_al = (+-1/2) gamma_a sin theta, so W_a = gamma_a and S_a = 0.  The
global-approach rate is gamma_l |U_la|^2 (Hofer et al., NJP 19, 123037
(2017)); the two agree at gamma_1 = gamma_2, and the fix is one edit in
``_angular_weights``, which then makes S_a nonzero.  At delta = 0 the
populations relax at 2 gamma_1 and 2 gamma_2 and the coherence at
gamma_1 + gamma_2: each gamma is the self-energy -i gamma of a site,
whose level width is Gamma = 2 gamma.

No matrix is assembled: the generator is kept as the scalars it is
linear in (``Liouvillian``), each formed once, and ``_drift`` forms
M x + b from the bath sums (W1, W2, S1, S2), s and b, row by row as
above, for the residual, each bath's n-rows and the delta-tangent.  A
solved state (``NessResult``) is the ``Liouvillian`` it solved plus v,
x, the residual and the errors.  M has a fixed zero pattern, so M y = r
is solved in closed form: rows 0, 1 and 3 give y0, y1 and y3 in terms
of y2, and row 2 then fixes

    y2 = -(r2 - S1 r0 / (2 W1) - S2 r1 / (2 W2) + s r3 / W) / Delta,
    Delta = W + s^2 / W - S1 S2 (1 / W1 + 1 / W2),   W = W1 + W2.

The weights above sum to (W1, W2, S1, S2) = (gamma_1, gamma_2, 0, 0);
with the global-approach rates (W1, S; S, W2) would be sum_l gamma_l
u_l u_l^T, u_l = (U_l1, U_l2).  Either way W1 W2 >= S^2 (S1 = S2 = S)
and Delta >= s^2 / W: the state is unique whenever W1, W2 > 0, with no
condition number.  A zero coupling leaves M singular, of nullity
[W1 = 0] + [W2 = 0] + 2 [W = 0, s = 0].

M is linear in s and in the weights, and b in the weights times the
occupations, so d(W1, W2, S1, S2), db and ds / d delta follow by the
product rule from closed forms; the same solve with r = -(dM x + db),
on the kept sums and s, gives the exact dx / d delta, on which
``metrology`` takes the QFI.

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

from .model import (
    BathParams,
    EigenBasis,
    SystemParams,
    _point_errors,
    diagonalize,
    fermi_occupation,
)
from .observables import _EIG_FLOOR, x_state

__all__ = [
    "DIM",
    "Liouvillian",
    "NessResult",
    "SteadyStateError",
    "DegenerateNullSpaceError",
    "build_liouvillian",
    "generator_derivative",
    "steady_state",
    "solve_ness",
    "state_derivative",
    "grand_canonical_state",
]

DIM = 4
_RESIDUAL_TOL = 1e-10  # largest ||M x + b|| accepted from a steady-state solve


# Particle number of each level.
_NUMBERS = np.array([0.0, 1.0, 1.0, 2.0])


def _level_energies(basis: EigenBasis) -> np.ndarray:
    """The four levels' energies (0, w'_1, w'_2, w'_1 + w'_2), last axis."""
    w1, w2 = np.asarray(basis.omega_p1), np.asarray(basis.omega_p2)
    return np.stack([np.zeros_like(w1), w1, w2, w1 + w2], axis=-1)


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; the message names the check the state missed."""


class DegenerateNullSpaceError(SteadyStateError):
    """The generator has more than one stationary state.

    ``dimension`` is the nullity of M, the number of directions along
    which the stationary x can move, [W1 = 0] + [W2 = 0] + 2 [W = 0 and
    s = 0]: 1 when one mode has no coupling, 2 when neither has (rho12
    still turns) and 4 for an all-zero generator."""

    def __init__(self, dimension: int):
        super().__init__(
            f"stationary state is not unique: null space dimension {dimension}"
        )
        self.dimension = dimension


def _angular_weights(unit, cos_theta, sin_theta, params: SystemParams) -> np.ndarray:
    """Weights (w1, w2, s1, s2) of the thermal brackets and cross lines of
    modes 1 and 2, on the last axis of (..., 2, 4) with bath l on axis -2:
    gamma_1 (unit - cos theta)/2, gamma_2 (unit + cos theta)/2 and
    gamma_a sin theta / 2 from bath 1, the opposite signs from bath 2.
    With unit = 1 these are the weights; with unit = 0 and the derivatives
    of cos theta and sin theta they are the weights' derivatives."""
    ct, st, g1, g2 = (np.asarray(x) for x in (cos_theta, sin_theta, params.gamma1, params.gamma2))
    w = np.empty(np.broadcast(ct, st, g1, g2).shape + (2, 4))
    h1, h2, less, more = g1 * 0.5, g2 * 0.5, unit - ct, unit + ct
    w[..., 0, 0], w[..., 0, 1] = h1 * less, h2 * more
    w[..., 1, 0], w[..., 1, 1] = h1 * more, h2 * less
    half = 0.5 * st
    w[..., 0, 2], w[..., 0, 3] = half * g1, half * g2
    w[..., 1, 2:] = -w[..., 0, 2:]
    return w


def _occupations(basis: EigenBasis, baths: BathParams) -> np.ndarray:
    """Occupations of modes 1 and 2 in each reservoir, (..., 2, 2) with
    bath l on axis -2 and the mode on the last axis."""
    fields = (basis.omega_p1, basis.omega_p2, baths.t1, baths.t2, baths.mu1, baths.mu2)
    # omega'_a, T_l and mu_l on the contiguous (..., bath l, mode a) grid: one Fermi call
    grid = np.empty((3,) + np.broadcast(*fields).shape + (2, 2))
    for k in (0, 1):
        grid[0, ..., k, 0], grid[0, ..., k, 1] = basis.omega_p1, basis.omega_p2
        grid[1, ..., 0, k], grid[1, ..., 1, k] = baths.t1, baths.t2
        grid[2, ..., 0, k], grid[2, ..., 1, k] = baths.mu1, baths.mu2
    return fermi_occupation(*grid)


def _sources(weights, occupations) -> np.ndarray:
    """Each bath's source b_l = (2 w1 o1, 2 w2 o2, s1 o1 + s2 o2, 0),
    (..., L, 4) with bath l on axis -2, from the angular weights (w1, w2,
    s1, s2), (..., L, 4), and the modes' occupations (o1, o2), (..., L,
    2), of L baths."""
    w, o = weights, occupations
    rates = 2.0 * w[..., :2] * o
    b = np.empty(rates.shape[:-1] + (4,))
    b[..., :2], b[..., 3] = rates, 0.0
    b[..., 2] = w[..., 2] * o[..., 0] + w[..., 3] * o[..., 1]
    return b


def _n_rates(sums, source, x):
    """dn1/dt and dn2/dt, the rows b_a - 2 W_a n_a - 2 S_a' X of M x + b,
    from the weights' bath sums (W1, W2, S1, S2), or one bath's weights
    and source for its share."""
    re = x[..., 2]
    return (source[..., 0] - 2.0 * (sums[..., 0] * x[..., 0] + sums[..., 3] * re),
            source[..., 1] - 2.0 * (sums[..., 1] * x[..., 1] + sums[..., 2] * re))


def _drift(sums, split, source, x) -> np.ndarray:
    """M x + b, (..., 4), of the generator with the weights' bath sums
    (W1, W2, S1, S2), the rotation split = s and the source b."""
    s1, s2, width = sums[..., 2], sums[..., 3], sums[..., 0] + sums[..., 1]
    n1, n2, re, im = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    d = np.empty(np.broadcast(sums, source, x).shape)
    d[..., 0], d[..., 1] = _n_rates(sums, source, x)
    d[..., 2] = source[..., 2] - (s1 * n1 + s2 * n2 + width * re - split * im)
    d[..., 3] = source[..., 3] - (width * im + split * re)
    return d


@dataclass(frozen=True)
class Liouvillian:
    """The affine generator dx/dt = M x + b of x = (n1, n2, Re rho12, Im
    rho12), as the scalars it is linear in: each bath's angular
    ``weights`` (w1, w2, s1, s2), (..., 2, 4), modes' ``occupations``
    (o1, o2), (..., 2, 2), and ``sources`` b_l, (..., 2, 4), bath l on
    axis -2, whose sum is b; the weights' bath ``sums`` (W1, W2, S1, S2)
    and the rotation ``split`` s = omega'_1 - omega'_2, which fix M; and
    the ``basis``, ``params`` and ``baths`` it was built from.  Bath l's
    share has its own weights and source and no rotation."""

    weights: np.ndarray
    occupations: np.ndarray
    sources: np.ndarray
    sums: np.ndarray
    split: np.ndarray
    basis: EigenBasis
    params: SystemParams
    baths: BathParams


@dataclass(frozen=True)
class NessResult(Liouvillian):
    """The generator a steady state was solved from, all stacked alike,
    plus ``v``, the state's real charge-neutral sector (..., 6), which
    every measure but the QFI takes, ``x``, its correlations (n1, n2, Re
    rho12, Im rho12), ``residual``, ||M x + b|| (an array for a stack),
    and ``errors``, each failed point's typed error (None where the solve
    passed)."""

    v: np.ndarray
    x: np.ndarray
    residual: float | np.ndarray
    errors: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        """The 4x4 X state of ``v``, for the dense oracles."""
        return x_state(self.v)


def build_liouvillian(params: SystemParams, baths: BathParams) -> Liouvillian:
    """Build dx/dt = M x + b of d rho/dt = i[rho, H] - sum_l (N_l + S_l)
    in the mode basis ``diagonalize(params)``, which it keeps."""
    basis = diagonalize(params)
    weights = _angular_weights(1.0, basis.cos_theta, basis.sin_theta, params)
    occupations = _occupations(basis, baths)  # one Fermi call for the grid
    sums = weights[..., 0, :] + weights[..., 1, :]
    split = np.asarray(basis.omega_p1) - basis.omega_p2
    return Liouvillian(weights, occupations, _sources(weights, occupations), sums, split,
                       basis, params, baths)


def generator_derivative(lv: Liouvillian):
    """The delta-derivatives (d(W1, W2, S1, S2), db, ds) of the bath sums,
    source and rotation of a generator (or the one a steady state was
    solved from), in its mode frame, which fix dM x + db through
    ``_drift``.

    d omega'_1 = -d omega'_2 = sin theta = ds / 2, the frame turns at d
    theta, and each occupation moves by d n = -n (1 - n) d omega'_a / T.
    By the product rule db sums the sources of the weights' derivatives
    with the occupations and of the weights with the occupations'
    derivatives, in one pass on the weights and occupations the
    generator keeps.  At s = 0 d theta is 0 in the delta -> 0+ frame:
    the one-sided derivative from delta > 0.
    """
    basis, baths, occ = lv.basis, lv.baths, lv.occupations
    ct, st, d_theta = (np.asarray(x) for x in (basis.cos_theta, basis.sin_theta, basis.d_theta))
    d_weights = _angular_weights(0.0, -st * d_theta, ct * d_theta, lv.params)
    # d omega'_1 = -d omega'_2 = sin theta; bath l's occupations over its T
    d_occ = occ * (1.0 - occ) * np.multiply.outer(st, (-1.0, 1.0))[..., None, :]
    d_occ[..., 0, :] /= np.asarray(baths.t1)[..., None]
    d_occ[..., 1, :] /= np.asarray(baths.t2)[..., None]
    # the sources of [dw | w] with [o | do], as four baths
    b = _sources(np.concatenate([d_weights, lv.weights], axis=-2),
                 np.concatenate([occ, d_occ], axis=-2))
    d_b = b[..., 0, :] + b[..., 1, :] + b[..., 2, :] + b[..., 3, :]  # in .sum(axis=-2)'s order
    return d_weights[..., 0, :] + d_weights[..., 1, :], d_b, 2.0 * st


def _solve(sums: np.ndarray, split, r: np.ndarray) -> np.ndarray:
    """y with M y = r in closed form, for M with the weights' bath sums
    (W1, W2, S1, S2), (..., 4), and the rotation split = s; NaN at a
    zero coupling."""
    w1, w2, s1, s2 = sums[..., 0], sums[..., 1], sums[..., 2], sums[..., 3]
    r0, r1, r2, r3 = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    width, cross, m1, m2 = w1 + w2, s1 * s2, -2.0 * w1, -2.0 * w2  # M's diagonal -2 W_a
    y = np.empty(r.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = width + split * split / width - cross / w1 - cross / w2
        y2 = (r2 + s1 * r0 / m1 + s2 * r1 / m2 + split * r3 / width) / -gap
        y[..., 0] = (r0 + 2.0 * s2 * y2) / m1
        y[..., 1] = (r1 + 2.0 * s1 * y2) / m2
        y[..., 2] = y2
        y[..., 3] = (r3 + split * y2) / -width
    return y


def _failure(w1, w2, split, residual, min_eig) -> SteadyStateError:
    """The typed error of one point whose solve failed its checks."""
    if w1 == 0 or w2 == 0:
        uncoupled = int(w1 == 0) + int(w2 == 0)
        return DegenerateNullSpaceError(uncoupled + 2 * int(uncoupled == 2 and split == 0))
    if not residual < _RESIDUAL_TOL:
        return SteadyStateError(f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}")
    return SteadyStateError(
        f"steady state not positive semidefinite: min eigenvalue {min_eig:.3e}"
    )


def steady_state(lv: Liouvillian) -> NessResult:
    """Unique stationary state of the generator, as the ``NessResult``
    that is the generator with its state, correlations, residual and the
    typed error of each failed solve.

    Solves M x = -b in closed form and takes ||M x + b|| (``_solve``,
    ``_drift``) on the bath sums, s and the summed sources b_l the
    generator keeps, for every generator of a stack in one call; v is
    Wick's sector of x.  A solved state solves again to the same bits.
    A solve fails with DegenerateNullSpaceError when a zero coupling
    leaves M singular, so that the stationary state is not unique, and
    with SteadyStateError when the state misses the residual tolerance
    or positivity: its smallest eigenvalue, min(rho00, rho33, t/2 - R)
    of ``observables.spectral_decompose``, below -1e-9.  An unstacked
    generator raises that error; in a stack such a point gets NaN state
    and residual and its error in ``errors``, an object array shaped like
    the stack that holds None where the solve passed.
    """
    source = lv.sources[..., 0, :] + lv.sources[..., 1, :]
    x = _solve(lv.sums, lv.split, -source)
    drift = _drift(lv.sums, lv.split, source, x)
    # the norm summed as np.linalg.norm sums it
    residual = np.sqrt((drift * drift).sum(axis=-1))
    n1, n2, re, im = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    re2, im2 = re * re, im * im
    r = n1 * n2 - re2 - im2  # rho33
    v = np.empty(x.shape[:-1] + (6,))
    v[..., 0], v[..., 1], v[..., 2], v[..., 3] = 1.0 - n1 - n2 + r, n1 - r, n2 - r, r
    v[..., 4:] = x[..., 2:]
    # the smallest of the eigenvalues rho00, t/2 +- R and rho33
    z, half_t = 0.5 * (v[..., 1] - v[..., 2]), 0.5 * (v[..., 1] + v[..., 2])
    min_eig = np.minimum(np.minimum(v[..., 0], r), half_t - np.sqrt(z * z + re2 + im2))
    w1, w2 = lv.sums[..., 0], lv.sums[..., 1]  # M is singular where one is 0
    failed = (w1 == 0) | (w2 == 0) | ~(residual < _RESIDUAL_TOL) | (min_eig < _EIG_FLOOR)
    errors = _point_errors(failed, lambda i: _failure(
        *(np.broadcast_to(a, failed.shape)[i] for a in (w1, w2, lv.split, residual, min_eig))),
        v, x, residual)
    return NessResult(**{**vars(lv), "v": v, "x": x,
                         "residual": residual if failed.ndim else float(residual),
                         "errors": errors})


def solve_ness(params: SystemParams, baths: BathParams) -> NessResult:
    """The ``steady_state`` of ``build_liouvillian(params, baths)``."""
    return steady_state(build_liouvillian(params, baths))


def state_derivative(ness: NessResult) -> np.ndarray:
    """d x / d delta of solved steady states' correlations, in their mode
    frame: M x + b = 0 holds at every delta, so M dx = -(dM x + db), the
    drift of ``generator_derivative`` at x, solved in closed form with the
    bath sums and s of the steady-state solve.  At omega1 == omega2,
    delta == 0 it is the derivative from delta > 0."""
    d_sums, d_source, d_split = generator_derivative(ness)
    return _solve(ness.sums, ness.split, -_drift(d_sums, d_split, d_source, ness.x))


def grand_canonical_state(params: SystemParams, t: float, mu: float) -> np.ndarray:
    """Sector v of the grand-canonical Gibbs state exp(-(H - mu N)/t)/Z of
    the modes of ``diagonalize(params)``, for each point of a stack (t and
    mu broadcast against it): its populations and a zero coherence.

    This is the exact stationary state whenever both reservoirs share
    (t, mu), for any coupling strength.
    """
    t, mu = np.asarray(t)[..., None], np.asarray(mu)[..., None]
    log_w = -(_level_energies(diagonalize(params)) - mu * _NUMBERS) / t
    w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    return np.concatenate([w / w.sum(axis=-1, keepdims=True), np.zeros_like(w[..., :2])], axis=-1)
