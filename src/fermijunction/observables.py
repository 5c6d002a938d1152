"""State-level quantities for the two-mode junction.

All functions take 4x4 density matrices in the mode occupation basis
{|00>, |10>, |01>, |11>}.  Subsystem A is mode 1, subsystem B is mode 2,
so correlation measures are between the two dressed modes.  In this
(energy) basis the steady state is an X state with a single coherence
between the two singly occupied states; ``spectral_decompose``,
``concurrence`` and ``discord`` rely on that shape and raise ValueError
on any other state.  ``site_basis_state`` rotates a state back to the
local site basis for questions about the physical site-site
entanglement.  Every measure also takes a stack of states with leading
batch axes and returns one value per state.

Entropies are in bits (log base 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EigenBasis

__all__ = [
    "CorrelationReport",
    "DiscordResult",
    "spectral_decompose",
    "coherence",
    "linear_entropy",
    "concurrence",
    "concurrence_wootters",
    "mutual_information",
    "reduced_states",
    "discord",
    "discord_brute_force",
    "correlation_report",
    "site_basis_state",
    "x_form_deviation",
]

# Entries the X states this model produces leave empty: all but the
# diagonal and the 2<->3 coherence (the 1<->4 pair stays empty too).
_OFF_X = ~np.eye(4, dtype=bool)
_OFF_X[1, 2] = _OFF_X[2, 1] = False

# Mode-basis {|00>,|10>,|01>,|11>} vs kron order {|00>,|01>,|10>,|11>}.
_PERM = np.array([0, 2, 1, 3])

_EIG_FLOOR = -1e-9  # most negative eigenvalue accepted as roundoff
_X_TOL = 1e-10  # largest off-pattern entry still treated as an X state
_SEARCH_GRID = 40  # cells of the discord search's first polar-angle scan
_REFINE_GRID = 16  # cells of each rescan of the two cells around the best angle
_REFINE_STAGES = 9  # rescans; each narrows the bracket 8x, to below 1e-9
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CorrelationReport:
    """Scalar correlation measures for one state (entropies in bits)."""

    coherence: float
    linear_entropy: float
    concurrence: float
    qmi: float
    classical_corr: float
    discord: float


@dataclass(frozen=True)
class DiscordResult:
    """Outcome of the one-sided measurement optimization on subsystem B.

    theta and phi give the Bloch direction of the best measurement.  For
    an X state the azimuth is a gauge, so theta lies in [0, pi/2] and phi
    is 0.
    """

    classical_corr: float
    discord: float
    qmi: float
    theta: float
    phi: float


def x_form_deviation(rho: np.ndarray) -> float:
    """Largest magnitude among entries an X state must leave empty."""
    return np.abs(rho[..., _OFF_X]).max(axis=-1)[()]


def _require_x_state(rho: np.ndarray) -> None:
    dev = np.max(x_form_deviation(rho))
    if dev > _X_TOL:
        raise ValueError(
            f"state is not X-form: off-pattern entry of magnitude {dev:.3e}"
        )


def spectral_decompose(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form spectrum of X states.

    The singly occupied block has trace and Bloch vector

        t = rho11 + rho22,   b = ((rho11 - rho22)/2, Re rho12, Im rho12)

    (up to the order and sign of the components), so the eigenvalues are
    rho00, t/2 + R, t/2 - R and rho33 with R = |b|.  Returns (p, t, b),
    the four eigenvalues and the three components of b on the last axis.
    t and b are linear in rho, so on a derivative d rho they are (dt, db).
    Raises ValueError on a state that is not X-form.
    """
    _require_x_state(rho)
    diag = rho.diagonal(axis1=-2, axis2=-1).real
    coh = rho[..., 1, 2]
    t = diag[..., 1] + diag[..., 2]
    b = np.stack([0.5 * (diag[..., 1] - diag[..., 2]), coh.real, coh.imag], axis=-1)
    r = np.linalg.norm(b, axis=-1)
    p = np.stack([diag[..., 0], 0.5 * t + r, 0.5 * t - r, diag[..., 3]], axis=-1)
    return p, t, b


def coherence(rho: np.ndarray) -> float:
    """Magnitude of the coherence between the singly occupied states."""
    return np.abs(rho[..., 1, 2])[()]


def linear_entropy(rho: np.ndarray) -> float:
    """Normalized linear entropy (4/3)(1 - Tr rho^2): 0 pure, 1 maximally mixed."""
    purity = np.einsum("...ij,...ij->...", rho.conj(), rho).real
    return ((4.0 / 3.0) * (1.0 - purity))[()]


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence of an X state with empty 1<->4 coherence,

        E = 2 max(0, |rho23| - sqrt(rho11 rho44)).

    Raises ValueError on a state that is not X-form.
    """
    _require_x_state(rho)
    corners = np.maximum(rho[..., 0, 0].real, 0.0) * np.maximum(rho[..., 3, 3].real, 0.0)
    inner = np.abs(rho[..., 1, 2]) - np.sqrt(corners)
    return (2.0 * np.maximum(0.0, inner))[()]


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)[np.ix_(_PERM, _PERM)].real


def concurrence_wootters(rho: np.ndarray) -> float:
    """General spin-flip concurrence max(0, l1 - l2 - l3 - l4)."""
    tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    # abs() guards the sqrt against tiny negative roundoff eigenvalues
    lam = np.sqrt(np.abs(np.linalg.eigvals(rho @ tilde).real))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def _entropy_bits(mat: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < _EIG_FLOOR:
        raise ValueError(f"matrix has eigenvalue {eigs.min():.3e}; not a state")
    eigs = np.clip(eigs, 0.0, None)
    plogp = eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0))
    return (-plogp.sum(axis=-1))[()]


def reduced_states(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced 2x2 states of subsystem A (mode 1) and B (mode 2)."""
    t = rho[..., _PERM[:, None], _PERM].reshape(rho.shape[:-2] + (2, 2, 2, 2))
    rho_a = np.einsum("...abcb->...ac", t)
    rho_b = np.einsum("...abad->...bd", t)
    return rho_a, rho_b


def mutual_information(rho: np.ndarray) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits."""
    rho_a, rho_b = reduced_states(rho)
    return _entropy_bits(rho_a) + _entropy_bits(rho_b) - _entropy_bits(rho)


def _x_conditional_entropy(theta, diag, coh2):
    """Average post-measurement entropy of A for an X state measured on B
    along polar angle theta (any azimuth), elementwise: theta has the
    shape of the result and the state entries broadcast against it.

    ``diag`` holds (rho11, rho22, rho33, rho44) and ``coh2`` is |rho23|^2.
    With x = cos(theta), outcome weight u = (1 + x)/2 leaves A in the 2x2
    state w00 = u rho11 + v rho33, w11 = u rho22 + v rho44,
    |w01|^2 = u v |rho23|^2 with v = 1 - u; the other outcome swaps u
    and v.  Its eigenvalues are p (1 - q) and p q with p = w00 + w11 and

        p^2 q (1 - q) = det w = u^2 rho11 rho22 + v^2 rho33 rho44
                                + u v (rho11 rho44 + rho22 rho33 - |rho23|^2),

    a sum of terms >= 0 for a state: unlike w00 w11 - |w01|^2 it cancels
    at no angle, so q is accurate when small and smooth in theta.
    """
    r11, r22, r33, r44 = diag
    x = np.cos(theta)
    # the two outcomes on a leading axis: u = (1 + x)/2, then v = (1 - x)/2
    u = 0.5 + np.multiply.outer((0.5, -0.5), x)
    v = u[::-1]
    uu = u * u
    uv = u[0] * u[1]
    p = u * (r11 + r22) + v * (r33 + r44)
    live = p > 1e-15
    det = uu * (r11 * r22) + uu[::-1] * (r33 * r44) + uv * (r11 * r44 + (r22 * r33 - coh2))
    spread = u * (r11 - r22) + v * (r33 - r44)  # w00 - w11
    # q = det / (p big), big = p (1 - q) = (p + sqrt(spread^2 + 4 |w01|^2)) / 2
    q = 2.0 * det / np.where(live, (p + np.sqrt(spread * spread + uv * (4.0 * coh2))) * p, 2.0)
    if ((q < _EIG_FLOOR) & live).any():
        worst = q[live].min()
        raise ValueError(f"conditional state has eigenvalue {worst:.3e}; not a state")
    mixed = live & (q > 0.0)
    q = np.where(mixed, q, 0.5)
    h = q * np.log(q) + (1.0 - q) * np.log1p(-q)
    terms = np.where(mixed, p * h, 0.0)
    return (terms[0] + terms[1]) / -_LN2


def _x_state_search(rho: np.ndarray) -> tuple[float, float]:
    """Smallest conditional entropy of an X state and its polar angle.

    The conditional entropy does not depend on the azimuth and is the
    same at theta and pi - theta, so a scan of theta over [0, pi/2]
    (endpoints included) locates the minimum; each later stage rescans
    the two cells around the best angle on a grid 8x finer.  Interior
    optima occur for X states and are kept.  The value only goes down
    from stage to stage and the angle returned attains it.  All states
    of a stack are searched together, the grid on a leading axis.
    """
    entries = np.moveaxis(rho.diagonal(axis1=-2, axis2=-1).real, -1, 0)
    coh2 = np.abs(rho[..., 1, 2]) ** 2
    leading = (-1,) + (1,) * coh2.ndim

    def lowest(grid):
        vals = _x_conditional_entropy(grid, entries, coh2)
        k = vals.argmin(axis=0)[None]
        return np.take_along_axis(vals, k, axis=0)[0], np.take_along_axis(grid, k, axis=0)[0]

    cell = 0.5 * np.pi / _SEARCH_GRID
    scan = cell * np.arange(_SEARCH_GRID + 1).reshape(leading)
    value, theta = lowest(np.broadcast_to(scan, scan.shape[:1] + coh2.shape))
    # the grid's centre is the best angle so far, whose value is known
    offsets = np.delete(np.linspace(-cell, cell, _REFINE_GRID + 1), _REFINE_GRID // 2)
    offsets = offsets.reshape(leading)
    for _ in range(_REFINE_STAGES):
        low, at = lowest(np.clip(theta + offsets, 0.0, 0.5 * np.pi))
        better = low < value
        value = np.where(better, low, value)
        theta = np.where(better, at, theta)
        offsets = offsets / (_REFINE_GRID // 2)
    return value, theta


def discord(rho: np.ndarray) -> DiscordResult:
    """Classical correlation and quantum discord via one-sided measurement.

    The classical correlation is S(A) minus the smallest average
    conditional entropy over projective measurements on B; the discord is
    the mutual information minus that.  The search is deterministic.  An
    X state needs only the polar angle: a 40-cell scan of theta over
    [0, pi/2] with closed-form 2x2 eigenvalues, then nine 16-cell rescans
    around the best angle, each 8x finer, down to a bracket below 1e-9.
    Raises ValueError on a state that is not X-form.
    """
    _require_x_state(rho)
    rho_a, rho_b = reduced_states(rho)
    s_a = _entropy_bits(rho_a)
    qmi = s_a + _entropy_bits(rho_b) - _entropy_bits(rho)
    cond, theta = _x_state_search(rho)
    classical = s_a - cond
    return DiscordResult(
        classical_corr=classical[()],
        discord=(qmi - classical)[()],
        qmi=qmi,
        theta=theta[()],
        phi=np.zeros_like(theta)[()],
    )


def _measured_conditional_entropy(
    rho: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Average post-measurement entropy of A for projective measurements
    on B along the Bloch directions (theta, phi), for any two-mode state;
    closed-form 2x2 eigenvalues, vectorized over the direction arrays."""
    t = rho[np.ix_(_PERM, _PERM)].reshape(2, 2, 2, 2)
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    ph = np.exp(1j * phi)
    cond = np.zeros(c.shape)
    for m in (
        np.stack([c, ph * s], axis=1),
        np.stack([s, -ph * c], axis=1),
    ):
        w = np.einsum("nb,abcd,nd->nac", m.conj(), t, m)
        p = np.einsum("naa->n", w).real
        diff = w[:, 0, 0].real - w[:, 1, 1].real
        split = np.sqrt(diff * diff + 4.0 * np.abs(w[:, 0, 1]) ** 2)
        lam = np.stack([0.5 * (p + split), 0.5 * (p - split)], axis=1)
        lam = np.clip(lam, 0.0, None)
        # entropy of the normalized conditional state, weighted by p:
        # sum over outcomes of -lam log2(lam/p)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(lam > 0.0, np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
        plog = np.where(p[:, None] > 0.0, np.log2(np.where(p > 0.0, p, 1.0))[:, None], 0.0)
        cond += -(lam * (logs - plog)).sum(axis=1)
    return cond


def discord_brute_force(rho: np.ndarray, resolution: int = 400) -> DiscordResult:
    """Exhaustive measurement-angle grid; the oracle for the optimizer.

    Evaluates the conditional entropy on a full (theta, phi) grid over
    the Bloch sphere, for any state.  The returned angles are the best
    grid cell.
    """
    rho_a, rho_b = reduced_states(rho)
    s_a = _entropy_bits(rho_a)
    qmi = s_a + _entropy_bits(rho_b) - _entropy_bits(rho)

    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    cond = _measured_conditional_entropy(rho, tt.ravel(), pp.ravel())
    k = int(np.argmin(cond))
    classical = s_a - float(cond[k])
    return DiscordResult(
        classical_corr=classical,
        discord=qmi - classical,
        qmi=qmi,
        theta=float(tt.ravel()[k]),
        phi=float(pp.ravel()[k]),
    )


def correlation_report(rho: np.ndarray) -> CorrelationReport:
    """All correlation scalars for one state, discord included."""
    d = discord(rho)
    return CorrelationReport(
        coherence=coherence(rho),
        linear_entropy=linear_entropy(rho),
        concurrence=concurrence(rho),
        qmi=d.qmi,
        classical_corr=d.classical_corr,
        discord=d.discord,
    )


def site_basis_state(rho: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Rotate a mode-basis state to the local site basis.

    Only the singly occupied block changes; the empty and doubly
    occupied sectors are invariant under the single-particle rotation
    (the doubly occupied ket picks up the determinant sign, invisible
    for the X states this model produces).
    """
    half_c = math.sqrt(max(0.0, 0.5 * (1.0 + basis.cos_theta)))
    if half_c > 1e-8:
        half_s = 0.5 * basis.sin_theta / half_c
    else:
        half_s, half_c = 1.0, 0.0
    u = np.zeros((4, 4))
    u[0, 0] = 1.0
    u[1, 1] = half_s
    u[2, 1] = half_c
    u[1, 2] = half_c
    u[2, 2] = -half_s
    u[3, 3] = -1.0
    return u.conj().T @ rho @ u
