"""State-level quantities for the two-mode junction.

States are in the mode occupation basis {|00>, |10>, |01>, |11>}.
Subsystem A is mode 1, subsystem B is mode 2, so correlation measures
are between the two dressed modes.  In this (energy) basis the steady
state is an X state with a single coherence between the two singly
occupied states, so the measures take its charge-neutral sector

    v = (rho00, rho11, rho22, rho33, Re rho12, Im rho12),

six real numbers on the last axis, which cannot hold any other shape.
``x_state`` builds the 4x4 X state of v, and ``sector_vector`` takes a
4x4 state back to v, raising ValueError on one that is not X-form.
The dense oracles (``reduced_states``, ``discord_brute_force``) take
4x4 states.  ``site_basis_state`` takes v to the sector of the same
state in the local site basis, for questions about the physical
site-site entanglement.  Every function also takes a stack of states
with leading batch axes and returns one value per state.

Entropies are in bits (log base 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EigenBasis

__all__ = [
    "DiscordResult",
    "spectral_decompose",
    "coherence",
    "linear_entropy",
    "concurrence",
    "mutual_information",
    "reduced_states",
    "discord",
    "discord_brute_force",
    "sector_vector",
    "site_basis_state",
    "x_state",
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
_NEWTON_STEPS = 3  # safeguarded Newton steps in cos 2 theta after the scan
# |mutual information| (bits) at or below which discord takes theta = 0
# unsearched: no measurement moves J or the discord by more than it
_QMI_FLOOR = 1e-14
_LN2 = math.log(2.0)


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


def sector_vector(rho: np.ndarray) -> np.ndarray:
    """The charge-neutral sector v of 4x4 X states.  Raises ValueError
    on a state with an entry the X form leaves empty."""
    dev = np.abs(rho[..., _OFF_X]).max(initial=0.0)
    if dev > _X_TOL:
        raise ValueError(f"state is not X-form: off-pattern entry of magnitude {dev:.3e}")
    entries = rho[..., (0, 1, 2, 3, 1), (0, 1, 2, 3, 2)]  # populations, rho12
    return np.concatenate([entries.real, entries[..., 4:].imag], axis=-1)


def x_state(v: np.ndarray) -> np.ndarray:
    """The 4x4 X states whose charge-neutral sectors are v."""
    rho = np.zeros(v.shape[:-1] + (4, 4), dtype=complex)
    rho.real[..., range(4), range(4)] = v[..., :4]
    rho.real[..., (1, 2), (2, 1)] = v[..., 4:5]
    rho.imag[..., (1, 2), (2, 1)] = v[..., 5:] * [1.0, -1.0]  # rho21 = conj(rho12)
    return rho


def spectral_decompose(v: np.ndarray) -> np.ndarray:
    """Closed-form spectrum of X states.

    The singly occupied block has trace t = rho11 + rho22 and Bloch
    vector b = ((rho11 - rho22)/2, Re rho12, Im rho12), so the
    eigenvalues are rho00, t/2 + R, t/2 - R and rho33 with R = |b|,
    returned in that order on the last axis.
    """
    t = v[..., 1] + v[..., 2]
    z = 0.5 * (v[..., 1] - v[..., 2])
    # R = |b|, the squares summed in the order np.linalg.norm sums them
    r = np.sqrt(z * z + v[..., 4] * v[..., 4] + v[..., 5] * v[..., 5])
    p = v[..., :4].copy()
    p[..., 1], p[..., 2] = 0.5 * t + r, 0.5 * t - r
    return p


def coherence(v: np.ndarray) -> float:
    """Magnitude of the coherence between the singly occupied states."""
    return np.abs(v[..., 4] + 1j * v[..., 5])[()]


def linear_entropy(v: np.ndarray) -> float:
    """Normalized linear entropy (4/3)(1 - Tr rho^2): 0 pure, 1 maximally mixed."""
    c2 = v[..., 4] * v[..., 4] + v[..., 5] * v[..., 5]
    # Tr rho^2 summed entry by entry in row-major order
    purity = v[..., 0] ** 2 + v[..., 1] ** 2 + c2 + c2 + v[..., 2] ** 2 + v[..., 3] ** 2
    return ((4.0 / 3.0) * (1.0 - purity))[()]


def concurrence(v: np.ndarray) -> float:
    """Two-qubit concurrence of an X state with empty 1<->4 coherence,

        E = 2 max(0, |rho23| - sqrt(rho11 rho44)).
    """
    corners = np.maximum(v[..., 0], 0.0) * np.maximum(v[..., 3], 0.0)
    inner = coherence(v) - np.sqrt(corners)
    return (2.0 * np.maximum(0.0, inner))[()]


def _entropy_terms(eigs: np.ndarray) -> np.ndarray:
    """-p log2 p for each eigenvalue p; ValueError if one is below the floor."""
    if eigs.min() < _EIG_FLOOR:
        raise ValueError(f"matrix has eigenvalue {eigs.min():.3e}; not a state")
    eigs = np.maximum(eigs, 0.0)
    return -eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0))


def _entropy_bits(mat: np.ndarray) -> float:
    """Von Neumann entropy in bits from a dense eigensolve; any state."""
    return _entropy_terms(np.linalg.eigvalsh(mat)).sum(axis=-1)[()]


# diagonal of an X state -> (A empty, A occupied, B empty, B occupied):
# the reduced states of an X state are diagonal
_MARGINALS = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=float)


def _x_entropies(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """S(A), S(B), S(AB) and the Shannon entropy H of the populations
    (rho00, rho11, rho22, rho33), in bits, of X states, from the
    closed-form spectrum (rho00, rho33, t/2 +- R), the diagonal reduced
    states and the diagonal.  Raises ValueError on a sector that is not
    a state."""
    p = spectral_decompose(v)
    marginals = v[..., :4] @ _MARGINALS
    h = _entropy_terms(np.concatenate([p, marginals, v[..., :4]], axis=-1))
    s_a, s_b = h[..., 4] + h[..., 5], h[..., 6] + h[..., 7]
    return s_a, s_b, h[..., :4].sum(axis=-1), h[..., 8:].sum(axis=-1)


def reduced_states(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced 2x2 states of subsystem A (mode 1) and B (mode 2)."""
    t = rho[..., _PERM[:, None], _PERM].reshape(rho.shape[:-2] + (2, 2, 2, 2))
    rho_a = np.einsum("...abcb->...ac", t)
    rho_b = np.einsum("...abad->...bd", t)
    return rho_a, rho_b


def mutual_information(v: np.ndarray) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits, in closed
    form."""
    s_a, s_b, s_ab, _ = _x_entropies(v)
    return (s_a + s_b - s_ab)[()]


def _x_state_entries(diag, coh2):
    """The state-only sums and products ``_x_entropy`` reads, from
    ``diag`` = (rho11, rho22, rho33, rho44) and ``coh2`` = |rho23|^2."""
    r11, r22, r33, r44 = diag
    a, c = r11 + r22, r33 + r44
    e, f = r11 - r22, r33 - r44
    return (a, c, r11 * r22, r33 * r44, r11 * r44 + (r22 * r33 - coh2), e, f,
            4.0 * coh2, a - c, e - f)


def _x_entropy(theta, entries, slopes=False):
    """Average post-measurement entropy of A (bits) for an X state
    measured on B along polar angle theta (any azimuth), elementwise, from
    the entries of ``_x_state_entries``; with ``slopes`` also its first
    and second derivative in theta.

    With x = cos(theta), outcome weight u = (1 + x)/2 leaves A in the 2x2
    state w00 = u rho11 + v rho33, w11 = u rho22 + v rho44,
    |w01|^2 = u v |rho23|^2 with v = 1 - u; the other outcome swaps u
    and v.  Its eigenvalues are p (1 - q) and p q with p = w00 + w11 and

        p^2 q (1 - q) = det w = u^2 rho11 rho22 + v^2 rho33 rho44
                                + u v (rho11 rho44 + rho22 rho33 - |rho23|^2),

    a sum of terms >= 0 for a state: unlike w00 w11 - |w01|^2 it cancels
    at no angle, so q is accurate when small and smooth in theta.

    Each outcome contributes p h(q) (in nats) with eigenvalues (p -+ r)/2,
    where r^2 = g = s^2 + 4 u v |rho23|^2 and s = w00 - w11.  With
    L1 = ln q + ln(1 - q), psi = (ln(1 - q) - ln q) / 2r and r' = g'/2r
    its derivatives are

        S'  = -p' L1 / 2 - psi g'/2,
        S'' = -p'' L1 / 2 - psi (g''/2 - r'^2) - (p r' - p' r)^2 / (4 p det w),

    from the logs the value already takes; u' = -+ sin(theta)/2 and
    u'' = -+ cos(theta)/2 on the two outcomes.  Where r = 0 the limits
    psi = 1/p and r' = 0 hold, since the entropy is even in r.  An
    outcome that is empty or leaves A pure adds 0 to both; inside
    (0, pi/2] that happens only where it does at every angle, and at
    theta = 0 the slope is 0 by symmetry anyway.
    """
    a, c, aa, cc, ac, e, f, coh4, a_c, e_f = entries
    x = np.cos(theta)
    # the two outcomes on a leading axis: u = (1 + x)/2, then v = (1 - x)/2
    u = 0.5 + np.multiply.outer((0.5, -0.5), x)
    v = u[::-1]
    uu = u * u
    uv = u[0] * u[1]
    p = u * a + v * c
    live = p > 1e-15
    det = uu * aa + uu[::-1] * cc + uv * ac
    spread = u * e + v * f  # w00 - w11
    r = np.sqrt(spread * spread + uv * coh4)
    # q = det / (p big), big = p (1 - q) = (p + r) / 2
    q = 2.0 * det / np.where(live, (p + r) * p, 2.0)
    # the smaller eigenvalue p q of the outcome's unnormalized state
    if ((p * q < _EIG_FLOOR) & live).any():
        worst = (p * q)[live].min()
        raise ValueError(f"conditional state has eigenvalue {worst:.3e}; not a state")
    mixed = live & (q > 0.0)
    q = np.where(mixed, q, 0.5)
    log_q, log_1q = np.log(q), np.log1p(-q)
    terms = np.where(mixed, p * (q * log_q + (1.0 - q) * log_1q), 0.0)
    value = (terms[0] + terms[1]) / -_LN2
    if not slopes:
        return value
    y = np.sin(theta)
    du = np.multiply.outer((-0.5, 0.5), y)
    d2u = np.multiply.outer((-0.5, 0.5), x)
    dp, d2p = du * a_c, d2u * a_c
    ds, d2s = du * e_f, d2u * e_f
    # half of g' and g'' for g = r^2 = s^2 + sin(theta)^2 |rho23|^2
    g1 = spread * ds + (0.25 * x * y) * coh4
    g2 = ds * ds + spread * d2s + (0.25 * (x * x - y * y)) * coh4
    # below r = 1e-8 p the log difference in psi is roundoff, and the r = 0
    # limits hold to O(r/p)
    split = r > 1e-8 * p
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=split)
    psi = np.where(split, 0.5 * (log_1q - log_q) * inv_r, 1.0 / np.where(live, p, 1.0))
    dr = g1 * inv_r
    l1 = 0.5 * (log_q + log_1q)
    bend = dr * p - dp * r
    first = np.where(mixed, dp * l1 + psi * g1, 0.0)
    second = np.where(
        mixed,
        d2p * l1 + psi * (g2 - dr * dr) + bend * bend / np.where(mixed, 4.0 * p * det, 1.0),
        0.0,
    )
    return value, (first[0] + first[1]) / -_LN2, (second[0] + second[1]) / -_LN2


def _x_state_search(v: np.ndarray) -> tuple[float, float]:
    """Smallest conditional entropy of an X state and its polar angle.

    The conditional entropy does not depend on the azimuth and is the
    same at theta and pi - theta, so a scan of theta over [0, pi/2]
    (endpoints included) brackets the minimum by the cells next to the
    best angle.  The search starts at the vertex of the parabola through
    the best angle and its two neighbours (mirrored at 0 and pi/2, where
    the entropy is even) and takes safeguarded Newton steps in w =
    cos 2 theta from the closed-form slope f' and curvature f'' in theta,

        w -> w - f' w'^2 / (f'' w' - f' w''),
        w' = -2 sin 2 theta,  w'' = -4 cos 2 theta.

    The entropy is a smooth g(w), but its curvature in theta at an
    optimum theta* is about 16 g'' theta*^2 near 0 (and alike near
    pi/2), so steps in theta converge only linearly there.  Each step
    shrinks the bracket by the sign of the slope and bisects it when
    g'' is not positive or the step leaves it.  Interior optima occur
    for X states and are kept.  The final angle replaces the best scan
    angle only if its value is strictly lower, so the value never
    exceeds the scan's and the angle returned attains it.  All states of
    a stack are searched together, the scan on a leading axis.
    """
    entries = _x_state_entries(np.moveaxis(v[..., :4], -1, 0), coherence(v) ** 2)
    leading = (-1,) + (1,) * (v.ndim - 1)
    cell = 0.5 * np.pi / _SEARCH_GRID
    vals = _x_entropy(cell * np.arange(_SEARCH_GRID + 1).reshape(leading), entries)
    k = vals.argmin(axis=0)
    mirrored = np.concatenate([vals[1:2], vals, vals[-2:-1]])
    below, value, above = np.take_along_axis(mirrored, k + np.arange(3).reshape(leading), 0)
    second = below - 2.0 * value + above  # >= 0 at the best angle
    shift = np.divide(below - above, 2.0 * second, out=np.zeros_like(second), where=second > 0.0)
    at = cell * k
    theta = at + cell * shift
    lo, hi = np.maximum(at - cell, 0.0), np.minimum(at + cell, 0.5 * np.pi)
    for _ in range(_NEWTON_STEPS):
        _, slope, curv = _x_entropy(theta, entries, slopes=True)
        lo = np.where(slope < 0.0, theta, lo)
        hi = np.where(slope > 0.0, theta, hi)
        # a step in w = cos 2 theta: g' = slope / w' and g'' = bend / w'^4
        c2, dw = np.cos(2.0 * theta), -2.0 * np.sin(2.0 * theta)  # w and w'
        bend = (curv * dw + 4.0 * slope * c2) * dw  # w'' = -4 w
        convex = bend > 0.0
        w = c2 - slope * dw**3 / np.where(convex, bend, 1.0)
        inside = convex & (np.abs(w) <= 1.0)
        step = 0.5 * np.arccos(np.where(inside, w, c2))
        theta = np.where(inside & (step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    polished = _x_entropy(theta, entries)
    better = polished < value
    return np.where(better, polished, value)[()], np.where(better, theta, at)[()]


def discord(v: np.ndarray) -> DiscordResult:
    """Classical correlation and quantum discord via one-sided measurement.

    The classical correlation is S(A) minus the smallest average
    conditional entropy over projective measurements on B; the discord is
    the mutual information minus that.  S(A), S(B) and S(AB) come from
    the X state's closed-form spectrum.  The search is deterministic.  An
    X state needs only the polar angle: a 40-cell scan of theta over
    [0, pi/2] with closed-form 2x2 eigenvalues, then three safeguarded
    Newton steps in cos 2 theta on the closed-form derivatives inside the
    cells around the best angle, 45 evaluations of the conditional
    entropy per searched state.

    For every measurement 0 <= J_theta <= J <= I (Henderson & Vedral
    2001; Ollivier & Zurek 2002), so where |I| is at most ``_QMI_FLOOR``
    no search moves either result by more than the floor: such a state
    (an equilibrium product state, whose I is roundoff) takes theta = 0,
    the exact optimum of a state without coherence.  (A Redfield state
    that is not quite positive can have I < 0, where the bound fails; it
    is searched.)  Measuring B along theta = 0 leaves A diagonal, so the
    conditional entropy there is H(rho00, rho11, rho22, rho33) - S(B),
    from the entropies the mutual information already takes.  A stack of
    only such states is not searched; in a mixed stack all states are
    searched and those within the floor take theta = 0.
    """
    s_a, s_b, s_ab, h_diag = _x_entropies(v)
    qmi = s_a + s_b - s_ab
    cond, theta = h_diag - s_b, np.zeros_like(qmi)
    settled = np.abs(qmi) <= _QMI_FLOOR
    if not settled.all():
        searched, at = _x_state_search(v)
        cond, theta = np.where(settled, cond, searched), np.where(settled, theta, at)
    classical = s_a - cond
    return DiscordResult(
        classical_corr=classical[()],
        discord=(qmi - classical)[()],
        qmi=qmi[()],
        theta=theta[()],
        phi=np.zeros_like(theta)[()],
    )


def _measured_conditional_entropy(
    rho: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Average post-measurement entropy of A for projective measurements
    on B along the Bloch directions (theta, phi), for any two-mode state,
    vectorized over the direction arrays: for each outcome, of weight p
    and unnormalized conditional state w, p S(w / p) = S(w) + p log2 p,
    with S(w) from a dense eigensolve."""
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
        cond += _entropy_bits(w) - _entropy_terms(np.einsum("naa->n", w).real)
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


def site_basis_state(v: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """The sectors of mode-basis sectors v taken to the local site basis,
    for each point of a stack of sectors and a basis stacked alike.

    The site operators are the mode operators reflected at theta/2, which
    turns only the singly occupied block: its Bloch vector (z, x, y) =
    ((rho11 - rho22)/2, Re rho12, Im rho12) goes to

        (x sin theta - z cos theta, x cos theta + z sin theta, -y),

    in full angles, and rho00, rho33 and the block's trace stay (the
    doubly occupied ket's determinant sign is invisible in an X state).
    """
    ct, st = np.asarray(basis.cos_theta), np.asarray(basis.sin_theta)
    half_t, z, x = 0.5 * (v[..., 1] + v[..., 2]), 0.5 * (v[..., 1] - v[..., 2]), v[..., 4]
    z_site = x * st - z * ct
    site = [v[..., 0], half_t + z_site, half_t - z_site, v[..., 3], x * ct + z * st, -v[..., 5]]
    return np.stack(site, axis=-1)
