"""The junction's generator assembled densely, term by term, from the
Jordan-Wigner mode operators with np.kron.  It shares no code with the
package's generator, which the tests check against it: projected onto
the correlations (n1, n2, Re rho12, Im rho12) and the trace, it must be
the package's affine system [M | b], bath by bath and in total.  The
package keeps that system as the scalars it is linear in;
``dense_generator`` lays them out as the matrices [M | b] and
[M_l | b_l], entry by entry from the four rows the ``liouvillian``
docstring gives."""
import numpy as np

from fermijunction import diagonalize, fermi_occupation

DIM = 4


def mode_operators():
    """Jordan-Wigner annihilation/creation matrices (zeta1, zeta2,
    zeta1_dag, zeta2_dag) in the order {|00>, |10>, |01>, |11>}:
    zeta1 = lower (x) I, zeta2 = Z (x) lower, so zeta2_dag |10> = -|11>."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    parity = np.diag([1.0, -1.0])
    # kron order is {|00>, |01>, |10>, |11>}: swap the middle two indices
    perm = np.array([0, 2, 1, 3])
    z1 = np.kron(lower, np.eye(2))[np.ix_(perm, perm)]
    z2 = np.kron(parity, lower)[np.ix_(perm, perm)]
    return z1, z2, z1.conj().T, z2.conj().T


def _kron_sup(a, b):
    """rho -> a rho b under column stacking."""
    return np.kron(b.T, a)


def _kron_bracket(terms):
    """sum coef (A rho B + h.c.), one np.kron per term."""
    out = np.zeros((DIM * DIM, DIM * DIM))
    for coef, a, b in terms:
        out += coef * _kron_sup(a, b)
        out += coef * _kron_sup(b.conj().T, a.conj().T)
    return out


def kron_reference_generator(params, baths):
    """(matrix, bath1, bath2) assembled term by term from the mode
    operators, acting on column-stacked 4x4 density matrices."""
    z1, z2, z1d, z2d = mode_operators()
    eye = np.eye(DIM)
    basis = diagonalize(params)
    h = np.diag([0.0, basis.omega_p1, basis.omega_p2, basis.omega_p1 + basis.omega_p2])
    unitary = 1j * (_kron_sup(eye, h) - _kron_sup(h, eye))

    def thermal(z, zd, n):
        return _kron_bracket(
            [(1 - n, zd @ z, eye), (n - 1, z, zd), (n, z @ zd, eye), (-n, zd, z)]
        )

    ct, s_t = basis.cos_theta, basis.sin_theta
    pieces = []
    for sign, t, mu in ((-1.0, baths.t1, baths.mu1), (1.0, baths.t2, baths.mu2)):
        n1 = fermi_occupation(basis.omega_p1, t, mu)
        n2 = fermi_occupation(basis.omega_p2, t, mu)
        thermalize = params.gamma1 * 0.5 * (1 + sign * ct) * thermal(z1, z1d, n1)
        thermalize += params.gamma2 * 0.5 * (1 - sign * ct) * thermal(z2, z2d, n2)
        line1 = _kron_bracket(
            [(1 - n1, z2d @ z1, eye), (n1 - 1, z1, z2d), (n1, z2 @ z1d, eye), (-n1, z1d, z2)]
        )
        line2 = _kron_bracket(
            [(1 - n2, z1d @ z2, eye), (n2 - 1, z1, z2d), (n2, z1 @ z2d, eye), (-n2, z1d, z2)]
        )
        cross = -sign * 0.5 * s_t * (params.gamma1 * line1 + params.gamma2 * line2)
        pieces.append(-(thermalize + cross))
    return unitary + pieces[0] + pieces[1], pieces[0], pieces[1]


def vec(rho):
    """Column stacking of a 4x4 matrix, the vector the reference acts on."""
    return rho.reshape(-1, order="F")


def unvec(r):
    return r.reshape(DIM, DIM, order="F")


# vec index 4 j + i of entry (i, j) for the charge-neutral entries
# (rho00, rho11, rho22, rho33, rho12, rho21), and of the other ten entries
SECTOR = [DIM * j + i for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1))]
COMPLEMENT = np.setdiff1d(np.arange(DIM * DIM), SECTOR)
# T maps those entries to the real sector v = (..., Re rho12, Im rho12)
_TO_REAL = np.eye(len(SECTOR), dtype=complex)
_TO_REAL[4:, 4:] = [[0.5, 0.5], [-0.5j, 0.5j]]
_FROM_REAL = np.linalg.inv(_TO_REAL)

# (n1, n2, Re rho12, Im rho12, trace) of a sector v: the rows P that
# project a sector map L onto [M | b] with P[:4] L = [M | b] P
CORRELATIONS = np.array([
    [0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 1.0, 0.0, 0.0],
])
# the sector direction P leaves out: rho33 at fixed correlations and trace
NON_GAUSSIAN = np.array([1.0, -1.0, -1.0, 1.0, 0.0, 0.0])


def sector_map(ref):
    """The reference restricted to the charge-neutral sector, as a
    complex map on v (real when the reference maps Hermitian to
    Hermitian)."""
    return _TO_REAL @ ref[np.ix_(SECTOR, SECTOR)] @ _FROM_REAL


def affine_projection(sector):
    """[M | b] of a real sector map L: P[:4] L P^+, which equals
    P[:4] L on every v when P[:4] L leaves NON_GAUSSIAN out."""
    return CORRELATIONS[:4] @ sector @ np.linalg.pinv(CORRELATIONS)


def affine_matrix(sums, source, split):
    """[M | b], (..., 4, 5), of the system with the weights' bath sums
    (W1, W2, S1, S2), the source b and the rotation s: the rows
    dn1/dt = -2 W1 n1 - 2 S2 X + b0, dn2/dt = -2 W2 n2 - 2 S1 X + b1,
    dX/dt = -S1 n1 - S2 n2 - W X + s Y + b2 and dY/dt = -W Y - s X + b3,
    W = W1 + W2."""
    sums, source, split = np.asarray(sums), np.asarray(source), np.asarray(split)
    w1, w2, s1, s2 = (sums[..., k] for k in range(4))
    g = np.zeros(np.broadcast_shapes(sums.shape[:-1], source.shape[:-1], split.shape) + (4, 5))
    g[..., 0, 0], g[..., 0, 2] = -2.0 * w1, -2.0 * s2
    g[..., 1, 1], g[..., 1, 2] = -2.0 * w2, -2.0 * s1
    g[..., 2, 0], g[..., 2, 1], g[..., 2, 3] = -s1, -s2, split
    g[..., 3, 2] = -split
    g[..., 2, 2] = g[..., 3, 3] = -(w1 + w2)
    g[..., 4] = source
    return g


def dense_generator(lv):
    """([M | b], [M_l | b_l]) of a ``Liouvillian``: the total, (..., 4,
    5), and each bath's share, (..., 2, 4, 5) with bath l on axis -3, its
    own weights with the source b_l = (2 w1 o1, 2 w2 o2, s1 o1 + s2 o2,
    0) of its occupations and no rotation."""
    w, o = lv.weights, lv.occupations
    b = np.zeros(w.shape[:-1] + (4,))
    b[..., 0], b[..., 1] = 2.0 * w[..., 0] * o[..., 0], 2.0 * w[..., 1] * o[..., 1]
    b[..., 2] = w[..., 2] * o[..., 0] + w[..., 3] * o[..., 1]
    return affine_matrix(w.sum(axis=-2), b.sum(axis=-2), lv.split), affine_matrix(w, b, 0.0)
