"""Generator construction and steady-state solving."""
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermijunction import (
    Axis,
    BathParams,
    DegenerateNullSpaceError,
    SteadyStateError,
    SweepSpec,
    SystemParams,
    build_liouvillian,
    diagonalize,
    fermi_occupation,
    grand_canonical_state,
    run_sweep,
    solve_ness,
    steady_state,
)
from fermijunction.liouvillian import (
    _NUMBERS,
    _TRACE_ROW,
    DIM,
    Liouvillian,
    _failed,
    _failure,
    _finalize,
    _level_energies,
    _null_space_dimension,
    _x_state,
    generator_derivative,
    sector_vector,
    state_derivative,
)
from fermijunction.model import take


def hamiltonian(basis):
    """System Hamiltonian, diagonal in the mode occupation basis."""
    return _level_energies(basis)[..., None] * np.eye(DIM)


def number_operator():
    """Total particle number zeta1_dag zeta1 + zeta2_dag zeta2."""
    return np.diag(_NUMBERS)


def steady_state_svd(lv):
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
        raise _failure(lv.matrix, False, residual, min_eig)
    return rho


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


def random_state(rng):
    a = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_setup(rng):
    params = SystemParams(
        omega1=rng.uniform(0.5, 1.5),
        omega2=rng.uniform(0.5, 1.5),
        delta=rng.uniform(-0.2, 0.2),
        gamma1=rng.uniform(1e-4, 0.05),
        gamma2=rng.uniform(1e-4, 0.05),
    )
    baths = BathParams(
        t1=rng.uniform(0.05, 1.0),
        t2=rng.uniform(0.05, 1.0),
        mu1=rng.uniform(0.0, 2.0),
        mu2=rng.uniform(0.0, 2.0),
    )
    return params, baths


def test_mode_operators_fermionic_algebra():
    z1, z2, z1d, z2d = mode_operators()
    eye = np.eye(DIM)
    zero = np.zeros((DIM, DIM))
    np.testing.assert_allclose(z1 @ z1d + z1d @ z1, eye, atol=1e-14)
    np.testing.assert_allclose(z2 @ z2d + z2d @ z2, eye, atol=1e-14)
    np.testing.assert_allclose(z1 @ z2d + z2d @ z1, zero, atol=1e-14)
    np.testing.assert_allclose(z1 @ z2 + z2 @ z1, zero, atol=1e-14)
    np.testing.assert_allclose(z1 @ z1, zero, atol=1e-14)
    np.testing.assert_allclose(z2 @ z2, zero, atol=1e-14)


def test_mode_operators_parity_sign():
    # zeta2_dag acting on the mode-1-occupied state carries the string sign
    z1, z2, z1d, z2d = mode_operators()
    ket10 = np.zeros(DIM)
    ket10[1] = 1.0
    np.testing.assert_allclose(z2d @ ket10, [0.0, 0.0, 0.0, -1.0], atol=1e-15)
    ket00 = np.zeros(DIM)
    ket00[0] = 1.0
    np.testing.assert_allclose(z2d @ ket00, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    # number operator assembled from the modes matches the diagonal form
    np.testing.assert_allclose(z1d @ z1 + z2d @ z2, number_operator(), atol=1e-15)


def test_hamiltonian_counts_mode_energies():
    basis = diagonalize(SystemParams(omega1=1.1, omega2=0.9, delta=0.1))
    h = hamiltonian(basis)
    np.testing.assert_allclose(np.diag(h).imag, 0.0)
    assert h[3, 3] == pytest.approx(basis.omega_p1 + basis.omega_p2)
    assert np.allclose(h @ number_operator(), number_operator() @ h)


@pytest.mark.parametrize(
    "omega1, omega2, gamma1, gamma2", [(0.9, 1.2, 3e-3, 1e-3), (1.3, 1.0, 2e-3, 5e-3)]
)
def test_decoupled_sites_pin_the_gamma_convention(omega1, omega2, gamma1, gamma2):
    # delta = 0: a site's populations relax at Gamma_l = 2 gamma_l and the
    # coherence at (Gamma_1 + Gamma_2)/2, so gamma_l is the self-energy
    # -i gamma_l of site l; compared as a set, whichever mode a site is
    params = SystemParams(omega1=omega1, omega2=omega2, delta=0.0, gamma1=gamma1, gamma2=gamma2)
    baths = BathParams(t1=0.2, t2=0.7, mu1=1.0, mu2=0.5)
    lv = build_liouvillian(diagonalize(params), baths, params)
    rotation = 1j * abs(omega1 - omega2)
    expected = [0.0, -2 * gamma1, -2 * gamma2, -2 * (gamma1 + gamma2),
                -(gamma1 + gamma2) + rotation, -(gamma1 + gamma2) - rotation]
    distance = np.abs(np.linalg.eigvals(lv.matrix)[:, None] - np.array(expected))
    assert distance.min(axis=0).max() < 1e-15
    assert distance.min(axis=1).max() < 1e-15


def test_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(201)
    for _ in range(25):
        params, baths = random_setup(rng)
        lv = build_liouvillian(diagonalize(params), baths, params)
        rho = random_state(rng)
        drho = _x_state(lv.matrix @ sector_vector(rho))
        assert abs(np.trace(drho)) < 1e-14
        np.testing.assert_allclose(drho, drho.conj().T, atol=1e-14)


def test_gibbs_state_is_stationary_at_equilibrium():
    # exact at any coupling strength, not only weakly coupled
    rng = np.random.default_rng(203)
    for _ in range(20):
        t = rng.uniform(0.05, 1.0)
        mu = rng.uniform(0.0, 2.0)
        params = SystemParams(
            omega1=rng.uniform(0.5, 1.5),
            omega2=rng.uniform(0.5, 1.5),
            delta=rng.uniform(-0.3, 0.3),
            gamma1=rng.uniform(0.01, 0.3),
            gamma2=rng.uniform(0.01, 0.3),
        )
        baths = BathParams(t1=t, t2=t, mu1=mu, mu2=mu)
        basis = diagonalize(params)
        lv = build_liouvillian(basis, baths, params)
        gibbs = grand_canonical_state(basis, t, mu)
        assert np.linalg.norm(lv.matrix @ sector_vector(gibbs)) < 1e-13


def test_grand_canonical_state_matches_expm():
    from scipy.linalg import expm

    def direct(basis, t, mu):
        rho = expm(-(hamiltonian(basis) - mu * number_operator()) / t)
        return rho / np.trace(rho)

    basis = diagonalize(SystemParams(omega1=1.3, omega2=0.8, delta=0.07))
    np.testing.assert_allclose(
        grand_canonical_state(basis, 0.35, 0.6), direct(basis, 0.35, 0.6), atol=1e-14
    )
    # a stacked basis gives the state of each point
    stacked = diagonalize(SystemParams(delta=np.array([0.005, 0.01])))
    states = grand_canonical_state(stacked, 0.2, 0.5)
    assert states.shape == (2, DIM, DIM)
    for i, state in enumerate(states):
        np.testing.assert_allclose(state, direct(take(stacked, i), 0.2, 0.5), atol=1e-14)


def test_steady_state_matches_svd_oracle():
    rng = np.random.default_rng(204)
    for _ in range(20):
        params, baths = random_setup(rng)
        lv = build_liouvillian(diagonalize(params), baths, params)
        rho_a = steady_state(lv)[0]
        rho_b = steady_state_svd(lv)
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-10)


def test_steady_state_properties():
    rng = np.random.default_rng(205)
    for _ in range(20):
        params, baths = random_setup(rng)
        result = solve_ness(params, baths)
        rho = result.rho
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        assert result.residual < 1e-10


def test_null_space_is_one_dimensional():
    params = SystemParams()
    baths = BathParams(t1=0.2, t2=0.6, mu1=1.0, mu2=0.3)
    lv = build_liouvillian(diagonalize(params), baths, params)
    svals = np.linalg.svd(lv.matrix, compute_uv=False)
    assert np.sum(svals < 1e-10 * svals[0]) == 1


def test_uncoupled_generator_is_degenerate():
    params = SystemParams(gamma1=0.0, gamma2=0.0)
    baths = BathParams()
    lv = build_liouvillian(diagonalize(params), baths, params)
    with pytest.raises(DegenerateNullSpaceError) as err:
        steady_state(lv)
    assert err.value.dimension > 1
    with pytest.raises(DegenerateNullSpaceError):
        steady_state_svd(lv)


def test_zero_generator_is_fully_degenerate():
    # equal sites, no tunneling, no coupling: L = 0, every singular value
    # is 0 and the whole 6-dim sector is stationary
    fixed = dict(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.0, gamma2=0.0,
                 t1=0.2, t2=0.2, mu1=0.5, mu2=0.5)
    message = "stationary state is not unique: null space dimension 6"
    row = run_sweep(SweepSpec(fixed=fixed)).rows[0]
    assert row["flags"] == f"solver:DegenerateNullSpaceError:{message}"
    params = SystemParams(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.0, gamma2=0.0)
    lv = build_liouvillian(diagonalize(params), BathParams(), params)
    assert not lv.matrix.any()
    with pytest.raises(DegenerateNullSpaceError, match=message):
        steady_state_svd(lv)


def test_degenerate_generator_without_exact_zero_pivot():
    # dressed mode 1 has no coupling here, so the null space is
    # two-dimensional, but LU meets no exact zero pivot: the solve must
    # still refuse to pick an arbitrary null vector, alone and in a stack
    params = SystemParams(omega1=1.0, omega2=1.03, delta=0.005, gamma1=0.0, gamma2=0.002)
    baths = BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.5)
    lv = build_liouvillian(diagonalize(params), baths, params)
    with pytest.raises(DegenerateNullSpaceError) as err:
        steady_state(lv)
    assert err.value.dimension == 2
    stacked = SystemParams(**{**vars(params), "gamma1": np.array([0.0, 0.002])})
    result = solve_ness(stacked, baths)
    assert np.isnan(result.residual[0]) and np.isnan(result.rho[0]).all()
    assert result.residual[1] < 1e-10


@pytest.mark.parametrize(
    ("params", "baths"),
    [
        # the couplings grid: a zero coupling leaves the stationary state
        # not unique, both couplings positive solve
        (
            SystemParams(omega2=1.03, gamma1=np.array([0.0, 0.0, 0.002, 0.002]),
                         gamma2=np.array([0.0, 0.002, 0.0, 0.002])),
            BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.5),
        ),
        # cold, strongly biased baths: at the larger delta the Redfield
        # state loses positivity
        (
            SystemParams(delta=np.array([0.05, 0.0758]), gamma1=0.01159, gamma2=0.01729),
            BathParams(t1=0.02, t2=0.0129, mu1=0.0653, mu2=0.7232),
        ),
    ],
    ids=["couplings", "positivity"],
)
def test_stacked_solve_returns_the_error_each_point_raises_alone(params, baths):
    result = solve_ness(params, baths)
    assert result.errors.shape == result.residual.shape
    assert any(e is None for e in result.errors) and any(e is not None for e in result.errors)
    for i, error in enumerate(result.errors):
        point = take(params, i)
        if error is None:
            assert result.residual[i] < 1e-10
            solve_ness(point, baths)
            continue
        assert np.isnan(result.residual[i]) and np.isnan(result.rho[i]).all()
        with pytest.raises(SteadyStateError) as alone:
            solve_ness(point, baths)
        assert type(error) is type(alone.value) and str(error) == str(alone.value)


@pytest.mark.parametrize(
    ("limit", "message"),
    [("_COND_LIMIT", "steady-state linear solve is singular"),
     ("_RESIDUAL_TOL", "steady-state residual ")],
    ids=["singular", "residual"],
)
def test_forced_solve_failure_is_the_same_stacked_alone_and_swept(monkeypatch, limit, message):
    # no physical point reaches these two branches of the solver's error:
    # a zero limit forces every solve through them
    monkeypatch.setattr(f"fermijunction.liouvillian.{limit}", 0.0)
    fixed = dict(omega1=1.0, omega2=1.03, gamma1=0.001, gamma2=0.003,
                 t1=0.2, t2=0.5, mu1=1.0, mu2=0.5)
    axis = Axis("delta", 0.005, 0.02, 2)
    params = SystemParams(**{k: fixed[k] for k in ("omega1", "omega2", "gamma1", "gamma2")},
                          delta=axis.values())
    baths = BathParams(**{k: fixed[k] for k in ("t1", "t2", "mu1", "mu2")})
    errors = solve_ness(params, baths).errors
    rows = run_sweep(SweepSpec(fixed=fixed, axes=(axis,))).rows
    for i, (error, row) in enumerate(zip(errors, rows)):
        with pytest.raises(SteadyStateError) as alone:
            solve_ness(take(params, i), baths)
        assert type(error) is type(alone.value) is SteadyStateError
        assert str(error) == str(alone.value) and str(error).startswith(message)
        assert row["flags"] == f"solver:SteadyStateError:{error}"
        assert set(row) == {*fixed, "delta", "flags"}


def random_stack(rng, n):
    """n detuned junctions with unequal couplings between biased baths."""
    params = SystemParams(omega1=rng.uniform(0.9, 1.1, n), omega2=rng.uniform(0.9, 1.1, n),
                          delta=rng.uniform(0.005, 0.05, n), gamma1=rng.uniform(1e-4, 1e-3, n),
                          gamma2=rng.uniform(1e-4, 1e-3, n))
    baths = BathParams(t1=rng.uniform(0.1, 0.5, n), t2=rng.uniform(0.1, 0.5, n),
                       mu1=rng.uniform(0.0, 1.0, n), mu2=rng.uniform(0.0, 1.0, n))
    return params, baths


def test_stacked_solve_keeps_real_dissipators_and_no_generator():
    # the solver is real: per point the complex state (256 bytes), the
    # real inverse (288), the two real D_l (576) and the parameters with
    # their basis, 1248 bytes; a kept generator would add 288
    n = 1000
    params, baths = random_stack(np.random.default_rng(21), n)
    ness = solve_ness(params, baths)
    assert [f.name for f in fields(Liouvillian)] == ["matrix", "dissipators"]
    assert ness.dissipators.shape == (n, 2, 6, 6)
    basis = diagonalize(params)
    lv = build_liouvillian(basis, baths, params)
    for real in (lv.matrix, lv.dissipators, generator_derivative(basis, baths, params),
                 ness.dissipators, ness.inverse):
        assert real.dtype == np.float64
    buffers = {}

    def collect(obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            assert not isinstance(value, Liouvillian)
            if is_dataclass(value):
                collect(value)
            elif isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                buffers[id(value)] = value.nbytes

    collect(ness)
    assert sum(buffers.values()) / n <= 1300


def test_stacked_solve_is_bit_identical_to_each_point_alone():
    # every layer of a solve works point by point, so stacking may not
    # change a single bit of the state, the residual, the kept inverse or
    # the derivative taken with it
    n = 300
    params, baths = random_stack(np.random.default_rng(22), n)
    ness = solve_ness(params, baths)
    assert all(error is None for error in ness.errors)
    d_rho = state_derivative(ness)
    for i in range(n):
        alone = solve_ness(take(params, i), take(baths, i))
        for stacked, single in ((ness.rho[i], alone.rho), (ness.residual[i], alone.residual),
                                (ness.inverse[i], alone.inverse),
                                (d_rho[i], state_derivative(alone))):
            assert np.asarray(stacked).tobytes() == np.asarray(single).tobytes(), i


def test_decoupled_sites_thermalize_to_own_reservoirs():
    # delta = 0 with distinct site energies: each site equilibrates with
    # its own bath, populations factorize over the two occupations
    params = SystemParams(omega1=1.2, omega2=0.9, delta=0.0)
    baths = BathParams(t1=0.15, t2=0.4, mu1=1.0, mu2=0.2)
    result = solve_ness(params, baths)
    n1 = fermi_occupation(1.2, 0.15, 1.0)
    n2 = fermi_occupation(0.9, 0.4, 0.2)
    # mode 1 is the higher site (site 1), mode 2 the lower (site 2)
    expected = np.diag(
        [(1 - n1) * (1 - n2), n1 * (1 - n2), n2 * (1 - n1), n1 * n2]
    )
    np.testing.assert_allclose(result.rho, expected, atol=1e-13)


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
    """(matrix, bath1, bath2) assembled term by term from the mode operators."""
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


# vec index 4 j + i of entry (i, j) for the charge-neutral entries
# (rho00, rho11, rho22, rho33, rho12, rho21), and of the other ten entries
_SECTOR = [DIM * j + i for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1))]
_COMPLEMENT = np.setdiff1d(np.arange(DIM * DIM), _SECTOR)
# T maps those entries to the real sector (..., Re rho12, Im rho12)
_TO_REAL = np.eye(len(_SECTOR), dtype=complex)
_TO_REAL[4:, 4:] = [[0.5, 0.5], [-0.5j, 0.5j]]
_FROM_REAL = np.linalg.inv(_TO_REAL)

_energy = st.floats(0.5, 1.5)
_rate = st.sampled_from([0.0]) | st.floats(1e-4, 0.05)


@st.composite
def generator_points(draw):
    omega1 = draw(_energy)
    params = SystemParams(
        omega1=omega1,
        omega2=draw(st.just(omega1) | _energy),
        delta=draw(st.sampled_from([0.0]) | st.floats(-0.2, 0.2)),
        gamma1=draw(_rate),
        gamma2=draw(_rate),
    )
    baths = BathParams(
        t1=draw(st.floats(0.05, 1.0)),
        t2=draw(st.floats(0.05, 1.0)),
        mu1=draw(st.floats(0.0, 2.0)),
        mu2=draw(st.floats(0.0, 2.0)),
    )
    return params, baths


@settings(max_examples=80, deadline=None)
@given(generator_points())
@example(
    (
        SystemParams(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.003, gamma2=0.0),
        BathParams(t1=0.1, t2=0.7, mu1=1.2, mu2=0.3),
    )
)
def test_generator_matches_kron_reference(point):
    params, baths = point
    lv = build_liouvillian(diagonalize(params), baths, params)
    ref_matrix, *ref_baths = kron_reference_generator(params, baths)
    tol = 1e-14 * np.abs(ref_matrix).max()
    for got, ref in zip((lv.matrix, *lv.dissipators), (ref_matrix, *ref_baths)):
        # particle number is a weak symmetry: the sector is closed both ways
        assert not ref[np.ix_(_SECTOR, _COMPLEMENT)].any()
        assert not ref[np.ix_(_COMPLEMENT, _SECTOR)].any()
        # B[rho^dag] = B[rho]^dag: the map is real on the real sector
        real = _TO_REAL @ ref[np.ix_(_SECTOR, _SECTOR)] @ _FROM_REAL
        assert np.abs(real.imag).max() <= tol
        assert np.abs(got - real.real).max() <= tol
    for bath in lv.dissipators:
        # trace preserving
        assert np.abs(_TRACE_ROW @ bath).max() <= tol


@st.composite
def derivative_points(draw, tuned=False):
    """Detuned junctions, or tuned ones (omega1 == omega2) with |delta| >=
    1e-3, away from delta = 0, where the mode frame flips (theta jumps
    from -pi/2 to pi/2) and only a one-sided difference applies, with
    unequal couplings inside the weak-coupling window gamma_l <= 0.1 s
    (s = omega'_1 - omega'_2) between biased baths."""
    omega1 = draw(st.floats(0.8, 1.2))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if tuned:
        omega2, delta = omega1, sign * draw(st.floats(1e-3, 0.1))
    else:
        omega2 = omega1 + sign * draw(st.floats(0.005, 0.1))
        delta = draw(st.sampled_from([0.0]) | st.floats(-0.1, 0.1))
    split = np.hypot(omega1 - omega2, 2.0 * delta)
    gammas = draw(st.lists(st.floats(1e-3, 0.1), min_size=2, max_size=2, unique=True))
    params = SystemParams(
        omega1=omega1,
        omega2=omega2,
        delta=delta,
        gamma1=gammas[0] * split,
        gamma2=gammas[1] * split,
    )
    t1, mu1 = draw(st.floats(0.1, 0.5)), draw(st.floats(0.1, 1.5))
    baths = BathParams(
        t1=t1,
        t2=t1 + draw(st.floats(0.05, 0.7)),
        mu1=mu1,
        mu2=mu1 - draw(st.floats(0.1, 1.0)),
    )
    return params, baths


def _at_deltas(params, offsets):
    """The same junction at delta + each offset, as one stack."""
    return replace(params, delta=params.delta + np.asarray(offsets))


@settings(max_examples=80, deadline=None)
@given(derivative_points() | derivative_points(tuned=True))
def test_generator_derivative_matches_central_difference(point):
    # d L / d delta against a central difference of build_liouvillian with
    # h = 1e-4 s.  L varies with delta on the scale s, so its derivatives
    # are measured in units of max|L| / s: in those units the truncation
    # error is ~(h/s)^2 = 1e-8 and the roundoff ~1e-16 s/h = 1e-12 (over
    # 3000 draws the gap was at most 1.5e-8).
    params, baths = point
    basis = diagonalize(params)
    exact = generator_derivative(basis, baths, params)
    split = basis.omega_p1 - basis.omega_p2
    h = 1e-4 * split
    stack = _at_deltas(params, [-h, h])
    lo, hi = build_liouvillian(diagonalize(stack), baths, stack).matrix
    scale = np.abs(build_liouvillian(basis, baths, params).matrix).max() / split
    assert np.abs((hi - lo) / (2.0 * h) - exact).max() <= 1e-7 * scale


@settings(max_examples=80, deadline=None)
@given(derivative_points())
def test_state_derivative_matches_richardson_difference(point):
    # d rho / d delta against Richardson's (4 D(h/2) - D(h)) / 3 of central
    # differences D of solve_ness, with h = 1e-3 (omega'_1 - omega'_2).
    # Over 3000 draws the gap was at most 5.1e-8 of max|d rho| (99% below
    # 1.1e-9), largest on cold states with a small derivative, where the
    # roundoff of the difference dominates.
    params, baths = point
    exact = state_derivative(solve_ness(params, baths))
    h = 1e-3 * np.hypot(params.omega1 - params.omega2, 2.0 * params.delta)
    lo, hi, lo_half, hi_half = solve_ness(_at_deltas(params, [-h, h, -h / 2, h / 2]), baths).rho
    richardson = (4.0 * (hi_half - lo_half) / h - (hi - lo) / (2.0 * h)) / 3.0
    assert np.abs(richardson - exact).max() <= 1e-6 * np.abs(exact).max()
