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
    transport_report,
)
from fermijunction.liouvillian import (
    _NUMBERS,
    DIM,
    Liouvillian,
    NessResult,
    _angular_weights,
    _drift,
    _level_energies,
    _n_rates,
    _solve,
    _sources,
    generator_derivative,
    state_derivative,
)
from fermijunction.model import take
from fermijunction.observables import _OFF_X, x_state
from kron_reference import (
    COMPLEMENT,
    CORRELATIONS,
    NON_GAUSSIAN,
    SECTOR,
    affine_matrix,
    affine_projection,
    dense_generator,
    kron_reference_generator,
    mode_operators,
    sector_map,
    unvec,
    vec,
)


def hamiltonian(basis):
    """System Hamiltonian, diagonal in the mode occupation basis."""
    return _level_energies(basis)[..., None] * np.eye(DIM)


def number_operator():
    """Total particle number zeta1_dag zeta1 + zeta2_dag zeta2."""
    return np.diag(_NUMBERS)


def reference_sector(params, baths):
    """The kron reference's total generator on the real sector v."""
    return sector_map(kron_reference_generator(params, baths)[0]).real


def _null_space_dimension(svals):
    """Singular values at or below 1e-10 of the largest (<=, so that an
    all-zero matrix has every dimension null)."""
    return int(np.sum(svals <= 1e-10 * svals[0]))


def steady_state_svd(params, baths):
    """Stationary sector v of the kron reference via its SVD null vector;
    shares no code with the solve, used as the cross-check oracle."""
    _, svals, vh = np.linalg.svd(reference_sector(params, baths))
    dim = _null_space_dimension(svals)
    if dim > 1:
        raise DegenerateNullSpaceError(dim)
    v = vh[-1]
    return v / (CORRELATIONS[4] @ v)


def random_state(rng):
    """A random density matrix, with the entries outside its charge-neutral
    sector dropped: the generator never couples them to the sector."""
    a = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    rho = a @ a.conj().T
    return np.where(_OFF_X, 0.0, rho / np.trace(rho))


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
    # -i gamma_l of site l; compared as a set, whichever mode a site is.
    # The dense sector adds the trace (0) and rho33 at fixed correlations,
    # which decays at 2 (gamma1 + gamma2)
    params = SystemParams(omega1=omega1, omega2=omega2, delta=0.0, gamma1=gamma1, gamma2=gamma2)
    baths = BathParams(t1=0.2, t2=0.7, mu1=1.0, mu2=0.5)
    lv = build_liouvillian(params, baths)
    rotation = 1j * abs(omega1 - omega2)
    gaussian = [-2 * gamma1, -2 * gamma2,
                -(gamma1 + gamma2) + rotation, -(gamma1 + gamma2) - rotation]
    for matrix, expected in ((dense_generator(lv)[0][:, :-1], gaussian),
                             (reference_sector(params, baths),
                              [0.0, -2 * (gamma1 + gamma2), *gaussian])):
        distance = np.abs(np.linalg.eigvals(matrix)[:, None] - np.array(expected))
        assert distance.min(axis=0).max() < 1e-15
        assert distance.min(axis=1).max() < 1e-15


def test_generator_preserves_trace():
    # on the kron reference, total and bath by bath (Hermiticity is
    # test_generator_matches_kron_reference's); the solve's states have
    # unit trace by Wick's theorem
    rng = np.random.default_rng(201)
    for _ in range(25):
        params, baths = random_setup(rng)
        rho = random_state(rng)
        for ref in kron_reference_generator(params, baths):
            assert abs(np.trace(unvec(ref @ vec(rho)))) < 1e-14
        v = steady_state(build_liouvillian(params, baths)).v
        assert abs(v[:DIM].sum() - 1.0) < 1e-15


def test_gibbs_state_is_stationary_at_equilibrium():
    # exact at any coupling strength, not only weakly coupled: the Fermi
    # occupations of the modes solve M x + b = 0, and the Gibbs state is
    # stationary under the kron reference
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
        lv = build_liouvillian(params, baths)
        occupations = [fermi_occupation(w, t, mu) for w in (lv.basis.omega_p1, lv.basis.omega_p2)]
        assert np.linalg.norm(dense_generator(lv)[0] @ [*occupations, 0.0, 0.0, 1.0]) < 1e-13
        gibbs = grand_canonical_state(params, t, mu)
        assert np.linalg.norm(reference_sector(params, baths) @ gibbs) < 1e-13


def test_grand_canonical_state_matches_expm():
    from scipy.linalg import expm

    def direct(basis, t, mu):
        rho = expm(-(hamiltonian(basis) - mu * number_operator()) / t)
        return rho / np.trace(rho)

    params = SystemParams(omega1=1.3, omega2=0.8, delta=0.07)
    np.testing.assert_allclose(x_state(grand_canonical_state(params, 0.35, 0.6)),
                               direct(diagonalize(params), 0.35, 0.6), atol=1e-14)
    # a stack of junctions gives the sector of each point
    stacked = SystemParams(delta=np.array([0.005, 0.01]))
    states = grand_canonical_state(stacked, 0.2, 0.5)
    assert states.shape == (2, 6)
    for i, state in enumerate(states):
        np.testing.assert_allclose(x_state(state), direct(diagonalize(take(stacked, i)), 0.2, 0.5),
                                   atol=1e-14)


def test_steady_state_matches_svd_oracle():
    rng = np.random.default_rng(204)
    for _ in range(20):
        params, baths = random_setup(rng)
        lv = build_liouvillian(params, baths)
        np.testing.assert_allclose(steady_state(lv).v, steady_state_svd(params, baths),
                                   atol=1e-10)


def test_steady_state_properties():
    rng = np.random.default_rng(205)
    for _ in range(20):
        params, baths = random_setup(rng)
        result = solve_ness(params, baths)
        rho = result.rho
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        assert result.residual < 1e-10


def test_null_space_is_one_dimensional():
    # the dense sector holds exactly one stationary state; M, which
    # leaves out the trace, is regular
    params = SystemParams()
    baths = BathParams(t1=0.2, t2=0.6, mu1=1.0, mu2=0.3)
    svals = np.linalg.svd(reference_sector(params, baths), compute_uv=False)
    assert np.sum(svals < 1e-10 * svals[0]) == 1
    lv = build_liouvillian(params, baths)
    svals = np.linalg.svd(dense_generator(lv)[0][:, :-1], compute_uv=False)
    assert np.sum(svals < 1e-10 * svals[0]) == 0


def test_uncoupled_generator_is_degenerate():
    # only the rotation of rho12 is left: neither occupation is fixed
    params = SystemParams(gamma1=0.0, gamma2=0.0)
    baths = BathParams()
    lv = build_liouvillian(params, baths)
    with pytest.raises(DegenerateNullSpaceError) as err:
        steady_state(lv)
    assert err.value.dimension == 2
    with pytest.raises(DegenerateNullSpaceError):
        steady_state_svd(params, baths)


def test_zero_generator_is_fully_degenerate():
    # equal sites, no tunneling, no coupling: M = 0 and b = 0, every
    # singular value is 0 and every correlation matrix is stationary (on
    # the dense sector, all 6 dimensions)
    fixed = dict(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.0, gamma2=0.0,
                 t1=0.2, t2=0.2, mu1=0.5, mu2=0.5)
    message = "stationary state is not unique: null space dimension 4"
    flags = run_sweep(SweepSpec(fixed=fixed)).table["flags"]
    assert flags == [f"solver:DegenerateNullSpaceError:{message}"]
    params = SystemParams(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.0, gamma2=0.0)
    lv = build_liouvillian(params, BathParams())
    assert not dense_generator(lv)[0].any()
    with pytest.raises(DegenerateNullSpaceError, match=message):
        steady_state(lv)
    with pytest.raises(DegenerateNullSpaceError, match="null space dimension 6"):
        steady_state_svd(params, BathParams())


def test_tiny_coupling_is_not_degenerate():
    # gamma1 = 1e-18 leaves cond(M) ~ 1e16, yet the stationary state is
    # unique: n1 = B1 / W1 is a ratio of positive sums (B1 = sum_l w1l o1l)
    # at any W1 > 0, alone and in a stack; only gamma1 = 0 is degenerate
    params = SystemParams(omega1=1.0, omega2=1.03, delta=0.005, gamma1=1e-18, gamma2=0.002)
    baths = BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.5)
    lv = build_liouvillian(params, baths)
    solved = steady_state(lv)
    x, residual = solved.x, solved.residual
    np.testing.assert_allclose(x, [0.21305, 0.37451, 9.7919e-5, -1.5482e-3], rtol=1e-4)
    w1 = lv.weights[:, 0]
    assert x[0] == pytest.approx((w1 * lv.occupations[:, 0]).sum() / w1.sum(), rel=1e-15)
    assert residual < 1e-10
    stacked = SystemParams(**{**vars(params), "gamma1": np.array([1e-18, 0.0, 0.002])})
    result = solve_ness(stacked, baths)
    assert [type(e).__name__ for e in result.errors] == [
        "NoneType", "DegenerateNullSpaceError", "NoneType"]
    assert result.errors[1].dimension == 1
    assert result.x[0].tobytes() == x.tobytes()
    assert np.isnan(result.residual[1]) and np.isnan(result.v[1]).all()
    assert (result.residual[[0, 2]] < 1e-10).all()


@pytest.mark.parametrize("omega2", [1.0, 1.03], ids=["tuned", "detuned"])
@pytest.mark.parametrize("gamma2", [0.0, 0.002])
@pytest.mark.parametrize("gamma1", [0.0, 0.002])
def test_degeneracy_from_zero_pattern_matches_svd_nullity(gamma1, gamma2, omega2):
    # [W1 = 0] + [W2 = 0] + 2 [W = 0 and s = 0] is the nullity of M, here
    # counted by its singular values; delta = 0 keeps s = 0 when tuned
    params = SystemParams(omega1=1.0, omega2=omega2, delta=0.0, gamma1=gamma1, gamma2=gamma2)
    baths = BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.5)
    lv = build_liouvillian(params, baths)
    nullity = _null_space_dimension(np.linalg.svd(dense_generator(lv)[0][:, :-1],
                                                  compute_uv=False))
    if nullity == 0:
        assert steady_state(lv).residual < 1e-10
        return
    with pytest.raises(DegenerateNullSpaceError) as err:
        steady_state(lv)
    assert err.value.dimension == nullity


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
        assert np.isnan(result.residual[i]) and np.isnan(result.v[i]).all()
        with pytest.raises(SteadyStateError) as alone:
            solve_ness(point, baths)
        assert type(error) is type(alone.value) and str(error) == str(alone.value)


@pytest.mark.parametrize(
    ("limit", "message"),
    [("_RESIDUAL_TOL", "steady-state residual ")],
    ids=["residual"],
)
def test_forced_solve_failure_is_the_same_stacked_alone_and_swept(monkeypatch, limit, message):
    # no physical point reaches this branch of the solver's error: a zero
    # limit forces every solve through it
    monkeypatch.setattr(f"fermijunction.liouvillian.{limit}", 0.0)
    fixed = dict(omega1=1.0, omega2=1.03, gamma1=0.001, gamma2=0.003,
                 t1=0.2, t2=0.5, mu1=1.0, mu2=0.5)
    axis = Axis("delta", 0.005, 0.02, 2)
    params = SystemParams(**{k: fixed[k] for k in ("omega1", "omega2", "gamma1", "gamma2")},
                          delta=axis.values())
    baths = BathParams(**{k: fixed[k] for k in ("t1", "t2", "mu1", "mu2")})
    errors = solve_ness(params, baths).errors
    table = run_sweep(SweepSpec(fixed=fixed, axes=(axis,))).table
    for i, error in enumerate(errors):
        with pytest.raises(SteadyStateError) as alone:
            solve_ness(take(params, i), baths)
        assert type(error) is type(alone.value) is SteadyStateError
        assert str(error) == str(alone.value) and str(error).startswith(message)
        assert table["flags"][i] == f"solver:SteadyStateError:{error}"
        assert {k for k, column in table.items() if column[i] is not None} == {
            *fixed, "delta", "flags"}


def random_stack(rng, n):
    """n detuned junctions with unequal couplings between biased baths."""
    params = SystemParams(omega1=rng.uniform(0.9, 1.1, n), omega2=rng.uniform(0.9, 1.1, n),
                          delta=rng.uniform(0.005, 0.05, n), gamma1=rng.uniform(1e-4, 1e-3, n),
                          gamma2=rng.uniform(1e-4, 1e-3, n))
    baths = BathParams(t1=rng.uniform(0.1, 0.5, n), t2=rng.uniform(0.1, 0.5, n),
                       mu1=rng.uniform(0.0, 1.0, n), mu2=rng.uniform(0.0, 1.0, n))
    return params, baths


def test_stacked_solve_keeps_real_dissipators_and_no_generator():
    # the solver is real: per point the state's sector (48 bytes), its
    # correlations (32), the angular weights (64), Fermi occupations (32)
    # and each bath's source (64) the generator is linear in, the bath
    # sums (32) and rotation (8) its solve shares with the delta-tangent,
    # and the parameters with their basis, 408 bytes; a kept generator
    # would add 160 (the inverse of M the LU solve kept took 128, the
    # n-rows of the two baths' pieces, kept before the bath terms, 160 and
    # the 6x6 solve 1040)
    n = 1000
    params, baths = random_stack(np.random.default_rng(21), n)
    ness = solve_ness(params, baths)
    assert [f.name for f in fields(Liouvillian)] == [
        "weights", "occupations", "sources", "sums", "split", "basis", "params", "baths"]
    assert ness.weights.shape == (n, 2, 4) and ness.occupations.shape == (n, 2, 2)
    lv = build_liouvillian(params, baths)
    for real in (lv.weights, lv.occupations, lv.sources, lv.sums, lv.split,
                 *generator_derivative(ness), ness.v, ness.x, ness.weights, ness.occupations):
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
    assert sum(buffers.values()) / n <= 408


def test_steady_state_returns_the_solved_generator():
    # the solved state is the generator it solved plus v, x, the residual
    # and the errors: it shares each array the build made, and passed back
    # in it solves again to the same bits, a failed point's NaN and error
    # included, stacked and alone
    params, baths = random_stack(np.random.default_rng(22), 50)
    params = replace(params, gamma1=np.where(np.arange(50) == 3, 0.0, params.gamma1))
    lv = build_liouvillian(params, baths)
    ness = steady_state(lv)
    assert type(ness) is NessResult
    names = [f.name for f in fields(Liouvillian)]
    assert [f.name for f in fields(NessResult)] == [*names, "v", "x", "residual", "errors"]
    for name in names:
        assert getattr(ness, name) is getattr(lv, name)
    again = steady_state(ness)
    for name in ("v", "x", "residual"):
        assert getattr(again, name).tobytes() == getattr(ness, name).tobytes()
    assert [None if e is None else str(e) for e in again.errors] == [
        None if e is None else str(e) for e in ness.errors]
    assert type(again.errors[3]) is DegenerateNullSpaceError and np.isnan(again.v[3]).all()
    alone = solve_ness(take(params, 0), take(baths, 0))
    again = steady_state(alone)
    assert type(again.residual) is float and again.residual == alone.residual
    assert again.x.tobytes() == alone.x.tobytes() == ness.x[0].tobytes()

    # the build keeps the basis diagonalize gives for its parameters, bit
    # for bit, and solves to solve_ness's bits, stacked and alone
    def bits(record, names):
        return [np.asarray(getattr(record, name)).tobytes() for name in names]

    for p, b in ((params, baths), (take(params, 0), take(baths, 0))):
        lv = build_liouvillian(p, b)
        assert lv.params is p and lv.baths is b
        basis_names = [f.name for f in fields(lv.basis)]
        assert bits(lv.basis, basis_names) == bits(diagonalize(p), basis_names)
        solved, direct = steady_state(lv), solve_ness(p, b)
        assert bits(solved, ("v", "x", "residual")) == bits(direct, ("v", "x", "residual"))
        assert [str(e) for e in np.ravel(solved.errors)] == [
            str(e) for e in np.ravel(direct.errors)]


def test_stacked_solve_is_bit_identical_to_each_point_alone():
    # every layer of a solve works point by point, so stacking may not
    # change a single bit of the state, its correlations, the residual
    # or their derivative
    n = 300
    params, baths = random_stack(np.random.default_rng(22), n)
    ness = solve_ness(params, baths)
    assert all(error is None for error in ness.errors)
    d_x = state_derivative(ness)
    for i in range(n):
        alone = solve_ness(take(params, i), take(baths, i))
        for stacked, single in ((ness.v[i], alone.v), (ness.x[i], alone.x),
                                (ness.residual[i], alone.residual),
                                (d_x[i], state_derivative(alone))):
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
    # the dense reference projected onto (n1, n2, Re rho12, Im rho12, 1)
    # is [M | b], bath by bath and in total
    params, baths = point
    lv = build_liouvillian(params, baths)
    ref_matrix, *ref_baths = kron_reference_generator(params, baths)
    tol = 1e-14 * np.abs(ref_matrix).max()
    matrix, pieces = dense_generator(lv)
    for got, ref in zip((matrix, *pieces), (ref_matrix, *ref_baths)):
        # particle number is a weak symmetry: the sector is closed both ways
        assert not ref[np.ix_(SECTOR, COMPLEMENT)].any()
        assert not ref[np.ix_(COMPLEMENT, SECTOR)].any()
        # B[rho^dag] = B[rho]^dag: the map is real on the real sector
        sector = sector_map(ref)
        assert np.abs(sector.imag).max() <= tol
        # trace preserving, and the correlations' rates close on (x, 1):
        # they do not see rho33 at fixed correlations
        assert np.abs(CORRELATIONS[4] @ sector.real).max() <= tol
        assert np.abs(CORRELATIONS[:4] @ sector.real @ NON_GAUSSIAN).max() <= tol
        assert np.abs(got - affine_projection(sector.real)).max() <= tol


def test_solved_state_and_currents_match_kron_reference():
    # Wick's v of the solved x is stationary under the dense reference,
    # and each bath's currents are Tr(D_l[rho] N) and Tr(D_l[rho] H) (over
    # 300 draws the gaps were at most 3.3e-17 and 2.0e-17)
    rng = np.random.default_rng(206)
    for _ in range(40):
        params, baths = random_setup(rng)
        ness = solve_ness(params, baths)
        ref_matrix, *ref_baths = kron_reference_generator(params, baths)
        rho = ness.rho
        assert np.linalg.norm(ref_matrix @ vec(rho)) < 2e-16
        report = transport_report(ness)
        for (i, j), piece in zip(((report.i1, report.j1), (report.i2, report.j2)), ref_baths):
            flow = unvec(piece @ vec(rho))
            assert abs(np.trace(flow @ number_operator()) - i) < 1e-16
            assert abs(np.trace(flow @ hamiltonian(ness.basis)) - j) < 1e-16


def test_cold_equilibrium_populations_match_gibbs():
    # equal baths, detuned sites, unequal couplings, T 0.01-0.3 and mu
    # -1..3: populations above 1e-8 match the Gibbs state to 1e-11 p +
    # 1e-15 (over 4000 draws the gap was at most 2.5e-12 p for p >= 1e-4
    # and 4.8e-16 absolute below).  Those of a nearly filled state below
    # ~1e-12 are roundoff of rho00 = 1 - n1 - n2 + rho33, not resolved
    rng = np.random.default_rng(207)
    n = 2000
    params = SystemParams(omega1=rng.uniform(0.8, 1.2, n), omega2=rng.uniform(0.8, 1.2, n),
                          delta=rng.uniform(0.005, 0.1, n), gamma1=rng.uniform(1e-4, 5e-3, n),
                          gamma2=rng.uniform(1e-4, 5e-3, n))
    t, mu = rng.uniform(0.01, 0.3, n), rng.uniform(-1.0, 3.0, n)
    ness = solve_ness(params, BathParams(t1=t, t2=t, mu1=mu, mu2=mu))
    assert all(error is None for error in ness.errors)
    p, gibbs = ness.v[:, :DIM], grand_canonical_state(params, t, mu)[:, :DIM]
    resolved = gibbs >= 1e-8
    assert np.all(np.abs(p - gibbs)[resolved] <= 1e-11 * gibbs[resolved] + 1e-15)


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
    lv = build_liouvillian(params, baths)
    exact = affine_matrix(*generator_derivative(solve_ness(params, baths)))
    h = 1e-4 * lv.split
    stack = _at_deltas(params, [-h, h])
    lo, hi = dense_generator(build_liouvillian(stack, baths))[0]
    scale = np.abs(dense_generator(lv)[0]).max() / lv.split
    assert np.abs((hi - lo) / (2.0 * h) - exact).max() <= 1e-7 * scale


def _stack(points):
    """One stacked (params, baths) of a list of (params, baths) points."""
    return tuple(type(first)(**{f.name: np.array([getattr(p, f.name) for p in group])
                                for f in fields(first)})
                 for first, group in zip(points[0], zip(*points)))


@settings(max_examples=60, deadline=None)
@given(st.lists(derivative_points() | derivative_points(tuned=True), min_size=1, max_size=4))
def test_kept_sources_and_sums_are_the_re_formed_ones(points):
    # the solve keeps each bath's source and M's bath sums and rotation,
    # for the currents and the delta-tangent: on detuned and tuned
    # junctions with unequal couplings between biased baths, alone and
    # stacked, the currents, the tangent's source and the tangent equal
    # bit for bit the ones re-formed from the weights, occupations and
    # basis as before they were kept
    params, baths = _stack(points)
    ness = solve_ness(params, baths)
    w, occ, basis = ness.weights, ness.occupations, ness.basis
    sources = _sources(w, occ)
    assert ness.sources.tobytes() == sources.tobytes()
    report = transport_report(ness)
    for l, (i, j) in enumerate(((report.i1, report.j1), (report.i2, report.j2))):
        dn1, dn2 = _n_rates(w[..., l, :], sources[..., l, :], ness.x)
        assert i.tobytes() == (dn1 + dn2).tobytes()
        assert j.tobytes() == (basis.omega_p1 * dn1 + basis.omega_p2 * dn2).tobytes()
    # the tangent's source: the four baths' sources summed by .sum
    st_, d_theta = basis.sin_theta, basis.d_theta
    d_weights = _angular_weights(0.0, -st_ * d_theta, basis.cos_theta * d_theta, params)
    slope, d_occ = occ * (1.0 - occ), np.empty(occ.shape)
    for l, t in enumerate((baths.t1, baths.t2)):
        d_occ[..., l, 0] = slope[..., l, 0] * -st_ / t
        d_occ[..., l, 1] = slope[..., l, 1] * st_ / t
    four = _sources(np.concatenate([d_weights, w], axis=-2), np.concatenate([occ, d_occ], axis=-2))
    d_sums, d_source, d_split = generator_derivative(ness)
    assert d_source.tobytes() == four.sum(axis=-2).tobytes()
    sums, split = w[..., 0, :] + w[..., 1, :], basis.omega_p1 - basis.omega_p2
    for kept, re_formed in ((ness.sums, sums), (ness.split, split)):
        assert kept.tobytes() == re_formed.tobytes()
    tangent = _solve(sums, split, -_drift(d_sums, d_split, d_source, ness.x))
    assert state_derivative(ness).tobytes() == tangent.tobytes()


def _sums_drift(lv, x):
    """M x + b of a Liouvillian, from its weights' bath sums."""
    return _drift(lv.weights.sum(axis=-2), lv.split, lv.sources.sum(axis=-2), x)


@settings(max_examples=80, deadline=None)
@given(derivative_points(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_drift_matches_dense_generator_and_kron_reference(point, x):
    # the drift M x + b the solve, the currents and the tangent take from
    # the bath sums is [M | b] (x, 1) of the dense view, in total and bath
    # by bath on the n-rows, to roundoff of the terms; the dense view is
    # the kron reference projected onto the correlations; dM x + db is the
    # central difference of the drift at fixed x (h = 1e-4 s, truncation
    # ~1e-8 of max|M| / s per unit |(x, 1)|, as for the derivative of
    # the generator); and at equal baths the drift vanishes at the Fermi
    # occupations of the modes.  Over 3000 draws the drift and the n-rows
    # equalled the dense products bit for bit wherever no term was
    # subnormal, and the other gaps were at most 1.0e-17, 7.0e-9 and
    # 3.1e-17 of their scales
    params, baths = point
    x, ones = np.array(x), np.append(x, 1.0)
    lv = build_liouvillian(params, baths)
    basis = lv.basis
    matrix, pieces = dense_generator(lv)
    # a term below the normal range (at delta ~ 1e-308) rounds to a few
    # of the smallest subnormals instead
    tiny = 8 * np.finfo(float).smallest_subnormal
    terms = np.abs(matrix) @ np.abs(ones)
    assert np.all(np.abs(_sums_drift(lv, x) - matrix @ ones) <= 1e-15 * terms + tiny)
    flows = np.stack(_n_rates(lv.weights, _sources(lv.weights, lv.occupations), x), axis=-1)
    for flow, piece in zip(flows, pieces):
        bound = 1e-15 * np.abs(piece[:2]) @ np.abs(ones) + tiny
        assert np.all(np.abs(flow - piece[:2] @ ones) <= bound)
    ref_matrix, *ref_baths = kron_reference_generator(params, baths)
    tol = 1e-14 * np.abs(ref_matrix).max()
    for got, ref in zip((matrix, *pieces), (ref_matrix, *ref_baths)):
        assert np.abs(got - affine_projection(sector_map(ref).real)).max() <= tol
    split = basis.omega_p1 - basis.omega_p2
    h = 1e-4 * split
    stack = _at_deltas(params, [-h, h])
    lo, hi = _sums_drift(build_liouvillian(stack, baths), x)
    d_sums, d_source, d_split = generator_derivative(solve_ness(params, baths))
    tangent = _drift(d_sums, d_split, d_source, x)
    scale = np.abs(matrix).max() / split * np.abs(ones).sum()
    assert np.abs((hi - lo) / (2.0 * h) - tangent).max() <= 1e-7 * scale
    equal = BathParams(t1=baths.t1, t2=baths.t1, mu1=baths.mu1, mu2=baths.mu1)
    fermi = [fermi_occupation(w, baths.t1, baths.mu1) for w in (basis.omega_p1, basis.omega_p2)]
    lv = build_liouvillian(params, equal)
    at_rest = np.array([*fermi, 0.0, 0.0])
    scale = np.abs(dense_generator(lv)[0]).max()
    assert np.abs(_sums_drift(lv, at_rest)).max() <= 1e-15 * scale


@settings(max_examples=80, deadline=None)
@given(derivative_points())
def test_state_derivative_matches_richardson_difference(point):
    # dx / d delta against Richardson's (4 D(h/2) - D(h)) / 3 of central
    # differences D of the solved correlations x, with h = 1e-3
    # (omega'_1 - omega'_2).  Over 3000 draws the gap was at most 2.3e-10
    # of max|dx|.
    params, baths = point
    exact = state_derivative(solve_ness(params, baths))
    h = 1e-3 * np.hypot(params.omega1 - params.omega2, 2.0 * params.delta)
    lo, hi, lo_half, hi_half = solve_ness(_at_deltas(params, [-h, h, -h / 2, h / 2]), baths).x
    richardson = (4.0 * (hi_half - lo_half) / h - (hi - lo) / (2.0 * h)) / 3.0
    assert np.abs(richardson - exact).max() <= 1e-8 * np.abs(exact).max()


@settings(max_examples=80, deadline=None)
@given(derivative_points())
def test_closed_form_solve_matches_dense_solve(point):
    # x and its delta-derivative against a dense solve of M x = -b and of
    # M dx = -(dM x + db)
    params, baths = point
    lv = build_liouvillian(params, baths)
    ness = solve_ness(params, baths)
    matrix = dense_generator(lv)[0]
    m = matrix[:, :-1]
    x = np.linalg.solve(m, -matrix[:, -1])
    d_g = affine_matrix(*generator_derivative(ness))
    dx = np.linalg.solve(m, -(d_g[:, :-1] @ x + d_g[:, -1]))
    np.testing.assert_allclose(ness.x, x, rtol=1e-13, atol=1e-13 * np.abs(x).max())
    np.testing.assert_allclose(state_derivative(ness), dx, rtol=1e-13,
                               atol=1e-13 * np.abs(dx).max())
