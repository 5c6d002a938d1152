"""Correlation measures: decomposition, concurrence, entropies, discord."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermijunction import (
    BathParams,
    SystemParams,
    coherence,
    concurrence,
    correlation_report,
    diagonalize,
    discord,
    discord_brute_force,
    linear_entropy,
    mutual_information,
    site_basis_state,
    solve_ness,
)
from fermijunction.observables import (
    _entropy_bits,
    _measured_conditional_entropy,
    _x_conditional_entropy,
    _x_entropies,
    _x_entropy,
    _x_state_entries,
    _x_state_search,
    reduced_states,
    spectral_decompose,
    x_form_deviation,
)


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# sigma_y x sigma_y in the mode basis {|00>, |10>, |01>, |11>}
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])].real


def concurrence_wootters(rho):
    """General spin-flip concurrence max(0, l1 - l2 - l3 - l4), the oracle
    for the X-state closed form."""
    tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    # abs() guards the sqrt against tiny negative roundoff eigenvalues
    lam = np.sqrt(np.abs(np.linalg.eigvals(rho @ tilde).real))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def random_x_state(rng):
    """Valid X state: random diagonal, coherence within the PSD bound."""
    diag = rng.dirichlet(np.ones(4))
    rho = np.diag(diag).astype(complex)
    bound = math.sqrt(diag[1] * diag[2])
    coh = rng.uniform(0.0, bound) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho[1, 2], rho[2, 1] = coh, np.conj(coh)
    return rho


# rho11 and rho44 may vanish; the coherence spans zero up to the PSD edge
# |rho23|^2 = rho22 rho33
_edge_weight = st.sampled_from([0.0, 1e-12]) | st.floats(1e-3, 1.0)
_coherence_fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def x_states(draw):
    w = np.array(
        [
            draw(_edge_weight),
            draw(st.floats(1e-3, 1.0)),
            draw(st.floats(1e-3, 1.0)),
            draw(_edge_weight),
        ]
    )
    diag = w / w.sum()
    rho = np.diag(diag).astype(complex)
    mag = draw(_coherence_fraction) * math.sqrt(diag[1] * diag[2])
    coh = mag * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    rho[1, 2], rho[2, 1] = coh, np.conj(coh)
    return rho


def inner_bell_mixture(p):
    """p |Psi+><Psi+| + (1-p)/4 identity, with |Psi+> = (|10>+|01>)/sqrt2."""
    rho = np.diag([(1 - p) / 4] * 4).astype(complex)
    rho[1, 1] += p / 2
    rho[2, 2] += p / 2
    rho[1, 2] = rho[2, 1] = p / 2
    return rho


def bell_diagonal_discord(p):
    """Closed-form correlations of the Bell mixture (correlation vector
    (p, p, -p)): classical part from the largest component, the rest is
    discord.  Independent of any optimizer."""
    lam = np.array([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
    lam = lam[lam > 0]
    qmi = 2.0 + float((lam * np.log2(lam)).sum())
    classical = 0.5 * (1 - p) * math.log2(1 - p) + 0.5 * (1 + p) * math.log2(1 + p)
    return qmi, classical, qmi - classical


def test_spectral_decompose_matches_eigvalsh():
    rng = np.random.default_rng(301)
    rhos = np.stack([random_x_state(rng) for _ in range(300)])
    p, t, b = spectral_decompose(rhos)
    # (t, b) rebuild the singly occupied block
    paulis = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
    block = 0.5 * t[:, None, None] * np.eye(2) + np.einsum("nk,kij->nij", b, paulis)
    np.testing.assert_allclose(block, rhos[:, 1:3, 1:3], atol=1e-15)
    assert (p[:, 1] >= p[:, 2]).all()
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    # the closed form agrees with the dense eigensolver
    np.testing.assert_allclose(np.sort(p, axis=-1), np.linalg.eigvalsh(rhos), atol=1e-12)


def test_spectral_decompose_rejects_non_x():
    rho = np.diag([0.25] * 4).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.1
    with pytest.raises(ValueError):
        spectral_decompose(rho)
    assert x_form_deviation(rho) == pytest.approx(0.1)


def test_concurrence_closed_form_matches_wootters():
    rng = np.random.default_rng(302)
    for _ in range(1000):
        rho = random_x_state(rng)
        assert concurrence(rho) == pytest.approx(
            concurrence_wootters(rho), abs=1e-10
        )


def test_concurrence_known_states():
    # maximally entangled inner block
    bell = inner_bell_mixture(1.0)
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    # separable mixtures
    assert concurrence(np.diag([0.25] * 4).astype(complex)) == 0.0
    assert concurrence(inner_bell_mixture(1 / 3)) == pytest.approx(0.0, abs=1e-12)
    # Bell mixture threshold: E = max(0, (3p-1)/2)
    assert concurrence(inner_bell_mixture(0.8)) == pytest.approx(0.7, abs=1e-12)
    assert concurrence_wootters(inner_bell_mixture(0.8)) == pytest.approx(
        0.7, abs=1e-10
    )


def test_linear_entropy_limits():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert linear_entropy(pure) == pytest.approx(0.0, abs=1e-15)
    assert linear_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(1.0)
    diag = np.array([0.4, 0.3, 0.2, 0.1])
    expected = (4 / 3) * (1 - np.sum(diag**2))
    assert linear_entropy(np.diag(diag).astype(complex)) == pytest.approx(expected)


def test_entropy_rejects_negative_eigenvalues():
    bad = np.diag([0.5, 0.5, 1e-6, -1e-6]).astype(complex)
    with pytest.raises(ValueError):
        _entropy_bits(bad)


def test_reduced_states_of_product_state():
    rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    rho_b = np.array([[0.6, 0.2], [0.2, 0.4]])
    perm = np.array([0, 2, 1, 3])
    rho = np.kron(rho_a, rho_b)[np.ix_(perm, perm)]
    got_a, got_b = reduced_states(rho)
    np.testing.assert_allclose(got_a, rho_a, atol=1e-14)
    np.testing.assert_allclose(got_b, rho_b, atol=1e-14)
    assert _entropy_bits(got_a) + _entropy_bits(got_b) - _entropy_bits(rho) == pytest.approx(
        0.0, abs=1e-12
    )
    # a product of diagonal states is an X state, in reach of the closed form
    x_product = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))[np.ix_(perm, perm)]
    assert mutual_information(x_product) == pytest.approx(0.0, abs=1e-15)


def test_mutual_information_bell_state():
    assert mutual_information(inner_bell_mixture(1.0)) == pytest.approx(2.0, abs=1e-9)


def test_discord_zero_for_classical_state():
    # diagonal in a product basis: all correlation is classical
    rho = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)
    d = discord(rho)
    assert abs(d.discord) < 1e-9
    assert d.classical_corr == pytest.approx(d.qmi, abs=1e-9)


def test_discord_matches_bell_diagonal_closed_form():
    for p in (0.3, 0.8):
        qmi, classical, quantum = bell_diagonal_discord(p)
        d = discord(inner_bell_mixture(p))
        assert d.qmi == pytest.approx(qmi, abs=1e-12)
        assert d.classical_corr == pytest.approx(classical, abs=1e-9)
        assert d.discord == pytest.approx(quantum, abs=1e-9)


def test_discord_brute_force_agrees_with_optimizer():
    rng = np.random.default_rng(303)
    for _ in range(5):
        rho = random_x_state(rng)
        opt = discord(rho)
        ref = discord_brute_force(rho, resolution=250)
        # the optimizer may only improve on the finite grid
        assert opt.classical_corr >= ref.classical_corr - 1e-6
        assert abs(opt.discord - ref.discord) < 1e-4


def test_discord_coherence_phase_invariance():
    rng = np.random.default_rng(304)
    rho = random_x_state(rng)
    base = discord(rho).discord
    for phase in (0.7, 2.9, -1.3):
        rotated = rho.copy()
        rotated[1, 2] = abs(rho[1, 2]) * np.exp(1j * phase)
        rotated[2, 1] = np.conj(rotated[1, 2])
        assert discord(rotated).discord == pytest.approx(base, abs=1e-8)


def test_discord_takes_any_batch_shape():
    rng = np.random.default_rng(308)
    stack = np.array([random_x_state(rng) for _ in range(6)])
    flat = discord(stack)
    grid = discord(stack.reshape(2, 3, 4, 4))
    assert np.shape(grid.discord) == (2, 3)
    assert np.abs(np.ravel(grid.classical_corr) - flat.classical_corr).max() <= 1e-15
    assert np.abs(np.ravel(grid.theta) - flat.theta).max() <= 1e-12


def test_discord_of_a_state_with_a_nearly_empty_outcome():
    # the steady state of a cold, biased junction (omega 0.7464/0.7468,
    # delta 0.0413, gamma 0.0028/0.0296, T 0.026/0.059, mu 1.75/1.93):
    # |11> holds all but 3e-9 and rho00 is -4.6e-17 by roundoff.  Finding
    # B empty has probability ~1e-9, so that outcome's state has relative
    # eigenvalue -9e-8 while its eigenvalue is roundoff: still a state
    rho = np.diag(
        [-4.615036389725302e-17, 5.047074435992752e-10, 2.056832360634686e-09, 0.9999999974384602]
    ).astype(complex)
    rho[1, 2] = 8.535613491743125e-11 - 2.1754585744350376e-10j
    rho[2, 1] = np.conj(rho[1, 2])
    assert np.linalg.eigvalsh(rho).min() > -1e-16
    d = discord(rho)
    sphere = discord_brute_force(rho, resolution=200)
    assert d.classical_corr >= sphere.classical_corr - 1e-12
    assert abs(d.discord - sphere.discord) < 1e-14


def test_discord_is_deterministic():
    rng = np.random.default_rng(305)
    rho = random_x_state(rng)
    assert discord(rho) == discord(rho)


@settings(max_examples=60, deadline=None)
@given(
    x_states(),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)
def test_x_state_conditional_entropy_depends_on_polar_angle_only(rho, theta, phi):
    ref, moved, mirrored = _measured_conditional_entropy(
        rho, np.array([theta, theta, math.pi - theta]), np.array([0.0, phi, phi])
    )
    assert abs(moved - ref) < 1e-12
    assert abs(mirrored - ref) < 1e-12
    diag = tuple(rho.diagonal().real)
    closed = _x_conditional_entropy(theta, diag, abs(rho[1, 2]) ** 2)
    assert abs(closed - ref) < 1e-12


# edges of the slope formulas: a degenerate singly occupied block (R = 0),
# no conditional splitting at any angle, a conditional splitting that closes
# at pi/2, a conditional state of A that is pure at every angle, and an
# outcome that is empty at theta = 0 (B pure)
_SLOPE_EDGE_STATES = [
    np.diag(d).astype(complex)
    for d in (
        [0.1, 0.3, 0.3, 0.3],
        [0.25, 0.25, 0.25, 0.25],
        [0.1, 0.3, 0.4, 0.2],
        [0.3, 0.0, 0.7, 0.0],
        [0.4, 0.6, 0.0, 0.0],
    )
]


@settings(max_examples=80, deadline=None)
@given(
    x_states() | st.sampled_from(_SLOPE_EDGE_STATES),
    st.floats(0.05, math.pi / 2) | st.just(math.pi / 2),
)
def test_x_entropy_slopes_match_central_differences(rho, theta):
    diag = tuple(rho.diagonal().real)
    coh2 = abs(rho[1, 2]) ** 2
    value, slope, curv = _x_entropy(theta, _x_state_entries(diag, coh2), slopes=True)
    assert value == _x_conditional_entropy(theta, diag, coh2)

    def at(t):
        return float(_x_conditional_entropy(t, diag, coh2))

    h = 1e-5
    assert abs(slope - (at(theta + h) - at(theta - h)) / (2 * h)) <= 1e-9 + 1e-6 * abs(slope)
    h = 1e-4
    central = (at(theta + h) - 2.0 * value + at(theta - h)) / (h * h)
    assert abs(curv - central) <= 1e-6 + 1e-5 * abs(curv)


def assert_entropies_match_dense_route(stack, joint_tol):
    s_a, s_b, s_ab = _x_entropies(stack)
    qmi = mutual_information(stack)
    assert np.abs(discord(stack).qmi - qmi).max() == 0.0
    for rho, a, b, ab, i in zip(stack, s_a, s_b, s_ab, qmi):
        rho_a, rho_b = reduced_states(rho)
        dense = [_entropy_bits(rho_a), _entropy_bits(rho_b), _entropy_bits(rho)]
        assert abs(a - dense[0]) <= 1e-14 and abs(b - dense[1]) <= 1e-14
        assert abs(ab - dense[2]) <= joint_tol
        assert abs(i - (dense[0] + dense[1] - dense[2])) <= joint_tol


def test_closed_form_entropies_match_dense_route():
    rng = np.random.default_rng(309)
    assert_entropies_match_dense_route(
        np.stack([random_x_state(rng) for _ in range(300)]), joint_tol=1e-14
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(x_states(), min_size=1, max_size=4))
def test_closed_form_entropies_match_dense_route_at_the_edges(states):
    # at an eigenvalue within roundoff of 0, -p log2 p turns the dense
    # solver's ~1e-16 error into up to 1.4e-14 (measured against 50-digit
    # arithmetic; the closed form stays within 6e-15)
    assert_entropies_match_dense_route(np.array(states), joint_tol=3e-14)


def _non_states():
    # X-form, with a coherence beyond |rho23|^2 <= rho22 rho33 or a
    # negative population
    coherent = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    coherent[1, 2] = coherent[2, 1] = 0.6
    negative = np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)
    return [coherent, negative]


@pytest.mark.parametrize("rho", _non_states(), ids=["coherence", "population"])
@pytest.mark.parametrize("measure", [discord, mutual_information, _x_state_search])
def test_non_states_raise(measure, rho):
    with pytest.raises(ValueError, match="not a state"):
        measure(rho)


@settings(max_examples=25, deadline=None)
@given(x_states())
def test_x_path_reaches_the_bloch_sphere_optimum(rho):
    # the 1-D polar search does at least as well as a full-sphere grid,
    # and the measurement it returns attains the value it reports
    d = discord(rho)
    sphere = discord_brute_force(rho, resolution=200)
    assert d.classical_corr >= sphere.classical_corr - 1e-12
    rho_a, _ = reduced_states(rho)
    attained = _measured_conditional_entropy(rho, np.array([d.theta]), np.array([d.phi]))
    assert abs(_entropy_bits(rho_a) - attained[0] - d.classical_corr) < 1e-12
    assert 0.0 <= d.theta <= math.pi / 2 and d.phi == 0.0


def brent_conditional_entropy(diag, coh2):
    """Smallest conditional entropy of one X state by an independent
    route: a dense polar scan, then scipy's bounded Brent search on the
    two cells around its best angle."""
    from scipy.optimize import minimize_scalar

    thetas = np.linspace(0.0, math.pi / 2, 2001)
    vals = _x_conditional_entropy(thetas, diag, coh2)
    k = int(vals.argmin())
    res = minimize_scalar(
        lambda t: float(_x_conditional_entropy(t, diag, coh2)),
        bounds=(thetas[max(k - 1, 0)], thetas[min(k + 1, thetas.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return min(vals[k], res.fun)


def assert_search_is_accurate(stack):
    values, thetas = _x_state_search(stack)
    # the state entries exactly as the search takes them: near a pure
    # conditional state the entropy moves ~1e-15 with an ulp of |rho23|^2
    diags = stack.diagonal(axis1=-2, axis2=-1).real
    coh2s = np.abs(stack[:, 1, 2]) ** 2
    scan = (0.5 * math.pi / 40) * np.arange(41)  # the search's first scan
    for rho, d, coh2, value, theta in zip(stack, diags, coh2s, values, thetas):
        diag = tuple(d)
        assert abs(value - brent_conditional_entropy(diag, coh2)) <= 1e-15
        assert value <= _x_conditional_entropy(scan, diag, coh2).min()
        # the angle returned attains the value reported
        assert abs(_x_conditional_entropy(theta, diag, coh2) - value) <= 1e-15
        assert abs(_x_state_search(rho)[0] - value) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.lists(x_states(), min_size=1, max_size=5))
def test_x_state_search_matches_brent_oracle(states):
    assert_search_is_accurate(np.array(states))


def test_x_state_search_matches_brent_oracle_at_interior_optima():
    # a dominant singly occupied population and a strong coherence put the
    # optimum strictly inside (0, pi/2) by a dense scan; there the value
    # rests on how far the rescans narrow the bracket
    rng = np.random.default_rng(307)
    n = 2000
    weights = np.concatenate(
        [rng.dirichlet([1, 20, 1, 1], n // 2), rng.dirichlet([1, 1, 20, 1], n // 2)]
    )
    stack = np.zeros((n, 4, 4), dtype=complex)
    stack[:, range(4), range(4)] = weights
    coh = rng.uniform(0.7, 0.9, n) * np.sqrt(weights[:, 1] * weights[:, 2])
    stack[:, 1, 2] = stack[:, 2, 1] = coh
    thetas = np.broadcast_to(np.linspace(0.0, math.pi / 2, 201)[:, None], (201, n))
    k = _x_conditional_entropy(thetas, weights.T, coh**2).argmin(axis=0)
    interior = stack[(k > 0) & (k < 200)]
    assert len(interior) >= 30
    assert_search_is_accurate(interior)


def test_x_state_search_matches_brent_oracle_on_steady_states():
    # detuned, biased, unequal-gamma junctions in the weak-coupling window
    rng = np.random.default_rng(306)
    n = 64
    omega1 = rng.uniform(0.8, 1.2, n)
    delta = np.exp(rng.uniform(math.log(0.003), math.log(0.05), n))
    gamma = 0.4 * delta * rng.uniform(0.25, 1.0, n)
    asym = rng.uniform(-0.6, 0.6, n)
    params = SystemParams(
        omega1=omega1,
        omega2=omega1 + rng.uniform(-0.05, 0.05, n),
        delta=delta,
        gamma1=gamma * (1.0 + asym),
        gamma2=gamma * (1.0 - asym),
    )
    t1, mu2 = rng.uniform(0.05, 0.5, n), rng.uniform(0.2, 1.2, n)
    baths = BathParams(
        t1=t1, t2=t1 + rng.uniform(0.0, 0.4, n), mu1=mu2 + rng.uniform(-1.0, 1.0, n), mu2=mu2
    )
    # No steady state of this model has been found with an optimum inside
    # (0, pi/2) by more than roundoff: a dense scan of ~10^5 draws over a
    # wider window (detuned, unequal gamma, biased, T 0.02-2) finds no
    # minimum below both ends by 1e-12.  Interior optima are covered by
    # the Dirichlet states above; these are the states sweeps meet.
    stack = solve_ness(params, baths).rho
    assert_search_is_accurate(stack)


def _non_x_states():
    with_14 = np.diag([0.3, 0.2, 0.2, 0.3]).astype(complex)
    with_14[1, 2] = with_14[2, 1] = 0.1
    with_14[0, 3] = with_14[3, 0] = 0.15
    with_12 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    with_12[0, 1] = 0.1j
    with_12[1, 0] = -0.1j
    with_12[1, 2] = with_12[2, 1] = 0.05
    return [with_14, with_12]


@pytest.mark.parametrize("rho", _non_x_states(), ids=["rho14", "rho12"])
@pytest.mark.parametrize(
    "measure", [discord, concurrence, spectral_decompose, mutual_information]
)
def test_x_state_measures_reject_other_states(measure, rho):
    assert min(np.linalg.eigvalsh(rho)) > 0.0
    with pytest.raises(ValueError, match="not X-form"):
        measure(rho)


def test_correlation_report_fields_consistent():
    params = SystemParams()
    baths = BathParams(t1=0.1, t2=0.1, mu1=1.2, mu2=0.5)
    rho = solve_ness(params, baths).rho
    rep = correlation_report(rho)
    assert rep.coherence == pytest.approx(coherence(rho))
    assert rep.qmi == pytest.approx(mutual_information(rho), abs=1e-12)
    assert rep.discord == pytest.approx(rep.qmi - rep.classical_corr, abs=1e-12)
    assert rep.qmi > 0.0 and rep.discord > 0.0


def test_correlations_are_between_the_dressed_modes():
    # at equilibrium the mode-basis state is a product over the dressed
    # modes; the same state split between the two sites is correlated
    result = solve_ness(SystemParams(), BathParams())
    d = discord(result.rho)
    assert abs(d.qmi) <= 1e-12 and abs(d.discord) <= 1e-12
    site = site_basis_state(result.rho, result.basis)
    assert mutual_information(site) > 1e-5


def test_site_basis_rotation_preserves_spectrum():
    params = SystemParams(delta=0.1)
    baths = BathParams(t1=0.1, t2=0.1, mu1=0.8, mu2=0.0)
    result = solve_ness(params, baths)
    site = site_basis_state(result.rho, result.basis)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(site), np.linalg.eigvalsh(result.rho), atol=1e-12
    )
    assert np.trace(site).real == pytest.approx(1.0, abs=1e-12)
    # empty and doubly occupied sectors are rotation invariant
    assert site[0, 0].real == pytest.approx(result.rho[0, 0].real, abs=1e-12)
    assert site[3, 3].real == pytest.approx(result.rho[3, 3].real, abs=1e-12)


def test_site_basis_symmetric_junction_coherence():
    # symmetric sites mix maximally: the site coherence of a diagonal
    # mode-basis state is half the population difference
    basis = diagonalize(SystemParams(omega1=1.0, omega2=1.0, delta=0.01))
    rho = np.diag([0.1, 0.5, 0.3, 0.1]).astype(complex)
    site = site_basis_state(rho, basis)
    assert abs(site[1, 2]) == pytest.approx(0.1, abs=1e-12)
    assert site[1, 1].real == pytest.approx(0.4, abs=1e-12)
    assert site[2, 2].real == pytest.approx(0.4, abs=1e-12)
