"""Correlation measures: decomposition, concurrence, entropies, discord."""
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermijunction import (
    BathParams,
    SweepSpec,
    SystemParams,
    coherence,
    concurrence,
    diagonalize,
    discord,
    discord_brute_force,
    grand_canonical_state,
    linear_entropy,
    mutual_information,
    run_sweep,
    site_basis_state,
    solve_ness,
)
from fermijunction import observables
from fermijunction.model import take
from fermijunction.observables import (
    _entropy_bits,
    _measured_conditional_entropy,
    _x_entropies,
    _x_entropy,
    _x_state_entries,
    _x_state_search,
    reduced_states,
    sector_vector,
    spectral_decompose,
    x_state,
)


def _x_conditional_entropy(theta, diag, coh2):
    """``_x_entropy`` of the state with ``diag`` = (rho11, rho22, rho33,
    rho44) and ``coh2`` = |rho23|^2 at polar angles theta (the state
    entries broadcast against theta)."""
    return _x_entropy(theta, _x_state_entries(diag, coh2))


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
    p = spectral_decompose(sector_vector(rhos))
    assert (p[:, 1] >= p[:, 2]).all()
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    # the closed form agrees with the dense eigensolver
    np.testing.assert_allclose(np.sort(p, axis=-1), np.linalg.eigvalsh(rhos), atol=1e-12)


def test_spectral_decompose_rejects_non_x():
    rho = np.diag([0.25] * 4).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.1
    with pytest.raises(ValueError, match="off-pattern entry of magnitude 1.000e-01"):
        spectral_decompose(sector_vector(rho))


def test_concurrence_closed_form_matches_wootters():
    rng = np.random.default_rng(302)
    for _ in range(1000):
        rho = random_x_state(rng)
        assert concurrence(sector_vector(rho)) == pytest.approx(
            concurrence_wootters(rho), abs=1e-10
        )


def test_concurrence_known_states():
    # maximally entangled inner block
    bell = inner_bell_mixture(1.0)
    assert concurrence(sector_vector(bell)) == pytest.approx(1.0, abs=1e-12)
    # separable mixtures
    assert concurrence(sector_vector(np.diag([0.25] * 4).astype(complex))) == 0.0
    assert concurrence(sector_vector(inner_bell_mixture(1 / 3))) == pytest.approx(0.0, abs=1e-12)
    # Bell mixture threshold: E = max(0, (3p-1)/2)
    assert concurrence(sector_vector(inner_bell_mixture(0.8))) == pytest.approx(0.7, abs=1e-12)
    assert concurrence_wootters(inner_bell_mixture(0.8)) == pytest.approx(
        0.7, abs=1e-10
    )


def test_linear_entropy_limits():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert linear_entropy(sector_vector(pure)) == pytest.approx(0.0, abs=1e-15)
    assert linear_entropy(sector_vector(np.eye(4, dtype=complex) / 4)) == pytest.approx(1.0)
    diag = np.array([0.4, 0.3, 0.2, 0.1])
    expected = (4 / 3) * (1 - np.sum(diag**2))
    assert linear_entropy(sector_vector(np.diag(diag).astype(complex))) == pytest.approx(expected)


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
    assert mutual_information(sector_vector(x_product)) == pytest.approx(0.0, abs=1e-15)


def test_mutual_information_bell_state():
    bell = sector_vector(inner_bell_mixture(1.0))
    assert mutual_information(bell) == pytest.approx(2.0, abs=1e-9)


def test_discord_zero_for_classical_state():
    # diagonal in a product basis: all correlation is classical
    rho = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)
    d = discord(sector_vector(rho))
    assert abs(d.discord) < 1e-9
    assert d.classical_corr == pytest.approx(d.qmi, abs=1e-9)


def test_discord_matches_bell_diagonal_closed_form():
    for p in (0.3, 0.8):
        qmi, classical, quantum = bell_diagonal_discord(p)
        d = discord(sector_vector(inner_bell_mixture(p)))
        assert d.qmi == pytest.approx(qmi, abs=1e-12)
        assert d.classical_corr == pytest.approx(classical, abs=1e-9)
        assert d.discord == pytest.approx(quantum, abs=1e-9)


def test_discord_brute_force_agrees_with_optimizer():
    rng = np.random.default_rng(303)
    # and the steady state of a chemically biased junction
    biased = solve_ness(SystemParams(), BathParams(t1=0.1, t2=0.1, mu1=1.2, mu2=0.5)).rho
    for rho in [random_x_state(rng) for _ in range(5)] + [biased]:
        opt = discord(sector_vector(rho))
        ref = discord_brute_force(rho, resolution=250)
        # the optimizer may only improve on the finite grid
        assert opt.classical_corr >= ref.classical_corr - 1e-6
        assert abs(opt.discord - ref.discord) < 1e-4
        assert opt.qmi == mutual_information(sector_vector(rho))
        assert opt.discord == opt.qmi - opt.classical_corr
    assert opt.qmi > 0.0 and opt.discord > 0.0


def test_discord_coherence_phase_invariance():
    rng = np.random.default_rng(304)
    rho = random_x_state(rng)
    base = discord(sector_vector(rho)).discord
    for phase in (0.7, 2.9, -1.3):
        rotated = rho.copy()
        rotated[1, 2] = abs(rho[1, 2]) * np.exp(1j * phase)
        rotated[2, 1] = np.conj(rotated[1, 2])
        assert discord(sector_vector(rotated)).discord == pytest.approx(base, abs=1e-8)


def test_discord_takes_any_batch_shape():
    rng = np.random.default_rng(308)
    stack = sector_vector(np.array([random_x_state(rng) for _ in range(6)]))
    flat = discord(stack)
    grid = discord(stack.reshape(2, 3, 6))
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
    d = discord(sector_vector(rho))
    sphere = discord_brute_force(rho, resolution=200)
    assert d.classical_corr >= sphere.classical_corr - 1e-12
    assert abs(d.discord - sphere.discord) < 1e-14


def test_discord_is_deterministic():
    rng = np.random.default_rng(305)
    v = sector_vector(random_x_state(rng))
    assert discord(v) == discord(v)


# a mode's occupation, its edges included
_occupation = st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def product_sectors(draw):
    """rho_A x rho_B of two diagonal mode states (the only product X
    states), or the Gibbs state of two dressed modes on a detuned basis."""
    if draw(st.booleans()):
        a, b = draw(_occupation), draw(_occupation)
        return np.array([(1 - a) * (1 - b), a * (1 - b), (1 - a) * b, a * b, 0.0, 0.0])
    omega1 = draw(st.floats(0.5, 1.5))
    params = SystemParams(
        omega1=omega1,
        omega2=omega1 + draw(st.floats(-0.1, 0.1)),
        delta=draw(st.floats(1e-3, 0.2)),
    )
    t = math.exp(draw(st.floats(math.log(0.01), math.log(5.0))))
    return grand_canonical_state(params, t, draw(st.floats(-1.0, 3.0)))


@settings(max_examples=60, deadline=None)
@given(st.lists(product_sectors(), min_size=1, max_size=4))
def test_discord_of_product_states_takes_theta_zero(stack):
    # a product state has no correlation, and its mutual information is
    # roundoff below the floor: the measurement is the unsearched theta = 0
    d = discord(np.array(stack))
    assert np.all(d.theta == 0.0)
    assert np.abs(d.qmi).max() <= 1e-14
    assert np.abs(d.classical_corr).max() <= 1e-14 and np.abs(d.discord).max() <= 1e-14
    for v, cc, quantum in zip(stack, np.ravel(d.classical_corr), np.ravel(d.discord)):
        sphere = discord_brute_force(x_state(v), resolution=200)
        assert cc >= sphere.classical_corr - 1e-12
        assert abs(quantum - sphere.discord) < 1e-12


def _mixed_stack():
    """Coherent random X states around one Gibbs state (below the floor)."""
    rng = np.random.default_rng(309)
    gibbs = grand_canonical_state(SystemParams(omega2=1.03), 0.3, 0.8)
    coherent = sector_vector(np.array([random_x_state(rng) for _ in range(5)]))
    return gibbs, np.concatenate([coherent[:2], gibbs[None], coherent[2:]])


def test_discord_floor_is_per_point():
    gibbs, stack = _mixed_stack()
    below = mutual_information(stack) <= 1e-14
    assert below.tolist() == [False, False, True, False, False, False]
    alone, mixed = discord(gibbs), discord(stack)
    assert alone.theta == mixed.theta[2] == 0.0
    assert abs(mixed.classical_corr[2] - alone.classical_corr) <= 1e-15
    assert abs(mixed.discord[2] - alone.discord) <= 1e-15
    # the coherent points keep the search of the whole stack, bit for bit
    cond, theta = _x_state_search(stack)
    s_a = _x_entropies(stack)[0]
    assert np.array_equal(mixed.classical_corr[~below], (s_a - cond)[~below])
    assert np.array_equal(mixed.theta[~below], theta[~below])


def test_discord_searches_a_state_with_negative_mutual_information(monkeypatch):
    # a cold, strongly biased Redfield state that passes the solve but is
    # not quite positive: its I is -7.6e-9 bits, so 0 <= J <= I cannot
    # hold and theta = 0 is no bound on the optimum; it is searched
    params = SystemParams(delta=0.05, gamma1=0.01159, gamma2=0.01729)
    baths = BathParams(t1=0.02, t2=0.0129, mu1=0.0653, mu2=0.7232)
    v = solve_ness(params, baths).v
    searched = []

    def counting_search(states):
        searched.append(states)
        return _x_state_search(states)

    monkeypatch.setattr(observables, "_x_state_search", counting_search)
    result = discord(v)
    assert -1e-8 < result.qmi < -1e-14
    assert len(searched) == 1
    cond, theta = _x_state_search(v)
    assert result.classical_corr == _x_entropies(v)[0] - cond
    assert result.theta == theta


def test_discord_search_passes(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("slopes", False))
        return _x_entropy(*args, **kwargs)

    monkeypatch.setattr(observables, "_x_entropy", counting)
    gibbs, stack = _mixed_stack()
    # a stack below the floor: no pass, theta = 0 from the entropies
    discord(np.stack([gibbs, gibbs]))
    assert calls == []
    # a mixed stack: the scan, three slope passes and the polish
    calls.clear()
    discord(stack)
    assert calls == [False, True, True, True, False]


@settings(max_examples=80, deadline=None)
@given(x_states())
def test_conditional_entropy_at_theta_zero_is_population_entropy_less_s_b(rho):
    # measured along theta = 0, B leaves A diagonal, so the conditional
    # entropy is H(rho11, rho22, rho33, rho44) - S(B): the value discord
    # takes below its floor.  The two routes differ by a few ulp of the
    # entropies (up to 9.9e-16 bits over 5 million random X states).
    _, s_b, _, h_diag = _x_entropies(sector_vector(rho))
    at_zero = _x_conditional_entropy(0.0, tuple(rho.diagonal().real), abs(rho[1, 2]) ** 2)
    assert abs(at_zero - (h_diag - s_b)) <= 2e-15


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

# a singly occupied block split by roundoff only (R = 1e-16)
_ROUNDOFF_SPLIT = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
_ROUNDOFF_SPLIT[1, 2] = _ROUNDOFF_SPLIT[2, 1] = 1e-16


@settings(max_examples=80, deadline=None)
@given(
    x_states() | st.sampled_from(_SLOPE_EDGE_STATES),
    st.floats(0.05, math.pi / 2) | st.just(math.pi / 2),
)
@example(_ROUNDOFF_SPLIT, math.pi / 2)
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
    v = sector_vector(stack)
    s_a, s_b, s_ab, _ = _x_entropies(v)
    qmi = mutual_information(v)
    assert np.abs(discord(v).qmi - qmi).max() == 0.0
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
        measure(sector_vector(rho))


@settings(max_examples=25, deadline=None)
@given(x_states())
def test_x_path_reaches_the_bloch_sphere_optimum(rho):
    # the 1-D polar search does at least as well as a full-sphere grid,
    # and the measurement it returns attains the value it reports
    d = discord(sector_vector(rho))
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
    diags = stack[:, :4]
    coh2s = coherence(stack) ** 2
    scan = (0.5 * math.pi / 40) * np.arange(41)  # the search's first scan
    for v, d, coh2, value, theta in zip(stack, diags, coh2s, values, thetas):
        diag = tuple(d)
        assert abs(value - brent_conditional_entropy(diag, coh2)) <= 1e-15
        assert value <= _x_conditional_entropy(scan, diag, coh2).min()
        # the angle returned attains the value reported
        assert abs(_x_conditional_entropy(theta, diag, coh2) - value) <= 1e-15
        assert abs(_x_state_search(v)[0] - value) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.lists(x_states(), min_size=1, max_size=5))
def test_x_state_search_matches_brent_oracle(states):
    assert_search_is_accurate(sector_vector(np.array(states)))


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
    # optima within a scan cell of 0 or pi/2, where Newton steps on theta
    # itself converged only linearly (short of the oracle by up to 1.7e-8);
    # the last, 1.26 cells from 0, is 1.2e-15 short when the three steps
    # start at the best scan angle instead of the parabola's vertex
    near_ends = np.array([
        (0.0052769198788402, 0.969878211233378, 0.01325720990497319, 0.01158765898280877,
         0.0941725628504518, 0.0),
        (0.00885042954011644, 0.01224576141542596, 0.969468384123488, 0.00943542492096948,
         0.09128359851885522, 0.0),
        (0.00389401985707879, 0.8836959942263112, 0.01703924231905963, 0.09537074359755038,
         0.0872690107034896, 0.0),
        (0.01170228765333234, 0.9873466934777099, 0.0005970841527610782, 0.000353934716196768,
         0.020865984599099753, 0.0),
    ])
    assert_search_is_accurate(np.concatenate([sector_vector(interior), near_ends]))


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
    assert_search_is_accurate(solve_ness(params, baths).v)


def _non_x_states():
    with_14 = np.diag([0.3, 0.2, 0.2, 0.3]).astype(complex)
    with_14[1, 2] = with_14[2, 1] = 0.1
    with_14[0, 3] = with_14[3, 0] = 0.15
    with_12 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    with_12[0, 1] = 0.1j
    with_12[1, 0] = -0.1j
    with_12[1, 2] = with_12[2, 1] = 0.05
    return [with_14, with_12]


@pytest.mark.parametrize(
    "rho, magnitude", zip(_non_x_states(), ("1.500e-01", "1.000e-01")), ids=["rho14", "rho12"]
)
def test_sector_vector_rejects_other_states(rho, magnitude):
    # the one X-form check on a dense state: the sector cannot hold the rest
    assert min(np.linalg.eigvalsh(rho)) > 0.0
    with pytest.raises(ValueError, match=f"not X-form: off-pattern entry of magnitude {magnitude}"):
        sector_vector(rho)
    with pytest.raises(ValueError, match="not X-form"):
        sector_vector(np.stack([inner_bell_mixture(0.5), rho]))


@pytest.mark.parametrize("rho", _non_x_states(), ids=["rho14", "rho12"])
@pytest.mark.parametrize(
    "measure", [discord, concurrence, spectral_decompose, mutual_information]
)
def test_x_state_measures_reject_other_states(measure, rho):
    # a dense state reaches a measure only through its sector
    assert min(np.linalg.eigvalsh(rho)) > 0.0
    with pytest.raises(ValueError, match="not X-form"):
        measure(sector_vector(rho))


_sector_entry = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(_sector_entry, min_size=6, max_size=6), x_states())
def test_sector_vector_and_x_state_round_trip(entries, rho):
    # bit for bit, signed zeros included, alone and in a stack
    v = np.array(entries)
    assert sector_vector(x_state(v)).tobytes() == v.tobytes()
    stack = np.stack([v, sector_vector(rho)])
    assert sector_vector(x_state(stack)).tobytes() == stack.tobytes()
    assert x_state(sector_vector(rho)).tobytes() == rho.tobytes()


def test_solved_state_is_the_x_state_of_its_sector():
    params = SystemParams(omega2=np.array([1.0, 1.03]), delta=0.005, gamma1=0.001, gamma2=0.003)
    ness = solve_ness(params, BathParams(t1=0.2, t2=0.5, mu1=1.0, mu2=0.5))
    assert ness.v.shape == (2, 6) and ness.v.dtype == np.float64
    assert ness.rho.tobytes() == x_state(ness.v).tobytes()
    alone = take(ness, 1)
    assert alone.rho.tobytes() == x_state(ness.v[1]).tobytes()


def test_correlation_report_fields_consistent():
    # the sweep's correlation and discord cells of a chemically biased
    # junction agree with the measures computed on its state alone
    fixed = {**asdict(SystemParams()), **asdict(BathParams(t1=0.1, t2=0.1, mu1=1.2, mu2=0.5))}
    result = run_sweep(SweepSpec(fixed=fixed, observables=("correlations", "discord")))
    table, v = result.table, result.ness.v[0]
    qmi, disc = table["qmi"][0], table["discord"][0]
    assert table["coherence"][0] == pytest.approx(coherence(v))
    assert qmi == pytest.approx(mutual_information(v), abs=1e-12)
    assert disc == pytest.approx(qmi - table["classical_corr"][0], abs=1e-12)
    assert qmi > 0.0 and disc > 0.0


def test_correlations_are_between_the_dressed_modes():
    # at equilibrium the mode-basis state is a product over the dressed
    # modes; the same state split between the two sites is correlated
    result = solve_ness(SystemParams(), BathParams())
    d = discord(result.v)
    assert abs(d.qmi) <= 1e-12 and abs(d.discord) <= 1e-12
    assert mutual_information(site_basis_state(result.v, result.basis)) > 1e-5


def dense_site_basis_state(rho, basis):
    """U^T rho U for 4x4 mode-basis states, with U the reflection at
    theta/2 that takes mode to site operators, built from half angles:
    the reference for the closed-form ``site_basis_state``."""
    ct, st = np.asarray(basis.cos_theta), np.asarray(basis.sin_theta)
    # The larger half-angle component from its root, the other from
    # sin theta = 2 sin(theta/2) cos(theta/2): the root of (1 + cos theta)/2
    # alone would cancel near cos theta = -1.  cos theta = -1 with
    # sin theta = 0 turns by pi/2.
    big = np.sqrt(0.5 * (1.0 + np.abs(ct)))  # >= sqrt(1/2)
    other = 0.5 * st / big
    flipped = ct < 0.0
    half_c = np.where(flipped, np.abs(other), big)
    half_s = np.where(flipped, np.copysign(big, st), other)
    u = np.zeros(half_c.shape + (4, 4))
    u[..., 0, 0] = 1.0
    u[..., 1, 1] = half_s
    u[..., 2, 1] = half_c
    u[..., 1, 2] = half_c
    u[..., 2, 2] = -half_s
    u[..., 3, 3] = -1.0
    return np.swapaxes(u, -1, -2) @ rho @ u


def test_site_basis_state_matches_the_dense_reflection():
    # random one-coherence X states in random bases (omega 0.8-1.2, delta
    # -0.3 to 0.3), and 50 states each in the edge bases: delta = 0 with
    # omega1 > omega2 (theta = pi, where sin theta is the roundoff of pi)
    # and with omega1 < omega2 (the identity), delta < 0, the degenerate
    # point omega1 = omega2, delta = 0, and cos theta = -1 with sin theta
    # exactly +0 and -0, where the half-angle reflection takes its
    # convention
    rng = np.random.default_rng(509)
    n, m = 2000, 50
    made = diagonalize(
        SystemParams(
            omega1=np.concatenate([np.repeat([1.1, 1.0, 1.0, 1.0], m), rng.uniform(0.8, 1.2, n)]),
            omega2=np.concatenate([np.repeat([1.0, 1.1, 1.02, 1.0], m), rng.uniform(0.8, 1.2, n)]),
            delta=np.concatenate([np.repeat([0.0, 0.0, -0.01, 0.0], m), rng.uniform(-0.3, 0.3, n)]),
        )
    )
    assert made.cos_theta[0] == -1.0 and made.cos_theta[m] == 1.0
    assert made.sin_theta[2 * m] < 0.0 and made.sin_theta[3 * m] == 1.0
    # only the angles are read, so the two extra bases set those alone
    basis = replace(
        made,
        cos_theta=np.concatenate([made.cos_theta, np.full(2 * m, -1.0)]),
        sin_theta=np.concatenate([made.sin_theta, np.repeat([0.0, -0.0], m)]),
    )
    v = sector_vector(np.stack([random_x_state(rng) for _ in range(n + 6 * m)]))
    site = x_state(site_basis_state(v, basis))
    assert np.abs(site - dense_site_basis_state(x_state(v), basis)).max() <= 1e-15


def test_site_basis_rotation_preserves_spectrum():
    params = SystemParams(delta=0.1)
    baths = BathParams(t1=0.1, t2=0.1, mu1=0.8, mu2=0.0)
    result = solve_ness(params, baths)
    site = site_basis_state(result.v, result.basis)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(x_state(site)), np.linalg.eigvalsh(result.rho), atol=1e-12
    )
    assert site[:4].sum() == pytest.approx(1.0, abs=1e-12)
    # empty and doubly occupied sectors are rotation invariant
    assert site[0] == pytest.approx(result.v[0], abs=1e-12)
    assert site[3] == pytest.approx(result.v[3], abs=1e-12)


def test_site_basis_symmetric_junction_coherence():
    # symmetric sites mix maximally: the site coherence of a diagonal
    # mode-basis state is half the population difference
    basis = diagonalize(SystemParams(omega1=1.0, omega2=1.0, delta=0.01))
    site = site_basis_state(np.array([0.1, 0.5, 0.3, 0.1, 0.0, 0.0]), basis)
    assert coherence(site) == pytest.approx(0.1, abs=1e-12)
    assert site[1] == pytest.approx(0.4, abs=1e-12)
    assert site[2] == pytest.approx(0.4, abs=1e-12)


def test_site_basis_state_takes_stacks():
    # tuned, detuned, delta < 0, the degenerate point, and delta = 0 with
    # omega1 > omega2 (cos theta = -1) or omega1 < omega2 (the identity);
    # then |delta| from 1e-12 to 0.3 at omega 1.1/1.0, where cos theta ->
    # -1 as delta -> 0, and at 1.0/1.1, where cos theta -> 1: the stack
    # equals each point alone and keeps the trace
    sweep = np.concatenate([[-1e-6, -1e-9, 0.0, 1e-9, 2e-9], np.geomspace(1e-12, 0.3, 24)])
    k = sweep.size
    params = SystemParams(
        omega1=np.concatenate([[1.0, 1.0, 1.0, 1.0, 1.05, 1.0], np.full(k, 1.1), np.full(k, 1.0)]),
        omega2=np.concatenate([[1.0, 1.02, 1.0, 1.0, 1.0, 1.03], np.full(k, 1.0), np.full(k, 1.1)]),
        delta=np.concatenate([[0.01, 0.005, -0.01, 0.0, 0.0, 0.0], sweep, sweep]),
    )
    n = 6 + 2 * k
    ness = solve_ness(params, BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.3))
    site = site_basis_state(ness.v, ness.basis)
    assert site.shape == (n, 6)
    for i in range(n):
        alone = take(ness, i)
        assert np.array_equal(site[i], site_basis_state(alone.v, alone.basis))
    assert np.abs(site[:, :4].sum(axis=-1) - 1.0).max() <= 1e-15
