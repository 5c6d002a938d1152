"""Tunneling-amplitude QFI: Gaussian closed form, fidelity oracle, thermal form."""
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermijunction import (
    Axis,
    BathParams,
    RankChangeError,
    SweepSpec,
    SystemParams,
    diagonalize,
    qfi_equilibrium_approx,
    qfi_fidelity_oracle,
    qfi_spectral,
    build_liouvillian,
    run_sweep,
    site_basis_state,
    solve_ness,
)
from fermijunction import metrology
from fermijunction.liouvillian import generator_derivative, state_derivative
from fermijunction.metrology import fidelity
from fermijunction.model import take
from fermijunction.observables import x_state
from kron_reference import affine_matrix, dense_generator


def qfi(params, baths):
    return qfi_spectral(solve_ness(params, baths))


def sector_derivative(x, dx):
    """dv / d delta of Wick's sector v of correlations x moving at dx:
    d rho33 = dn1 n2 + n1 dn2 - 2 (X dX + Y dY)."""
    (n1, n2, re, im), (dn1, dn2, d_re, d_im) = np.moveaxis(x, -1, 0), np.moveaxis(dx, -1, 0)
    d_r = dn1 * n2 + n1 * dn2 - 2.0 * (re * d_re + im * d_im)
    return np.stack([d_r - dn1 - dn2, dn1 - d_r, dn2 - d_r, d_r, d_re, d_im], axis=-1)


def mode_frame_derivative(ness):
    """The dense d rho / d delta of a solved state in its mode frame."""
    return x_state(sector_derivative(ness.x, state_derivative(ness)))


def test_fidelity_basic_properties():
    rng = np.random.default_rng(401)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    p0 = np.zeros((4, 4), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((4, 4), dtype=complex)
    p1[1, 1] = 1.0
    assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_commuting_states_closed_form():
    # square-root convention: commuting states give sum_i sqrt(p_i q_i)
    p = np.array([0.5, 0.25, 0.15, 0.1])
    q = np.array([0.3, 0.3, 0.2, 0.2])
    expected = float(np.sqrt(p * q).sum())
    got = fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert got == pytest.approx(expected, abs=1e-12)
    # symmetry in the arguments
    rev = fidelity(np.diag(q).astype(complex), np.diag(p).astype(complex))
    assert rev == pytest.approx(got, abs=1e-12)


def test_equilibrium_approx_equals_exponential_form():
    # the stable cosh form must agree with the plain ratio of exponentials
    for t, mu, delta in ((0.2, 0.5, 0.005), (0.1, 1.4, 0.01), (0.5, 0.0, 0.003)):
        params = SystemParams(delta=delta)
        beta = 1.0 / t
        z = (1.0 + math.exp(beta * (1.0 - mu))) ** 2
        plain = (
            beta**2
            * (math.exp(beta * (1.0 + delta - mu)) + math.exp(beta * (1.0 - delta - mu)))
            / z
        )
        assert qfi_equilibrium_approx(params, t, mu) == pytest.approx(plain, rel=1e-13)


def test_equilibrium_approx_requires_symmetric_junction():
    with pytest.raises(ValueError):
        qfi_equilibrium_approx(SystemParams(omega1=1.0, omega2=1.1), 0.2, 0.5)
    with pytest.raises(ValueError):
        qfi_equilibrium_approx(SystemParams(), -0.1, 0.5)


def test_qfi_equilibrium_three_routes_agree():
    params = SystemParams(delta=0.005, gamma1=2e-4, gamma2=2e-4)
    baths = BathParams(t1=0.2, t2=0.2, mu1=0.5, mu2=0.5)
    report = qfi(params, baths)
    oracle = qfi_fidelity_oracle(params, baths)
    approx = qfi_equilibrium_approx(params, 0.2, 0.5)
    assert report.f_total == pytest.approx(report.f_e + report.f_n)
    assert report.f_n == 0.0  # no coherence anywhere near equilibrium
    assert oracle == pytest.approx(report.f_total, rel=1e-6)
    assert approx == pytest.approx(report.f_total, rel=1e-2)


def test_qfi_nonequilibrium_cross_route():
    params = SystemParams(delta=0.005)
    baths = BathParams(t1=0.1, t2=0.1, mu1=1.1, mu2=0.5)
    report = qfi(params, baths)
    assert report.f_n > 0.0
    assert report.f_e > 0.0
    oracle = qfi_fidelity_oracle(params, baths)
    assert oracle == pytest.approx(report.f_total, rel=1e-4)


def gibbs_qfi(omega1, omega2, delta, t, mu):
    """(F, F^N): exact site-frame QFI of the equal-bath state, Gibbs in the
    mode frame with no coherence, and its frame part.  The populations
    give sum_i p_i (d ln p_i)^2 with d ln p_i = -(dE_i - <dE>)/T and
    d omega'_{1,2} = +-2 delta / s, s = sqrt((omega1 - omega2)^2 + 4 delta^2).
    The eigenvectors of the singly occupied levels turn at d theta / 2
    against the site frame, d theta = 2 (omega2 - omega1) / s^2, which
    adds F^N = (p_1 - p_2)^2 d theta^2 / (p_1 + p_2); like ``qfi_spectral``,
    this leaves out a block whose trace p_1 + p_2 is below 1e-12."""
    split = math.hypot(omega1 - omega2, 2.0 * delta)
    w1, w2 = 0.5 * (omega1 + omega2 + split), 0.5 * (omega1 + omega2 - split)
    log_w = -(np.array([0.0, w1, w2, w1 + w2]) - mu * np.array([0, 1, 1, 2])) / t
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    d_e = np.array([0.0, 1.0, -1.0, 0.0]) * 2.0 * delta / split
    d_ln_p = -(d_e - p @ d_e) / t
    d_theta = 2.0 * (omega2 - omega1) / split**2
    block = p[1] + p[2]
    f_n = (p[1] - p[2]) ** 2 * d_theta**2 / block if block >= 1e-12 else 0.0
    return float(p @ d_ln_p**2 + f_n), float(f_n)


def _frozen_draws(n):
    """n cold equal-bath points, tuned or detuned, with unequal couplings,
    whose state moves by less than 5e-8 per unit of delta (frozen): the
    mode-2 level sits 15 to 30 temperatures above the chemical potential."""
    rng = np.random.default_rng(1404)
    draws = []
    while len(draws) < n:
        delta = float(np.exp(rng.uniform(np.log(3e-3), np.log(0.1))))
        gamma1, gamma2 = rng.uniform(1e-4, 0.2, size=2) * delta
        params = SystemParams(
            omega1=1.0,
            omega2=float(rng.choice([1.0, rng.uniform(0.9, 1.1)])),
            delta=delta,
            gamma1=float(gamma1),
            gamma2=float(gamma2),
        )
        t = float(rng.uniform(0.01, 0.05))
        mu = float(diagonalize(params).omega_p2 - t * rng.uniform(15.0, 30.0))
        baths = BathParams(t1=t, t2=t, mu1=mu, mu2=mu)
        if np.abs(mode_frame_derivative(solve_ness(params, baths))).max() < 5e-8:
            draws.append((params, baths))
    return draws


FROZEN = _frozen_draws(12)


@pytest.mark.parametrize("params, baths", FROZEN)
def test_qfi_of_frozen_state_matches_gibbs(params, baths):
    # detuned, the frame turns and F^N is the Gibbs frame term; tuned, it
    # is an exact 0
    report = qfi(params, baths)
    exact, f_n = gibbs_qfi(params.omega1, params.omega2, params.delta, baths.t1, baths.mu1)
    assert report.f_total == pytest.approx(exact, abs=1e-7)
    if params.omega1 == params.omega2:
        assert report.f_n == 0.0
    else:
        assert report.f_n == pytest.approx(f_n, rel=1e-9)


def test_qfi_of_frozen_states_in_a_stacked_sweep():
    # a detuned junction with unequal couplings over a cold grid: every
    # point evaluates in the stack, none is flagged
    fixed = dict(omega1=1.0, omega2=1.03, delta=0.004, gamma1=0.0003, gamma2=0.0011)
    spec = SweepSpec(
        fixed=fixed,
        axes=(Axis("T", 0.02, 0.035, 3), Axis("mu", 0.1, 0.3, 3)),
        observables=("qfi",),
    )
    rows = run_sweep(spec).rows
    assert [row["flags"] for row in rows] == [""] * 9
    for row in rows:
        exact, f_n = gibbs_qfi(1.0, 1.03, 0.004, row["t1"], row["mu1"])
        assert row["qfi_total"] == pytest.approx(exact, abs=1e-7)
        assert row["qfi_fn"] == pytest.approx(f_n, rel=1e-9)


def _fabricated_state(lam, d_lam, d_other=0.0):
    """Correlations x whose C has the eigenvalues 0.3 and ``lam``, with a
    coherence, and their derivative dx when ``lam`` moves at ``d_lam``
    and 0.3 at ``d_other`` per unit delta: b = (0.3 - lam)/2 e along a
    fixed unit vector e of (z, X, Y)."""
    e = np.array([0.6, 0.0, 0.8])

    def correlations(mean, half):
        b = half * e
        return np.array([mean + b[0], mean - b[0], b[1], b[2]])

    return (correlations(0.5 * (0.3 + lam), 0.5 * (0.3 - lam)),
            correlations(0.5 * (d_other + d_lam), 0.5 * (d_other - d_lam)))


def _fabricated_hole(lam, d_lam, d_other=0.0):
    """``_fabricated_state`` mirrored by particle-hole symmetry: C's
    eigenvalues 0.7 and 1 - ``lam``, moving at -``d_other`` and
    -``d_lam``."""
    x, dx = _fabricated_state(lam, d_lam, d_other)
    return np.array([1.0 - x[0], 1.0 - x[1], -x[2], -x[3]]), -dx


# the basis of a fabricated state: a mode frame that does not turn
UNTURNED = SimpleNamespace(d_theta=0.0)


def fabricated_qfi(monkeypatch, *states):
    """``qfi_spectral`` of fabricated (x, dx), alone or as a stack."""
    x, dx = (np.stack(a) if len(states) > 1 else a[0] for a in zip(*states))
    monkeypatch.setattr(metrology, "state_derivative", lambda ness: dx)
    return qfi_spectral(SimpleNamespace(x=x, basis=UNTURNED))


def test_qfi_drops_numerically_empty_levels(monkeypatch):
    # a level of C below the 1e-12 floor that barely moves (here 1e-15,
    # moving at 1e-13), or one that far from full, is skipped, not fatal,
    # while the other level stays responsive
    for state in (_fabricated_state(1e-15, 1e-13, 0.05), _fabricated_hole(1e-15, 1e-13, 0.05)):
        report = fabricated_qfi(monkeypatch, state)
        assert report.errors == np.array(None)
        assert math.isfinite(report.f_total)
        assert report.f_total > 0.0
        # the skipped level adds nothing, and b does not turn: F = F^E of 0.3
        assert report.f_total == pytest.approx(0.05**2 / (0.3 * 0.7), rel=1e-12)


def test_qfi_rank_change_detected(monkeypatch):
    # a level sitting at zero with a sizable derivative cannot be
    # differentiated through; fabricate that situation directly
    empty = _fabricated_state(0.0, 0.9)
    with pytest.raises(RankChangeError, match=r"0\.000e\+00 with derivative 9\.000e-01: "
                       "the rank of the state changes at this point$"):
        fabricated_qfi(monkeypatch, empty)
    # so is a full level, at 1 - lambda = 0
    with pytest.raises(RankChangeError, match=r"0\.000e\+00 with derivative 9\.000e-01: "
                       "the rank of the state changes at this point$"):
        fabricated_qfi(monkeypatch, _fabricated_hole(0.0, 0.9))
    # in a stack that point gets NaN and the others their values
    report = fabricated_qfi(monkeypatch, empty, _fabricated_state(0.1, 0.9))
    assert np.isnan(report.f_total[0]) and np.isfinite(report.f_total[1])


def test_qfi_negative_eigenvalue_reports_lost_positivity(monkeypatch):
    # a Redfield state can pass the solve's -1e-9 floor with a negative
    # eigenvalue; the message names that, not a rank change
    with pytest.raises(RankChangeError, match=r"-4\.700e-10 with derivative -2\.700e-08: "
                       "the Redfield state lost positivity$"):
        fabricated_qfi(monkeypatch, _fabricated_state(-4.7e-10, -2.7e-8))


def test_stacked_qfi_returns_the_error_each_point_raises_alone():
    # cold, strongly biased baths: at delta = 0.0983 the Redfield state has
    # an eigenvalue of -7.4e-10 with a sizable derivative
    params = SystemParams(delta=np.array([0.0783, 0.0883, 0.0983]),
                          gamma1=0.01159, gamma2=0.01729)
    baths = BathParams(t1=0.0529, t2=0.0129, mu1=0.0653, mu2=0.7232)
    report = qfi_spectral(solve_ness(params, baths))
    assert [e is None for e in report.errors] == [True, True, False]
    for i, error in enumerate(report.errors):
        alone = solve_ness(take(params, i), baths)
        if error is None:
            assert qfi_spectral(alone).f_total == pytest.approx(report.f_total[i], rel=1e-12)
            continue
        assert np.isnan([report.f_total[i], report.f_e[i], report.f_n[i]]).all()
        with pytest.raises(RankChangeError) as raised:
            qfi_spectral(alone)
        assert type(error) is type(raised.value) and str(error) == str(raised.value)


def sld_qfi(rho, d_rho):
    """(F, F^E, F^N) from 2 sum_ij |<i|d rho|j>|^2 / (p_i + p_j) in the
    eigenbasis of the dense 4x4 state; pairs with p_i + p_j below 2e-12
    (empty levels) are left out."""
    p, u = np.linalg.eigh(rho)
    m = u.conj().T @ d_rho @ u
    sums = p[:, None] + p[None, :]
    live = sums >= 2e-12
    terms = np.where(live, 2.0 * np.abs(m) ** 2 / np.where(live, sums, 1.0), 0.0)
    f_e = float(np.trace(terms))
    f_n = float(terms.sum() - f_e)
    return f_e + f_n, f_e, f_n


def dense_sld_qfi(params, baths):
    """``sld_qfi`` of the solved state and the exact d rho that
    ``qfi_spectral`` uses, taken to the site frame, so that only the
    closed form is under test.  The site frame is rho_site = U^T rho U
    with U the real rotation by theta/2 of the singly occupied block, so
    d rho_site = U^T d rho U + d theta (dU^T rho U + U^T rho dU) with
    dU = d U / d theta and d theta = 2 (omega2 - omega1) / s^2."""
    ness = solve_ness(params, baths)
    split = math.hypot(params.omega2 - params.omega1, 2.0 * params.delta)
    d_theta = 2.0 * (params.omega2 - params.omega1) / split**2
    half = 0.5 * math.atan2(2.0 * params.delta, params.omega2 - params.omega1)
    c, s = math.cos(half), math.sin(half)
    u = np.diag([1.0, 0.0, 0.0, -1.0])
    u[1:3, 1:3] = [[s, c], [c, -s]]
    du = np.zeros((4, 4))
    du[1:3, 1:3] = [[0.5 * c, -0.5 * s], [-0.5 * s, -0.5 * c]]
    rho = ness.rho
    d_rho = u.T @ mode_frame_derivative(ness) @ u + d_theta * (du.T @ rho @ u + u.T @ rho @ du)
    return sld_qfi(u.T @ rho @ u, d_rho)


@st.composite
def biased_junctions(draw):
    """Detuned junctions with unequal couplings between biased baths,
    inside the weak-coupling window."""
    delta = draw(st.floats(3e-3, 0.1))
    gammas = draw(st.lists(st.floats(1e-4, 0.2), min_size=2, max_size=2, unique=True))
    params = SystemParams(
        omega1=1.0,
        omega2=draw(st.floats(0.9, 1.1).filter(lambda w: w != 1.0)),
        delta=delta,
        gamma1=gammas[0] * delta,
        gamma2=gammas[1] * delta,
    )
    t1 = draw(st.floats(0.1, 0.5))
    baths = BathParams(
        t1=t1,
        t2=t1 + draw(st.floats(0.0, 0.7)),
        mu1=draw(st.floats(0.1, 1.5)),
        mu2=draw(st.floats(0.1, 1.5)),
    )
    return params, baths


@settings(max_examples=60, deadline=None)
@given(biased_junctions())
def test_correlation_derivative_matches_richardson_difference(point):
    # the dx the QFI takes, against Richardson's (4 D(h/2) - D(h)) / 3 of
    # central differences D of the solved x, h = 1e-3 (omega'_1 -
    # omega'_2): over 3000 draws the gap was at most 9.5e-10 of max|dx|
    params, baths = point
    exact = state_derivative(solve_ness(params, baths))
    h = 1e-3 * math.hypot(params.omega1 - params.omega2, 2.0 * params.delta)
    offsets = np.array([-h, h, -h / 2, h / 2])
    lo, hi, lo_half, hi_half = solve_ness(replace(params, delta=params.delta + offsets), baths).x
    richardson = (4.0 * (hi_half - lo_half) / h - (hi - lo) / (2.0 * h)) / 3.0
    assert np.abs(richardson - exact).max() <= 2e-8 * np.abs(exact).max()


@settings(max_examples=60, deadline=None)
@given(biased_junctions())
def test_qfi_matches_dense_sld(point):
    params, baths = point
    report = qfi(params, baths)
    f, f_e, f_n = dense_sld_qfi(params, baths)
    assert report.f_total == pytest.approx(f, rel=1e-12)
    assert report.f_e == pytest.approx(f_e, rel=1e-12)
    assert report.f_n == pytest.approx(f_n, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(biased_junctions())
@example(
    point=(
        SystemParams(omega1=1.0, omega2=1.0, delta=0.02, gamma1=0.001, gamma2=0.003),
        BathParams(t1=0.3, t2=0.7, mu1=0.8, mu2=0.5),
    )
)
def test_qfi_coherent_part_at_equilibrium_is_the_gibbs_frame_term(point):
    # equal baths leave rho12 exactly 0 at every delta, so F^N is only the
    # turn of the mode frame, the Gibbs term of ``gibbs_qfi`` (the gap
    # was at most 1.8e-12 relative over 2000 random draws); tuned, it is
    # an exact 0, not the roundoff of a cancelling difference
    params, baths = point
    equal = replace(baths, t2=baths.t1, mu2=baths.mu1)
    f_n = qfi(params, equal).f_n
    expected = gibbs_qfi(params.omega1, params.omega2, params.delta, equal.t1, equal.mu1)[1]
    if params.omega1 == params.omega2:
        assert f_n == 0.0
    else:
        assert f_n == pytest.approx(expected, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(biased_junctions())
def test_qfi_does_not_depend_on_the_frame(point):
    # the QFI of the site-frame states, from a dense SLD of their
    # Richardson difference (4 D(h/2) - D(h)) / 3 with h = 0.01 delta:
    # the relative gap was at most 1.1e-8 over 2000 random draws and
    # 4.4e-8 on the corners of the draw domain (at h = 0.003 delta the
    # roundoff of the differences reached 5e-7)
    params, baths = point
    h = 0.01 * params.delta
    d = params.delta + np.array([0.0, h, -h, h / 2, -h / 2])
    at_0, hi, lo, hi_half, lo_half = site_states(params, baths, d)
    richardson = (4.0 * (hi_half - lo_half) / h - (hi - lo) / (2.0 * h)) / 3.0
    assert sld_qfi(at_0, richardson)[0] == pytest.approx(qfi(params, baths).f_total, rel=2e-7)


# omega1 == omega2 and delta = 0: diagonalize picks theta = pi/2 there,
# the delta -> 0+ frame, so the QFI takes the derivative from delta > 0
@st.composite
def degenerate_junctions(draw, equal_gammas=False):
    """Tuned junctions (omega1 == omega2) at delta = 0 between biased
    baths, with couplings in [1e-4, 5e-3], unequal unless asked."""
    omega = draw(st.floats(0.8, 1.2))
    if equal_gammas:
        gamma1 = gamma2 = draw(st.floats(1e-4, 5e-3))
    else:
        gamma1, gamma2 = draw(
            st.lists(st.floats(1e-4, 5e-3), min_size=2, max_size=2, unique=True)
        )
    t1 = draw(st.floats(0.1, 0.5))
    baths = BathParams(
        t1=t1,
        t2=t1 + draw(st.floats(0.05, 0.7)),
        mu1=draw(st.floats(0.1, 1.5)),
        mu2=draw(st.floats(0.1, 1.5)),
    )
    params = SystemParams(omega1=omega, omega2=omega, delta=0.0, gamma1=gamma1, gamma2=gamma2)
    return params, baths


def site_states(params, baths, deltas):
    """Dense site-frame steady states of the junction at each delta, one
    stack."""
    ness = solve_ness(replace(params, delta=np.asarray(deltas)), baths)
    return x_state(site_basis_state(ness.v, ness.basis))


@settings(max_examples=60, deadline=None)
@given(degenerate_junctions())
def test_generator_derivative_at_the_degenerate_point_is_one_sided(point):
    # at s = 0 d L / d delta is the derivative from delta > 0, where theta
    # stays pi/2: a second-order forward difference of build_liouvillian at
    # delta = h, 2h (a central difference would cross the flip of theta to
    # -pi/2).  L varies with delta on the scale T through the occupations,
    # so with h = 1e-4 T the truncation is ~(h/T)^2 = 1e-8 of max|L| / T
    # (at most 1.1e-8 over 4000 random draws, 2.1e-8 on the corners and
    # midpoints of the draw domain).
    params, baths = point
    exact = affine_matrix(*generator_derivative(solve_ness(params, baths)))
    h = 1e-4 * baths.t1
    stack = replace(params, delta=np.array([0.0, h, 2.0 * h]))
    at_0, at_h, at_2h = dense_generator(build_liouvillian(diagonalize(stack), baths, stack))[0]
    forward = (4.0 * at_h - at_2h - 3.0 * at_0) / (2.0 * h)
    assert np.abs(forward - exact).max() <= 1e-7 * np.abs(at_0).max() / baths.t1


@settings(max_examples=60, deadline=None)
@given(degenerate_junctions())
def test_qfi_at_the_degenerate_point_is_its_delta_limit(point):
    # F(0) against F(-+2^-53) and F(-+1e-10), one stack.  delta -> -delta
    # is a symmetry, so each pair of neighbours is equal.  At 2^-53,
    # omega'_1 - omega'_2 and cos(pi/2) are all roundoff, so an angle
    # derivative formed from them would be O(1) instead of 0 (F then moved
    # by ~1e-4).  F has a term in |delta|, whose slope reaches 1.9e4 F per
    # unit delta at gamma = 1e-4: the relative gaps were at most 1.5e-13
    # and 2.8e-7 over 4000 random draws, 4.6e-12 and 1.9e-6 on the
    # corners and midpoints of the draw domain.
    params, baths = point
    deltas = np.array([0.0, -(2.0**-53), 2.0**-53, -1e-10, 1e-10])
    f = qfi(replace(params, delta=deltas), baths).f_total
    assert np.isfinite(f).all()
    assert f[1] == f[2] and f[3] == f[4]
    assert abs(f[1] - f[0]) <= 2e-11 * f[0]
    assert abs(f[3] - f[0]) <= 3e-6 * f[0]


@settings(max_examples=40, deadline=None)
@given(degenerate_junctions())
def test_qfi_at_the_degenerate_point_matches_one_sided_site_frame_qfis(point):
    # the dense SLD QFI of the site-frame state with its right and left
    # derivatives (second-order one-sided differences).  With unequal
    # couplings the site-frame state has a kink at delta = 0, so the two
    # derivatives differ, but their QFIs agree with each other and with
    # F(0).  The state curves on a scale below the smaller gamma, and a
    # state that barely moves leaves the difference to roundoff, so
    # h = 3e-4 min(gamma): the relative gaps were at most 3.4e-9 and 3.6e-7
    # over 2000 random draws, 2.3e-7 and 3.5e-7 on the corners and
    # midpoints of the draw domain.
    params, baths = point
    h = 3e-4 * min(params.gamma1, params.gamma2)
    at_0, right, right2, left, left2 = site_states(params, baths, [0.0, h, 2 * h, -h, -2 * h])
    f_right = sld_qfi(at_0, (4.0 * right - right2 - 3.0 * at_0) / (2.0 * h))[0]
    f_left = sld_qfi(at_0, (3.0 * at_0 - 4.0 * left + left2) / (2.0 * h))[0]
    f_0 = qfi(params, baths).f_total
    assert abs(f_right - f_left) <= 1e-6 * f_0
    assert max(abs(f_right - f_0), abs(f_left - f_0)) <= 1e-6 * f_0


@settings(max_examples=30, deadline=None)
@given(degenerate_junctions(equal_gammas=True))
@example(
    point=(
        SystemParams(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.002, gamma2=0.002),
        BathParams(t1=0.2, t2=0.7, mu1=1.0, mu2=0.5),
    )
)
def test_qfi_at_the_degenerate_point_matches_a_central_difference(point):
    # equal couplings leave the site-frame state smooth through delta = 0,
    # so a central difference applies: Richardson's (4 D(h/2) - D(h)) / 3
    # with h = 0.003 gamma, since the state varies on the scale gamma (the
    # relative gap was at most 1.6e-9 over 1000 random draws and 1.2e-9 on
    # the corners and midpoints of the draw domain).  The example is the
    # corner of the CI failure grid, where F(0) = 14684.874610037.
    params, baths = point
    h = 0.003 * params.gamma1
    at_0, hi, lo, hi_half, lo_half = site_states(params, baths, [0.0, h, -h, h / 2, -h / 2])
    richardson = (4.0 * (hi_half - lo_half) / h - (hi - lo) / (2.0 * h)) / 3.0
    assert sld_qfi(at_0, richardson)[0] == pytest.approx(qfi(params, baths).f_total, rel=1e-8)
