"""Tunneling-amplitude QFI: sector closed form, fidelity oracle, thermal form."""
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermijunction import (
    Axis,
    BathParams,
    FrameFlipError,
    RankChangeError,
    SweepSpec,
    SystemParams,
    diagonalize,
    qfi_equilibrium_approx,
    qfi_fidelity_oracle,
    qfi_spectral,
    run_sweep,
    solve_ness,
)
from fermijunction import metrology
from fermijunction.liouvillian import state_derivative
from fermijunction.metrology import fidelity


def qfi(params, baths):
    return qfi_spectral(solve_ness(params, baths))


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
    # the oracle with its step pinned instead of searched
    pinned = qfi_fidelity_oracle(params, baths, h=1e-3)
    assert pinned == pytest.approx(report.f_total, rel=1e-3)


def gibbs_qfi(omega1, omega2, delta, t, mu):
    """Exact QFI of the equal-bath state, Gibbs in the mode frame with no
    coherence: F = sum_i p_i (d ln p_i)^2 with d ln p_i = -(dE_i - <dE>)/T
    and d omega'_{1,2} = +-2 delta / sqrt((omega1 - omega2)^2 + 4 delta^2)."""
    split = math.hypot(omega1 - omega2, 2.0 * delta)
    w1, w2 = 0.5 * (omega1 + omega2 + split), 0.5 * (omega1 + omega2 - split)
    log_w = -(np.array([0.0, w1, w2, w1 + w2]) - mu * np.array([0, 1, 1, 2])) / t
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    d_e = np.array([0.0, 1.0, -1.0, 0.0]) * 2.0 * delta / split
    d_ln_p = -(d_e - p @ d_e) / t
    return float(p @ d_ln_p**2)


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
        if np.abs(state_derivative(solve_ness(params, baths))).max() < 5e-8:
            draws.append((params, baths))
    return draws


FROZEN = _frozen_draws(12)


@pytest.mark.parametrize("params, baths", FROZEN)
def test_qfi_of_frozen_state_matches_gibbs(params, baths):
    report = qfi(params, baths)
    exact = gibbs_qfi(params.omega1, params.omega2, params.delta, baths.t1, baths.mu1)
    assert report.f_total == pytest.approx(exact, abs=1e-7)
    assert report.f_n == 0.0


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
        exact = gibbs_qfi(1.0, 1.03, 0.004, row["t1"], row["mu1"])
        assert row["qfi_total"] == pytest.approx(exact, abs=1e-7)


# omega1 == omega2 and delta = 0: the mode angle atan2(2 delta, 0) is a
# convention there, so the mode frame has no derivative in delta
_DEGENERATE = dict(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.002, gamma2=0.002)
_BIASED = dict(t1=0.2, t2=0.7, mu1=1.0, mu2=0.5)


def test_qfi_frame_flip_at_the_degenerate_point_is_typed():
    baths = BathParams(**_BIASED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a split of 0 must not warn
        with pytest.raises(FrameFlipError, match="frame is undefined"):
            qfi(SystemParams(**_DEGENERATE), baths)
        # in a stack only that point fails; its neighbours at delta = -+1e-6
        # have true values, equal by the delta -> -delta symmetry
        stacked = replace(SystemParams(**_DEGENERATE), delta=np.array([0.0, -1e-6, 1e-6, 0.005]))
        report = qfi(stacked, baths)
    assert np.isnan(report.f_total[0]) and np.isfinite(report.f_total[1:]).all()
    assert report.f_total[1] == report.f_total[2]
    assert report.f_total[1] == pytest.approx(14684.8676218, rel=1e-10)


def test_qfi_frame_flip_is_flagged_in_a_sweep():
    spec = SweepSpec(fixed={**_DEGENERATE, **_BIASED}, observables=("qfi",))
    (row,) = run_sweep(spec).rows
    assert row["flags"].startswith("qfi:FrameFlipError:")
    assert "qfi_total" not in row
    # one axis whose grid crosses the degenerate point
    spec = SweepSpec(
        fixed={k: v for k, v in {**_DEGENERATE, **_BIASED}.items() if k != "delta"},
        axes=(Axis("delta", -0.01, 0.01, 3),),
        observables=("qfi",),
    )
    flags = [row["flags"] for row in run_sweep(spec).rows]
    assert flags[0] == flags[2] == "" and flags[1].startswith("qfi:FrameFlipError:")


def test_qfi_drops_numerically_empty_levels():
    # cold baths leave the doubly occupied level below the rank floor
    # (~3e-15 here) while the singly occupied ones stay responsive;
    # the empty level is skipped, not fatal
    params = SystemParams(delta=0.005)
    baths = BathParams(t1=0.03, t2=0.03, mu1=0.5, mu2=0.5)
    report = qfi(params, baths)
    assert math.isfinite(report.f_total)
    assert report.f_total > 0.0


def _fabricated_state(p4, d_p4):
    """An X state whose |11> population p4 moves at d_p4 per unit delta,
    drawing on the other levels, and that d rho."""

    def x_state(diag, coh):
        rho = np.diag(np.asarray(diag, dtype=complex))
        rho[1, 2] = rho[2, 1] = coh
        return rho

    rest = 1.0 - p4
    rho = x_state([0.5 * rest, 0.3 * rest, 0.2 * rest, p4], 0.1 * rest)
    return rho, d_p4 * x_state([-0.5, -0.3, -0.2, 1.0], -0.1)


def test_qfi_rank_change_detected(monkeypatch):
    # a level sitting at zero with a sizable derivative cannot be
    # differentiated through; fabricate that situation directly
    rho, d_rho = _fabricated_state(0.0, 0.9)
    monkeypatch.setattr(metrology, "state_derivative", lambda ness: d_rho)
    with pytest.raises(RankChangeError, match=r"0\.000e\+00 with derivative 9\.000e-01: "
                       "the rank of the state changes at this point$"):
        qfi_spectral(SimpleNamespace(rho=rho))
    # in a stack that point gets NaN and the others their values
    filled, d_filled = _fabricated_state(0.1, 0.9)
    monkeypatch.setattr(metrology, "state_derivative", lambda ness: np.stack([d_rho, d_filled]))
    report = qfi_spectral(SimpleNamespace(rho=np.stack([rho, filled])))
    assert np.isnan(report.f_total[0]) and np.isfinite(report.f_total[1])


def test_qfi_negative_eigenvalue_reports_lost_positivity(monkeypatch):
    # a Redfield state can pass the solve's -1e-9 floor with a negative
    # population; the message names that, not a rank change
    rho, d_rho = _fabricated_state(-4.7e-10, -2.7e-8)
    monkeypatch.setattr(metrology, "state_derivative", lambda ness: d_rho)
    with pytest.raises(RankChangeError, match=r"-4\.700e-10 with derivative -2\.700e-08: "
                       "the Redfield state lost positivity$"):
        qfi_spectral(SimpleNamespace(rho=rho))


def dense_sld_qfi(params, baths):
    """(F, F^E, F^N) from 2 sum_ij |<i|d rho|j>|^2 / (p_i + p_j) in the
    eigenbasis of the dense 4x4 state, with the exact d rho that
    ``qfi_spectral`` uses, so that only the closed form is under test;
    pairs with p_i + p_j below 2e-12 (empty levels) are left out."""
    ness = solve_ness(params, baths)
    p, u = np.linalg.eigh(ness.rho)
    m = u.conj().T @ state_derivative(ness) @ u
    sums = p[:, None] + p[None, :]
    live = sums >= 2e-12
    terms = np.where(live, 2.0 * np.abs(m) ** 2 / np.where(live, sums, 1.0), 0.0)
    f_e = float(np.trace(terms))
    f_n = float(terms.sum() - f_e)
    return f_e + f_n, f_e, f_n


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
def test_qfi_matches_dense_sld(point):
    params, baths = point
    report = qfi(params, baths)
    f, f_e, f_n = dense_sld_qfi(params, baths)
    assert report.f_total == pytest.approx(f, rel=1e-12)
    assert report.f_e == pytest.approx(f_e, rel=1e-12)
    assert report.f_n == pytest.approx(f_n, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(biased_junctions())
def test_qfi_coherent_part_is_exactly_zero_at_equilibrium(point):
    # equal baths leave rho12 exactly 0 at every delta, so F^N must be an
    # exact 0, not the roundoff of a cancelling difference
    params, baths = point
    equal = replace(baths, t2=baths.t1, mu2=baths.mu1)
    assert qfi(params, equal).f_n == 0.0
