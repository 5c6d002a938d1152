"""Tunneling-amplitude QFI: sector closed form, fidelity oracle, thermal form."""
import math
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
    QfiStepError,
    RankChangeError,
    SweepSpec,
    SystemParams,
    qfi_equilibrium_approx,
    qfi_fidelity_oracle,
    qfi_spectral,
    run_sweep,
    solve_ness,
)
from fermijunction.metrology import default_step, fidelity


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


def test_default_step():
    assert default_step(0.005) == pytest.approx(1e-6)
    assert default_step(0.5) == pytest.approx(5e-5)
    assert default_step(0.0) == pytest.approx(1e-6)


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
    report = qfi_spectral(params, baths)
    oracle = qfi_fidelity_oracle(params, baths)
    approx = qfi_equilibrium_approx(params, 0.2, 0.5)
    assert report.f_total == pytest.approx(report.f_e + report.f_n)
    assert report.f_n == 0.0  # no coherence anywhere near equilibrium
    assert oracle == pytest.approx(report.f_total, rel=1e-6)
    assert approx == pytest.approx(report.f_total, rel=1e-2)


def test_qfi_nonequilibrium_cross_route():
    params = SystemParams(delta=0.005)
    baths = BathParams(t1=0.1, t2=0.1, mu1=1.1, mu2=0.5)
    report = qfi_spectral(params, baths)
    assert report.f_n > 0.0
    assert report.f_e > 0.0
    oracle = qfi_fidelity_oracle(params, baths)
    assert oracle == pytest.approx(report.f_total, rel=1e-4)


def test_qfi_explicit_step_consistent_with_default():
    params = SystemParams(delta=0.005)
    baths = BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.5)
    auto = qfi_spectral(params, baths)
    pinned = qfi_spectral(params, baths, h=2e-6)
    assert pinned.step == 2e-6
    assert pinned.f_total == pytest.approx(auto.f_total, rel=1e-6)
    oracle_pinned = qfi_fidelity_oracle(params, baths, h=1e-3)
    assert oracle_pinned == pytest.approx(auto.f_total, rel=1e-3)


def test_qfi_center_reuse_is_identical():
    # a detuned, unequal-rate, biased point: passing the already solved
    # state at delta must not change a single bit of the report
    params = SystemParams(omega1=1.0, omega2=1.1, delta=0.02, gamma1=0.001, gamma2=0.003)
    baths = BathParams(t1=0.15, t2=0.5, mu1=0.9, mu2=0.4)
    center = solve_ness(params, baths)
    assert qfi_spectral(params, baths, center=center) == qfi_spectral(params, baths)


def test_qfi_step_underflow_raises():
    params = SystemParams()
    baths = BathParams()
    with pytest.raises(QfiStepError):
        qfi_spectral(params, baths, h=1e-16)


# omega1 == omega2 and delta = 0: the mode angle atan2(2 delta, 0) jumps
# from -pi/2 to +pi/2 between delta - h and delta + h
_DEGENERATE = dict(omega1=1.0, omega2=1.0, delta=0.0, gamma1=0.002, gamma2=0.002)
_BIASED = dict(t1=0.2, t2=0.7, mu1=1.0, mu2=0.5)


def test_qfi_frame_flip_at_the_degenerate_point_is_typed():
    baths = BathParams(**_BIASED)
    with pytest.raises(FrameFlipError):
        qfi_spectral(SystemParams(**_DEGENERATE), baths)
    # in a stack only that point fails; a stencil ending on delta = 0
    # does not straddle the flip
    stacked = replace(SystemParams(**_DEGENERATE), delta=np.array([0.0, -1e-6, 1e-6, 0.005]))
    f = qfi_spectral(stacked, baths).f_total
    assert np.isnan(f[:2]).all() and np.isfinite(f[2:]).all()


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
    report = qfi_spectral(params, baths)
    assert math.isfinite(report.f_total)
    assert report.f_total > 0.0


def test_qfi_rank_change_detected(monkeypatch):
    # a level sitting at zero with a sizable derivative cannot be
    # differentiated through; fabricate that situation directly
    def fake_solve(params, baths):
        # |11> empties exactly at delta = 0.005 and fills above it
        delta = np.asarray(params.delta)
        p4 = np.maximum(0.0, delta - 0.005) * 0.9
        rest = 1.0 - p4
        rho = np.zeros(delta.shape + (4, 4), dtype=complex)
        rho[..., 0, 0], rho[..., 1, 1], rho[..., 2, 2] = 0.5 * rest, 0.3 * rest, 0.2 * rest
        rho[..., 3, 3] = p4
        rho[..., 1, 2] = rho[..., 2, 1] = 0.1 * rest
        return SimpleNamespace(rho=rho, residual=np.zeros(delta.shape))

    monkeypatch.setattr("fermijunction.metrology.solve_ness", fake_solve)
    with pytest.raises(RankChangeError):
        qfi_spectral(SystemParams(delta=0.005), BathParams())


def dense_sld_qfi(params, baths):
    """(F, F^E, F^N) from 2 sum_ij |<i|d rho|j>|^2 / (p_i + p_j) in the
    eigenbasis of the dense 4x4 centre state, with d rho the central
    difference of the same stacked stencil solve ``qfi_spectral`` makes;
    pairs with p_i + p_j below 2e-12 (empty levels) are left out."""
    h = default_step(params.delta)
    lo, hi = solve_ness(replace(params, delta=params.delta + np.array([-h, h])), baths).rho
    p, u = np.linalg.eigh(solve_ness(params, baths).rho)
    m = u.conj().T @ ((hi - lo) / (2.0 * h)) @ u
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
    report = qfi_spectral(params, baths)
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
    assert qfi_spectral(params, equal).f_n == 0.0
