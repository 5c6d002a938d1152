"""Currents, entropy production and the leading-order analytic forms."""
import math
import warnings

import numpy as np
import pytest

from fermijunction import (
    BathParams,
    SystemParams,
    build_liouvillian,
    diagonalize,
    entropy_production_rate,
    epr_leading_order,
    epr_regime_ok,
    fermi_occupation,
    grand_canonical_state,
    ness_leading_order,
    solve_ness,
    transport_report,
)
from fermijunction.liouvillian import _NUMBERS, _drift, _level_energies
from fermijunction.observables import x_state
from kron_reference import dense_generator, kron_reference_generator, unvec, vec


def report_at(params, baths):
    return transport_report(solve_ness(params, baths))


def test_unitary_part_moves_no_charge():
    # [N, H] = 0, so the commutator part of the generator carries no
    # particle or energy current: on the kron reference it moves no
    # charge, and in M x + b it leaves the n-rows, which the currents
    # read, alone; a broken basis or sign convention would
    rng = np.random.default_rng(506)
    for _ in range(20):
        params = SystemParams(
            omega1=rng.uniform(0.5, 1.5),
            omega2=rng.uniform(0.5, 1.5),
            delta=rng.uniform(-0.2, 0.2),
        )
        lv = build_liouvillian(diagonalize(params), BathParams(), params)
        x = rng.normal(size=4)
        sums, source = lv.weights.sum(axis=0), lv.sources.sum(axis=0)
        assert np.array_equal(_drift(sums, lv.split, source, x)[:2],
                              _drift(sums, 0.0, source, x)[:2])
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        ref_matrix, *ref_baths = kron_reference_generator(params, BathParams())
        flow = unvec((ref_matrix - ref_baths[0] - ref_baths[1]) @ vec(rho))
        number = np.diag(_NUMBERS)
        hamiltonian = np.diag(_level_energies(diagonalize(params)))
        assert abs(np.trace(flow @ number)) < 1e-12
        assert abs(np.trace(flow @ hamiltonian)) < 1e-12


def test_currents_read_the_n_rows_of_each_bath_piece():
    # transport_report forms dn1/dt and dn2/dt of each bath from the kept
    # weights and occupations; they must be the n-rows of the bath pieces
    # [M_l | b_l] of the dense view of build_liouvillian's generator,
    # applied to (x, 1)
    rng = np.random.default_rng(507)
    n = 200
    params = SystemParams(omega1=rng.uniform(0.8, 1.2, n), omega2=rng.uniform(0.8, 1.2, n),
                          delta=rng.uniform(-0.1, 0.1, n), gamma1=rng.uniform(0.0, 0.01, n),
                          gamma2=rng.uniform(0.0, 0.01, n))
    baths = BathParams(t1=rng.uniform(0.05, 1.0, n), t2=rng.uniform(0.05, 1.0, n),
                       mu1=rng.uniform(0.0, 2.0, n), mu2=rng.uniform(0.0, 2.0, n))
    ness = solve_ness(params, baths)
    basis = diagonalize(params)
    rows = dense_generator(build_liouvillian(basis, baths, params))[1][..., :2, :]
    terms = rows * np.concatenate([ness.x, np.ones((n, 1))], axis=-1)[:, None, None, :]
    flows = terms.sum(axis=-1)  # (point, bath, mode)
    energies = np.stack([basis.omega_p1, basis.omega_p2], axis=-1)[:, None, :]
    rep = transport_report(ness)
    for got, want in ((rep.i1, flows[:, 0].sum(-1)), (rep.i2, flows[:, 1].sum(-1)),
                      (rep.j1, (flows[:, 0] * energies[:, 0]).sum(-1)),
                      (rep.j2, (flows[:, 1] * energies[:, 0]).sum(-1))):
        scale = np.abs(terms).sum(axis=(-3, -2, -1))
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_current_signs_chemical_bias():
    params = SystemParams()
    rep = report_at(params, BathParams(t1=0.2, t2=0.2, mu1=0.9, mu2=0.5))
    # particles flow from the full reservoir into the system and out the other
    assert rep.i1 > 0.0
    assert rep.i2 < 0.0
    assert rep.epr > 0.0


def test_current_signs_thermal_bias():
    params = SystemParams()
    rep = report_at(params, BathParams(t1=0.2, t2=0.8, mu1=0.5, mu2=0.5))
    # the hot side feeds energy in (mode energies sit above mu)
    assert rep.j2 > 0.0
    assert rep.j1 < 0.0
    assert rep.epr > 0.0


def test_conservation_random():
    rng = np.random.default_rng(501)
    for _ in range(30):
        params = SystemParams(
            omega1=rng.uniform(0.5, 1.5),
            omega2=rng.uniform(0.5, 1.5),
            delta=rng.uniform(-0.2, 0.2),
            gamma1=rng.uniform(1e-4, 0.02),
            gamma2=rng.uniform(1e-4, 0.02),
        )
        baths = BathParams(
            t1=rng.uniform(0.05, 1.0),
            t2=rng.uniform(0.05, 1.0),
            mu1=rng.uniform(0.0, 2.0),
            mu2=rng.uniform(0.0, 2.0),
        )
        rep = report_at(params, baths)
        assert abs(rep.i1 + rep.i2) < 1e-12
        assert abs(rep.j1 + rep.j2) < 1e-12


def test_equilibrium_everything_vanishes():
    params = SystemParams()
    rep = report_at(params, BathParams(t1=0.3, t2=0.3, mu1=0.7, mu2=0.7))
    for value in (rep.i1, rep.i2, rep.j1, rep.j2, rep.epr):
        assert abs(value) < 1e-15


def test_energy_rides_at_mode_frequency():
    # weak symmetric tunneling: every transferred particle carries about
    # one quantum of the (nearly common) mode energy
    params = SystemParams(delta=0.005)
    rep = report_at(params, BathParams(t1=0.1, t2=0.1, mu1=1.3, mu2=0.5))
    assert rep.j1 / rep.i1 == pytest.approx(1.0, rel=1e-2)


def test_bath_swap_antisymmetry():
    params = SystemParams(delta=0.005)
    fwd = report_at(params, BathParams(t1=0.2, t2=0.45, mu1=0.9, mu2=0.3))
    rev = report_at(params, BathParams(t1=0.45, t2=0.2, mu1=0.3, mu2=0.9))
    assert rev.i1 == pytest.approx(-fwd.i1, abs=1e-12)
    assert rev.j1 == pytest.approx(-fwd.j1, abs=1e-12)
    assert rev.epr == pytest.approx(fwd.epr, abs=1e-12)


def test_entropy_production_rate_formula():
    baths = BathParams(t1=0.2, t2=0.4, mu1=0.9, mu2=0.3)
    j1, i1 = 3e-4, 5e-4
    expected = -j1 * (1 / 0.2 - 1 / 0.4) + i1 * (0.9 / 0.2 - 0.3 / 0.4)
    assert entropy_production_rate(j1, i1, baths) == pytest.approx(expected)


def test_epr_regime_flag():
    assert epr_regime_ok(SystemParams(delta=0.005, gamma1=0.002, gamma2=0.002))
    assert not epr_regime_ok(SystemParams(delta=0.05))  # strong tunneling
    assert not epr_regime_ok(SystemParams(delta=0.005, gamma1=0.01, gamma2=0.01))
    assert not epr_regime_ok(SystemParams(omega1=1.0, omega2=1.2, delta=0.005))


def test_ness_leading_order_matches_solver():
    params = SystemParams(delta=0.005, gamma1=2e-4, gamma2=2e-4)
    baths = BathParams(t1=0.2, t2=0.5, mu1=0.9, mu2=0.5)
    result = solve_ness(params, baths)
    approx = x_state(ness_leading_order(result.basis, baths, params))
    # g = 0.04: deviations are second order, well below 1e-3
    assert np.abs(result.rho - approx).max() < 2e-4
    assert np.trace(approx).real == pytest.approx(1.0, abs=1e-14)


def test_ness_leading_order_saturates_at_extreme_bias():
    # one reservoir full, the other empty for both modes
    params = SystemParams(delta=0.005)
    baths = BathParams(t1=0.05, t2=0.05, mu1=3.0, mu2=-1.0)
    basis = diagonalize(params)
    with pytest.warns(UserWarning):  # g = 0.4 is outside the trusted window
        rho = x_state(ness_leading_order(basis, baths, params))
    g = 0.002 / 0.005
    np.testing.assert_allclose(np.diag(rho).real, [0.25] * 4, atol=1e-8)
    assert rho[1, 2] == pytest.approx(-0.5j * g, abs=1e-8)


def test_ness_leading_order_at_equal_baths_is_gibbs():
    # equal baths: the half-sum occupations are each mode's Fermi
    # occupation, so the populations are the grand-canonical ones, and the
    # half-differences that source the coherence vanish
    for params in (
        SystemParams(delta=0.005, gamma1=2e-4, gamma2=2e-4),
        SystemParams(omega1=1.0, omega2=1.02, delta=0.01, gamma1=2e-4, gamma2=4e-4),
    ):
        basis = diagonalize(params)
        for t, mu in ((0.2, 0.5), (0.05, 1.1), (1.5, -0.3)):
            rho = x_state(ness_leading_order(basis, BathParams(t1=t, t2=t, mu1=mu, mu2=mu), params))
            gibbs = grand_canonical_state(basis, t, mu)
            np.testing.assert_allclose(np.diag(rho).real, gibbs[:4], rtol=1e-14)
            assert rho[1, 2] == 0.0 and rho[2, 1] == 0.0
            # the lower mode is at least as occupied
            assert rho[2, 2].real >= rho[1, 1].real


def test_ness_leading_order_guards():
    params = SystemParams(delta=0.0)
    baths = BathParams()
    with pytest.raises(ValueError):
        ness_leading_order(diagonalize(params), baths, params)
    strong = SystemParams(delta=0.005, gamma1=0.01, gamma2=0.01)
    with pytest.warns(UserWarning):
        ness_leading_order(diagonalize(strong), baths, strong)
    # the warning starts at g = mean(gamma) / delta = 0.2, which is
    # mean(gamma) / (2 delta) = 0.1
    inside = SystemParams(delta=0.01, gamma1=0.0018, gamma2=0.002)  # g = 0.19
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ness_leading_order(diagonalize(inside), baths, inside)
    outside = SystemParams(delta=0.01, gamma1=0.002, gamma2=0.0022)  # g = 0.21
    with pytest.warns(UserWarning, match="g = 0.210"):
        ness_leading_order(diagonalize(outside), baths, outside)


def test_epr_leading_order_matches_expanded_form():
    # oracle: the same rate with every exponential written out longhand,
    # no shared factors, so an algebra slip in the packaged form shows up
    def expanded(baths, omega):
        b1, b2 = 1.0 / baths.t1, 1.0 / baths.t2
        m1, m2 = baths.mu1, baths.mu2
        affinity = (m1 * b1 + omega * b2) - (m2 * b2 + omega * b1)
        bracket = (
            2 * math.exp(2 * m1 * b1 + (m2 + omega) * b2)
            + 2 * math.exp(m1 * b1 + omega * b1 + 2 * omega * b2)
            - 2 * math.exp(2 * m2 * b2 + (m1 + omega) * b1)
            - 2 * math.exp(m2 * b2 + 2 * omega * b1 + omega * b2)
            + 2 * math.exp(2 * (m1 * b1 + omega * b2))
            - 2 * math.exp(2 * (m2 * b2 + omega * b1))
        )
        norm = (
            2.0
            * (math.exp(m1 * b1) + math.exp(omega * b1)) ** 2
            * (math.exp(m2 * b2) + math.exp(omega * b2)) ** 2
            / (b1 * b2)
        )
        return affinity * bracket / norm

    cases = [
        (BathParams(t1=0.2, t2=0.5, mu1=0.9, mu2=0.5), 1.0),
        (BathParams(t1=0.3, t2=0.25, mu1=0.1, mu2=1.2), 0.8),
        (BathParams(t1=1.0, t2=0.4, mu1=1.5, mu2=0.2), 1.3),
    ]
    for baths, omega in cases:
        assert epr_leading_order(baths, omega) == pytest.approx(
            expanded(baths, omega), rel=1e-12
        )


def test_epr_leading_order_zero_on_the_affinity_surface():
    # beta1 mu1 + omega beta2 = beta2 mu2 + omega beta1 with unequal baths
    baths = BathParams(t1=0.25, t2=0.5, mu1=0.75, mu2=0.5)
    assert epr_leading_order(baths, 1.0) == 0.0
    assert epr_leading_order(BathParams(t1=0.3, t2=0.3, mu1=0.7, mu2=0.7), 1.0) == 0.0


def test_epr_leading_order_nonnegative_random():
    rng = np.random.default_rng(502)
    for _ in range(1000):
        baths = BathParams(
            t1=rng.uniform(0.05, 1.0),
            t2=rng.uniform(0.05, 1.0),
            mu1=rng.uniform(0.0, 2.0),
            mu2=rng.uniform(0.0, 2.0),
        )
        assert epr_leading_order(baths, rng.uniform(0.5, 2.0)) >= 0.0


def test_numeric_epr_converges_to_leading_order():
    baths = BathParams(t1=0.2, t2=0.5, mu1=0.9, mu2=0.5)
    # the closed form carries b1 b2; the numeric EPR scales with gamma
    b1b2 = (1 / 0.2) * (1 / 0.5)
    ratios = []
    for gamma in (4e-4, 2e-4, 1e-4):
        params = SystemParams(delta=0.005, gamma1=gamma, gamma2=gamma)
        rep = report_at(params, baths)
        ratios.append(rep.epr / (epr_leading_order(baths, 1.0) * gamma / b1b2))
    assert ratios[0] == pytest.approx(1.0, rel=1e-2)
    assert ratios[-1] == pytest.approx(1.0, rel=2e-3)


def test_transport_report_carries_regime_flag():
    weak = SystemParams(delta=0.005)
    strong = SystemParams(delta=0.05)
    baths = BathParams(t1=0.1, t2=0.4, mu1=0.8, mu2=0.5)
    assert report_at(weak, baths).epr_regime_ok
    assert not report_at(strong, baths).epr_regime_ok


def test_fermi_occupation_drives_current_direction():
    # current sign follows the occupation difference at the mode energies
    params = SystemParams(delta=0.005)
    basis = diagonalize(params)
    baths = BathParams(t1=0.15, t2=0.6, mu1=0.2, mu2=0.2)
    rep = report_at(params, baths)
    occ_gap = fermi_occupation(basis.omega_p1, 0.15, 0.2) - fermi_occupation(
        basis.omega_p1, 0.6, 0.2
    )
    assert math.copysign(1.0, rep.i1) == math.copysign(1.0, occ_gap)
