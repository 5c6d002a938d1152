"""Single-particle layer: diagonalization and reservoir occupations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermijunction import (
    BathParams,
    SystemParams,
    diagonalize,
    fermi_occupation,
)
from fermijunction.model import take


def test_diagonalize_matches_dense_eigensolver():
    rng = np.random.default_rng(101)
    for _ in range(200):
        w1, w2 = rng.uniform(0.2, 2.0, size=2)
        delta = rng.uniform(-0.5, 0.5)
        params = SystemParams(omega1=w1, omega2=w2, delta=delta)
        basis = diagonalize(params)
        ref = np.linalg.eigvalsh([[w1, delta], [delta, w2]])
        assert basis.omega_p1 == pytest.approx(ref[1], abs=1e-12)
        assert basis.omega_p2 == pytest.approx(ref[0], abs=1e-12)
        assert basis.omega_p1 >= basis.omega_p2


def test_diagonalize_invariants():
    rng = np.random.default_rng(102)
    for _ in range(100):
        w1, w2 = rng.uniform(0.2, 2.0, size=2)
        delta = rng.uniform(-0.5, 0.5)
        basis = diagonalize(SystemParams(omega1=w1, omega2=w2, delta=delta))
        # trace and determinant of the 2x2 single-particle matrix
        assert basis.omega_p1 + basis.omega_p2 == pytest.approx(w1 + w2, rel=1e-12)
        assert basis.omega_p1 * basis.omega_p2 == pytest.approx(
            w1 * w2 - delta * delta, rel=1e-10, abs=1e-12
        )
        assert basis.cos_theta**2 + basis.sin_theta**2 == pytest.approx(1.0, abs=1e-12)
        # theta = atan2(2 delta, omega2 - omega1)
        theta = math.atan2(2.0 * delta, w2 - w1)
        assert basis.cos_theta == pytest.approx(math.cos(theta), abs=1e-12)
        assert basis.sin_theta == pytest.approx(math.sin(theta), abs=1e-12)


def test_diagonalize_symmetric_sites():
    basis = diagonalize(SystemParams(omega1=1.0, omega2=1.0, delta=0.005))
    assert basis.omega_p1 == pytest.approx(1.005)
    assert basis.omega_p2 == pytest.approx(0.995)
    assert basis.cos_theta == pytest.approx(0.0, abs=1e-15)
    assert basis.sin_theta == pytest.approx(1.0)


def test_diagonalize_fully_degenerate_point():
    basis = diagonalize(SystemParams(omega1=1.0, omega2=1.0, delta=0.0))
    assert basis.omega_p1 == basis.omega_p2 == 1.0
    assert (basis.cos_theta, basis.sin_theta) == (0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    omega1=st.floats(0.6, 2.0),
    detuning=st.floats(1e-3, 0.5).flatmap(lambda d: st.sampled_from([-d, d])),
    delta=st.floats(-0.5, 0.5),
)
def test_d_theta_matches_a_central_difference(omega1, detuning, delta):
    # theta = atan2(2 delta, omega2 - omega1) is smooth in delta away from
    # the tuned line; a central difference with h = 1e-6 s is off by
    # ~(h/s)^2 = 1e-12 relative in truncation and by the roundoff of the
    # two angles over 2h (the gap was at most 0.15 of this bound over
    # 20000 random draws).  Below the line, theta jumps from -pi to pi at
    # delta = 0: the step is taken mod 2 pi
    basis = diagonalize(SystemParams(omega1=omega1, omega2=omega1 + detuning, delta=delta))
    h = 1e-6 * (basis.omega_p1 - basis.omega_p2)
    hi, lo = (diagonalize(SystemParams(omega1=omega1, omega2=omega1 + detuning, delta=d))
              for d in (delta + h, delta - h))
    step = math.atan2(hi.sin_theta, hi.cos_theta) - math.atan2(lo.sin_theta, lo.cos_theta)
    slope = math.remainder(step, 2.0 * math.pi) / (2.0 * h)
    assert basis.d_theta == pytest.approx(slope, rel=1e-9, abs=1e-15 / h)


def test_d_theta_is_exactly_zero_on_the_tuned_line():
    # at s = 0 and at tiny delta, where cos theta and omega'_1 - omega'_2
    # are roundoff, the rate is the exact 0 and not an O(1) artifact
    for omega in (0.3, 1.0, 1.7):
        for delta in (0.0, 2.0**-53, -(2.0**-53), 1e-10, 0.005, -0.3):
            assert diagonalize(SystemParams(omega1=omega, omega2=omega, delta=delta)).d_theta == 0.0


def test_stacked_basis_equals_each_point_alone():
    omega2 = np.array([1.0, 1.0, 1.1, 0.9, 1.02])
    delta = np.array([0.0, 2.0**-53, 0.02, -0.01, 0.0])
    stack = diagonalize(SystemParams(omega1=1.0, omega2=omega2, delta=delta))
    for i in range(omega2.size):
        alone = diagonalize(SystemParams(omega1=1.0, omega2=omega2[i], delta=delta[i]))
        assert take(stack, i) == alone


def test_diagonalize_zero_tunneling_ordering():
    # higher site becomes mode 1, lower site mode 2; no mixing
    basis = diagonalize(SystemParams(omega1=1.2, omega2=1.0, delta=0.0))
    assert basis.omega_p1 == pytest.approx(1.2)
    assert basis.omega_p2 == pytest.approx(1.0)
    assert basis.cos_theta == pytest.approx(-1.0)
    assert basis.sin_theta == pytest.approx(0.0, abs=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega1=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega2=-1.0)
    with pytest.raises(ValueError):
        SystemParams(gamma1=-1e-3)
    with pytest.raises(ValueError):
        BathParams(t1=0.0)
    with pytest.raises(ValueError):
        BathParams(t2=-0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(bad):
    # a non-finite field fails with its name, before any sign check
    # whose comparison a NaN would silently fail or pass
    with pytest.raises(ValueError, match="^delta must be finite$"):
        SystemParams(delta=bad)
    with pytest.raises(ValueError, match="^omega2, gamma1 must be finite$"):
        SystemParams(omega2=bad, gamma1=bad)
    with pytest.raises(ValueError, match="^mu1 must be finite$"):
        BathParams(mu1=bad)
    with pytest.raises(ValueError, match="^t2 must be finite$"):
        BathParams(t2=np.array([0.2, bad]))


def test_fermi_occupation_basics():
    assert fermi_occupation(1.0, 0.5, 1.0) == pytest.approx(0.5)
    # complementary energies around mu sum to 1
    assert fermi_occupation(1.3, 0.2, 1.0) + fermi_occupation(0.7, 0.2, 1.0) == (
        pytest.approx(1.0, abs=1e-15)
    )
    # extreme arguments stay finite and inside (0, 1)
    assert fermi_occupation(1e4, 0.1, 0.0) == pytest.approx(0.0, abs=1e-300)
    assert fermi_occupation(-1e4, 0.1, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fermi_occupation(1.0, 0.0, 0.5)
