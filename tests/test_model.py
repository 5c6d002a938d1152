"""Single-particle layer: diagonalization and reservoir occupations."""
import math

import numpy as np
import pytest

from fermijunction import (
    BathParams,
    SystemParams,
    diagonalize,
    fermi_occupation,
)


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
