import math

import numpy as np
import pytest

from toboggan.potentials import (
    HOSpec,
    SingularPointError,
    v_eff_cubic,
    v_eff_ho,
)


def random_points(rng, count):
    """Random complex points away from the origin."""
    points = []
    while len(points) < count:
        q = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        if abs(q) > 1e-3:
            points.append(q)
    return points


def test_v_eff_cubic_case_hand_value():
    assert v_eff_cubic(-1j, 0.0) == pytest.approx(-1.0, rel=1e-15)


def test_v_eff_centrifugal_contribution():
    # The l-dependent part alone: l(l+1)/q**2 = 2/(-i)**2 = -2.
    assert v_eff_cubic(-1j, 1.0) - v_eff_cubic(-1j, 0.0) == pytest.approx(-2.0, rel=1e-14)


def test_v_eff_hand_expansion_at_1_minus_i():
    # i(1-i)**3 + 6/(1-i)**2 = (2-2i) + 3i = 2+i
    assert v_eff_cubic(1 - 1j, 2.0) == pytest.approx(2 + 1j, rel=1e-14)


def test_v_eff_pt_symmetry():
    rng = np.random.default_rng(5)
    for ell in (0.0, 0.5, 2.0):
        for q in random_points(rng, 40):
            mirrored = v_eff_cubic(-q.conjugate(), ell)
            assert mirrored == pytest.approx(v_eff_cubic(q, ell).conjugate(), rel=1e-12)


def test_v_eff_singularity_and_cut_errors():
    spec = HOSpec(angular=1.0, frequency=2.0)
    with pytest.raises(SingularPointError):
        v_eff_cubic(0.0, 1.5)
    with pytest.raises(SingularPointError):
        v_eff_ho(0.0, spec)
    # An array that holds the singular point is rejected as a whole.
    with pytest.raises(SingularPointError):
        v_eff_cubic(np.array([1.0 + 0j, 0j]), 1.5)
    with pytest.raises(SingularPointError):
        v_eff_ho(np.array([0j, 1j]), spec)
    # Both potentials are rational, so the upward half axis carries no cut:
    # l(l+1)/(0.5i)**2 + i (0.5i)**3 = -4 l(l+1) + 1/8.
    assert v_eff_cubic(0.5j, 1.0) == pytest.approx(-8.0 + 0.125, rel=1e-15)
    assert v_eff_ho(0.5j, spec) == pytest.approx(-8.0 - 1.0, rel=1e-15)


def test_v_eff_cubic_values():
    assert v_eff_cubic(1.0, 0.0) == 1j
    assert v_eff_cubic(2j, 1.0) == pytest.approx(7.5 + 0j, rel=1e-15)
    with pytest.raises(SingularPointError):
        v_eff_cubic(0.0, 1.0)


def test_v_eff_cubic_leading_taylor_value():
    # At z = -i*tau with l(l+1) = (3/2) tau**5 the value is -(5/2) tau**3;
    # tau = 2 corresponds to l(l+1) = 48.
    tau = 2.0
    ell = (-1.0 + math.sqrt(1.0 + 4.0 * 1.5 * tau ** 5)) / 2.0
    assert ell * (ell + 1.0) == pytest.approx(48.0, rel=1e-14)
    value = v_eff_cubic(-1j * tau, ell)
    assert value == pytest.approx(-2.5 * tau ** 3, rel=1e-13)


def test_v_eff_cubic_vectorized():
    z = np.array([1.0 + 0j, 2j, 1 - 1j])
    values = v_eff_cubic(z, 1.0)
    assert values.shape == (3,)
    assert values[1] == pytest.approx(v_eff_cubic(2j, 1.0), rel=1e-15)


def test_v_eff_ho_values():
    assert v_eff_ho(1.0, HOSpec(angular=0.0, frequency=1.0)) == pytest.approx(1.0)
    assert v_eff_ho(-1j, HOSpec(angular=1.0, frequency=2.0)) == pytest.approx(-6.0)
    with pytest.raises(SingularPointError):
        v_eff_ho(0.0, HOSpec(angular=1.0, frequency=1.0))


def test_v_eff_ho_leading_taylor_value():
    # 2 omega**2 Q**2 wherever l(l+1) = omega**2 Q**4.
    omega, big_q = 1.5, 1.3
    ell = (-1.0 + math.sqrt(1.0 + 4.0 * omega ** 2 * big_q ** 4)) / 2.0
    value = v_eff_ho(big_q, HOSpec(angular=ell, frequency=omega))
    assert value == pytest.approx(2.0 * omega ** 2 * big_q ** 2, rel=1e-13)


def test_spec_validation():
    with pytest.raises(ValueError):
        HOSpec(angular=1.0, frequency=0.0)
    with pytest.raises(ValueError):
        HOSpec(angular=-1.0, frequency=1.0)
