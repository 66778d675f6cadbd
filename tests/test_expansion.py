import math

import numpy as np
import pytest

from conftest import fd_taylor, rel_err
from toboggan.expansion import (
    power_terms,
    power_terms_ho,
    tau_general,
    tau_ho,
    taylor_at,
    taylor_ho,
    taylor_rectified,
)
from toboggan.potentials import HOSpec, SingularPointError
from toboggan.rectify import build_rectified


def test_tau_cubic_value():
    assert tau_general(0, 4.0) == (2.0 * 20.0 / 3.0) ** 0.2
    assert abs(tau_general(0, 4.0) - 1.6789) < 2e-4  # 5-digit reference


def test_tau_cubic_unit_value():
    # l(l+1) = 3/2 inverts 2 l(l+1)/3 = 1.
    ell = (-1.0 + math.sqrt(7.0)) / 2.0
    assert tau_general(0, ell) == pytest.approx(1.0, rel=1e-14)


def test_tau_cubic_domain_error():
    with pytest.raises(ValueError):
        tau_general(0, 0.0)
    with pytest.raises(ValueError):
        tau_general(0, -0.5)


def test_tau_general_reduces_bit_for_bit():
    # At N = 0, L = l exactly, so the pentagon's radius comes out bit for bit.
    rng = np.random.default_rng(12)
    for ell in [0.3, 1.0, 4.0, *rng.uniform(0.1, 500.0, 50).tolist()]:
        assert tau_general(0, ell) == (2.0 * ell * (ell + 1.0) / 3.0) ** 0.2


def test_tau_general_hand_value():
    # N=1, l=4: L = 13, tau = (28/9)**(1/15)
    assert tau_general(1, 4.0) == pytest.approx((28.0 / 9.0) ** (1.0 / 15.0), rel=1e-15)
    assert abs(tau_general(1, 4.0) - 1.07860) < 1e-5


def test_tau_general_defining_identity_large_ell():
    for winding in (1, 2, 3):
        ell = 1e8
        big_l = (2 * winding + 1) * ell + winding
        tau = tau_general(winding, ell)
        ratio = (tau ** (10 * winding + 5) * (2 * winding + 1) ** 2
                 * (10 * winding + 3)) / (2.0 * big_l * (big_l + 1.0))
        assert ratio == pytest.approx(1.0, rel=1e-12)


def _derivative(terms, point):
    return sum(c * p * point ** (p - 1) for c, p in terms)


@pytest.mark.parametrize("winding,ell", [(0, 4.0), (1, 4.0), (2, 7.0), (3, 2.5)])
def test_stationary_points_polygon(winding, ell):
    # Every vertex -i*tau*exp(2 pi i j/(10N+5)) of the polygon kills the
    # derivative, relative to the curvature scale; j = 0 is the selected root.
    problem = build_rectified(winding, ell)
    tau = tau_general(winding, ell)
    count = 10 * winding + 5
    roots = [-1j * tau * np.exp(2j * np.pi * j / count) for j in range(count)]
    expansion = taylor_rectified(problem)
    assert expansion.base_point == complex(0.0, -tau)
    terms = power_terms(problem)
    for root in roots:
        assert abs(_derivative(terms, root)) < 1e-10 * abs(expansion.harmonic) * 2.0 * tau


def test_stationary_points_ho():
    spec = HOSpec(angular=1.0, frequency=2.0)
    tau = tau_ho(spec)
    assert tau == pytest.approx(2.0 ** -0.25, rel=1e-15)
    # V'' = 8 omega**2 at every one of the four roots (-i)**j tau.
    for root in (-1j * tau, -tau, 1j * tau, tau):
        expansion = taylor_at(power_terms_ho(spec), root)
        assert 2.0 * expansion.harmonic == pytest.approx(8.0 * 4.0, rel=5e-14)


def test_stationary_points_ho_unit_tau():
    # tau = 1 whenever l(l+1) = omega**2.
    ell = 1.0
    spec = HOSpec(angular=ell, frequency=math.sqrt(ell * (ell + 1.0)))
    assert tau_ho(spec) == pytest.approx(1.0, rel=1e-15)


def test_taylor_cubic_closed_forms():
    # At the selected root: value -(5/2)tau**3, harmonic (15/2)tau, cubic -5i.
    for ell in (4.0, 10.0, 100.0):
        problem = build_rectified(0, ell)
        tau = tau_general(0, ell)
        expansion = taylor_rectified(problem)
        assert expansion.base_point == complex(0.0, -tau)
        assert expansion.value == pytest.approx(-2.5 * tau ** 3, rel=1e-12)
        assert expansion.harmonic == pytest.approx(7.5 * tau, rel=1e-12)
        assert expansion.cubic == pytest.approx(-5j, rel=1e-12)


def test_taylor_ho_closed_forms():
    for ell, omega in ((10.0, 1.0), (3.0, 2.5)):
        spec = HOSpec(angular=ell, frequency=omega)
        tau = tau_ho(spec)
        expansion = taylor_ho(spec)
        assert expansion.value == pytest.approx(-2.0 * omega ** 2 * tau ** 2, rel=1e-12)
        assert expansion.harmonic == pytest.approx(4.0 * omega ** 2, rel=1e-12)
        # Cubic coefficient -4 omega**2 / Q at Q = -i*tau.
        assert expansion.cubic == pytest.approx(-4.0 * omega ** 2 / (-1j * tau),
                                                rel=1e-12)


@pytest.mark.parametrize("winding", [0, 1, 2, 3, 4])
def test_taylor_general_closed_forms_exact_root_condition(winding):
    ell = 1e3
    problem = build_rectified(winding, ell)
    tau = tau_general(winding, ell)
    expansion = taylor_rectified(problem)
    odd = 2 * winding + 1
    value_closed = -0.5 * odd ** 2 * (10 * winding + 5) * tau ** (10 * winding + 3)
    harmonic_closed = (odd ** 2 * (10 * winding + 3) * (10 * winding + 5) / 2.0
                       * tau ** (10 * winding + 1))
    assert rel_err(expansion.value, value_closed) < 1e-12
    assert rel_err(expansion.harmonic, harmonic_closed) < 1e-10
    # The cubic coefficient is purely imaginary for the whole family.
    assert abs(expansion.cubic.real) < 1e-10 * abs(expansion.cubic.imag)


def test_taylor_at_rejects_origin():
    with pytest.raises(SingularPointError):
        taylor_at([(1.0 + 0j, -2)], 0.0)


def test_taylor_matches_finite_differences():
    # Central differences with step 1e-5*|T|, evaluated in high precision.
    rng = np.random.default_rng(99)
    cases = []
    for winding in (0, 1, 2, 3):
        for _ in range(3):
            ell = float(rng.uniform(2.0, 500.0))
            problem = build_rectified(winding, ell)
            cases.append((power_terms(problem), taylor_rectified(problem)))
    for _ in range(8):
        spec = HOSpec(angular=float(rng.uniform(1.0, 200.0)),
                      frequency=float(rng.uniform(0.5, 5.0)))
        cases.append((power_terms_ho(spec), taylor_ho(spec)))
    assert len(cases) == 20
    for terms, expansion in cases:
        point = expansion.base_point
        value, harmonic, cubic = fd_taylor(terms, point, 1e-5 * abs(point))
        assert rel_err(expansion.value, value) < 1e-6
        assert rel_err(expansion.harmonic, harmonic) < 1e-6
        assert rel_err(expansion.cubic, cubic) < 1e-6
