import math

import numpy as np
import pytest

from conftest import fd_taylor, rel_err
from toboggan.expansion import (
    TaylorExpansion,
    cubic_correction_exponent,
    harmonic_frequency,
    mu_coefficient,
    power_terms,
    power_terms_ho,
    rescale,
    stationary_points,
    stationary_points_ho,
    tau_general,
    tau_ho,
    taylor_at,
    taylor_ho,
    taylor_rectified,
    weight_correction_exponent,
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
    problem = build_rectified(winding, ell)
    family = stationary_points(problem)
    count = 10 * winding + 5
    assert len(family.roots) == count
    assert family.roots[0] == complex(0.0, -family.tau)
    step = np.exp(2j * np.pi / count)
    for a, b in zip(family.roots, family.roots[1:]):
        assert b == pytest.approx(a * step, rel=1e-12)
    # Every root kills the derivative, relative to the curvature scale.
    terms = power_terms(problem)
    curvature = abs(taylor_rectified(problem).harmonic) * 2.0
    for root in family.roots:
        assert abs(_derivative(terms, root)) < 1e-10 * curvature * family.tau


@pytest.mark.parametrize("winding", range(20))
def test_stationary_points_equal_numpy_polygon_bit_for_bit(winding):
    # The step is cmath.exp(2 pi i/(10N+5)); the polygon it spans must be the
    # one numpy's exp gives, to the last bit of every root.
    problem = build_rectified(winding, 37.5)
    family = stationary_points(problem)
    step = np.exp(2j * np.pi / (10 * winding + 5))
    expected = [complex(0.0, -family.tau)]
    for _ in family.roots[1:]:
        expected.append(complex(expected[-1] * step))
    assert [(z.real, z.imag) for z in family.roots] \
        == [(z.real, z.imag) for z in expected]


def test_stationary_points_ho():
    spec = HOSpec(angular=1.0, frequency=2.0)
    family = stationary_points_ho(spec)
    tau = family.tau
    assert tau == pytest.approx(2.0 ** -0.25, rel=1e-15)
    assert family.roots == (complex(0, -tau), complex(-tau), complex(0, tau),
                            complex(tau))
    # V'' = 8 omega**2 at every root.
    for root in family.roots:
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
    harmonic_closed = harmonic_frequency(winding) ** 2 * tau ** (10 * winding + 1)
    assert rel_err(expansion.value, value_closed) < 1e-12
    assert rel_err(expansion.harmonic, harmonic_closed) < 1e-10


def test_harmonic_frequency_recipe():
    for winding in range(5):
        explicit = (2 * winding + 1) * math.sqrt(
            (10 * winding + 3) * (10 * winding + 5) / 2.0)
        assert harmonic_frequency(winding) == explicit


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


def test_mu_coefficient_cubic():
    assert mu_coefficient(0, 1e6) == pytest.approx(-5j, rel=1e-4)
    # The root condition holds exactly at any l, so the value is -5i even
    # far from the asymptotic regime.
    assert mu_coefficient(0, 3.0) == pytest.approx(-5j, rel=1e-12)


def test_mu_coefficient_against_finite_differences():
    winding, ell = 1, 100.0
    problem = build_rectified(winding, ell)
    tau = tau_general(winding, ell)
    point = complex(0.0, -tau)
    _, _, cubic = fd_taylor(power_terms(problem), point, 1e-5 * tau)
    assert rel_err(mu_coefficient(winding, ell), cubic / tau ** 10) < 1e-6


def test_mu_coefficient_purely_imaginary():
    for winding in range(4):
        mu = mu_coefficient(winding, 1e6)
        assert abs(mu.real) < 1e-10 * abs(mu.imag)


def test_rescale_cubic():
    ell = 100.0
    tau = tau_general(0, ell)
    form = rescale(taylor_rectified(build_rectified(0, ell)), 0, tau)
    assert form.sigma == pytest.approx(tau ** -0.25, rel=1e-15)
    assert form.harmonic_rescaled == pytest.approx(7.5, rel=1e-12)
    assert abs(form.cubic_rescaled) == pytest.approx(5.0 * form.sigma ** 5, rel=1e-10)
    assert form.constant_rescaled == pytest.approx(-2.5 * tau ** 2.5, rel=1e-12)


def test_rescale_sigma_examples():
    expansion = taylor_rectified(build_rectified(0, 1e3))
    assert rescale(expansion, 0, 16.0).sigma == pytest.approx(0.5, rel=1e-15)
    # sigma decreases with the winding number at fixed tau > 1.
    sigmas = [rescale(expansion, winding, 2.0).sigma for winding in range(5)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert all(s < 1.0 for s in sigmas)


def test_rescale_warns_outside_asymptotic_regime():
    expansion = taylor_rectified(build_rectified(0, 1e3))
    with pytest.warns(RuntimeWarning):
        rescale(expansion, 0, 0.9)


@pytest.mark.parametrize("harmonic, value, what", [
    (1.0 + 1e-6j, 1.0, "harmonic coefficient"),
    (1.0, 1.0 + 1e-6j, "constant term"),
])
def test_rescale_rejects_a_complex_real_part(harmonic, value, what):
    # The constant and harmonic parts are real in exact arithmetic; a
    # residue above 1e-12 relative is raised, not dropped.
    expansion = TaylorExpansion(base_point=-1j, value=value, harmonic=harmonic, cubic=-5j)
    with pytest.raises(ValueError, match=f"{what} has a non-negligible imaginary part"):
        rescale(expansion, 0, 2.0)


def test_rescale_general_harmonic_collapses():
    for winding in (1, 2, 3):
        ell = 50.0
        tau = tau_general(winding, ell)
        form = rescale(taylor_rectified(build_rectified(winding, ell)), winding, tau)
        odd = 2 * winding + 1
        expected = odd ** 2 * (10 * winding + 3) * (10 * winding + 5) / 2.0
        assert form.harmonic_rescaled == pytest.approx(expected, rel=1e-10)


def test_correction_exponent_ordering():
    for winding in [0, 1, 2, 3, 5, 10, 0.5, 2.25]:
        cubic = cubic_correction_exponent(winding)
        weight = weight_correction_exponent(winding)
        assert weight < cubic
        assert cubic == -(10 * winding + 5) / 4.0
        assert weight == -(14 * winding + 7) / 4.0
