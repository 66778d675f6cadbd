"""Stationary points, tau scales, and local Taylor data of the large-l regime.

Every potential handled here is a two-term power law c1*y**p1 + c2*y**p2, so
its stationary points form a regular polygon in the complex plane and the
Taylor coefficients at the selected root -i*tau follow from exact analytic
differentiation of each term.  Finite differences appear nowhere in this
module; they serve only as an independent cross-check in the test suite.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import namedtuple
from collections.abc import Sequence

from .potentials import HOSpec, SingularPointError
from .rectify import RectifiedProblem, angular_map, build_rectified
from .util import zpow

PowerTerms = Sequence[tuple[complex, int]]


class StationaryFamily(namedtuple("StationaryFamily", "roots tau")):
    """The full polygon of stationary points, a tuple of complex with
    roots[0] = -i*tau, and tau."""

    __slots__ = ()


class TaylorExpansion(namedtuple("TaylorExpansion", "base_point value harmonic cubic")):
    """Local data V(T), V''(T)/2, V'''(T)/6 of a potential at base_point T."""

    __slots__ = ()


class RescaledForm(namedtuple("RescaledForm", [
        "sigma", "harmonic_rescaled", "cubic_rescaled", "constant_rescaled"])):
    """Coefficients after the xi -> sigma*xi rescaling of the local problem:
    cubic_rescaled is complex, the others are floats."""

    __slots__ = ()


def tau_general(winding_number: int, ell: float) -> float:
    """Polygon radius (2 L(L+1) / ((2N+1)**2 (10N+3)))**(1/(10N+5)); at N = 0
    the cubic pentagon's (2 l(l+1) / 3)**(1/5)."""
    n = int(winding_number)
    # As a Python float, L(L+1) overflows to inf where a numpy scalar warns.
    big_l = float(angular_map(n, ell))
    strength = big_l * (big_l + 1.0)
    if math.isfinite(ell) and not strength > 0.0:  # a nan l is named below
        raise ValueError(f"need L(L+1) > 0, got L = {big_l:g}")
    if not (math.isfinite(ell) and ell >= 0):
        raise ValueError(f"l must be finite and non-negative, got l = {ell:g}")
    odd = 2 * n + 1
    radicand = 2.0 * strength / (odd * odd * (10 * n + 3))
    if not math.isfinite(radicand):
        raise ValueError(f"l = {ell:g} is too large: tau**(10N+5) overflows")
    return radicand ** (1.0 / (10 * n + 5))


def tau_ho(spec: HOSpec) -> float:
    """Stationary radius (l(l+1))**(1/4) / omega**(1/2) of the oscillator.

    Rejects an l or omega for which one of the Taylor data's l(l+1),
    omega**2, tau**5 and l(l+1)/tau**5, or its reciprocal, leaves the normal
    floats: e**708 is about the largest float with a normal reciprocal.
    """
    ell, omega = spec.angular, spec.frequency
    strength = ell * (ell + 1.0)
    if not strength > 0.0:
        raise ValueError("need l(l+1) > 0")
    log_s, log_w = math.log(strength), math.log(omega)
    log_tau5 = 1.25 * log_s - 2.5 * log_w
    if max(abs(log_s), abs(2.0 * log_w), abs(log_tau5), abs(log_s - log_tau5)) >= 708.0:
        raise ValueError(f"l = {ell:g} and omega = {omega:g} are out of range: "
                         "the oscillator's Taylor data overflow or underflow")
    return strength ** 0.25 / omega ** 0.5


def power_terms(problem: RectifiedProblem) -> list[tuple[complex, int]]:
    """(coefficient, exponent) pairs of the rectified potential."""
    return [(complex(problem.centrifugal_strength), -2),
            (problem.potential_coefficient, problem.potential_exponent)]


def power_terms_ho(spec: HOSpec) -> list[tuple[complex, int]]:
    """(coefficient, exponent) pairs of the oscillator potential."""
    ell, omega = spec.angular, spec.frequency
    return [(complex(ell * (ell + 1.0)), -2), (complex(omega * omega), 2)]


def stationary_points(problem: RectifiedProblem) -> StationaryFamily:
    """All 10N+5 stationary points of the rectified potential.

    They form a regular polygon T_j = -i*tau * exp(2 pi i j/(10N+5)); the
    selected root (index 0) is -i*tau, the one a straight line with shift
    tau passes through.
    """
    n = problem.winding_number
    count = 10 * n + 5
    tau = tau_general(n, problem.ell)
    step = cmath.exp(2j * cmath.pi / count)
    roots = [complex(-1j * tau)]
    for _ in range(count - 1):
        roots.append(roots[-1] * step)
    return StationaryFamily(tuple(roots), tau)


def stationary_points_ho(spec: HOSpec) -> StationaryFamily:
    """The four stationary points (-i)**j tau, j = 1..4, of the oscillator."""
    tau = tau_ho(spec)
    roots = (complex(-1j * tau), complex(-tau), complex(1j * tau), complex(tau))
    return StationaryFamily(roots, tau)


def taylor_at(terms: PowerTerms, point: complex) -> TaylorExpansion:
    """Exact Taylor data of sum(c * y**p) at `point`.

    The k-th derivative of c*y**p is c * p(p-1)...(p-k+1) * y**(p-k), so the
    value, harmonic (V''/2) and cubic (V'''/6) coefficients come out in
    closed form.
    """
    point = complex(point)
    if point == 0:
        raise SingularPointError("cannot expand at the singular point y = 0")
    value = 0j
    second = 0j
    third = 0j
    for coeff, p in terms:
        value += coeff * zpow(point, p)
        second += coeff * p * (p - 1) * zpow(point, p - 2)
        third += coeff * p * (p - 1) * (p - 2) * zpow(point, p - 3)
    return TaylorExpansion(point, value, second / 2.0, third / 6.0)


def taylor_rectified(problem: RectifiedProblem) -> TaylorExpansion:
    """Taylor data of the rectified potential at its selected root -i*tau.

    Under the defining root condition the value collapses to
    -(1/2)(2N+1)**2 (10N+5) tau**(10N+3) and the harmonic coefficient to
    omega_N**2 tau**(10N+1); the first neglected term carries tau**(10N-1).
    """
    n = problem.winding_number
    tau = tau_general(n, problem.ell)
    return taylor_at(power_terms(problem), -1j * tau)


def taylor_ho(spec: HOSpec) -> TaylorExpansion:
    """Taylor data of the oscillator potential at -i*tau.

    Gives value -2 omega**2 tau**2, harmonic 4 omega**2 (so V'' = 8 omega**2
    at every root), and cubic coefficient -4 omega**2 / Q at the root Q, the
    sign being fixed by differentiating the centrifugal term and confirmed
    against finite differences.  The first neglected term carries tau**(-2).
    """
    tau = tau_ho(spec)
    return taylor_at(power_terms_ho(spec), -1j * tau)


def harmonic_frequency(winding_number: int) -> float:
    """omega_N = (2N+1) sqrt((10N+3)(10N+5)/2); harmonic = omega_N**2 tau**(10N+1)."""
    n = int(winding_number)
    return (2 * n + 1) * math.sqrt((10 * n + 3) * (10 * n + 5) / 2.0)


def mu_coefficient(winding_number: int, ell: float) -> complex:
    """Cubic Taylor coefficient at -i*tau, normalized by tau**(10N).

    Purely imaginary for the whole rectified family; equals -5i at N = 0.
    """
    n = int(winding_number)
    problem = build_rectified(n, ell)
    tau = tau_general(n, ell)
    return taylor_rectified(problem).cubic / tau ** (10 * n)


def rescale(expansion: TaylorExpansion, winding_number: int, tau: float) -> RescaledForm:
    """Rescale xi -> sigma*xi with sigma = tau**(-(10N+1)/4).

    After multiplying the eigenvalue equation by sigma**2, the harmonic
    coefficient becomes the tau-free constant (2N+1)**2 (10N+3)(10N+5)/2,
    the constant term is scaled by sigma**2 and the cubic one by sigma**5.
    The analytically real constant and harmonic parts must have relative
    imaginary residue below 1e-12; anything larger raises instead of being
    silently dropped.
    """
    n = int(winding_number)
    if not tau > 1.0:
        warnings.warn("tau <= 1: asymptotic rescaling used outside its regime",
                      RuntimeWarning, stacklevel=2)
    sigma = tau ** (-(10 * n + 1) / 4.0)
    harmonic = _checked_real(expansion.harmonic, "harmonic coefficient")
    constant = _checked_real(expansion.value, "constant term")
    return RescaledForm(
        sigma=sigma,
        harmonic_rescaled=harmonic * sigma ** 4,
        cubic_rescaled=expansion.cubic * sigma ** 5,
        constant_rescaled=constant * sigma ** 2,
    )


def cubic_correction_exponent(winding_number: float) -> float:
    """tau-exponent -(10N+5)/4 of the rescaled anharmonic correction."""
    return -(10.0 * winding_number + 5.0) / 4.0


def weight_correction_exponent(winding_number: float) -> float:
    """tau-exponent -(14N+7)/4 the paper gives the first xi-dependent weight
    correction, kept as the record of its claim that the correction is
    subdominant to the anharmonic one.

    The claim does not hold for N >= 1: at the levels, E*W_y is of the same
    order in l as V_y (both grow like l**(26/15) at N = 1), so it is not a
    correction but moves the well from -i*tau_N to the preimage
    y* = -i*tau_0**(1/(2N+1)) of the N = 0 well, whose levels are the N = 0
    levels energy_cubic.
    """
    return -(14.0 * winding_number + 7.0) / 4.0


def _checked_real(z: complex, what: str) -> float:
    z = complex(z)
    if abs(z.imag) > 1e-12 * max(1.0, abs(z)):
        raise ValueError(f"{what} has a non-negligible imaginary part: {z!r}")
    return z.real
