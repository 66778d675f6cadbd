"""The tau scales and local Taylor data of the large-l regime.

Every potential handled here is a two-term power law c1*y**p1 + c2*y**p2.
Its stationary points lie on a circle of radius tau, and the closed forms
expand at the selected one, -i*tau, where the Taylor coefficients follow from
exact analytic differentiation of each term.  Finite differences appear
nowhere in this module; they serve only as an independent cross-check in the
test suite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .potentials import HOSpec, SingularPointError
from .rectify import RectifiedProblem, angular_map
from .util import zpow

PowerTerms = Sequence[tuple[complex, int]]


class TaylorExpansion(namedtuple("TaylorExpansion", "base_point value harmonic cubic")):
    """Local data V(T), V''(T)/2, V'''(T)/6 of a potential at base_point T."""

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
