"""Effective potentials of the complexified radial problems.

The general family is

    V(q) = q**2 (iq)**(2M-2) - alpha (iq)**(M-1) + l(l+1)/q**2,   M > 1,

with fractional powers taken on the principal branch of log(iq), whose cut
sits on the upward half axis q = i*t, t >= 0.  Integer exponents short-circuit
to exact integer powers, so M = 3/2 with alpha = 0 never touches the branch
machinery and coincides with the imaginary cubic potential
l(l+1)/q**2 + i q**3.  All contours used in this package run strictly below
the real axis and stay clear of the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import ipow


class SingularPointError(ValueError):
    """A potential was evaluated at its singular point q = 0."""


class BranchCutError(ValueError):
    """A fractional power was requested on the cut q = i*t, t >= 0."""


@dataclass(frozen=True)
class ModelSpec:
    """Parameters (M, alpha, l) of the general potential family."""

    exponent: float
    coupling: float = 0.0
    angular: float = 0.0

    def __post_init__(self):
        if not self.exponent > 1:
            raise ValueError("exponent M must exceed 1")
        if self.angular < 0:
            raise ValueError("angular momentum l must be non-negative")


@dataclass(frozen=True)
class HOSpec:
    """Parameters (l, omega) of the oscillator benchmark."""

    angular: float
    frequency: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(
                f"omega must be finite and positive, got omega = {self.frequency:g}")
        if not (math.isfinite(self.angular) and self.angular >= 0):
            raise ValueError(
                f"l must be finite and non-negative, got l = {self.angular:g}")


def _iq_power(q: complex, p: float) -> complex:
    """(iq)**p: exact for integer p, principal branch otherwise."""
    if p == int(p):
        return ipow(1j * q, int(p))
    if q.real == 0.0 and q.imag >= 0.0:
        raise BranchCutError(
            f"(iq)**{p:g} is ambiguous on the upward half axis q = i*t, t >= 0")
    return (1j * q) ** p


def v_eff(q: complex, spec: ModelSpec) -> complex:
    """General effective potential at a complex point q."""
    q = complex(q)
    if q == 0:
        raise SingularPointError("effective potential is singular at q = 0")
    value = q * q * _iq_power(q, 2.0 * spec.exponent - 2.0)
    if spec.coupling != 0.0:
        value -= spec.coupling * _iq_power(q, spec.exponent - 1.0)
    ell = spec.angular
    return value + ell * (ell + 1.0) / (q * q)


def v_eff_cubic(z, ell: float):
    """Imaginary cubic potential l(l+1)/z**2 + i z**3 (the M = 3/2, alpha = 0 case).

    Accepts a complex scalar or a numpy array.
    """
    if np.any(z == 0):
        raise SingularPointError("potential is singular at z = 0")
    return ell * (ell + 1.0) / (z * z) + 1j * ipow(z, 3)


def v_eff_ho(q, spec: HOSpec):
    """Oscillator potential l(l+1)/q**2 + omega**2 q**2 (scalar or array)."""
    if np.any(q == 0):
        raise SingularPointError("potential is singular at q = 0")
    ell, omega = spec.angular, spec.frequency
    return ell * (ell + 1.0) / (q * q) + omega * omega * q * q


def reality_condition(spec: ModelSpec) -> bool:
    """Sufficient condition for a real spectrum: M + 1 + |2l+1| > alpha (strict)."""
    return spec.exponent + 1.0 + abs(2.0 * spec.angular + 1.0) > spec.coupling
