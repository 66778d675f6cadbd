"""Effective potentials of the complexified radial problems: the imaginary
cubic oscillator l(l+1)/z**2 + i z**3 and the oscillator benchmark
l(l+1)/q**2 + omega**2 q**2.  Both are rational in the point, so they need
no branch bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .util import has_zero, ipow


class SingularPointError(ValueError):
    """A potential was evaluated at its singular point q = 0."""


def check_frequency(omega: float) -> None:
    """Raise ValueError unless omega is finite and positive."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got omega = {omega:g}")


@dataclass(frozen=True)
class HOSpec:
    """Parameters (l, omega) of the oscillator benchmark."""

    angular: float
    frequency: float = 1.0

    def __post_init__(self):
        check_frequency(self.frequency)
        if not (math.isfinite(self.angular) and self.angular >= 0):
            raise ValueError(
                f"l must be finite and non-negative, got l = {self.angular:g}")


def v_eff_cubic(z, ell: float):
    """Imaginary cubic potential l(l+1)/z**2 + i z**3.

    Accepts a complex scalar or a numpy array.
    """
    if has_zero(z):
        raise SingularPointError("potential is singular at z = 0")
    return ell * (ell + 1.0) / (z * z) + 1j * ipow(z, 3)


def v_eff_ho(q, spec: HOSpec):
    """Oscillator potential l(l+1)/q**2 + omega**2 q**2 (scalar or array)."""
    if has_zero(q):
        raise SingularPointError("potential is singular at q = 0")
    ell, omega = spec.angular, spec.frequency
    return ell * (ell + 1.0) / (q * q) + omega * omega * q * q
