"""Effective potentials of the complexified radial problems: the imaginary
cubic oscillator l(l+1)/z**2 + i z**3 and the oscillator benchmark
l(l+1)/q**2 + omega**2 q**2.  Both are rational in the point, so they need
no branch bookkeeping.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .util import has_zero, ipow


class SingularPointError(ValueError):
    """A potential was evaluated at its singular point q = 0."""


class HOSpec(namedtuple("HOSpec", "angular frequency")):
    """Parameters (l, omega) of the oscillator benchmark."""

    __slots__ = ()

    def __new__(cls, angular: float, frequency: float = 1.0):
        if not (math.isfinite(frequency) and frequency > 0):
            raise ValueError(
                f"omega must be finite and positive, got omega = {frequency:g}")
        if not (math.isfinite(angular) and angular >= 0):
            raise ValueError(
                f"l must be finite and non-negative, got l = {angular:g}")
        return super().__new__(cls, angular, frequency)

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)


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
