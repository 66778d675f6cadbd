"""Complex integration contours: a shifted straight line and its winding descendants.

The contour with winding number N is the image of the straight line
s - i*shift under w -> -i*(i*w)**(2N+1).  The odd power is evaluated as an
exact integer power, so the parametrization is single valued and N = 0
reduces to the straight line itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import ipow


@dataclass(frozen=True)
class WindingContour:
    """Curve -i*[i*(s - i*shift)]**(2N+1), parametrized by real s."""

    winding_number: int
    shift: float

    def __post_init__(self):
        if self.winding_number != int(self.winding_number) or self.winding_number < 0:
            raise ValueError("winding_number must be a non-negative integer")
        if not self.shift > 0:
            raise ValueError("shift must be positive")
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")

    def point(self, s: float) -> complex:
        return winding_path(self.winding_number, self.shift, s)


def straight_path(shift: float, s: float) -> complex:
    """Point s - i*shift on the downward-shifted straight line."""
    if not shift > 0:
        raise ValueError("shift must be positive")
    return complex(s, -shift)


def winding_path(winding_number: int, shift: float, s: float) -> complex:
    """Point -i*[i*(s - i*shift)]**(2N+1) on the N-times winding contour.

    The power 2N+1 is computed by repeated complex multiplication, never via
    log/exp, so there is no branch ambiguity and the N = 0 curve coincides
    with straight_path exactly.
    """
    if winding_number != int(winding_number) or winding_number < 0:
        raise ValueError("winding_number must be a non-negative integer")
    base = straight_path(shift, s)
    return -1j * ipow(1j * base, 2 * int(winding_number) + 1)


def sample_path(contour: WindingContour, s_min: float, s_max: float, count: int) -> list[complex]:
    """Sample the contour at `count` equally spaced parameter values.

    The first point sits at s_min and the last at s_max.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise ValueError("s_min and s_max must be finite")
    if not s_min < s_max:
        raise ValueError("need s_min < s_max")
    return [contour.point(s) for s in np.linspace(s_min, s_max, count)]

