"""Complex integration contours: a shifted straight line and its winding descendants.

The contour with winding number N is the image of the straight line
s - i*shift under w -> -i*(i*w)**(2N+1).  The odd power is evaluated as an
exact integer power, so the parametrization is single valued and N = 0
reduces to the straight line itself.  The path functions take s as a
scalar or as a numpy array.  Only sample_path imports numpy, so the
closed-form commands, which import this module, never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .util import ipow

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class WindingContour:
    """Curve -i*[i*(s - i*shift)]**(2N+1), parametrized by real s."""

    winding_number: int
    shift: float

    def __post_init__(self):
        winding_path(self.winding_number, self.shift, 0.0)  # rejects a bad N or shift


def straight_path(shift: float, s: float | np.ndarray) -> complex | np.ndarray:
    """Point s - i*shift on the downward-shifted straight line."""
    if not (math.isfinite(shift) and shift > 0):
        raise ValueError(f"shift must be finite and positive, got shift = {shift:g}")
    return s - 1j * shift


def winding_path(winding_number: int, shift: float,
                 s: float | np.ndarray) -> complex | np.ndarray:
    """Point -i*[i*(s - i*shift)]**(2N+1) on the N-times winding contour.

    The power 2N+1 is computed by repeated complex multiplication, never via
    log/exp, so there is no branch ambiguity and the N = 0 curve coincides
    with straight_path exactly.
    """
    if winding_number != int(winding_number) or winding_number < 0:
        raise ValueError("winding_number must be a non-negative integer")
    base = straight_path(shift, s)
    return -1j * ipow(1j * base, 2 * int(winding_number) + 1)


class PathSamples(list):
    """The points of sample_path, a list of complex, with the parameter grid
    they sit at as the array `s`, so that a table of (s, point) rows does
    not build the grid again."""

    def __init__(self, s: np.ndarray, points: np.ndarray):
        super().__init__(points.tolist())
        self.s = s


def sample_path(contour: WindingContour, s_min: float, s_max: float,
                count: int) -> PathSamples:
    """Sample the contour at `count` equally spaced parameter values.

    The first point sits at s_min and the last at s_max.  A point that
    overflows comes out as inf or nan, without a numpy warning.
    """
    import numpy as np

    if count < 2:
        raise ValueError("count must be at least 2")
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise ValueError("s_min and s_max must be finite")
    if not s_min < s_max:
        raise ValueError("need s_min < s_max")
    s = np.linspace(s_min, s_max, count)
    with np.errstate(all="ignore"):
        return PathSamples(s, winding_path(contour.winding_number, contour.shift, s))
