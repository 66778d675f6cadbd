"""Complex integration contours: a shifted straight line and its winding descendants.

The contour with winding number N is the image of the straight line
s - i*shift under w -> -i*(i*w)**(2N+1).  The odd power is evaluated as an
exact integer power, so the parametrization is single valued and N = 0
reduces to the straight line itself.  Everything here is CPython floats
and complex numbers: sample_path forms each point with the operations
winding_path uses on one s, over whole lists, so a sampled point equals
the scalar path bit for bit and is the same on every CPU, and no command
that samples a contour loads numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .util import ipow, linspace


class WindingContour(namedtuple("WindingContour", "winding_number shift")):
    """Curve -i*[i*(s - i*shift)]**(2N+1), parametrized by real s."""

    __slots__ = ()

    def __new__(cls, winding_number: int, shift: float):
        winding_path(winding_number, shift, 0.0)  # rejects a bad N or shift
        return super().__new__(cls, winding_number, shift)

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)


def straight_path(shift: float, s: float) -> complex:
    """Point s - i*shift on the downward-shifted straight line."""
    if not (math.isfinite(shift) and shift > 0):
        raise ValueError(f"shift must be finite and positive, got shift = {shift:g}")
    return s - 1j * shift


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


class PathSamples(list):
    """The points of sample_path, a list of complex, with the parameter grid
    they sit at as the list `s`, so that a table of (s, point) rows does
    not build the grid again."""

    def __init__(self, s: list[float], points: list[complex]):
        super().__init__(points)
        self.s = s


def _times(a: list[complex], b: list[complex]) -> list[complex]:
    return list(map(mul, a, b))


def sample_path(contour: WindingContour, s_min: float, s_max: float,
                count: int) -> PathSamples:
    """Sample the contour at `count` equally spaced parameter values.

    The grid is numpy.linspace's, bit for bit: the first point sits at
    s_min and the last at s_max.  A point that overflows comes out as inf
    or nan.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise ValueError("s_min and s_max must be finite")
    if not s_min < s_max:
        raise ValueError("need s_min < s_max")
    s = linspace(s_min, s_max, count)
    down = 1j * contour.shift  # straight_path's, checked by WindingContour
    power = ipow([1j * (x - down) for x in s], 2 * contour.winding_number + 1, _times)
    return PathSamples(s, [-1j * q for q in power])
