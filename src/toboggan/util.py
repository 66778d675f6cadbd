"""Small shared numeric helpers."""

from __future__ import annotations

import operator


def ipow(z, k: int, mul=operator.mul):
    """z**k for integer k >= 0, by binary powering.

    Stays inside plain complex multiplication (no log/exp), so integer
    powers are branch-free and k = 1 returns z unchanged bit for bit.
    Works elementwise on numpy arrays as well as on scalars.  mul(a, b)
    forms each product, for k >= 1: one that multiplies whole lists point
    by point raises every point in the same product order as a scalar.
    """
    k = int(k)
    if k < 0:
        raise ValueError("ipow expects a non-negative exponent")
    if k == 0:
        return z * 0 + 1.0  # ones_like for arrays, plain 1.0 for scalars
    result = None
    base = z
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if not k:
            break
        base = mul(base, base)
    return result


def linspace(start: float, stop: float, count: int) -> list[float]:
    """count >= 2 floats from start to stop with numpy.linspace's bits:
    i*step + start with step = (stop - start)/(count - 1), the last one
    stop, and i/(count - 1)*(stop - start) + start where step underflows
    to 0.  A span that overflows gives inf and nan points, as in numpy but
    without a warning."""
    div = count - 1
    delta = stop - start
    step = delta / div
    grid = [stop] * count  # one allocation: a count too large fails here, at once
    if step == 0:
        for i in range(div):
            grid[i] = i / div * delta + start
    else:
        for i in range(div):
            grid[i] = i * step + start
    return grid


def has_zero(z) -> bool:
    """Whether z, a number or a numpy array, is zero or holds a zero.

    Reads the array's own `any`, so this module never imports numpy.
    """
    return bool((z == 0).any()) if hasattr(z, "any") else z == 0


def zpow(z, k: int):
    """z**k for any integer k; negative k through one final division."""
    k = int(k)
    if k >= 0:
        return ipow(z, k)
    return 1.0 / ipow(z, -k)

