"""Small shared numeric helpers."""

from __future__ import annotations


def ipow(z, k: int):
    """z**k for integer k >= 0, by binary powering.

    Stays inside plain complex multiplication (no log/exp), so integer
    powers are branch-free and k = 1 returns z unchanged bit for bit.
    Works elementwise on numpy arrays as well as on scalars.
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
            result = base if result is None else result * base
        k >>= 1
        if not k:
            break
        base = base * base
    return result


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

