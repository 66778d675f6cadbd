"""Change of variables rectifying a winding cubic problem onto a straight line.

The substitution z = -i (i y)**(2N+1) together with phi = y**N psi turns the
cubic problem with angular momentum l, integrated along the N-winding
contour, into a generalized (weighted) problem on the shifted straight line:

    -psi'' + [ L(L+1)/y**2 + i(-1)**N (2N+1)**2 y**(10N+3) ] psi
        = (2N+1)**2 y**(4N) E psi,

with L = (2N+1)(l + 1/2) - 1/2.  Every power appearing here is an integer,
so the rectified problem needs no branch bookkeeping at all.  At N = 0 the
weight degenerates to 1 and the equation is the cubic problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .potentials import SingularPointError
from .util import has_zero, ipow


@dataclass(frozen=True)
class RectifiedProblem:
    """Coefficients of the straight-line problem equivalent to an N-winding one."""

    winding_number: int
    ell: float
    angular_rectified: float        # L
    centrifugal_strength: float     # L(L+1)
    potential_coefficient: complex  # i(-1)**N (2N+1)**2
    potential_exponent: int         # 10N+3
    weight_coefficient: float       # (2N+1)**2
    weight_exponent: int            # 4N


def angular_map(winding_number: int, ell: float) -> float:
    """Rectified angular momentum L = (2N+1)(l + 1/2) - 1/2.

    Evaluated as (2N+1)*l + N, which is exact arithmetic at N = 0.
    """
    if winding_number != int(winding_number) or winding_number < 0:
        raise ValueError("winding_number must be a non-negative integer")
    n = int(winding_number)
    return (2 * n + 1) * ell + n


def build_rectified(winding_number: int, ell: float) -> RectifiedProblem:
    """Populate all rectified coefficients from (N, l)."""
    n = int(winding_number)
    big_l = angular_map(n, ell)
    odd = 2 * n + 1
    return RectifiedProblem(
        winding_number=n,
        ell=float(ell),
        angular_rectified=big_l,
        centrifugal_strength=big_l * (big_l + 1.0),
        potential_coefficient=1j * (-1.0) ** n * (odd * odd),
        potential_exponent=10 * n + 3,
        weight_coefficient=float(odd * odd),
        weight_exponent=4 * n,
    )


def weight(problem: RectifiedProblem, y):
    """Eigenvalue-side weight (2N+1)**2 y**(4N); identically 1 at N = 0.

    Entire in y (integer power), so it accepts scalars or arrays and never
    vanishes on a line with positive downward shift.
    """
    return problem.weight_coefficient * ipow(y, problem.weight_exponent)


def rectified_potential(problem: RectifiedProblem, y):
    """L(L+1)/y**2 + i(-1)**N (2N+1)**2 y**(10N+3) at a point or array y."""
    if has_zero(y):
        raise SingularPointError("rectified potential is singular at y = 0")
    return (problem.centrifugal_strength / (y * y)
            + problem.potential_coefficient * ipow(y, problem.potential_exponent))
