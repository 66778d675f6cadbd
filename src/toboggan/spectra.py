"""Closed-form large-l spectra, rescaled levels, gaps, and their limits."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expansion import tau_general
from .potentials import HOSpec


def energy_toboggan(winding_number: int, ell: float, n: int) -> float:
    """The paper's closed-form level n of the N-winding cubic problem,

        E = -(10N+5)/2 * tau**(6N+3)
            + (2n+1)/(2N+1) * sqrt((10N+3)(10N+5)/2) * tau**(N+1/2),

    with tau = tau_general(N, l).  Asymptotic in l; at N = 0 the first
    neglected term is energy_cubic_correction, not energy_error_scale.  For
    N >= 1 the finite-difference oracle finds the N = 0 levels energy_cubic
    instead (see expansion.weight_correction_exponent).
    """
    big_n = int(winding_number)
    if n != int(n) or n < 0:
        raise ValueError("quantum number n must be a non-negative integer")
    tau = tau_general(big_n, ell)
    well = -(10 * big_n + 5) / 2.0 * tau ** (6 * big_n + 3)
    rung = ((2 * int(n) + 1) / (2 * big_n + 1)
            * math.sqrt((10 * big_n + 3) * (10 * big_n + 5) / 2.0)
            * tau ** (big_n + 0.5))
    return well + rung


def energy_cubic(ell: float, n: int) -> float:
    """Non-winding (N = 0) spectrum -(5/2) tau**3 + sqrt(15 tau/2) (2n+1).

    Delegates to energy_toboggan(0, ...) so the two agree bit for bit.
    """
    return energy_toboggan(0, ell, n)


def energy_cubic_correction(ell: float, n: int) -> float:
    """energy_cubic's next term, -(6n**2 + 6n + 4) / (9 tau**2): second order
    in the well's cubic Taylor coefficient -5i plus first order in its quartic
    -15/(2 tau) (cf. Bender and Wu, Phys. Rev. 184 (1969) 1231)."""
    tau = tau_general(0, ell)
    return -(6 * n * n + 6 * n + 4) / (9.0 * tau * tau)


def density_parameter(ell: float) -> float:
    """The natural smallness parameter rho = 1/(l + 1/2)**2."""
    root = float(ell) + 0.5
    if not math.isfinite(root * root):
        raise ValueError(f"l = {ell:g} is too large: (l + 1/2)**2 overflows")
    return 1.0 / root ** 2


def rescaled_level(winding_number: int, ell: float, n: int) -> float:
    """rho**(3/5) * E, which stays finite as l -> infinity."""
    return density_parameter(ell) ** 0.6 * energy_toboggan(winding_number, ell, n)


def rescaled_level_limit(winding_number: int) -> float:
    """l -> infinity limit of rescaled_level: -(10N+5)/2 * (2/(10N+3))**(3/5).

    Strictly decreasing in N, so winding pushes the rescaled spectrum down.
    """
    big_n = int(winding_number)
    return -(10 * big_n + 5) / 2.0 * (2.0 / (10 * big_n + 3)) ** 0.6


def gap(winding_number: int, ell: float) -> float:
    """Level spacing E_{n+1} - E_n in closed form, the same for every n,

        G = 2/(2N+1) * sqrt((10N+3)(10N+5)/2) * tau**(N+1/2).
    """
    big_n = int(winding_number)
    tau = tau_general(big_n, ell)
    return (2.0 / (2 * big_n + 1)
            * math.sqrt((10 * big_n + 3) * (10 * big_n + 5) / 2.0)
            * tau ** (big_n + 0.5))


def gap_constant(winding_number: float) -> float:
    """l -> infinity limit of gap / l**(1/5) as a function of real-valued N,

        2/(2N+1) * sqrt((10N+3)(10N+5)/2) * (2/(10N+3))**(1/10).

    Maximal at N = 1/2; among integers the ordering is g3 < g0 < g2 < g1.
    """
    big_n = float(winding_number)
    if big_n < 0:
        raise ValueError("winding number must be non-negative")
    return (2.0 / (2 * big_n + 1)
            * math.sqrt((10 * big_n + 3) * (10 * big_n + 5) / 2.0)
            * (2.0 / (10 * big_n + 3)) ** 0.1)


def energy_error_scale(winding_number: int, ell: float) -> float:
    """tau**(-(6N+3)/4), the paper's claim for energy_toboggan's first
    neglected term; measured at N = 0 it is tau**-2 (energy_cubic_correction)."""
    big_n = int(winding_number)
    return tau_general(big_n, ell) ** (-(6 * big_n + 3) / 4.0)


def energy_ho_exact(ell: float, omega: float, n: int) -> float:
    """Exact oscillator level omega*(4n + 1 - 2l), valid for n < l + 1/2."""
    HOSpec(ell, omega)  # rejects a bad l or omega
    if n != int(n) or n < 0:
        raise ValueError("quantum number n must be a non-negative integer")
    if not n < ell + 0.5:
        raise ValueError(f"level n = {n} out of range: need n < l + 1/2 = {ell + 0.5:g}")
    return omega * (4 * int(n) + 1 - 2.0 * ell)


def energy_ho_approx(ell: float, omega: float, n: int) -> float:
    """Stationary-point estimate -omega*sqrt((2l+1)**2 - 1) + 2*omega*(2n+1).

    Exceeds the exact level by omega*[(2l+1) - sqrt((2l+1)**2 - 1)],
    independently of n.
    """
    HOSpec(ell, omega)  # rejects a bad l or omega
    if n != int(n) or n < 0:
        raise ValueError("quantum number n must be a non-negative integer")
    x = 2.0 * ell + 1.0
    return -omega * math.sqrt(x * x - 1.0) + 2.0 * omega * (2 * int(n) + 1)


@dataclass(frozen=True)
class SpectrumEntry:
    winding_number: int
    ell: float
    n: int
    energy: float
    rescaled: float
    gap: float


@dataclass
class SpectrumTable:
    """Per-level energies E, rescaled levels F and gaps G at a fixed l."""

    entries: list[SpectrumEntry]
    rho: float

    @classmethod
    def closed_form(cls, winding_number: int, ell: float, levels: int) -> "SpectrumTable":
        if levels < 1:
            raise ValueError("levels must be at least 1")
        spacing = gap(winding_number, ell)
        rho = density_parameter(ell)
        scale = rho ** 0.6  # scale * E is rescaled_level, bit for bit
        try:
            entries = [None] * levels  # one allocation: too many levels fail at once
        except OverflowError:  # levels above sys.maxsize
            raise MemoryError(f"levels {levels} is too large") from None
        for n in range(levels):
            energy = energy_toboggan(winding_number, ell, n)
            entries[n] = SpectrumEntry(int(winding_number), float(ell), n, energy,
                                       scale * energy, spacing)
        return cls(entries, rho)

