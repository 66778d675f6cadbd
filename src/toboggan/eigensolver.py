"""Finite-difference cross-check of the closed-form spectra.

Discretizes -psi'' + V(s - i*eps) psi = E W(s - i*eps) psi with 3-point
central differences on s in [-S, S] (the wavefunction is treated as zero
outside the grid) and extracts the eigenvalues nearest closed-form seeds by
shifted inverse iteration on the complex tridiagonal pencil (A, B).

The tridiagonal LU factorization (LAPACK gttrf/gttrs) is computed once per
shift and reused across iterations; B is diagonal throughout, so every sweep
costs O(K).  Each TridiagonalSystem allocates its solve buffers, grid-sized
arrays, when it is built, and every level and every nudged shift reuses
them: gttrf factorizes the system's three diagonal buffers in place, gttrs
solves in place over its right-hand side, and every other step of a sweep
writes into one of its buffers, so a sweep allocates no array.  The residual
is formed only on the sweeps that read it.  The dot products run over blocks
of at most DOT_BLOCK terms, each below the length at which OpenBLAS splits a
dot product over worker threads, so a sweep starts no BLAS thread and its
rounding does not depend on the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .expansion import tau_general, tau_ho, taylor_ho, taylor_rectified
from .potentials import HOSpec, v_eff_ho
from .rectify import build_rectified, rectified_potential, weight
from .spectra import energy_cubic, energy_ho_approx, energy_ho_exact, gap


# OpenBLAS splits a complex dot product of more than 10,000 terms over its
# worker threads; one of at most DOT_BLOCK terms runs on the calling thread.
DOT_BLOCK = 8192

# inverse_iteration gives up after this many sweeps.
MAX_SWEEPS = 200


def get_lapack_funcs(names, *args, **kwargs):
    """scipy.linalg.get_lapack_funcs, with scipy imported on the first call.

    Only the finite-difference oracle factorizes, so the closed-form paths
    never load scipy.  inverse_iteration looks this name up in the module
    at every call, so a wrapper put in its place sees every gttrf/gttrs
    fetch.
    """
    from scipy.linalg import get_lapack_funcs as lapack_funcs
    return lapack_funcs(names, *args, **kwargs)


class ShiftCollisionError(RuntimeError):
    """The shifted pencil A - shift*B factorized as numerically singular."""


class DegenerateEigenvaluesError(RuntimeError):
    """Two seeds converged to the same eigenvalue."""


@dataclass(frozen=True)
class Discretization:
    """Uniform grid s_k = -S + k*h, k = 0..K-1, on the line s - i*eps.

    Converged spectra want points >= 64; grids down to 3 points, the fewest
    scipy's gttrf takes, are accepted for algebraic tests of the matrices.
    """

    half_width: float
    points: int
    shift_eps: float

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be finite and positive, "
                             f"got half_width = {self.half_width:g}")
        if self.points < 3:
            raise ValueError(f"need at least 3 grid points, got points = {self.points}")
        if not (math.isfinite(self.shift_eps) and self.shift_eps > 0):
            raise ValueError("shift_eps must be finite and positive, "
                             f"got shift_eps = {self.shift_eps:g}")
        h2 = self.step * self.step
        if not (0 < h2 < math.inf and 1.0 / h2 < math.inf):
            size, what = (("large", "step**2") if h2 == math.inf
                          else ("small", "1/step**2"))
            raise ValueError(f"half_width = {self.half_width:g} is too {size} for "
                             f"{self.points} points: {what} overflows")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def complex_grid(self) -> np.ndarray:
        s = np.linspace(-self.half_width, self.half_width, self.points)
        return s - 1j * self.shift_eps


@dataclass(frozen=True)
class EigenResult:
    """One converged (or abandoned) inverse-iteration run.

    When converged is True the residual satisfies the backward-error bound
    residual <= tol * (|A|_inf + |eigenvalue| |B|_inf) for the tol supplied.
    """

    eigenvalue: complex
    residual: float
    iterations: int
    converged: bool


class TridiagonalSystem:
    """Pencil A v = lambda B v with constant off-diagonal and diagonal B.

    diag and off are A's diagonal and off-diagonal, weight is B's diagonal,
    and norm_a and norm_b are the infinity norms of A and B.  The other
    eight arrays are inverse_iteration's buffers, allocated here and
    refilled on every call, so one system takes one solve at a time: dl, d
    and du take the diagonals of A - shift*B and then their LU factors; rhs
    and bv are the two vector buffers, rhs holding the right-hand side and
    then v, bv taking B v, and they trade roles every sweep; av takes A v,
    scratch the off-diagonal terms of A v and the residual, and modulus the
    moduli of either.
    """

    def __init__(self, diag: np.ndarray, off: complex, weight: np.ndarray):
        self.diag, self.off, self.weight = diag, off, weight
        self.norm_a = float(np.max(np.abs(diag))) + 2.0 * abs(off)
        self.norm_b = float(np.max(np.abs(weight)))
        n = diag.size
        self.dl, self.du = np.empty(n - 1, complex), np.empty(n - 1, complex)
        self.d, self.rhs, self.bv = (np.empty(n, complex) for _ in range(3))
        self.av, self.scratch = np.empty(n, complex), np.empty(n, complex)
        self.modulus = np.empty(n)


def _evaluate(fn: Callable, y: np.ndarray, what: str, disc: Discretization) -> np.ndarray:
    """Evaluate an array-capable fn on the whole grid y of disc at once."""
    with np.errstate(all="ignore"):  # the isfinite check reports overflow
        values = np.asarray(fn(y), dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite on the grid half_width = "
                         f"{disc.half_width:g}, points = {disc.points}, "
                         f"eps = {disc.shift_eps:g}")
    return values


def build_tridiagonal(potential: Callable, disc: Discretization,
                      weight_fn: Callable | None = None) -> TridiagonalSystem:
    """Assemble the pencil: main diagonal 2/h**2 + V(s_k - i*eps), off
    diagonal -1/h**2, weight diagonal W(s_k - i*eps) (all ones without a
    weight evaluator).  Dirichlet truncation: psi = 0 outside the grid.
    """
    y = disc.complex_grid()
    values = _evaluate(potential, y, "potential", disc)
    if weight_fn is None:
        wdiag = np.ones(disc.points, dtype=complex)
    else:
        wdiag = _evaluate(weight_fn, y, "weight", disc)
    del y  # so the system's buffers can take its memory
    h = disc.step
    np.add(2.0 / (h * h), values, out=values)
    return TridiagonalSystem(values, -1.0 / (h * h), wdiag)


def blocked_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b) summed in order over blocks of DOT_BLOCK terms.

    Up to DOT_BLOCK terms it is the single np.vdot call itself, bit for bit.
    Above that the sum is fixed by the block layout alone, not by how many
    threads BLAS would split one long call over.
    """
    total = np.vdot(a[:DOT_BLOCK], b[:DOT_BLOCK])
    for start in range(DOT_BLOCK, a.size, DOT_BLOCK):
        total += np.vdot(a[start:start + DOT_BLOCK], b[start:start + DOT_BLOCK])
    return total


def inverse_iteration(system: TridiagonalSystem, shift: complex,
                      tol: float = 1e-9) -> EigenResult:
    """Shifted inverse iteration v <- solve(A - shift*B, B v) with
    max-modulus normalization and Rayleigh estimate (v* A v)/(v* B v).

    Every step writes into one of the system's own buffers (named as in
    TridiagonalSystem).  The diagonals of A - shift*B are filled into dl, d
    and du and factorized there in place by gttrf.  One sweep has gttrs
    overwrite rhs, the B v the previous sweep formed (B times the all-ones
    start on the first), with the solution v; writes its moduli into modulus
    and rejects a v whose largest modulus is not finite (a nan or inf
    anywhere makes it so); divides v by its entry of largest modulus in
    place; writes A v into av, its off-diagonal terms formed in scratch, and
    B v into bv; and takes the two dot products with blocked_vdot.  rhs and
    bv then swap, so the B v just formed is the next right-hand side.  A
    sweep allocates no array; the factorization allocates only gttrf's
    second superdiagonal and pivots.

    Converged means the relative change of the estimate dropped below
    tol * max(1, |lambda|) and the residual max|A v - lambda B v| / max|v|
    below the backward-error bound tol * (|A|_inf + |lambda| |B|_inf); the
    raw residual is what EigenResult reports.  The residual, formed in
    scratch, is computed only where it is read: on a sweep whose
    estimate has settled, and on the last.  After MAX_SWEEPS sweeps without
    meeting both, converged is False.  Raises ShiftCollisionError when
    A - shift*B factorizes as singular or a solve is not finite, in which
    case the caller is expected to nudge the shift by about 1e-6 * |shift|.
    """
    diag, off, weight = system.diag, system.off, system.weight
    np.multiply(shift, weight, out=system.d)
    np.subtract(diag, system.d, out=system.d)
    system.dl.fill(off)
    system.du.fill(off)
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (system.d,))
    dl_f, d_f, du_f, du2_f, ipiv, info = gttrf(system.dl, system.d, system.du,
                                               overwrite_dl=1, overwrite_d=1,
                                               overwrite_du=1)
    if info != 0:
        raise ShiftCollisionError(f"pencil is singular at shift {shift!r}")

    rhs, bv, av, scratch = system.rhs, system.bv, system.av, system.scratch
    modulus = system.modulus
    rhs.fill(1.0)
    np.multiply(weight, rhs, out=rhs)
    lam = None
    residual = math.inf
    for iteration in range(1, MAX_SWEEPS + 1):
        v, info = gttrs(dl_f, d_f, du_f, du2_f, ipiv, rhs, overwrite_b=1)
        np.abs(v, out=modulus)
        k = np.argmax(modulus)
        if info != 0 or not math.isfinite(modulus[k]):
            raise ShiftCollisionError(f"triangular solve failed at shift {shift!r}")
        np.divide(v, v[k], out=v)
        np.multiply(diag, v, out=av)
        np.multiply(off, v[1:], out=scratch[:-1])
        np.add(av[:-1], scratch[:-1], out=av[:-1])
        np.multiply(off, v[:-1], out=scratch[1:])
        np.add(av[1:], scratch[1:], out=av[1:])
        np.multiply(weight, v, out=bv)
        lam_new = complex(blocked_vdot(v, av) / blocked_vdot(v, bv))
        settled = (lam is not None
                   and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)))
        if settled or iteration == MAX_SWEEPS:
            r = np.multiply(lam_new, bv, out=scratch)
            np.abs(np.subtract(av, r, out=r), out=modulus)
            largest = np.max(modulus)
            residual = float(largest / np.max(np.abs(v, out=modulus)))
            if settled and residual <= tol * (system.norm_a + abs(lam_new) * system.norm_b):
                return EigenResult(lam_new, residual, iteration, True)
        lam = lam_new
        rhs, bv = bv, v
    return EigenResult(complex(lam), residual, MAX_SWEEPS, False)


def truncation_errors(model: str, ell: float, step: float, count: int, *,
                      winding: int = 0, omega: float = 1.0) -> list[float]:
    """Leading 3-point error of levels n < count at step h: the symbol
    k**2 - k**4 h**2/12 moves level n of p**2 + w**2 x**2 by -h**2 <p**4>/12
    = -(h w)**2 (6n**2+6n+3)/48, with w**2 = sqrt(harmonic) * gap/2."""
    problem = _problem(model, ell, winding, omega)
    scale = step * step * math.sqrt(problem.harmonic) / 48.0 * (problem.gap / 2.0)
    return [-scale * (6 * n * n + 6 * n + 3) for n in range(count)]


@dataclass(frozen=True)
class _Problem:
    """One oracle problem: evaluators on the grid, the closed-form level
    seeds and gap, the real harmonic Taylor coefficient at the well, and the
    automatic grid low_lying solves on when handed none (rule in its
    docstring)."""

    potential: Callable
    weight: Callable | None
    seed: Callable[[int], float]
    gap: float
    harmonic: float
    grid: Discretization


def _problem(model: str, ell: float, winding: int, omega: float) -> _Problem:
    if model == "ho":
        spec = HOSpec(angular=ell, frequency=omega)
        eps, harmonic, points = tau_ho(spec), taylor_ho(spec).harmonic.real, 6001
        evaluators = (partial(v_eff_ho, spec=spec), None,
                      lambda n: energy_ho_approx(ell, omega, n), 4.0 * omega)
    elif model == "cubic_toboggan":
        rectified = build_rectified(winding, ell)
        # z = -i(iy)**(2N+1) is an exact change of variables, so the well is
        # the preimage y = -i*eps of the N = 0 well z = -i*tau_0 and the
        # levels are the N = 0 levels.  There dz/dy = (2N+1) eps**(2N), whose
        # fourth power scales the N = 0 harmonic coefficient.
        odd = 2 * winding + 1
        eps, points = tau_general(0, ell) ** (1.0 / odd), 601
        harmonic = (taylor_rectified(build_rectified(0, ell)).harmonic
                    * (odd * eps ** (odd - 1)) ** 4).real
        evaluators = (partial(rectified_potential, rectified), partial(weight, rectified),
                      lambda n: energy_cubic(ell, n), gap(0, ell))
    else:
        raise ValueError(f"unknown model {model!r}")
    return _Problem(*evaluators, harmonic,
                    Discretization(15.0 * harmonic ** -0.25, points, eps))


def resolved_discretization(model: str, ell: float, *, winding: int = 0,
                            omega: float = 1.0, points: int | None = None,
                            half_width: float | None = None,
                            eps: float | None = None) -> Discretization:
    """The problem's automatic grid (see low_lying) with each given override
    put in place: the grid to hand to low_lying."""
    grid = _problem(model, ell, winding, omega).grid
    given = {"points": points, "half_width": half_width, "shift_eps": eps}
    return replace(grid, **{k: v for k, v in given.items() if v is not None})


def low_lying(model: str, ell: float, count: int, *, winding: int = 0,
              omega: float = 1.0, tol: float = 1e-9,
              grid: Discretization | None = None) -> list[EigenResult]:
    """The eigenvalue each closed-form seed n < count converges to, in n order.

    Parameters
    ----------
    model : "cubic_toboggan" or "ho"
        The rectified winding problem (weight (2N+1)**2 y**(4N)) or the
        oscillator with centrifugal term (weight 1).
    ell, winding, omega :
        Problem parameters; winding and omega apply to their model only.
    tol :
        Relative tolerance of inverse_iteration, with 0 < tol < 1.
    grid :
        The grid to solve on; resolved_discretization builds one with
        overrides.  By default the problem's automatic grid: half-width
        15*sigma, sigma the oscillator length at the well, and 601 points
        (step sigma/20) for the winding problem or 6001 (step sigma/200) for
        the oscillator, on the line through the well: eps = tau for the
        oscillator, and for the winding problem eps = tau_0**(1/(2N+1)), the
        N = 0 well's preimage.

    Each level is seeded at its closed form: energy_ho_approx for the
    oscillator, and the N = 0 levels energy_cubic for every winding number.
    Before anything is solved, a ValueError rejects more levels than grid
    points, an oscillator level n >= l + 1/2, and an l out of regime: tol
    cannot tell the lowest seed from one gap above it, whatever the count,
    or an oscillator seed cannot reach its level n.  Each sweep multiplies
    its error by r, its distance to its level energy_ho_exact over its
    distance to the nearest other level of either family omega (4m + 1 - 2l)
    and omega (4m + 3 + 2l), and r**MAX_SWEEPS > tol.  Two seeds that
    converge to one eigenvalue raise DegenerateEigenvaluesError.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be finite and positive, and below 1, got tol = {tol:g}")
    problem = _problem(model, ell, winding, omega)
    grid = problem.grid if grid is None else grid
    if count > grid.points:
        raise ValueError(f"cannot find {count} levels on {grid.points} grid points: "
                         f"the pencil has {grid.points} eigenvalues")
    seeds = [complex(problem.seed(n)) for n in range(count)]
    exact = [energy_ho_exact(ell, omega, n) for n in range(count)] if model == "ho" else []
    if _too_close(seeds[0], seeds[0] + problem.gap, tol):
        raise ValueError(f"l = {ell:g} is out of regime: tol = {tol:g} cannot "
                         "tell the closed-form levels apart")
    for n, (seed, own) in enumerate(zip(seeds, exact)):
        levels = [*exact[:n], own + 4 * omega,  # the rung above may be out of range
                  *(omega * (4 * m + 3 + 2 * ell) for m in range(n + 2))]
        # r**MAX_SWEEPS > tol multiplied out: a seed on another level has r = inf.
        if abs(seed - own) > tol ** (1 / MAX_SWEEPS) * min(abs(seed - e) for e in levels):
            raise ValueError(f"l = {ell:g} is out of regime: the seed of level "
                             f"n = {n} is too near another level to reach it "
                             f"within tol = {tol:g} in {MAX_SWEEPS} sweeps")

    system = build_tridiagonal(problem.potential, grid, problem.weight)

    results: list[EigenResult] = []
    for n in range(count):
        result = _iterate_with_retries(system, seeds[n], tol)
        twin = _duplicate_index(results, result.eigenvalue, tol, problem.gap)
        if twin is not None:
            raise DegenerateEigenvaluesError(
                f"seeds {seeds[twin]!r} and {seeds[n]!r} both "
                f"converged to {result.eigenvalue!r} (residuals "
                f"{results[twin].residual:.3e} and {result.residual:.3e})")
        results.append(result)
    return results


def _iterate_with_retries(system: TridiagonalSystem, shift: complex,
                          tol: float) -> EigenResult:
    """Run inverse_iteration, nudging the shift past exact collisions up to
    four times."""
    current = complex(shift)
    for _ in range(4):
        try:
            return inverse_iteration(system, current, tol=tol)
        except ShiftCollisionError:
            current = current + 1e-6 * max(abs(current), 1.0)
    return inverse_iteration(system, current, tol=tol)


def _duplicate_index(results: Sequence[EigenResult], value: complex,
                     tol: float, closed_gap: float) -> int | None:
    """Index of an earlier eigenvalue within 10*tol relative separation, or
    closer than 1e-3 of the closed-form gap: the true ladder is spaced by
    about one gap, so two levels that close are one eigenvalue found twice."""
    for i, r in enumerate(results):
        if (_too_close(r.eigenvalue, value, tol)
                or abs(r.eigenvalue - value) < 1e-3 * closed_gap):
            return i
    return None


def _too_close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= 10.0 * tol * max(1.0, abs(a), abs(b))
