"""Finite-difference cross-check of the closed-form spectra.

Discretizes -psi'' + V(s - i*eps) psi = E W(s - i*eps) psi with 3-point
central differences on s in [-S, S] (the wavefunction is treated as zero
outside the grid) and extracts the eigenvalues nearest closed-form seeds by
shifted inverse iteration on the complex tridiagonal pencil (A, B).

The pencil is complex symmetric (A = A^T, B diagonal), so the stationary
eigenvalue estimate is the bilinear Rayleigh quotient v^T A v / v^T B v.
Each sweep scales its solve w of (A - shift*B) w = b by an exact power of
two, v = 2**-e w, and takes the estimate from the right-hand side b as
shift + 2**-e v^T b / v^T B v, with no product A v; A v is formed only on
the sweeps that read the residual.  Where W is 1 on the whole grid (the
oscillator, and the cubic at winding 0), B is the identity and a sweep
forms no product by it.

The tridiagonal LU factorization (LAPACK gttrf/gttrs) is computed once per
shift and reused across iterations; B is diagonal throughout, so every sweep
costs O(K).  Each TridiagonalSystem takes its solve buffers, grid-sized
arrays, as disjoint rows of one allocation when it is built, and every level
and every nudged shift reuses them: gttrf factorizes the system's three
diagonal buffers in place, gttrs solves in place over its right-hand side,
and every other step of a sweep writes into one of its buffers, so a sweep
allocates no array.  One allocation, not one per buffer: glibc keeps freed
heap memory only up to about twice the largest block it has mapped and
freed, so separate buffers would go back to the kernel with each system
and the next system would fault their pages in again, while one block of
that size stays with the process.  The dot
products run over blocks of at most DOT_BLOCK terms, each below the length
at which OpenBLAS splits a dot product over worker threads, so a sweep
starts no BLAS thread and its rounding does not depend on the CPU count.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections import namedtuple
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .expansion import tau_general, tau_ho, taylor_ho, taylor_rectified
from .potentials import HOSpec, v_eff_ho
from .rectify import build_rectified, rectified_potential, weight
from .spectra import (energy_cubic, energy_cubic_correction, energy_ho_approx,
                      energy_ho_exact, gap)


# OpenBLAS splits a complex dot product of more than 10,000 terms over its
# worker threads; one of at most DOT_BLOCK terms runs on the calling thread.
DOT_BLOCK = 8192

# inverse_iteration gives up after this many sweeps.
MAX_SWEEPS = 200


# scipy's compiled LAPACK wrappers: the only part of scipy the solver uses.
FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """scipy.linalg._flapack, found under scipy's directory and loaded on the
    first call without importing the scipy or scipy.linalg packages.

    The module goes into sys.modules under its own name, so an `import
    scipy.linalg` before or after finds it there and the process holds one
    copy.
    """
    module = sys.modules.get(FLAPACK)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        FLAPACK, [os.path.join(path, "linalg")
                  for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"the finite-difference solver needs {FLAPACK}: "
                          "install scipy", name=FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[FLAPACK] = module
    return module


def get_lapack_funcs(names, arrays):
    """The double-complex LAPACK routines z<name> for each of names, in order,
    the same objects scipy.linalg.get_lapack_funcs(names, arrays) returns
    for complex128 arrays (the solver's pencils hold nothing else).

    Only the finite-difference oracle factorizes, so the closed-form paths
    never load LAPACK.  The routines come straight from scipy's compiled
    extension (_flapack), not through scipy.linalg: the scipy and
    scipy.linalg packages' __init__ modules pull in numpy.testing,
    numpy.random, numpy.f2py and more and cost a cold verify more than its
    solves, while the extension itself needs only numpy.  inverse_iteration
    looks this name up in the module at every call, so a wrapper put in its
    place sees every gttrf/gttrs fetch.
    """
    if any(a.dtype != np.complex128 for a in arrays):
        raise TypeError("the solver's LAPACK routines take complex128 arrays")
    flapack = _flapack()
    return tuple(getattr(flapack, "z" + name) for name in names)


class ShiftCollisionError(RuntimeError):
    """The shifted pencil A - shift*B factorized as numerically singular."""


class DegenerateEigenvaluesError(RuntimeError):
    """Two seeds converged to the same eigenvalue."""


class Discretization(namedtuple("Discretization", "half_width points shift_eps")):
    """Uniform grid s_k = -S + k*h, k = 0..K-1, on the line s - i*eps.

    Converged spectra want points >= 64; grids down to 3 points, the fewest
    scipy's gttrf takes, are accepted for algebraic tests of the matrices.
    """

    __slots__ = ()

    def __new__(cls, half_width: float, points: int, shift_eps: float):
        if not (math.isfinite(half_width) and half_width > 0):
            raise ValueError("half_width must be finite and positive, "
                             f"got half_width = {half_width:g}")
        if points < 3:
            raise ValueError(f"need at least 3 grid points, got points = {points}")
        if not (math.isfinite(shift_eps) and shift_eps > 0):
            raise ValueError("shift_eps must be finite and positive, "
                             f"got shift_eps = {shift_eps:g}")
        self = super().__new__(cls, half_width, points, shift_eps)
        h2 = self.step * self.step
        if not (0 < h2 < math.inf and 1.0 / h2 < math.inf):
            size, what = (("large", "step**2") if h2 == math.inf
                          else ("small", "1/step**2"))
            raise ValueError(f"half_width = {half_width:g} is too {size} for "
                             f"{points} points: {what} overflows")
        return self

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace checks too
        return cls(*iterable)

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def complex_grid(self) -> np.ndarray:
        s = np.linspace(-self.half_width, self.half_width, self.points)
        return s - 1j * self.shift_eps


class EigenResult(namedtuple("EigenResult", "eigenvalue residual iterations converged")):
    """One converged (or abandoned) inverse-iteration run.

    When converged is True the residual satisfies the backward-error bound
    residual <= tol * (|A|_inf + |eigenvalue| |B|_inf) for the tol supplied.
    """

    __slots__ = ()


class Level(namedtuple("Level", EigenResult._fields
                       + ("seed", "closed_form", "series", "grid_error")), EigenResult):
    """Level n of low_lying: seed n's run, the closed forms it was seeded at
    and is held to, the latter's first omitted series term (0 where it is
    exact), and the 3-point scheme's predicted error on the grid solved on."""

    __slots__ = ()


class TridiagonalSystem:
    """Pencil A v = lambda B v with constant off-diagonal and diagonal B.

    diag and off are A's diagonal and off-diagonal, weight is B's diagonal,
    and norm_a and norm_b are the infinity norms of A and B.  identity says
    whether every weight is exactly 1, so that B is the identity: checked
    once here, it spares inverse_iteration every product by B.  The other
    arrays are inverse_iteration's buffers, allocated here and refilled on
    every call, so one system takes one solve at a time: dl, d and du take
    the diagonals of A - shift*B and then their LU factors; rhs and bv are
    the two vector buffers, rhs holding the right-hand side and then v, bv
    taking B v, and they trade roles every sweep (bv goes unused for the
    identity, since B v is v); av keeps a copy of the right-hand side and,
    on the sweeps that read the residual, takes A v; scratch takes off * v
    and then the residual, and modulus |diag| and |weight| for the norms and
    then the moduli of the residual and of v.

    The eight buffers are disjoint rows of one np.empty block, seven complex
    rows and a float one for modulus, so that a system takes one allocation
    (see the module docstring).  No two of them overlap: modulus in
    particular is a row of its own, not a float view of another.  Nothing
    else holds the block, so it goes when the system does.
    """

    def __init__(self, diag: np.ndarray, off: complex, weight: np.ndarray):
        self.diag, self.off, self.weight = diag, off, weight
        n = diag.size
        block = np.empty(15 * n)
        rows = block[:14 * n].view(complex).reshape(7, n)
        self.dl, self.du = rows[0, :n - 1], rows[1, :n - 1]
        self.d, self.rhs, self.bv, self.av, self.scratch = rows[2:]
        self.modulus = block[14 * n:]
        self.identity = bool(np.all(weight == 1))
        self.norm_a = float(np.max(np.abs(diag, out=self.modulus))) + 2.0 * abs(off)
        self.norm_b = float(np.max(np.abs(weight, out=self.modulus)))


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


def blocked_dot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.dot(a, b), the unconjugated sum, taken in order over blocks of
    DOT_BLOCK terms.

    Up to DOT_BLOCK terms it is the single np.dot call itself, bit for bit.
    Above that the sum is fixed by the block layout alone, not by how many
    threads BLAS would split one long call over.
    """
    total = np.dot(a[:DOT_BLOCK], b[:DOT_BLOCK])
    for start in range(DOT_BLOCK, a.size, DOT_BLOCK):
        total += np.dot(a[start:start + DOT_BLOCK], b[start:start + DOT_BLOCK])
    return total


def inverse_iteration(system: TridiagonalSystem, shift: complex,
                      tol: float = 1e-9) -> EigenResult:
    """Shifted inverse iteration v <- solve(A - shift*B, B v) with
    power-of-two normalization and the bilinear Rayleigh estimate
    (v^T A v)/(v^T B v), the stationary one for the complex symmetric pencil.

    Every step writes into one of the system's own buffers (named as in
    TridiagonalSystem).  The diagonals of A - shift*B are filled into dl, d
    and du and factorized there in place by gttrf.  One sweep copies the
    right-hand side b into av: the B v the previous sweep formed (B times the
    all-ones start on the first), which gttrs then overwrites in rhs with the
    solution w of (A - shift*B) w = b.  top, the largest magnitude of a real
    or imaginary part of w, is read off w's float view with one max and one
    min; a nan or inf anywhere in w shows in top, so a w whose top is not
    finite is rejected, and so is one whose top is 0 or below the normal
    range, which no power of two can scale back into it.  w is then scaled
    in place by 2**-e, e the binary exponent of top, which is exact and
    leaves v = 2**-e w with top in [1/2, 1); B v is written into bv.  Since
    (A - shift*B) v = 2**-e b, the estimate shift + 2**-e (v^T b) / (v^T B v)
    equals v^T A v / v^T B v without a product A v, and its rounding scales
    with |lambda - shift|, not with |A|.  Both dot products go through
    blocked_dot.  rhs and bv then swap, so the B v just formed is the next
    right-hand side.  When B is the identity (system.identity) a sweep forms
    no product by B: B v is v itself, and the sweep reads v where it would
    read bv.  A sweep allocates no array; the factorization allocates only
    gttrf's second superdiagonal and pivots.

    Converged means the relative change of the estimate dropped below
    tol * max(1, |lambda|) and the residual max|A v - lambda B v| / max|v|
    below the backward-error bound tol * (|A|_inf + |lambda| |B|_inf); the
    raw residual is what EigenResult reports.  It is formed from v itself,
    never from the solve's right-hand side, so a solve that went wrong cannot
    pass it, and only where it is read: on a sweep whose estimate has
    settled, and on the last.  off * v goes once into scratch, and A v into
    av as diag * v plus that product's two shifted slices, the right and then
    the left neighbour; lambda B v and the difference then take scratch.
    v^T B v can vanish for a complex v, so a zero or non-finite estimate
    leaves its sweep unsettled (and the last sweep's residual inf).  After
    MAX_SWEEPS sweeps without meeting both, converged is False.  Raises
    ShiftCollisionError when A - shift*B factorizes as singular or a solve
    cannot be normalized, in which case the caller is expected to nudge the
    shift by about 1e-6 * |shift|.
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
    np.copyto(rhs, weight)
    lam = complex(math.nan)  # no sweep settles against the start
    residual = math.inf
    for iteration in range(1, MAX_SWEEPS + 1):
        np.copyto(av, rhs)
        v, info = gttrs(dl_f, d_f, du_f, du2_f, ipiv, rhs, overwrite_b=1)
        parts = v.view(float)
        top = max(parts.max(), -parts.min())
        if info != 0 or not sys.float_info.min <= top < math.inf:
            raise ShiftCollisionError(f"triangular solve failed at shift {shift!r}")
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        np.multiply(parts, scale, out=parts)
        if system.identity:  # B v is v
            bv = v
        else:
            np.multiply(weight, v, out=bv)
        denominator = complex(blocked_dot(v, bv))
        lam_new = (shift + scale * complex(blocked_dot(v, av)) / denominator
                   if denominator else complex(math.nan))
        finite = cmath.isfinite(lam_new)
        settled = finite and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new))
        if settled or (finite and iteration == MAX_SWEEPS):
            np.multiply(off, v, out=scratch)
            np.multiply(diag, v, out=av)
            np.add(av[:-1], scratch[1:], out=av[:-1])
            np.add(av[1:], scratch[:-1], out=av[1:])
            r = np.multiply(lam_new, bv, out=scratch)
            np.abs(np.subtract(av, r, out=r), out=modulus)
            largest = np.max(modulus)
            residual = float(largest / np.max(np.abs(v, out=modulus)))
            if settled and residual <= tol * (system.norm_a + abs(lam_new) * system.norm_b):
                return EigenResult(lam_new, residual, iteration, True)
        lam = lam_new
        rhs, bv = bv, v
    return EigenResult(lam, residual if cmath.isfinite(lam) else math.inf,
                       MAX_SWEEPS, False)


class _Problem(namedtuple("_Problem", "potential weight seed closed_form series gap "
                                       "harmonic grid")):
    """One oracle problem: evaluators on the grid; level n's seed, closed
    form and series term as in Level; the closed-form gap, the real harmonic
    Taylor coefficient at the well, and the automatic grid low_lying solves
    on when handed none (rule in its docstring)."""

    __slots__ = ()

    def grid_error(self, n: int, step: float) -> float:
        """Leading 3-point error of level n at step h: the symbol
        k**2 - k**4 h**2/12 moves level n of p**2 + w**2 x**2 by -h**2 <p**4>/12
        = -(h w)**2 (6n**2+6n+3)/48, with w**2 = sqrt(harmonic) * gap/2."""
        scale = step * step * math.sqrt(self.harmonic) / 48.0 * (self.gap / 2.0)
        return -scale * (6 * n * n + 6 * n + 3)


def _problem(model: str, ell: float, winding: int, omega: float) -> _Problem:
    if model == "ho":
        spec = HOSpec(angular=ell, frequency=omega)
        eps, harmonic, points = tau_ho(spec), taylor_ho(spec).harmonic.real, 6001
        evaluators = (partial(v_eff_ho, spec=spec), None,
                      partial(energy_ho_approx, ell, omega),
                      partial(energy_ho_exact, ell, omega), lambda n: 0.0, 4.0 * omega)
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
        # At winding 0 the weight is 1: no evaluator, as for the oscillator.
        evaluators = (partial(rectified_potential, rectified),
                      partial(weight, rectified) if winding else None,
                      partial(energy_cubic, ell), partial(energy_cubic, ell),
                      partial(energy_cubic_correction, ell), gap(0, ell))
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
    return grid._replace(**{k: v for k, v in given.items() if v is not None})


def low_lying(model: str, ell: float, count: int, *, winding: int = 0,
              omega: float = 1.0, tol: float = 1e-9,
              grid: Discretization | None = None) -> list[Level]:
    """The Level each closed-form seed n < count converges to, in n order.

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

    The oscillator's level n is seeded at energy_ho_approx and held to
    energy_ho_exact; every N's at and to the N = 0 level energy_cubic.
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
    seeds = [problem.seed(n) for n in range(count)]
    closed = [problem.closed_form(n) for n in range(count)]
    if _too_close(seeds[0], seeds[0] + problem.gap, tol):
        raise ValueError(f"l = {ell:g} is out of regime: tol = {tol:g} cannot "
                         "tell the closed-form levels apart")
    for n, (seed, own) in enumerate(zip(seeds, closed) if model == "ho" else ()):
        levels = [*closed[:n], own + 4 * omega,  # the rung above may be out of range
                  *(omega * (4 * m + 3 + 2 * ell) for m in range(n + 2))]
        # r**MAX_SWEEPS > tol multiplied out: a seed on another level has r = inf.
        if abs(seed - own) > tol ** (1 / MAX_SWEEPS) * min(abs(seed - e) for e in levels):
            raise ValueError(f"l = {ell:g} is out of regime: the seed of level "
                             f"n = {n} is too near another level to reach it "
                             f"within tol = {tol:g} in {MAX_SWEEPS} sweeps")

    system = build_tridiagonal(problem.potential, grid, problem.weight)

    results: list[Level] = []
    for n in range(count):
        result = _iterate_with_retries(system, seeds[n], tol)
        twin = _duplicate_index(results, result.eigenvalue, tol, problem.gap)
        if twin is not None:
            raise DegenerateEigenvaluesError(
                f"seeds {complex(seeds[twin])!r} and {complex(seeds[n])!r} both "
                f"converged to {result.eigenvalue!r} (residuals "
                f"{results[twin].residual:.3e} and {result.residual:.3e})")
        results.append(Level(*result, seed=seeds[n], closed_form=closed[n],
                             series=problem.series(n),
                             grid_error=problem.grid_error(n, grid.step)))
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
