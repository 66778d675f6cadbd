"""Finite-difference cross-check of the closed-form spectra.

Discretizes -psi'' + V(s - i*eps) psi = E W(s - i*eps) psi with 3-point
central differences on s in [-S, S] (the wavefunction is treated as zero
outside the grid) and extracts the eigenvalues nearest closed-form seeds by
shifted inverse iteration on the complex tridiagonal pencil (A, B).

The tridiagonal LU factorization (LAPACK gttrf/gttrs) is computed once per
shift and reused across iterations; B is diagonal throughout, so every sweep
costs O(K).
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
from .spectra import energy_cubic, energy_ho_approx, gap


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
        h2 = self.step ** 2
        if not (h2 > 0 and math.isfinite(1.0 / h2)):
            raise ValueError(f"half_width = {self.half_width:g} is too small for "
                             f"{self.points} points: 1/step**2 overflows")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def s_grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)

    def complex_grid(self) -> np.ndarray:
        return self.s_grid() - 1j * self.shift_eps


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


@dataclass(frozen=True)
class TridiagonalSystem:
    """Pencil A v = lambda B v with constant off-diagonal and diagonal B."""

    diag: np.ndarray
    off: complex
    weight: np.ndarray

    def apply_a(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def _evaluate(fn: Callable, y: np.ndarray, what: str) -> np.ndarray:
    """Evaluate an array-capable fn on the whole grid at once."""
    values = np.asarray(fn(y), dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite on the grid")
    return values


def build_tridiagonal(potential: Callable, disc: Discretization,
                      weight_fn: Callable | None = None) -> TridiagonalSystem:
    """Assemble the pencil: main diagonal 2/h**2 + V(s_k - i*eps), off
    diagonal -1/h**2, weight diagonal W(s_k - i*eps) (all ones without a
    weight evaluator).  Dirichlet truncation: psi = 0 outside the grid.
    """
    y = disc.complex_grid()
    values = _evaluate(potential, y, "potential")
    if weight_fn is None:
        wdiag = np.ones(disc.points, dtype=complex)
    else:
        wdiag = _evaluate(weight_fn, y, "weight")
    h = disc.step
    return TridiagonalSystem(2.0 / (h * h) + values, -1.0 / (h * h), wdiag)


def inverse_iteration(system: TridiagonalSystem, shift: complex,
                      tol: float = 1e-9, max_iter: int = 200) -> EigenResult:
    """Shifted inverse iteration v <- solve(A - shift*B, B v) with
    max-modulus normalization and Rayleigh estimate (v* A v)/(v* B v).

    Converged means the relative change of the estimate dropped below
    tol * max(1, |lambda|) and the residual max|A v - lambda B v| / max|v|
    below the backward-error bound tol * (|A|_inf + |lambda| |B|_inf); the
    raw residual is what EigenResult reports.  After max_iter sweeps without
    meeting both, converged is False.  Raises ShiftCollisionError when
    A - shift*B factorizes as singular, in which case the caller is expected
    to nudge the shift by about 1e-6 * |shift|.
    """
    n = system.diag.size
    d = system.diag - shift * system.weight
    dl = np.full(n - 1, system.off, dtype=complex)
    du = dl.copy()
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
    dl_f, d_f, du_f, du2_f, ipiv, info = gttrf(dl, d, du)
    if info != 0:
        raise ShiftCollisionError(f"pencil is singular at shift {shift!r}")

    norm_a = float(np.max(np.abs(system.diag))) + 2.0 * abs(system.off)
    norm_b = float(np.max(np.abs(system.weight)))
    v = np.ones(n, dtype=complex)
    lam = None
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        rhs = system.weight * v
        w, info = gttrs(dl_f, d_f, du_f, du2_f, ipiv, rhs)
        if info != 0 or not np.all(np.isfinite(w)):
            raise ShiftCollisionError(f"triangular solve failed at shift {shift!r}")
        v = w / w[np.argmax(np.abs(w))]
        av = system.apply_a(v)
        bv = system.weight * v
        lam_new = complex(np.vdot(v, av) / np.vdot(v, bv))
        residual = float(np.max(np.abs(av - lam_new * bv)) / np.max(np.abs(v)))
        settled = (lam is not None
                   and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)))
        backward_ok = residual <= tol * (norm_a + abs(lam_new) * norm_b)
        if settled and backward_ok:
            return EigenResult(lam_new, residual, iteration, True)
        lam = lam_new
    return EigenResult(complex(lam), residual, max_iter, False)


def auto_discretization(harmonic: float, shift_eps: float) -> Discretization:
    """Grid rule: with the local oscillator length sigma = harmonic**(-1/4),
    use S = 15*sigma and step <= sigma/20."""
    if not harmonic > 0:
        raise ValueError("harmonic coefficient must be positive")
    sigma = harmonic ** -0.25
    half_width = 15.0 * sigma
    step_max = sigma / 20.0
    points = max(64, int(math.ceil(2.0 * half_width / step_max)) + 1)
    return Discretization(half_width, points, shift_eps)


@dataclass(frozen=True)
class _Problem:
    """One oracle problem: evaluators on the grid, the line shift that puts
    the well at s = 0, the harmonic Taylor coefficient there, the closed-form
    level seeds and level gap."""

    potential: Callable
    weight: Callable | None
    shift: float
    harmonic: complex
    seed: Callable[[int], float]
    gap: float


def _problem(model: str, ell: float, winding: int, omega: float) -> _Problem:
    if model == "ho":
        spec = HOSpec(angular=ell, frequency=omega)
        return _Problem(partial(v_eff_ho, spec=spec), None, tau_ho(spec),
                        taylor_ho(spec).harmonic,
                        lambda n: energy_ho_approx(ell, omega, n), 4.0 * omega)
    if model == "cubic_toboggan":
        rectified = build_rectified(winding, ell)
        # z = -i(iy)**(2N+1) is an exact change of variables, so the well is
        # the preimage y = -i*eps of the N = 0 well z = -i*tau_0 and the
        # levels are the N = 0 levels.  There dz/dy = (2N+1) eps**(2N), whose
        # fourth power scales the N = 0 harmonic coefficient.
        odd = 2 * winding + 1
        eps = tau_general(0, ell) ** (1.0 / odd)
        harmonic = (taylor_rectified(build_rectified(0, ell)).harmonic
                    * (odd * eps ** (odd - 1)) ** 4)
        return _Problem(partial(rectified_potential, rectified),
                        partial(weight, rectified), eps, harmonic,
                        lambda n: energy_cubic(ell, n), gap(0, ell))
    raise ValueError(f"unknown model {model!r}")


def _grid(problem: _Problem, points: int | None, half_width: float | None,
          eps: float | None) -> Discretization:
    """auto_discretization for the problem, each given override put in place."""
    harmonic = problem.harmonic
    if abs(harmonic.imag) > 1e-9 * abs(harmonic):
        raise ValueError("harmonic coefficient is not real at the selected root")
    disc = auto_discretization(harmonic.real, problem.shift)
    given = {"points": points, "half_width": half_width, "shift_eps": eps}
    return replace(disc, **{k: v for k, v in given.items() if v is not None})


def resolved_discretization(model: str, ell: float, *, winding: int = 0,
                            omega: float = 1.0, points: int | None = None,
                            half_width: float | None = None,
                            eps: float | None = None) -> Discretization:
    """The grid low_lying solves on for the same arguments."""
    return _grid(_problem(model, ell, winding, omega), points, half_width, eps)


def low_lying(model: str, ell: float, count: int, *, winding: int = 0,
              omega: float = 1.0, tol: float = 1e-9, max_iter: int = 200,
              points: int | None = None, half_width: float | None = None,
              eps: float | None = None,
              seeds: Sequence[complex] | None = None) -> list[EigenResult]:
    """Lowest `count` eigenvalues of a benchmark problem, sorted by real part.

    Parameters
    ----------
    model : "cubic_toboggan" or "ho"
        The rectified winding problem (weight (2N+1)**2 y**(4N)) or the
        oscillator with centrifugal term (weight 1).
    ell, winding, omega :
        Problem parameters; winding and omega apply to their model only.
    points, half_width, eps :
        Grid overrides, each put in place of its auto_discretization value
        when given.  The shift defaults to the well: eps = tau for the
        oscillator, and for the winding problem eps = tau_0**(1/(2N+1)),
        the preimage of the N = 0 well.
    tol :
        Relative tolerance of inverse_iteration, with 0 < tol < 1.
    seeds :
        Explicit shifts, replacing the closed-form level seeds (the N = 0
        levels energy_cubic for every winding number).

    Two seeds that converge to one eigenvalue raise DegenerateEigenvaluesError.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be finite and positive, and below 1, got tol = {tol:g}")
    problem = _problem(model, ell, winding, omega)
    if seeds is not None:
        seed_values = [complex(s) for s in seeds]
        if len(seed_values) < count:
            raise ValueError("need one seed per requested level")
    else:
        seed_values = [complex(problem.seed(n)) for n in range(count)]

    disc = _grid(problem, points, half_width, eps)
    system = build_tridiagonal(problem.potential, disc, problem.weight)

    results: list[EigenResult] = []
    for n in range(count):
        result = _iterate_with_retries(system, seed_values[n], tol, max_iter)
        twin = _duplicate_index(results, result.eigenvalue, tol, problem.gap)
        if twin is not None:
            raise DegenerateEigenvaluesError(
                f"seeds {seed_values[twin]!r} and {seed_values[n]!r} both "
                f"converged to {result.eigenvalue!r} (residuals "
                f"{results[twin].residual:.3e} and {result.residual:.3e})")
        results.append(result)
    results.sort(key=lambda r: r.eigenvalue.real)
    return results


def _iterate_with_retries(system: TridiagonalSystem, shift: complex, tol: float,
                          max_iter: int, retries: int = 5) -> EigenResult:
    """Run inverse_iteration, nudging the shift past exact collisions."""
    current = complex(shift)
    for _ in range(retries - 1):
        try:
            return inverse_iteration(system, current, tol=tol, max_iter=max_iter)
        except ShiftCollisionError:
            current = current + 1e-6 * max(abs(current), 1.0)
    return inverse_iteration(system, current, tol=tol, max_iter=max_iter)


def _duplicate_index(results: Sequence[EigenResult], value: complex,
                     tol: float, closed_gap: float) -> int | None:
    """Index of an earlier eigenvalue within 10*tol relative separation, or
    closer than 1e-3 of the closed-form gap: the true ladder is spaced by
    about one gap, so two levels that close are one eigenvalue found twice."""
    for i, r in enumerate(results):
        separation = abs(r.eigenvalue - value)
        if (separation <= 10.0 * tol * max(1.0, abs(r.eigenvalue), abs(value))
                or separation < 1e-3 * closed_gap):
            return i
    return None
