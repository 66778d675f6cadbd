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
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .expansion import tau_general, tau_ho, taylor_ho, taylor_rectified
from .potentials import HOSpec, v_eff_ho
from .rectify import build_rectified, rectified_potential, weight
from .spectra import energy_ho_approx, energy_toboggan, gap


class ShiftCollisionError(RuntimeError):
    """The shifted pencil A - shift*B factorized as numerically singular."""


class DegenerateEigenvaluesError(RuntimeError):
    """Two seeds converged to the same eigenvalue."""


@dataclass(frozen=True)
class Discretization:
    """Uniform grid s_k = -S + k*h, k = 0..K-1, on the line s - i*eps.

    Converged spectra want points >= 64; smaller grids are accepted for
    algebraic tests of the assembled matrices.
    """

    half_width: float
    points: int
    shift_eps: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")
        if not self.shift_eps > 0:
            raise ValueError("shift_eps must be positive")

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


def auto_discretization(harmonic: float, shift_eps: float,
                        winding: int = 0) -> Discretization:
    """Grid rule: with the local oscillator length sigma = harmonic**(-1/4),
    use S = 15*sigma and step <= sigma/20; for winding >= 2 the potential
    grows so steeply that S shrinks to 8*sigma while the resolution doubles.
    """
    if not harmonic > 0:
        raise ValueError("harmonic coefficient must be positive")
    sigma = harmonic ** -0.25
    if winding >= 2:
        half_width = 8.0 * sigma
        step_max = sigma / 40.0
    else:
        half_width = 15.0 * sigma
        step_max = sigma / 20.0
    points = max(64, int(math.ceil(2.0 * half_width / step_max)) + 1)
    return Discretization(half_width, points, shift_eps)


def _problem_setup(model: str, ell: float, winding: int, omega: float):
    """Potential/weight evaluators, tau, Taylor data, and seed formula."""
    if model == "ho":
        spec = HOSpec(angular=ell, frequency=omega)
        return (partial(v_eff_ho, spec=spec), None, tau_ho(spec),
                taylor_ho(spec),
                lambda n: energy_ho_approx(ell, omega, n), 4.0 * omega)
    if model == "cubic_toboggan":
        problem = build_rectified(winding, ell)
        return (partial(rectified_potential, problem), partial(weight, problem),
                tau_general(winding, ell), taylor_rectified(problem),
                lambda n: energy_toboggan(winding, ell, n), gap(winding, ell))
    raise ValueError(f"unknown model {model!r}")


def resolved_discretization(model: str, ell: float, *, winding: int = 0,
                            omega: float = 1.0, points: int | None = None,
                            half_width: float | None = None,
                            eps: float | None = None) -> Discretization:
    """The grid low_lying uses: auto_discretization plus selective overrides."""
    _, _, tau, expansion, _, _ = _problem_setup(model, ell, winding, omega)
    harmonic = complex(expansion.harmonic)
    if abs(harmonic.imag) > 1e-9 * abs(harmonic):
        raise ValueError("harmonic coefficient is not real at the selected root")
    disc = auto_discretization(harmonic.real, tau, winding)
    return _with_overrides(disc, points, half_width, eps)


def _with_overrides(disc: Discretization, points: int | None,
                    half_width: float | None, eps: float | None) -> Discretization:
    """disc with each override that is not None put in place."""
    given = {"points": points, "half_width": half_width, "shift_eps": eps}
    return replace(disc, **{k: v for k, v in given.items() if v is not None})


def low_lying(model: str, ell: float, count: int, *, winding: int = 0,
              omega: float = 1.0, disc: Discretization | None = None,
              tol: float = 1e-9, max_iter: int = 200,
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
    disc, points, half_width, eps :
        Full grid override, and selective overrides applied on top of it or
        of auto_discretization (whose shift defaults to eps = tau, putting
        the potential minimum at grid center s = 0).
    seeds :
        Explicit shifts, replacing the closed-form level seeds.  With
        explicit seeds no collision recovery is attempted, so duplicate
        convergence raises DegenerateEigenvaluesError directly.

    With automatic seeds, a level that converges onto an already-found
    eigenvalue is re-seeded one closed-form gap above that eigenvalue before
    the degeneracy is reported as an error.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    potential, weight_fn, _, _, seed_formula, closed_gap = _problem_setup(
        model, ell, winding, omega)
    if model == "cubic_toboggan" and winding >= 2:
        warnings.warn(
            "winding >= 2 numerics is experimental: the rectified potential "
            f"grows like y**{10 * winding + 3}, so converged digits are few",
            RuntimeWarning, stacklevel=2)

    if seeds is not None:
        seed_values = [complex(s) for s in seeds]
        if len(seed_values) < count:
            raise ValueError("need one seed per requested level")
    else:
        seed_values = [complex(seed_formula(n)) for n in range(count)]

    if disc is None:
        disc = resolved_discretization(model, ell, winding=winding, omega=omega)
    disc = _with_overrides(disc, points, half_width, eps)

    system = build_tridiagonal(potential, disc, weight_fn)

    results: list[EigenResult] = []
    user_seeds = seeds is not None
    for n in range(count):
        result = _iterate_with_retries(system, seed_values[n], tol, max_iter)
        twin = _duplicate_index(results, result.eigenvalue, tol, closed_gap)
        if twin is not None:
            if user_seeds:
                raise DegenerateEigenvaluesError(
                    f"seeds {seed_values[twin]!r} and {seed_values[n]!r} both "
                    f"converged to {result.eigenvalue!r} (residuals "
                    f"{results[twin].residual:.3e} and {result.residual:.3e})")
            reseed = results[twin].eigenvalue + closed_gap * (n - twin)
            retry = _iterate_with_retries(system, reseed, tol, max_iter)
            if _duplicate_index(results, retry.eigenvalue, tol, closed_gap) is not None:
                raise DegenerateEigenvaluesError(
                    f"levels {twin} and {n} both converged to "
                    f"{result.eigenvalue!r} (residuals {results[twin].residual:.3e} "
                    f"and {result.residual:.3e})")
            result = retry
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
