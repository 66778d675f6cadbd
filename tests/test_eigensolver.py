import importlib.machinery
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from contextlib import nullcontext
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toboggan import eigensolver
from toboggan.eigensolver import (
    DegenerateEigenvaluesError,
    Discretization,
    EigenResult,
    Level,
    ShiftCollisionError,
    TridiagonalSystem,
    build_tridiagonal,
    inverse_iteration,
    low_lying,
    resolved_discretization,
)
from toboggan.expansion import tau_general, tau_ho
from toboggan.potentials import HOSpec, v_eff_ho
from toboggan.rectify import build_rectified, rectified_potential, weight
from toboggan.spectra import (
    energy_cubic,
    energy_cubic_correction,
    energy_ho_approx,
    energy_ho_exact,
    gap,
)


def test_discretization_validation():
    disc = Discretization(half_width=1.0, points=3, shift_eps=1.0)
    assert disc.step == 1.0
    assert np.allclose(disc.complex_grid(), [-1.0 - 1j, -1j, 1.0 - 1j])
    with pytest.raises(ValueError):
        Discretization(half_width=0.0, points=3, shift_eps=1.0)
    with pytest.raises(ValueError):
        Discretization(half_width=1.0, points=1, shift_eps=1.0)
    with pytest.raises(ValueError):
        Discretization(half_width=1.0, points=3, shift_eps=0.0)


def test_build_tridiagonal_free_particle():
    disc = Discretization(half_width=1.0, points=3, shift_eps=1.0)
    system = build_tridiagonal(lambda y: np.zeros_like(y), disc)
    assert np.allclose(system.diag, [2.0, 2.0, 2.0])
    assert system.off == -1.0
    assert np.allclose(system.weight, 1.0)


def test_build_tridiagonal_cubic_weight_is_one():
    problem = build_rectified(0, 4.0)
    disc = Discretization(half_width=2.0, points=9, shift_eps=1.0)
    system = build_tridiagonal(lambda y: rectified_potential(problem, y), disc,
                               lambda y: weight(problem, y))
    assert np.all(system.weight == 1.0 + 0j)


def test_build_tridiagonal_winding_weight_entry():
    problem = build_rectified(1, 1.0)
    disc = Discretization(half_width=2.0, points=5, shift_eps=1.0)
    system = build_tridiagonal(lambda y: rectified_potential(problem, y), disc,
                               lambda y: weight(problem, y))
    # grid midpoint sits at s = 0, i.e. y = -i: 9 * (-i)**4 = 9
    assert system.weight[2] == pytest.approx(9.0, rel=1e-15)


def test_build_tridiagonal_rejects_singular_potential():
    disc = Discretization(half_width=1.0, points=3, shift_eps=1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            build_tridiagonal(lambda y: 1.0 / (y + 1j), disc)


def test_dirichlet_box_ground_state():
    half_width, points = 1.0, 2001
    disc = Discretization(half_width, points, shift_eps=1.0)
    system = build_tridiagonal(lambda y: np.zeros_like(y), disc)
    result = inverse_iteration(system, 2.4, tol=1e-10)
    assert result.converged
    # Zero outside the grid puts the walls at +-(S+h): width 2S+2h.
    width = 2.0 * half_width + 2.0 * disc.step
    analytic = (math.pi / width) ** 2
    assert abs(result.eigenvalue.real - analytic) < 1e-3
    assert abs(result.eigenvalue.real - math.pi ** 2 / 4.0) < 5e-3


def test_real_line_harmonic_oscillator():
    # V = s**2: ground state 1.0.  At S=12, K=4001 the h**2/12 truncation
    # is 2.25e-6; halving h brings it under 1e-6.
    for points, bound in ((4001, 3e-6), (8001, 1e-6)):
        disc = Discretization(12.0, points, shift_eps=1.0)
        system = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
        result = inverse_iteration(system, 0.9, tol=1e-10)
        assert result.converged
        assert abs(result.eigenvalue.real - 1.0) < bound
        assert abs(result.eigenvalue.imag) < 1e-12


def _three_point_system() -> TridiagonalSystem:
    return TridiagonalSystem(diag=np.array([1.0, 2.0, 3.0], complex),
                             off=0.0 + 0j,
                             weight=np.ones(3, complex))


def test_shift_collision_raises_and_perturbation_recovers():
    system = _three_point_system()
    with pytest.raises(ShiftCollisionError):
        inverse_iteration(system, 2.0)
    result = inverse_iteration(system, 2.0 * (1.0 + 1e-6))
    assert result.converged
    assert result.eigenvalue == pytest.approx(2.0, rel=1e-12)
    # The failed factorization left nothing behind in the system's buffers.
    assert result == inverse_iteration(_three_point_system(), 2.0 * (1.0 + 1e-6))


def test_a_singular_shift_is_nudged_until_the_solve_converges(monkeypatch):
    # 2 is an eigenvalue of tridiag(-1, 2, -1): gttrf finds a zero pivot in
    # A - 2B, and the retry moves the shift up by 1e-6 * |shift|.
    system = TridiagonalSystem(np.full(3, 2 + 0j), -1 + 0j, np.ones(3, complex))
    shifts = []
    solve = eigensolver.inverse_iteration
    monkeypatch.setattr(eigensolver, "inverse_iteration",
                        lambda system, shift, tol: shifts.append(shift)
                        or solve(system, shift, tol=tol))
    result = eigensolver._iterate_with_retries(system, 2.0, 1e-9)
    assert shifts == [2.0, 2.000002]
    assert (result.converged, result.iterations) == (True, 5)
    assert result.eigenvalue == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("collisions", [4, 5])
@pytest.mark.parametrize("shift", [0.5, 3e6])
def test_a_colliding_shift_is_nudged_four_times(monkeypatch, shift, collisions):
    # Each nudge adds 1e-6 * max(|shift|, 1); a fifth collision goes to the caller.
    shifts = []

    def collide(system, shift, tol):
        shifts.append(shift)
        if len(shifts) <= collisions:
            raise ShiftCollisionError(f"pencil is singular at shift {shift!r}")
        return shift

    monkeypatch.setattr(eigensolver, "inverse_iteration", collide)
    with pytest.raises(ShiftCollisionError) if collisions == 5 else nullcontext():
        assert eigensolver._iterate_with_retries(None, shift, 1e-9) == shifts[4]
    for before, after in zip(shifts, shifts[1:]):
        assert after == before + 1e-6 * max(abs(before), 1.0)
    assert len(shifts) == 5 and shifts[0] == shift


def test_package_loads_the_solvers_names_on_first_use():
    import toboggan

    assert toboggan.low_lying is eigensolver.low_lying
    with pytest.raises(AttributeError, match="no_such_name"):
        toboggan.no_such_name


def test_workspace_carries_no_state_between_calls():
    # Every call refills the system's buffers, so the order in which one
    # system's levels are solved cannot change a bit of any of them.  A
    # winding-1 pencil has B != I, so the B v buffer is exercised too.
    rectified = build_rectified(1, 50.0)
    system = build_tridiagonal(partial(rectified_potential, rectified),
                               resolved_discretization("cubic_toboggan", 50.0, winding=1),
                               partial(weight, rectified))
    assert not np.all(system.weight == 1.0)

    def solve(n):
        r = inverse_iteration(system, energy_cubic(50.0, n))
        return r.eigenvalue, r.residual, r.iterations

    in_order = {n: solve(n) for n in (0, 1, 2, 3)}
    shuffled = {n: solve(n) for n in (3, 1, 0, 2)}
    assert shuffled == in_order


@pytest.mark.parametrize("winding", [0, 1], ids=["B=I", "B!=I"])
def test_work_arrays_are_disjoint_rows_of_one_allocation(winding):
    # One allocation, so that its pages stay with the process from one
    # system to the next; disjoint, so that no buffer's write moves another
    # (a float view of scratch taken as modulus moved residuals' last digit).
    rectified = build_rectified(winding, 50.0)
    grid = resolved_discretization("cubic_toboggan", 50.0, winding=winding)
    system = build_tridiagonal(partial(rectified_potential, rectified), grid,
                               partial(weight, rectified) if winding else None)
    n = grid.points
    assert n == 601 and system.identity is (winding == 0)
    names = ("dl", "du", "d", "rhs", "bv", "av", "scratch", "modulus")
    arrays = {name: getattr(system, name) for name in names}

    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    assert len({id(owner(a)) for a in arrays.values()}) == 1
    for name, a in arrays.items():
        assert a.flags.c_contiguous, name
        assert a.dtype == (float if name == "modulus" else complex), name
        assert a.shape == ((n - 1,) if name in ("dl", "du") else (n,)), name
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            assert not np.shares_memory(arrays[first], arrays[second]), (first, second)


@pytest.mark.parametrize("warm", [True, False], ids=["after-warm-up", "fresh-system"])
def test_a_level_allocates_no_grid_sized_array(warm):
    # A system allocates its buffers when it is built, so a level, the first
    # on a system as much as any later one, allocates only gttrf's second
    # superdiagonal and pivots, never a grid-sized array.  The imports are
    # warmed on another system.
    points = 24001
    potential = partial(v_eff_ho, spec=HOSpec(angular=40.0, frequency=0.5))
    grid = resolved_discretization("ho", 40.0, omega=0.5, points=points)
    inverse_iteration(build_tridiagonal(potential, grid), energy_ho_approx(40.0, 0.5, 0))
    system = build_tridiagonal(potential, grid)
    if warm:
        inverse_iteration(system, energy_ho_approx(40.0, 0.5, 0))
    tracemalloc.start()
    try:
        result = inverse_iteration(system, energy_ho_approx(40.0, 0.5, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and result.iterations > 1
    assert peak < 2 * 16 * points


def test_inverse_iteration_fetches_lapack_through_module_name(monkeypatch):
    # Wrappers that time gttrf/gttrs replace eigensolver.get_lapack_funcs;
    # each inverse_iteration run must fetch its routines through that name.
    disc = Discretization(12.0, 4001, shift_eps=1.0)
    system = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
    plain = inverse_iteration(system, 0.9, tol=1e-10)
    fetched = []
    original = eigensolver.get_lapack_funcs

    def counting(names, *args, **kwargs):
        fetched.append(tuple(names))
        return original(names, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "get_lapack_funcs", counting)
    traced = inverse_iteration(system, 0.9, tol=1e-10)
    assert fetched == [("gttrf", "gttrs")]
    assert traced.converged
    assert traced == plain


def _dense(system: TridiagonalSystem) -> tuple[np.ndarray, np.ndarray]:
    n = system.diag.size
    a = np.diag(system.diag) + system.off * (np.eye(n, k=1) + np.eye(n, k=-1))
    return a, np.diag(system.weight)


def test_inverse_iteration_reports_non_convergence(monkeypatch):
    # The estimate and residual reported are those of the last sweep,
    # recomputed here with dense matrices.  The estimate is the bilinear
    # v^T A v / v^T B v: the complex potential y**2 tells it from the
    # conjugated v^H A v / v^H B v, the real y.real**2 cannot.
    disc = Discretization(6.0, 401, shift_eps=1.0)
    for potential, real in ((lambda y: (y.real ** 2).astype(complex), True),
                            (lambda y: y ** 2, False)):
        system = build_tridiagonal(potential, disc)
        a, b = _dense(system)
        for sweeps in (1, 3):
            v = np.ones(system.diag.size, complex)
            for _ in range(sweeps):
                w = np.linalg.solve(a - 0.9 * b, b @ v)
                v = w / w[np.argmax(np.abs(w))]
            lam = v @ (a @ v) / (v @ (b @ v))
            residual = np.max(np.abs(a @ v - lam * (b @ v))) / np.max(np.abs(v))
            monkeypatch.setattr(eigensolver, "MAX_SWEEPS", sweeps)
            result = inverse_iteration(system, 0.9, tol=1e-12)
            assert (result.converged, result.iterations) == (False, sweeps)
            assert result.eigenvalue == pytest.approx(lam, rel=1e-12)
            assert result.residual == pytest.approx(residual, rel=1e-8)
            if not real:
                conjugated = np.vdot(v, a @ v) / np.vdot(v, b @ v)
                assert result.eigenvalue != pytest.approx(conjugated, rel=1e-6)


def test_inverse_iteration_passes_a_vanishing_bilinear_denominator():
    # At shift 0 the first sweep of this pencil gives v = (1, i, 0), whose
    # v^T B v is 0: that sweep counts as unsettled, with no warning, and the
    # iteration goes on to the eigenvalue nearest the shift.
    system = TridiagonalSystem(np.array([0, 1 - 1j, 2], complex), -1j, np.ones(3, complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = inverse_iteration(system, 0.0)
    assert result.converged
    assert result.eigenvalue == pytest.approx(0.39370927 + 0.41964338j, abs=1e-8)
    a, b = _dense(system)
    assert np.min(np.abs(np.linalg.eigvals(a) - result.eigenvalue)) < 1e-9


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, -math.inf)])
def test_non_finite_solve_raises_shift_collision(monkeypatch, bad):
    # One non-finite entry away from the largest one must still be caught:
    # a nan or inf anywhere in w shows in the largest real or imaginary part
    # that the power-of-two normalization reads, its only finiteness check.
    disc = Discretization(6.0, 401, shift_eps=1.0)
    system = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
    original = eigensolver.get_lapack_funcs

    def poisoned(names, *args, **kwargs):
        gttrf, gttrs = original(names, *args, **kwargs)

        def gttrs_non_finite(*solve_args, **solve_kwargs):
            w, info = gttrs(*solve_args, **solve_kwargs)
            largest = int(np.argmax(np.abs(w)))
            w[(largest + w.size // 2) % w.size] = bad
            return w, info

        return gttrf, gttrs_non_finite

    monkeypatch.setattr(eigensolver, "get_lapack_funcs", poisoned)
    with pytest.raises(ShiftCollisionError, match="triangular solve failed"):
        inverse_iteration(system, 0.9)
    # A solve abandoned mid-sweep leaves nothing behind in the system's buffers.
    monkeypatch.undo()
    fresh = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
    assert inverse_iteration(system, 0.9) == inverse_iteration(fresh, 0.9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("largest, normalized", [(1e250, True), (1e-250, True),
                                                 (1e-320, False), (0.0, False)])
def test_a_solve_out_of_scale_is_normalized_or_rejected(monkeypatch, largest, normalized):
    # A solve scaled to a largest modulus far from 1 is brought back by a
    # power of two, without a warning.  Its estimate is then off by that
    # scale, so the run ends unconverged at the sweep cap.  A solve whose
    # largest part is 0 or subnormal has no power of two to scale it into
    # the normal range: it is a failed solve.
    disc = Discretization(6.0, 401, shift_eps=1.0)
    system = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
    original = eigensolver.get_lapack_funcs

    def rescaled(names, *args, **kwargs):
        gttrf, gttrs = original(names, *args, **kwargs)

        def gttrs_rescaled(*solve_args, **solve_kwargs):
            w, info = gttrs(*solve_args, **solve_kwargs)
            w *= largest / np.max(np.abs(w))
            return w, info

        return gttrf, gttrs_rescaled

    monkeypatch.setattr(eigensolver, "get_lapack_funcs", rescaled)
    if normalized:
        result = inverse_iteration(system, 0.9)
        assert (result.converged, result.iterations) == (False, eigensolver.MAX_SWEEPS)
    else:
        with pytest.raises(ShiftCollisionError, match="triangular solve failed"):
            inverse_iteration(system, 0.9)


def _scaled(system: TridiagonalSystem, k: int) -> TridiagonalSystem:
    """The pencil (2**k A, 2**k B)."""
    scale = 2.0 ** k
    return TridiagonalSystem(system.diag * scale, system.off * scale, system.weight * scale)


@pytest.mark.parametrize("k", [-300, 1, 300])
@pytest.mark.parametrize("winding", [0, 1])
def test_a_pencil_scaled_by_a_power_of_two_gives_the_same_bits(k, winding):
    # (2**k A, 2**k B) has the eigenvalues of (A, B).  Every rounding of the
    # sweep scales with it, so eigenvalue and sweep count are the same bits
    # and the residual exactly 2**k times as large.  At winding 0, B = I: its
    # scaled pencil at k = 1 takes the general path, so this also holds the
    # identity's shortcut to the sweep it shortens.
    rectified = build_rectified(winding, 50.0)
    grid = resolved_discretization("cubic_toboggan", 50.0, winding=winding)
    system = build_tridiagonal(partial(rectified_potential, rectified), grid,
                               partial(weight, rectified) if winding else None)
    scaled = _scaled(system, k)
    assert (system.identity, scaled.identity) == (winding == 0, False)
    for n in range(3):
        plain = inverse_iteration(system, energy_cubic(50.0, n))
        other = inverse_iteration(scaled, energy_cubic(50.0, n))
        assert plain.converged and other.converged
        assert (other.eigenvalue, other.iterations) == (plain.eigenvalue, plain.iterations)
        assert other.residual == math.ldexp(plain.residual, k)


@pytest.mark.parametrize("ell", [10.0, 40.0, 1e4])
def test_ho_levels_scale_exactly_with_omega(ell):
    # omega = 4 halves the automatic grid, its line's eps included, so that
    # l(l+1)/q**2 + omega**2 q**2 and 1/h**2 are 4 times their omega = 1
    # values point by point: A is exactly 4 A_1 and B = I.  Each level then
    # comes out exactly 4 times the omega = 1 level, after as many sweeps.
    # This is a metamorphic test of the whole oscillator oracle.
    unit = low_lying("ho", ell, 3, omega=1.0)
    fast = low_lying("ho", ell, 3, omega=4.0)
    assert [r.eigenvalue for r in fast] == [4.0 * r.eigenvalue for r in unit]
    assert [r.iterations for r in fast] == [r.iterations for r in unit]


@pytest.mark.parametrize("model, ell, winding, omega", [
    *(("cubic_toboggan", ell, winding, 1.0) for winding in (0, 1) for ell in (10.0, 50.0, 1e4)),
    ("ho", 10.0, 0, 1.0), ("ho", 10.0, 0, 0.25), ("ho", 1e4, 0, 0.25)])
def test_levels_do_not_move_with_the_lines_shift(model, ell, winding, omega):
    # The levels of a well-posed contour problem do not depend on the
    # contour (Cauchy), so moving the line's eps by sigma = half_width / 15,
    # the oscillator length at the well, either way must leave each level
    # within 1e-3 of its error budget |series + grid_error| (measured: at
    # most 6.5e-7 of it), and every solve must converge.  A metamorphic test
    # that any oracle on this line must keep.
    params = {"omega": omega} if model == "ho" else {"winding": winding}
    grid = resolved_discretization(model, ell, **params)
    unmoved = low_lying(model, ell, 3, grid=grid, **params)
    sigma = grid.half_width / 15
    for eps in (grid.shift_eps - sigma, grid.shift_eps + sigma):
        moved = low_lying(model, ell, 3, grid=grid._replace(shift_eps=eps), **params)
        for before, after in zip(unmoved, moved, strict=True):
            assert before.converged and after.converged
            assert abs(after.eigenvalue - before.eigenvalue) \
                <= 1e-3 * abs(before.series + before.grid_error)


@st.composite
def seeded_pencils(draw):
    """(system, shift, eigenvalue): a random complex tridiagonal pencil with
    diagonal B, one of its eigenvalues from a dense solver, and a shift
    within a tenth of that eigenvalue's distance to the nearest other one."""
    k = draw(st.integers(3, 40))

    def values(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))

    diag = values(-10.0, 10.0) + 1j * values(-1.0, 1.0)
    weights = values(0.5, 2.0) * np.exp(1j * values(-0.5, 0.5))
    off = draw(st.floats(0.5, 3.0)) * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    system = TridiagonalSystem(diag, complex(off), weights)
    a, b = _dense(system)
    eigenvalues = np.linalg.eigvals(np.linalg.solve(b, a))
    j = draw(st.integers(0, k - 1))
    gap_j = np.min(np.abs(np.delete(eigenvalues, j) - eigenvalues[j]))
    offset = (draw(st.floats(0.01, 0.1)) * gap_j
              * np.exp(1j * draw(st.floats(-math.pi, math.pi))))
    return system, complex(eigenvalues[j] + offset), complex(eigenvalues[j])


@settings(max_examples=60, deadline=None)
@given(seeded_pencils())
def test_inverse_iteration_converges_to_the_seeded_eigenvalue(pencil):
    system, shift, eigenvalue = pencil
    tol = 1e-10
    result = inverse_iteration(system, shift, tol=tol)
    assert result.converged
    assert abs(result.eigenvalue - eigenvalue) <= 1e-8 * max(1.0, abs(eigenvalue))
    norm_a = float(np.max(np.abs(system.diag))) + 2.0 * abs(system.off)
    norm_b = float(np.max(np.abs(system.weight)))
    assert result.residual <= tol * (norm_a + abs(result.eigenvalue) * norm_b)


@pytest.mark.xfail(strict=True, reason="inverse_iteration starts from B times the all-ones "
                   "vector, here the eigenvector of 2, so its sweeps never leave it")
def test_inverse_iteration_finds_the_eigenvalue_nearest_a_shift_whatever_its_start():
    # A = [[1, 1, 0], [1, 0, 1], [0, 1, 1]] and B = I: eigenvalues 2, 1 and -1,
    # and (1, 1, 1) is the eigenvector of 2.  The shift -0.875 is nearest -1,
    # but the run converges at once to 2 with residual 0.
    system = TridiagonalSystem(np.array([1.0, 0.0, 1.0], complex), 1.0 + 0j,
                               np.ones(3, complex))
    result = inverse_iteration(system, -0.875)
    assert result.converged
    assert abs(result.eigenvalue + 1.0) <= 1e-8


def test_converged_residual_respects_tolerance():
    disc = Discretization(10.0, 1001, shift_eps=1.0)
    system = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
    norm_a = float(np.max(np.abs(system.diag))) + 2.0 * abs(system.off)
    norm_b = float(np.max(np.abs(system.weight)))
    for tol in (1e-6, 1e-9, 1e-11):
        result = inverse_iteration(system, 4.9, tol=tol)
        assert result.converged
        bound = tol * (norm_a + abs(result.eigenvalue) * norm_b)
        assert result.residual <= bound


def test_grid_convergence_is_second_order():
    # Complex-line oscillator benchmark: halving h divides the error by ~4.
    spec = HOSpec(angular=10.0, frequency=1.0)
    exact = energy_ho_exact(10.0, 1.0, 0)
    errors = []
    for points in (1501, 3001):
        results = low_lying("ho", 10.0, 1,
                            grid=resolved_discretization("ho", 10.0, points=points))
        errors.append(abs(results[0].eigenvalue.real - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_low_lying_ho_levels():
    results = low_lying("ho", 10.0, 3, grid=resolved_discretization("ho", 10.0, points=2001))
    reals = [r.eigenvalue.real for r in results]
    assert reals == sorted(reals)
    for n, r in enumerate(results):
        assert r.converged
        assert abs(r.eigenvalue.real - energy_ho_exact(10.0, 1.0, n)) < 5e-4
        assert abs(r.eigenvalue.imag) < 1e-4 * 4.0  # gap = 4*omega


def test_low_lying_cubic_small_imaginary_parts():
    results = low_lying("cubic_toboggan", 50.0, 2)
    spacing = gap(0, 50.0)
    for r in results:
        assert r.converged
        assert abs(r.eigenvalue.imag) < 1e-4 * spacing


def test_weighted_and_unweighted_paths_agree_at_zero_winding():
    problem = build_rectified(0, 25.0)
    disc = resolved_discretization("cubic_toboggan", 25.0)
    weighted = build_tridiagonal(lambda y: rectified_potential(problem, y), disc,
                                 lambda y: weight(problem, y))
    plain = build_tridiagonal(lambda y: rectified_potential(problem, y), disc)
    seed = -90.5
    a = inverse_iteration(weighted, seed)
    b = inverse_iteration(plain, seed)
    assert abs(a.eigenvalue - b.eigenvalue) <= 1e-12 * abs(b.eigenvalue)


def test_low_lying_user_seed_degeneracy_error(monkeypatch):
    # Seeds 0.01 and 0.02 above the ground level both converge to it.  An
    # oscillator seed pair like that is rejected as out of regime before
    # solving, since the second seed is nearer the first level than its own.
    ground = energy_cubic(50.0, 0)
    monkeypatch.setattr(eigensolver, "energy_cubic",
                        lambda ell, n: ground + 0.01 * (n + 1))
    # The message, which verify prints, shows the seeds as complex numbers.
    with pytest.raises(DegenerateEigenvaluesError,
                       match=r"^seeds \(-211\.10290464810248\+0j\) and "
                             r"\(-211\.09290464810246\+0j\) both converged to \("):
        low_lying("cubic_toboggan", 50.0, 2)
    monkeypatch.setattr(eigensolver, "energy_ho_approx",
                        lambda ell, omega, n: -18.98 - 0.01 * n)
    with pytest.raises(ValueError, match="seed of level n = 1 is too near"):
        low_lying("ho", 10.0, 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("winding", [1, 2, 3])
@pytest.mark.parametrize("ell", [30.0, 100.0, 1000.0])
def test_winding_levels_are_the_zero_winding_levels(winding, ell):
    # The rectification is an exact change of variables, so on the grid
    # centred at the preimage of the N = 0 well the N-winding oracle finds
    # the N = 0 levels from the N = 0 seeds, quickly and without warnings.
    reference = low_lying("cubic_toboggan", ell, 3)
    results = low_lying("cubic_toboggan", ell, 3, winding=winding)
    for r, ref in zip(results, reference):
        assert r.converged and r.iterations <= 10
        assert abs(r.eigenvalue - ref.eigenvalue) <= 1e-5 * abs(ref.eigenvalue)


@pytest.mark.parametrize("points", [601, 2401])
@pytest.mark.parametrize("winding", [0, 1])
@pytest.mark.parametrize("ell", [26.0, 100.0, 1e4])
def test_oracle_error_is_the_predicted_error(ell, winding, points):
    # The series' second-order term plus the 3-point scheme's leading
    # truncation account for the oracle's whole error within 5 %.
    grid = resolved_discretization("cubic_toboggan", ell, winding=winding, points=points)
    results = low_lying("cubic_toboggan", ell, 4, winding=winding, grid=grid)
    for n, r in enumerate(results):
        predicted = energy_cubic_correction(ell, n) + r.grid_error
        assert 0.95 <= (r.eigenvalue.real - energy_cubic(ell, n)) / predicted <= 1.05


@cache
def _dense_cubic_levels(ell: float) -> np.ndarray:
    """The dense eigenvalues of low_lying's default N = 0 pencil, by real part."""
    system = build_tridiagonal(partial(rectified_potential, build_rectified(0, ell)),
                               resolved_discretization("cubic_toboggan", ell))
    values = np.linalg.eigvals(_dense(system)[0])  # B = I
    return values[np.argsort(values.real)]


@pytest.mark.parametrize("ell, count", [(10.0, 5), (30.0, 9), *(
    pytest.param(ell, count, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 26: a seed nearer the pencil's level n + 1 converges there, "
        "and verify cubic0 passes with the wrong level")))
    for ell, count in [(2.0, 3), (4.0, 4), (10.0, 6), (30.0, 10)])])
def test_cubic_level_n_is_the_pencils_level_n(ell, count):
    dense = _dense_cubic_levels(ell)
    found = [int(np.argmin(np.abs(dense - level.eigenvalue)))
             for level in low_lying("cubic_toboggan", ell, count)]
    assert found == list(range(count))


# Where the oscillator oracle's error is not the grid's, so that no grid
# rule can predict it.
_STOP_RULE = ("n = 1: tol = 1e-9 of |E| = 2e8 omega stops inverse iteration after "
              "2 sweeps at 0.27 g_1 (tol = 1e-11 gives 1.00)")
_ROUNDING = ("g_n = 2e-7 omega is a few ulp of |E| = 2e8 omega: rounding sets the "
             "error, n = 0 lands at 1.068 g_0")
HO_ORACLE_LIMITS = {
    (1e8, 0.25, 301): _STOP_RULE, (1e8, 2.0, 301): _STOP_RULE,
    (1e8, 10.0, 301): _STOP_RULE,
    (1e8, 0.25, 24001): _ROUNDING, (1e8, 2.0, 24001): _ROUNDING,
}


def _ho_oracle_cases():
    for ell in (0.05, 4.0, 10.0, 60.0, 1e4, 1e8):
        for omega in (0.25, 2.0, 10.0):
            for points in (301, 6001, 24001):
                reason = HO_ORACLE_LIMITS.get((ell, omega, points))
                marks = [pytest.mark.xfail(reason=reason, strict=True)] if reason else []
                yield pytest.param(ell, omega, points, marks=marks)


@pytest.mark.parametrize("ell, omega, points", _ho_oracle_cases())
def test_ho_oracle_error_is_the_predicted_grid_error(ell, omega, points):
    # The exact levels leave the 3-point scheme's leading truncation as the
    # oracle's whole error: from 0.31 of it at l = 0.05 to 0.95-1.05 of it
    # from l = 10 up, whatever omega, at every level verify accepts up to
    # n = 4.
    count = min(5, math.ceil(ell + 0.5))
    grid = resolved_discretization("ho", ell, omega=omega, points=points)
    results = low_lying("ho", ell, count, omega=omega, grid=grid)
    lowest = 0.95 if ell >= 10 else 0.0
    for n, r in enumerate(results):
        assert lowest < (r.eigenvalue.real - energy_ho_exact(ell, omega, n)) / r.grid_error <= 1.05


@pytest.mark.parametrize("points", [301, 6001, 24001])
@pytest.mark.parametrize("omega", [0.25, 2.0, 10.0])
def test_ho_oracle_rejects_a_level_out_of_regime(monkeypatch, omega, points):
    # At l = 0.6 the seed of n = 1, energy_ho_approx = 4.04 omega, lies nearer
    # the other family's level omega (2l + 3) = 4.2 omega than the exact
    # 3.8 omega, so low_lying rejects it before anything is solved, on every
    # grid and whatever omega.
    grid = resolved_discretization("ho", 0.6, omega=omega, points=points)
    monkeypatch.setattr(eigensolver, "build_tridiagonal", None)  # never reached
    with pytest.raises(ValueError, match="l = 0.6 is out of regime: the seed of level n = 1"):
        low_lying("ho", 0.6, 2, omega=omega, grid=grid)


def test_truncation_error_hand_value():
    # The oscillator's well is -psi'' + 4 x**2 psi (w = 2, gap 4): level n
    # moves by -(h w)**2 (6n**2 + 6n + 3)/48.
    step = resolved_discretization("ho", 10.0).step
    assert [level.grid_error for level in low_lying("ho", 10.0, 3)] == pytest.approx(
        [-(2 * step) ** 2 * k / 48 for k in (3, 15, 39)], rel=1e-14)


@pytest.mark.parametrize("model, ell, winding, omega", [
    ("ho", 10.0, 0, 1.0), ("ho", 4.0, 0, 2.5),
    ("cubic_toboggan", 50.0, 0, 1.0), ("cubic_toboggan", 300.0, 1, 1.0),
])
def test_low_lying_levels_carry_their_closed_forms(model, ell, winding, omega):
    # Each record is an EigenResult with level n's seed, the closed form it is
    # held to and that form's series term: for ho the stationary-point
    # estimate, the exact level and 0; for every winding number the N = 0
    # level, twice, and its next term.
    for n, level in enumerate(low_lying(model, ell, 3, winding=winding, omega=omega)):
        assert isinstance(level, Level) and isinstance(level, EigenResult)
        if model == "ho":
            assert (level.seed, level.closed_form, level.series) == (
                energy_ho_approx(ell, omega, n), energy_ho_exact(ell, omega, n), 0.0)
        else:
            assert (level.seed, level.closed_form, level.series) == (
                energy_cubic(ell, n), energy_cubic(ell, n), energy_cubic_correction(ell, n))
        assert type(level.seed) is float and level.grid_error < 0


@pytest.mark.parametrize("ell, tol", [(1e12, 1e-9), (1e30, 1e-9), (50.0, 1e-2),
                                      (3e8, 1e-9)])
def test_levels_closer_than_the_tolerance_are_rejected_before_solving(monkeypatch,
                                                                      ell, tol):
    # At l = 1e12 the gap is about 1.3e3 and 10*tol*|E| about 4.9e6; at l = 50
    # and tol = 1e-2 they are 11.5 and 22.  The lowest seed is compared with
    # one gap above it, so one level is rejected where two are.
    monkeypatch.setattr(eigensolver, "build_tridiagonal", None)  # never reached
    for count in (1, 2):
        with pytest.raises(ValueError, match="cannot tell the closed-form levels apart"):
            low_lying("cubic_toboggan", ell, count, tol=tol)


@pytest.mark.parametrize("model, ell, winding, grid", [
    ("ho", 10.0, 0, Discretization(12.0, 801, 2.5)),
    ("cubic_toboggan", 300.0, 1, None),
])
def test_low_lying_assembles_on_the_grid_it_is_handed(monkeypatch, model, ell,
                                                      winding, grid):
    # Handed a grid, low_lying builds its pencil on exactly that grid; handed
    # none, on resolved_discretization's grid for the same problem.
    seen = []
    assemble = eigensolver.build_tridiagonal

    def recorded(potential, disc, weight_fn=None):
        seen.append(disc)
        return assemble(potential, disc, weight_fn)

    monkeypatch.setattr(eigensolver, "build_tridiagonal", recorded)
    low_lying(model, ell, 2, winding=winding, grid=grid)
    if grid is None:
        assert seen == [resolved_discretization(model, ell, winding=winding)]
    else:
        assert len(seen) == 1 and seen[0] is grid


def test_low_lying_returns_each_seeds_solve_in_seed_order(monkeypatch):
    # At winding 1, l = 1.15, seed 1's solve ends below seed 0's (both stop at
    # the sweep cap); level n is still seed n's solve.
    solves = []
    iterate = eigensolver._iterate_with_retries

    def recorded(system, shift, tol):
        solves.append((shift, iterate(system, shift, tol)))
        return solves[-1][1]

    monkeypatch.setattr(eigensolver, "_iterate_with_retries", recorded)
    results = low_lying("cubic_toboggan", 1.15, 2, winding=1)
    assert [shift for shift, _ in solves] == [energy_cubic(1.15, n) for n in range(2)]
    # Each record carries its solve's EigenResult fields unchanged.
    assert [EigenResult(r.eigenvalue, r.residual, r.iterations, r.converged)
            for r in results] == [result for _, result in solves]
    assert results[1].eigenvalue.real < results[0].eigenvalue.real


def test_low_lying_ho_levels_are_held_to_their_range():
    # Below l + 1/2 = 0.8 only n = 0 exists: seeds 1 and 2 would find the
    # other family's levels omega (4m + 3 + 2l) instead.
    with pytest.raises(ValueError, match=r"level n = 1 out of range: need n < l \+ 1/2 = 0.8"):
        low_lying("ho", 0.3, 3)
    (result,) = low_lying("ho", 0.3, 1)
    assert result.converged and result.eigenvalue.real == pytest.approx(0.4, abs=1e-5)


@pytest.mark.parametrize("count, grid", [(602, None), (10**12, None),
                                         (4, Discretization(12.0, 3, 1.0))])
def test_low_lying_rejects_more_levels_than_grid_points(monkeypatch, count, grid):
    monkeypatch.setattr(eigensolver, "build_tridiagonal", None)  # never reached
    points = 601 if grid is None else grid.points
    with pytest.raises(ValueError, match=f"cannot find {count} levels on {points} grid"):
        low_lying("cubic_toboggan", 50.0, count, grid=grid)


def test_low_lying_validation():
    with pytest.raises(ValueError):
        low_lying("ho", 10.0, 0)
    with pytest.raises(ValueError):
        low_lying("nonsense", 10.0, 1)


def test_auto_discretization_rule():
    spec = HOSpec(angular=10.0, frequency=1.0)
    tau = tau_ho(spec)
    harmonic = 4.0
    sigma = harmonic ** -0.25
    disc = resolved_discretization("ho", 10.0)
    assert disc.half_width == pytest.approx(15.0 * sigma, rel=1e-14)
    assert disc.points == 6001
    assert disc.step == pytest.approx(sigma / 200.0, rel=1e-15)
    assert disc.shift_eps == tau


def test_automatic_grid_point_count_is_exact():
    # 601 points for the winding problem and 6001 for the oscillator, at
    # every l: no rounding of a quotient decides the count.
    for ell in np.geomspace(25.0, 1e4, 2001)[1:].tolist():
        for winding in (0, 1):
            assert resolved_discretization("cubic_toboggan", ell,
                                           winding=winding).points == 601
        assert resolved_discretization("ho", ell).points == 6001


def test_resolved_discretization_overrides():
    disc = resolved_discretization("ho", 10.0, points=6001, eps=2.5)
    assert disc.points == 6001
    assert disc.shift_eps == 2.5
    default = resolved_discretization("cubic_toboggan", 50.0, winding=1)
    assert default.shift_eps == pytest.approx(tau_general(0, 50.0) ** (1 / 3), rel=1e-15)


# Loads LAPACK through eigensolver and through scipy.linalg in a fresh
# interpreter, in the order given, and prints whether each routine is the
# same object and how many modules named scipy.linalg._flapack there are.
LAPACK_PROBE = textwrap.dedent("""
    import json, sys
    import numpy as np
    from toboggan import eigensolver
    arrays = (np.zeros(3, complex),)
    fetched = {}
    for who in sys.argv[1:]:
        if who == "toboggan":
            fetched[who] = eigensolver.get_lapack_funcs(("gttrf", "gttrs"), arrays)
        else:
            import scipy.linalg
            fetched[who] = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), arrays)
    same = [a is b for a, b in zip(fetched["toboggan"], fetched["scipy"])]
    copies = [m for m in sys.modules.values()
              if getattr(m, "__name__", None) == eigensolver.FLAPACK]
    print(json.dumps([same, len(copies),
                      copies[0] is sys.modules[eigensolver.FLAPACK]]))
    """)


@pytest.mark.parametrize("order", [("toboggan", "scipy"), ("scipy", "toboggan")],
                         ids=["toboggan-first", "scipy-first"])
def test_lapack_routines_are_scipys_own_in_either_import_order(order):
    # get_lapack_funcs loads scipy's extension without scipy.linalg; either
    # import order must leave one module and hand out scipy's very routines.
    # A scipy release that moves the module fails here.
    src = str(Path(eigensolver.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", LAPACK_PROBE, *order],
                          env={**os.environ, "PYTHONPATH": src},
                          check=True, capture_output=True, text=True)
    assert json.loads(done.stdout) == [[True, True], 1, True]


@pytest.mark.parametrize("missing", ["scipy", "extension"])
def test_missing_lapack_extension_is_an_import_error_naming_it(monkeypatch, missing):
    monkeypatch.delitem(sys.modules, eigensolver.FLAPACK, raising=False)
    if missing == "scipy":
        monkeypatch.setitem(sys.modules, "scipy", None)  # find_spec then finds none
    else:
        find_spec = importlib.machinery.PathFinder.find_spec
        searched = []

        def scipy_without_extension(cls, name, path=None, target=None):
            searched.append(name)
            return None if name == eigensolver.FLAPACK else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(scipy_without_extension))
    with pytest.raises(ImportError, match="scipy.linalg._flapack") as raised:
        eigensolver.get_lapack_funcs(("gttrf",), (np.zeros(3, complex),))
    assert raised.value.name == eigensolver.FLAPACK
    if missing == "extension":
        assert searched[-1] == eigensolver.FLAPACK


def test_lapack_routines_take_complex128_only():
    with pytest.raises(TypeError, match="complex128"):
        eigensolver.get_lapack_funcs(("gttrf",), (np.zeros(3),))
