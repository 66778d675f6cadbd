import math

import numpy as np
import pytest

from toboggan import eigensolver
from toboggan.eigensolver import (
    DegenerateEigenvaluesError,
    Discretization,
    ShiftCollisionError,
    TridiagonalSystem,
    auto_discretization,
    build_tridiagonal,
    inverse_iteration,
    low_lying,
    resolved_discretization,
)
from toboggan.expansion import tau_general, tau_ho
from toboggan.potentials import HOSpec
from toboggan.rectify import build_rectified, rectified_potential, weight
from toboggan.spectra import energy_ho_exact, gap


def test_discretization_validation():
    disc = Discretization(half_width=1.0, points=3, shift_eps=1.0)
    assert disc.step == 1.0
    assert np.allclose(disc.s_grid(), [-1.0, 0.0, 1.0])
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


def test_shift_collision_raises_and_perturbation_recovers():
    system = TridiagonalSystem(diag=np.array([1.0, 2.0, 3.0], complex),
                               off=0.0 + 0j,
                               weight=np.ones(3, complex))
    with pytest.raises(ShiftCollisionError):
        inverse_iteration(system, 2.0)
    result = inverse_iteration(system, 2.0 * (1.0 + 1e-6))
    assert result.converged
    assert result.eigenvalue == pytest.approx(2.0, rel=1e-12)


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


def test_inverse_iteration_reports_non_convergence():
    disc = Discretization(6.0, 401, shift_eps=1.0)
    system = build_tridiagonal(lambda y: (y.real ** 2).astype(complex), disc)
    result = inverse_iteration(system, 0.9, tol=1e-12, max_iter=1)
    assert not result.converged
    assert result.iterations == 1
    assert result.residual > 0.0


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
        results = low_lying("ho", 10.0, 1, points=points)
        errors.append(abs(results[0].eigenvalue.real - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_low_lying_ho_levels():
    results = low_lying("ho", 10.0, 3, points=2001)
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


def test_low_lying_user_seed_degeneracy_error():
    with pytest.raises(DegenerateEigenvaluesError):
        low_lying("ho", 10.0, 2, points=601, seeds=[-18.98, -18.99])


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


def test_low_lying_validation():
    with pytest.raises(ValueError):
        low_lying("ho", 10.0, 0)
    with pytest.raises(ValueError):
        low_lying("nonsense", 10.0, 1)
    with pytest.raises(ValueError):
        low_lying("ho", 10.0, 2, seeds=[-19.0])


def test_auto_discretization_rule():
    spec = HOSpec(angular=10.0, frequency=1.0)
    tau = tau_ho(spec)
    harmonic = 4.0
    sigma = harmonic ** -0.25
    disc = auto_discretization(harmonic, tau)
    assert disc.half_width == pytest.approx(15.0 * sigma, rel=1e-14)
    assert disc.step <= sigma / 20.0
    assert disc.shift_eps == tau
    assert disc.points >= 64
    with pytest.raises(ValueError):
        auto_discretization(-1.0, 1.0)


def test_resolved_discretization_overrides():
    disc = resolved_discretization("ho", 10.0, points=6001, eps=2.5)
    assert disc.points == 6001
    assert disc.shift_eps == 2.5
    default = resolved_discretization("cubic_toboggan", 50.0, winding=1)
    assert default.shift_eps == pytest.approx(tau_general(0, 50.0) ** (1 / 3), rel=1e-15)
