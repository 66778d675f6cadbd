import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import loglog_slope
from toboggan.expansion import tau_general
from toboggan.spectra import (
    Ladder,
    SpectrumTable,
    density_parameter,
    energy_cubic,
    energy_cubic_correction,
    energy_error_scale,
    energy_ho_approx,
    energy_ho_exact,
    energy_toboggan,
    gap,
    gap_constant,
    rescaled_level,
    rescaled_level_limit,
)


def test_energy_cubic_hand_value():
    tau = tau_general(0, 4.0)
    expected = -2.5 * tau ** 3 + math.sqrt(7.5 * tau)
    assert energy_cubic(4.0, 0) == pytest.approx(expected, rel=1e-15)
    assert energy_cubic(4.0, 0) == pytest.approx(-8.2811, abs=2e-3)  # 5-digit ref
    spacing = energy_cubic(4.0, 1) - energy_cubic(4.0, 0)
    assert spacing == pytest.approx(2.0 * math.sqrt(7.5 * tau), rel=1e-13)
    assert spacing == pytest.approx(7.0970, abs=1e-3)


def test_energy_toboggan_hand_value():
    tau = tau_general(1, 4.0)
    expected = -7.5 * tau ** 9 + math.sqrt(97.5) / 3.0 * tau ** 1.5
    assert energy_toboggan(1, 4.0, 0) == pytest.approx(expected, rel=1e-14)
    assert energy_toboggan(1, 4.0, 0) == pytest.approx(-11.1303, abs=2e-3)


def test_energy_reduction_bit_for_bit():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ell = float(rng.uniform(0.5, 300.0))
        n = int(rng.integers(0, 8))
        assert energy_toboggan(0, ell, n) == energy_cubic(ell, n)


def test_energy_rejects_bad_quantum_number():
    with pytest.raises(ValueError):
        energy_toboggan(0, 4.0, -1)
    with pytest.raises(ValueError):
        energy_cubic(-0.5, 0)


def test_closed_form_energies_increasing_in_n():
    for winding in range(4):
        levels = [energy_toboggan(winding, 30.0, n) for n in range(6)]
        assert all(a < b for a, b in zip(levels, levels[1:]))


def test_gap_matches_energy_difference():
    for winding, ell in ((0, 4.0), (1, 4.0), (2, 30.0), (3, 12.0)):
        difference = (energy_toboggan(winding, ell, 3)
                      - energy_toboggan(winding, ell, 2))
        assert gap(winding, ell) == pytest.approx(difference, rel=1e-12)


def test_gap_hand_value():
    assert gap(0, 4.0) == pytest.approx(2.0 * math.sqrt(7.5 * tau_general(0, 4.0)),
                                        rel=1e-14)


def test_gap_over_ell_fifth_converges():
    for winding in range(4):
        scaled = [gap(winding, ell) / ell ** 0.2 for ell in (1e6, 1e7, 1e8)]
        limit = gap_constant(winding)
        deviations = [abs(s - limit) for s in scaled]
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-6 * limit


def test_rescaled_level_limits():
    # Independent recompute of -(10N+5)/2 * (2/(10N+3))**(3/5).
    for winding in range(4):
        explicit = -(10 * winding + 5) / 2.0 * (2.0 / (10 * winding + 3)) ** 0.6
        assert rescaled_level_limit(winding) == explicit
    references = {0: -1.96014, 1: -2.43941, 2: -2.88789, 3: -3.25507}
    for winding, reference in references.items():
        assert rescaled_level_limit(winding) == pytest.approx(reference, abs=1e-3)
    limits = [rescaled_level_limit(w) for w in range(6)]
    assert all(a > b for a, b in zip(limits, limits[1:]))


def test_rescaled_level_converges_to_limit():
    for winding in range(4):
        limit = rescaled_level_limit(winding)
        far = rescaled_level(winding, 1e6, 0)
        farther = rescaled_level(winding, 1e7, 0)
        assert abs(farther - limit) < abs(far - limit)
        assert far == pytest.approx(limit, rel=1e-4)


def test_density_parameter():
    assert density_parameter(0.5) == 1.0
    assert density_parameter(9.5) == pytest.approx(0.01, rel=1e-15)


def test_gap_constant_values_and_ordering():
    for winding in (0, 1, 2, 3, 0.5):
        explicit = (2.0 / (2 * winding + 1)
                    * math.sqrt((10 * winding + 3) * (10 * winding + 5) / 2.0)
                    * (2.0 / (10 * winding + 3)) ** 0.1)
        assert gap_constant(winding) == pytest.approx(explicit, rel=1e-15)
    g = {n: gap_constant(n) for n in range(4)}
    assert g[3] < g[0] < g[2] < g[1]
    with pytest.raises(ValueError):
        gap_constant(-0.5)


def test_gap_constant_matches_large_ell_numerics():
    for winding in range(4):
        numeric = gap(winding, 1e8) / (1e8) ** 0.2
        assert abs(gap_constant(winding) - numeric) < 1e-3


def test_gap_constant_maximum_at_half():
    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    values = [gap_constant(float(x)) for x in grid]
    best = grid[int(np.argmax(values))]
    assert abs(best - 0.5) <= 0.01
    assert max(values) == pytest.approx(math.sqrt(40.0) * 0.25 ** 0.1, rel=1e-12)


def test_level_and_gap_exponent_laws():
    ells = (1e4, 1e5, 1e6)
    for winding in range(4):
        level_slope = loglog_slope(ells, [-energy_toboggan(winding, l, 0)
                                          for l in ells])
        gap_slope = loglog_slope(ells, [gap(winding, l) for l in ells])
        assert abs(level_slope - 1.2) < 0.01
        assert abs(gap_slope - 0.2) < 0.01


def test_energy_ho_exact_values():
    assert energy_ho_exact(10.0, 1.0, 0) == -19.0
    assert energy_ho_exact(0.5, 3.0, 0) == 0.0
    assert energy_ho_exact(10.0, 2.0, 3) == -14.0


def test_energy_ho_exact_range_error():
    with pytest.raises(ValueError):
        energy_ho_exact(10.0, 1.0, 11)
    energy_ho_exact(10.0, 1.0, 10)  # n = 10 < 10.5 is still allowed
    with pytest.raises(ValueError):
        energy_ho_exact(10.0, -1.0, 0)


@pytest.mark.parametrize("level", [energy_ho_exact, energy_ho_approx])
@pytest.mark.parametrize("n", [-1, 1.5])
def test_oscillator_levels_take_only_non_negative_integer_n(level, n):
    with pytest.raises(ValueError, match="non-negative integer"):
        level(10.0, 1.0, n)


def test_energy_ho_approx_values():
    assert energy_ho_approx(10.0, 1.0, 0) == pytest.approx(-math.sqrt(440.0) + 2.0,
                                                           rel=1e-15)
    assert energy_ho_approx(10.0, 1.0, 0) == pytest.approx(-18.9762, abs=1e-4)
    with pytest.raises(ValueError):
        energy_ho_approx(-0.9, 1.0, 0)


def test_ho_error_identity_and_n_independence():
    for ell, omega in ((10.0, 1.0), (25.0, 2.0)):
        x = 2.0 * ell + 1.0
        identity = omega * (x - math.sqrt(x * x - 1.0))
        diffs = [energy_ho_approx(ell, omega, n) - energy_ho_exact(ell, omega, n)
                 for n in range(5)]
        for d in diffs:
            assert abs(d - identity) < 1e-12
        assert abs(diffs[0] - diffs[4]) < 1e-14 * max(1.0, abs(diffs[0]))
        assert diffs[0] == pytest.approx(omega / (2.0 * x), rel=1e-2)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.6, 1e8), st.floats(1e-3, 1e3), st.integers(1, 6))
@example(10.0, 1.0, 5)
@example(25.0, 2.0, 5)
@example(8689.473324476914, 0.2473159824799772, 3)
@example(1e8, 1e3, 6)
@example(1e8, 1e-3, 1)
@example(0.6, 1e3, 2)
def test_ho_identity_holds_to_the_rounding_of_the_levels(ell, omega, count):
    # approx - exact is omega*(x - sqrt(x**2 - 1)) up to the rounding of
    # levels of size omega*x, however large omega*l: the bound verify ho uses.
    x = 2.0 * ell + 1.0
    identity = omega * (x - math.sqrt(x * x - 1.0))
    levels = range(min(count, math.ceil(ell + 0.5)))
    exact = [energy_ho_exact(ell, omega, n) for n in levels]
    approx = [energy_ho_approx(ell, omega, n) for n in levels]
    rounding = 16 * sys.float_info.epsilon * max(1.0, *map(abs, approx + exact))
    for a, e in zip(approx, exact):
        assert abs((a - e) - identity) <= rounding


def test_ho_error_bound():
    rng = np.random.default_rng(31)
    for ell in (5.0, 10.0, 20.0, 40.0, 123.0):
        for omega in (1.0, float(rng.uniform(0.2, 4.0))):
            diff = (energy_ho_approx(ell, omega, 0)
                    - energy_ho_exact(ell, omega, 0))
            assert diff > 0.0
            assert diff <= omega / (2.0 * (2.0 * ell + 1.0)) * (1.0 + 1.0 / ell)


def test_energy_error_scale():
    for winding, ell in ((0, 25.0), (1, 50.0)):
        tau = tau_general(winding, ell)
        assert energy_error_scale(winding, ell) == pytest.approx(
            tau ** (-(6 * winding + 3) / 4.0), rel=1e-14)


def test_energy_cubic_correction_hand_values():
    # -4/9, -16/9 and -40/9 over tau**2 for n = 0, 1, 2.
    tau = tau_general(0, 1000.0)
    for n, numerator in enumerate((4, 16, 40)):
        assert energy_cubic_correction(1000.0, n) * tau ** 2 == pytest.approx(
            -numerator / 9, rel=1e-14)


def test_spectrum_table_structure():
    table = SpectrumTable.closed_form(1, 4.0, 4)
    assert table._fields == ("winding_number", "ell", "rho", "gap", "energy", "rescaled")
    assert (table.winding_number, table.ell) == (1, 4.0)
    assert type(table.winding_number) is int and type(table.ell) is float
    assert table.rho == pytest.approx(density_parameter(4.0), rel=1e-15)
    assert len(table.energy) == len(table.rescaled) == 4
    assert all(a < b for a, b in zip(table.energy, table.energy[1:]))
    with pytest.raises(ValueError):
        SpectrumTable.closed_form(0, 4.0, 0)


def _paper_level(winding, ell, n):
    """energy_toboggan's formula written out in one expression."""
    tau = tau_general(winding, ell)
    return (-(10 * winding + 5) / 2.0 * tau ** (6 * winding + 3)
            + (2 * n + 1) / (2 * winding + 1)
            * math.sqrt((10 * winding + 3) * (10 * winding + 5) / 2.0)
            * tau ** (winding + 0.5))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=40),
       st.floats(min_value=0.0, max_value=1e15, exclude_min=True),
       st.integers(min_value=0, max_value=49))
def test_ladder_is_energy_toboggan_and_rescaled_level_bit_for_bit(winding, ell, n):
    try:
        expected = _paper_level(winding, ell, n)
    except ValueError as exc:  # l too small for L(L+1) > 0: the same error
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            Ladder(winding, ell)
        return
    level = Ladder(winding, ell).level(n)
    assert np.float64(level).view(np.int64) == np.float64(expected).view(np.int64)
    assert level == energy_toboggan(winding, ell, n)
    scaled = density_parameter(ell) ** 0.6 * level
    assert np.float64(scaled).view(np.int64) == np.float64(
        rescaled_level(winding, ell, n)).view(np.int64)


def test_spectrum_table_rows_are_the_ladder():
    table = SpectrumTable.closed_form(2, 37.0, 60)
    scale = density_parameter(37.0) ** 0.6
    assert len(table.energy) == len(table.rescaled) == 60
    for n, (energy, rescaled) in enumerate(zip(table.energy, table.rescaled)):
        assert energy == energy_toboggan(2, 37.0, n)
        assert rescaled == scale * energy == rescaled_level(2, 37.0, n)
    assert table.gap == gap(2, 37.0)
