import cmath
import math

import numpy as np
import pytest

from toboggan.contours import (
    WindingContour,
    sample_path,
    straight_path,
    winding_path,
)
from toboggan.expansion import tau_general


def test_straight_path_values():
    assert straight_path(1.0, 0.0) == -1j
    assert straight_path(0.5, 2.0) == 2 - 0.5j


def test_straight_path_at_optimal_shift():
    tau = tau_general(0, 4.0)
    assert tau == (2.0 * 4.0 * 5.0 / 3.0) ** 0.2
    assert abs(tau - 1.6789) < 2e-4  # 5-digit reference
    assert straight_path(tau, 0.0) == complex(0.0, -tau)


def test_straight_path_rejects_bad_shift():
    with pytest.raises(ValueError):
        straight_path(0.0, 1.0)
    with pytest.raises(ValueError):
        straight_path(-1.0, 1.0)


@pytest.mark.parametrize("shift", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_library_paths_reject_a_shift_that_is_not_finite_and_positive(shift):
    for call in (lambda: straight_path(shift, 0.0),
                 lambda: winding_path(1, shift, 0.0),
                 lambda: WindingContour(1, shift)):
        with pytest.raises(ValueError, match="shift must be finite and positive"):
            call()


def test_winding_path_hand_values():
    # N=1, eps=1, s=0:  i*(-i) = 1, 1**3 = 1, -i*1 = -i
    assert winding_path(1, 1.0, 0.0) == -1j
    # N=2, eps=0.5, s=0:  i*(-0.5i) = 0.5, 0.5**5 = 0.03125
    assert winding_path(2, 0.5, 0.0) == -0.03125j


def test_winding_reduces_to_straight_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = float(rng.normal(scale=5.0))
        eps = float(rng.uniform(0.01, 4.0))
        assert winding_path(0, eps, s) == straight_path(eps, s)


def test_winding_path_rejects_bad_arguments():
    with pytest.raises(ValueError):
        winding_path(-1, 1.0, 0.0)
    with pytest.raises(ValueError):
        winding_path(1, 0.0, 0.0)


def test_odd_power_identity_against_log_route():
    # i*(s - i*eps) has positive real part eps, so the principal log/exp
    # route is single valued and makes an independent evaluation.
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = float(rng.normal(scale=3.0))
        eps = float(rng.uniform(0.05, 3.0))
        for winding in (0, 1, 2, 3, 5):
            base = 1j * straight_path(eps, s)
            expected = -1j * cmath.exp((2 * winding + 1) * cmath.log(base))
            got = winding_path(winding, eps, s)
            assert got == pytest.approx(expected, rel=1e-14)


def test_contour_pt_mirror_symmetry():
    # q(-s) is the conjugate of q(s) with the real part flipped.
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = float(rng.normal(scale=2.0))
        eps = float(rng.uniform(0.1, 2.0))
        for winding in (0, 1, 2, 4):
            left = winding_path(winding, eps, -s)
            right = winding_path(winding, eps, s)
            assert left == -right.conjugate()


def test_winding_contour_validation():
    with pytest.raises(ValueError):
        WindingContour(-1, 1.0)
    with pytest.raises(ValueError):
        WindingContour(1, 0.0)
    assert winding_path(1, 1.0, 0.0) == -1j


def test_sample_path_straight_line():
    points = sample_path(WindingContour(0, 1.0), -1.0, 1.0, 3)
    assert points == [-1 - 1j, -1j, 1 - 1j]


def test_sample_path_midpoint_matches_winding_path():
    points = sample_path(WindingContour(1, 1.0), -2.0, 2.0, 5)
    assert len(points) == 5
    assert points[2] == winding_path(1, 1.0, 0.0) == -1j


def test_sample_path_ordering_and_count():
    count = 33
    points = sample_path(WindingContour(2, 0.7), -3.0, 5.0, count)
    assert len(points) == count
    svals = np.linspace(-3.0, 5.0, count)
    assert svals[0] == -3.0 and svals[-1] == 5.0
    assert all(a < b for a, b in zip(svals, svals[1:]))


def _bits(points):
    """The float64 bit patterns of each point's real and imaginary parts."""
    return np.array(points, dtype=complex).view(np.int64).tolist()


def test_sample_path_carries_its_grid():
    points = sample_path(WindingContour(2, 0.7), -3.0, 5.0, 33)
    assert type(points.s) is list
    assert points.s == np.linspace(-3.0, 5.0, 33).tolist()
    assert _bits(points) == _bits([winding_path(2, 0.7, s) for s in points.s])


def test_sample_path_rejects_degenerate_input():
    with pytest.raises(ValueError):
        sample_path(WindingContour(1, 1.0), 0.0, 0.0, 8)
    with pytest.raises(ValueError):
        sample_path(WindingContour(1, 1.0), -1.0, 1.0, 1)


@pytest.mark.parametrize("winding", range(8))
def test_sample_path_on_arrays_matches_the_scalar_path(winding):
    # sample_path raises whole lists to the power, winding_path one point.
    eps = 0.7
    svals = np.linspace(-8.0, 8.0, 2049)  # step 1/128: every s exact
    assert np.array_equal(svals, -svals[::-1])
    points = sample_path(WindingContour(winding, eps), -8.0, 8.0, svals.size)
    assert all(type(q) is complex for q in points)
    # PT mirror symmetry q(-s) = -conj(q(s)) holds exactly on a symmetric grid.
    assert all(left == -right.conjugate()
               for left, right in zip(points, reversed(points)))
    # Each point is the scalar evaluation, bit for bit.
    assert _bits(points) == _bits([winding_path(winding, eps, s) for s in svals.tolist()])
    if winding == 0:
        assert points == [s - 1j * eps for s in svals.tolist()]
