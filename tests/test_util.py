import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toboggan.util import ipow, linspace


def test_ipow_takes_only_non_negative_exponents():
    with pytest.raises(ValueError, match="non-negative exponent"):
        ipow(2.0, -1)


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


ENDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1.7976931348623157e308,
     -1.7976931348623157e308])


@given(ENDS, ENDS, st.integers(min_value=2, max_value=300))
def test_linspace_has_numpy_linspace_bits(start, stop, count):
    # Every branch: a plain step, one that underflows to 0 (i/div*delta) and
    # a width that overflows to inf, which numpy warns about.
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, count).tolist()
    assert _bits(linspace(start, stop, count)) == _bits(expected)


def test_linspace_takes_the_underflow_branch_where_the_step_is_zero():
    grid = linspace(-5e-324, 5e-324, 5)
    assert (5e-324 - -5e-324) / 4 == 0.0
    assert grid == [-5e-324, -5e-324, 0.0, 5e-324, 5e-324]
    assert not all(map(math.isfinite, linspace(-1e308, 1.7e308, 3)))


@pytest.mark.parametrize("k", range(1, 12))
def test_ipow_over_lists_keeps_the_scalar_product_order(k):
    points = [complex(x, y) for x in (-2.5, -0.3, -0.0, 0.7, 1.9) for y in (-1.1, 0.0, 2.0)]
    powers = ipow(points, k, lambda a, b: [p * q for p, q in zip(a, b)])
    scalars = [ipow(p, k) for p in points]
    assert _bits(np.array(powers).view(float)) == _bits(np.array(scalars).view(float))
