import pytest

from toboggan.util import ipow


def test_ipow_takes_only_non_negative_exponents():
    with pytest.raises(ValueError, match="non-negative exponent"):
        ipow(2.0, -1)
