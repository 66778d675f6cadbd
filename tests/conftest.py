"""Shared helpers: a high-precision finite-difference oracle for Taylor data.

The third central difference amplifies rounding by h**-3, which at the
stipulated step h = 1e-5*|T| swamps double precision, so the oracle runs in
60-digit mpmath arithmetic.  It stays a plain central-difference scheme and
never touches the analytic differentiation path it is checking.
"""

from __future__ import annotations

import warnings

import mpmath as mp
import numpy as np

# hypothesis imports libcst, when it is installed, to print the patch for a
# falsifying example, and libcst warns at import (mypy_extensions.TypedDict
# is deprecated).  Under -W error that warning turns the failure report into
# an INTERNALERROR, so import libcst here first with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def fd_taylor(terms, point: complex, h: float):
    """(value, V''/2, V'''/6) of sum(c * y**p) at `point` by central differences."""
    with mp.workdps(60):
        z = mp.mpc(point)
        hh = mp.mpf(h)

        def evaluate(w):
            return sum(mp.mpc(c) * w ** int(p) for c, p in terms)

        f0 = evaluate(z)
        fp1 = evaluate(z + hh)
        fm1 = evaluate(z - hh)
        fp2 = evaluate(z + 2 * hh)
        fm2 = evaluate(z - 2 * hh)
        second = (fp1 - 2 * f0 + fm1) / hh ** 2
        third = (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * hh ** 3)
        return complex(f0), complex(second) / 2.0, complex(third) / 6.0


def rel_err(got: complex, want: complex) -> float:
    """|got - want| / |want|."""
    return abs(got - want) / abs(want)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])
