"""Large-angular-momentum spectra of imaginary cubic oscillators on winding
complex contours, validated against a finite-difference complex eigensolver
and an exactly solvable oscillator benchmark.

The eigensolver's names are imported on first use (PEP 562): that module
loads numpy, which the closed forms never need.
"""

from .contours import WindingContour, sample_path, straight_path, winding_path
from .expansion import (
    RescaledForm,
    StationaryFamily,
    TaylorExpansion,
    cubic_correction_exponent,
    harmonic_frequency,
    mu_coefficient,
    power_terms,
    power_terms_ho,
    rescale,
    stationary_points,
    stationary_points_ho,
    tau_general,
    tau_ho,
    taylor_at,
    taylor_ho,
    taylor_rectified,
    weight_correction_exponent,
)
from .potentials import HOSpec, SingularPointError, v_eff_cubic, v_eff_ho
from .rectify import (
    RectifiedProblem,
    angular_map,
    build_rectified,
    rectified_potential,
    weight,
)
from .spectra import (
    SpectrumEntry,
    SpectrumTable,
    density_parameter,
    energy_cubic,
    energy_error_scale,
    energy_ho_approx,
    energy_ho_exact,
    energy_toboggan,
    gap,
    gap_constant,
    rescaled_level,
    rescaled_level_limit,
)

__version__ = "0.1.0"

_EIGENSOLVER_NAMES = frozenset((
    "DegenerateEigenvaluesError",
    "Discretization",
    "EigenResult",
    "Level",
    "ShiftCollisionError",
    "TridiagonalSystem",
    "build_tridiagonal",
    "inverse_iteration",
    "low_lying",
    "resolved_discretization",
))


def __getattr__(name: str):
    if name in _EIGENSOLVER_NAMES:
        from . import eigensolver
        return getattr(eigensolver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
