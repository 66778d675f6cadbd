"""Large-angular-momentum spectra of imaginary cubic oscillators on winding
complex contours, validated against a finite-difference complex eigensolver
and an exactly solvable oscillator benchmark.

`import toboggan` loads no submodule.  Every public name, and each library
submodule's own name, is imported on first use (PEP 562) from the module
that defines it: toboggan.sample_path loads contours and util alone,
toboggan.gap spectra, expansion, rectify and potentials, and only the
eigensolver's names load numpy.  __all__ and dir() list every name, so
`from toboggan import *` imports them all.
"""

__version__ = "0.1.0"

# The public names of each submodule, for __getattr__.
_EXPORTS = {
    "contours": ("WindingContour", "sample_path", "straight_path", "winding_path"),
    "eigensolver": (
        "DegenerateEigenvaluesError", "Discretization", "EigenResult", "Level",
        "ShiftCollisionError", "TridiagonalSystem", "build_tridiagonal",
        "inverse_iteration", "low_lying", "resolved_discretization"),
    "expansion": (
        "TaylorExpansion", "power_terms", "power_terms_ho", "tau_general", "tau_ho",
        "taylor_at", "taylor_ho", "taylor_rectified"),
    "potentials": ("HOSpec", "SingularPointError", "v_eff_cubic", "v_eff_ho"),
    "rectify": ("RectifiedProblem", "angular_map", "build_rectified",
                "rectified_potential", "weight"),
    "spectra": (
        "SpectrumTable", "density_parameter", "energy_cubic",
        "energy_error_scale", "energy_ho_approx", "energy_ho_exact",
        "energy_toboggan", "gap", "gap_constant", "rescaled_level",
        "rescaled_level_limit"),
    "util": (),
}

# Each exported name, a submodule's among them, by the submodule it comes from.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
