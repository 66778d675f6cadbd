"""The package's lazy namespace and the closed-form records."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import toboggan
from toboggan.cli import main
from toboggan.contours import WindingContour
from toboggan.eigensolver import Discretization, EigenResult, Level
from toboggan.expansion import taylor_rectified
from toboggan.potentials import HOSpec
from toboggan.rectify import build_rectified
from toboggan.spectra import SpectrumTable

# Every public name `import toboggan` gives, by the submodule that defines it.
EXPORTED = {
    "contours": ["contours", "WindingContour", "sample_path", "straight_path",
                 "winding_path"],
    "eigensolver": ["DegenerateEigenvaluesError", "Discretization", "EigenResult", "Level",
                    "ShiftCollisionError", "TridiagonalSystem", "build_tridiagonal",
                    "inverse_iteration", "low_lying", "resolved_discretization"],
    "expansion": ["expansion", "TaylorExpansion", "power_terms", "power_terms_ho",
                  "tau_general", "tau_ho", "taylor_at", "taylor_ho", "taylor_rectified"],
    "potentials": ["potentials", "HOSpec", "SingularPointError", "v_eff_cubic",
                   "v_eff_ho"],
    "rectify": ["rectify", "RectifiedProblem", "angular_map", "build_rectified",
                "rectified_potential", "weight"],
    "spectra": ["spectra", "SpectrumTable", "density_parameter",
                "energy_cubic", "energy_error_scale", "energy_ho_approx", "energy_ho_exact",
                "energy_toboggan", "gap", "gap_constant", "rescaled_level",
                "rescaled_level_limit"],
    "util": ["util"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_exported_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"toboggan.{module}")
    want = home if name == module else getattr(home, name)
    assert getattr(toboggan, name) is want
    assert name in toboggan.__all__ and name in dir(toboggan)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from toboggan import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(toboggan, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        toboggan.nope


# Every closed-form command, its JSON form, and each verify target.
COMMANDS = [
    ["contour", "--N", "2"], ["contour", "--N", "2", "--format", "json"],
    ["spectrum", "--ell", "4"], ["spectrum", "--ell", "4", "--format", "json"],
    ["figure", "fig1"], ["figure", "fig2"], ["figure", "fig3"],
    ["figure", "fig3", "--format", "json"],
    ["verify", "ho"], ["verify", "cubic0"], ["verify", "toboggan1"],
]
# The exported functions no command calls, each with why it stays.
NOT_RUN = {
    "energy_error_scale": "perfbench/layers.py wraps it by name",
    "rescaled_level": "perfbench/layers.py wraps it by name",
    "v_eff_cubic": "perfbench/layers.py wraps it by name",
    "gap_constant": "the l -> infinity gap fig3 and g3 < g0 < g2 < g1 are checked against",
    "rescaled_level_limit": "the l -> infinity rescaled level fig2 is checked against",
}


def test_every_exported_function_runs_in_a_command(capsys):
    exported = [getattr(toboggan, name) for names in toboggan._EXPORTS.values()
                for name in names]
    functions = {f.__code__: f.__name__ for f in exported if isinstance(f, types.FunctionType)}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in COMMANDS]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)
    assert {name for code, name in functions.items() if code not in called} == set(NOT_RUN)


# Prints the toboggan modules loaded after `import toboggan` and after
# reading each name given, in a fresh interpreter.
PACKAGE_PROBE = textwrap.dedent("""
    import json, sys
    import toboggan
    def own():
        return sorted(name for name in sys.modules if name.split(".")[0] == "toboggan")
    seen = [own()]
    for name in sys.argv[1:]:
        getattr(toboggan, name)
        seen.append(own())
    print(json.dumps(seen))
    """)


def test_import_toboggan_loads_no_submodule_and_a_name_only_its_own():
    src = str(Path(toboggan.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", PACKAGE_PROBE, "sample_path", "gap"],
                          env={**os.environ, "PYTHONPATH": src},
                          check=True, capture_output=True, text=True)
    contour = ["toboggan", "toboggan.contours", "toboggan.util"]
    assert json.loads(done.stdout) == [
        ["toboggan"], contour,
        sorted([*contour, "toboggan.expansion", "toboggan.potentials", "toboggan.rectify",
                "toboggan.spectra"])]


def _records():
    problem = build_rectified(1, 4.0)
    table = SpectrumTable.closed_form(1, 4.0, 2)
    result = EigenResult(2.0 + 0j, 0.0, 2, True)
    return [WindingContour(1, 1.0), HOSpec(2.0), problem, taylor_rectified(problem),
            table, Discretization(1.0, 3, 0.1), result,
            Level(*result, seed=1.9, closed_form=2.0, series=0.0, grid_error=0.0)]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record).startswith(f"{type(record).__name__}({field}=")


@pytest.mark.parametrize("record, bad", [
    (WindingContour(1, 1.0), {"shift": -1.0}),
    (WindingContour(1, 1.0), {"winding_number": -1}),
    (HOSpec(2.0), {"frequency": 0.0}),
    (HOSpec(2.0), {"angular": float("nan")}),
    (Discretization(1.0, 3, 0.1), {"half_width": 0.0}),
    (Discretization(1.0, 3, 0.1), {"points": 2}),
    (Discretization(1.0, 3, 0.1), {"shift_eps": float("nan")}),
    (Discretization(1.0, 3, 0.1), {"half_width": 1e300}),  # step**2 overflows
])
def test_checked_records_check_a_replaced_field_too(record, bad):
    with pytest.raises(ValueError):
        record._replace(**bad)
    assert record._replace() == record
