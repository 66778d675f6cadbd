import ast
import gc
import json
import math
import os
import re
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toboggan
from toboggan import cli, contours, eigensolver
from toboggan.cli import main
from toboggan.contours import WindingContour, sample_path, winding_path
from toboggan.eigensolver import Discretization, blocked_dot, low_lying
from toboggan.spectra import (
    SpectrumTable,
    energy_cubic,
    energy_cubic_correction,
    energy_toboggan,
    gap_constant,
    rescaled_level,
    rescaled_level_limit,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _report_grid(report):
    """The grid a verify report says it solved on."""
    grid = report["grid"]
    return Discretization(grid["half_width"], grid["points"], grid["eps"])


def test_contour_straight_line(capsys):
    code, out, _ = run(capsys, "contour", "--N", "0", "--eps", "0.2",
                       "--count", "5", "--s-min", "-2", "--s-max", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["s", "re", "im"]
    assert len(rows) == 5
    for s_txt, re_txt, im_txt in rows:
        assert float(re_txt) == float(s_txt)
        assert float(im_txt) == -0.2


def test_contour_matches_library_values(capsys):
    code, out, _ = run(capsys, "contour", "--N", "1", "--eps", "1.0",
                       "--count", "5", "--s-min", "-2", "--s-max", "2")
    assert code == 0
    _, rows = parse_csv(out)
    middle = rows[2]
    expected = winding_path(1, 1.0, 0.0)
    assert float(middle[1]) == expected.real
    assert float(middle[2]) == expected.imag


def test_contour_magnitude_grows_with_s(capsys):
    for winding in ("1", "2"):
        code, out, _ = run(capsys, "contour", "--N", winding, "--count", "81")
        assert code == 0
        _, rows = parse_csv(out)
        magnitudes = [abs(complex(float(r[1]), float(r[2]))) for r in rows]
        upper = magnitudes[len(magnitudes) // 2:]
        assert all(a <= b + 1e-12 for a, b in zip(upper, upper[1:]))


def test_contour_usage_errors(capsys):
    code, _, err = run(capsys, "contour", "--N", "1", "--count", "1")
    assert code == 1
    assert "count" in err
    code, _, _ = run(capsys, "contour", "--no-such-flag")
    assert code == 1


def test_contour_deterministic(capsys):
    args = ("contour", "--N", "2", "--eps", "0.7", "--count", "33")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_contour_json_format(capsys):
    code, out, _ = run(capsys, "contour", "--N", "0", "--eps", "1",
                       "--count", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 0
    assert len(payload["points"]) == 3


def test_spectrum_values(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "0", "--ell", "4",
                       "--levels", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "ell", "rho", "n", "E", "F", "G", "source"]
    energies = [float(r[4]) for r in rows]
    assert energies[0] == energy_cubic(4.0, 0)
    assert energies[1] == energy_cubic(4.0, 1)
    assert energies[0] == pytest.approx(-8.2811, abs=2e-3)
    assert energies[1] == pytest.approx(-8.2811 + 7.0970, abs=3e-3)


def test_spectrum_winding_value(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "1", "--ell", "4",
                       "--levels", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][4]) == energy_toboggan(1, 4.0, 0)
    assert float(rows[0][4]) == pytest.approx(-11.1303, abs=2e-3)


def test_spectrum_domain_error(capsys):
    code, _, err = run(capsys, "spectrum", "--N", "0", "--ell", "-0.5")
    assert code == 1
    assert "L(L+1)" in err


def test_spectrum_requires_ell(capsys):
    code, _, err = run(capsys, "spectrum", "--N", "0")
    assert code == 1
    assert "ell" in err


def test_figure_fig2_approaches_limits(capsys):
    code, out, _ = run(capsys, "figure", "fig2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rho", "N", "n", "F"]
    smallest = min(float(r[0]) for r in rows)
    assert smallest <= 1e-6
    for row in rows:
        if float(row[0]) == smallest and row[2] == "0":
            limit = rescaled_level_limit(int(row[1]))
            assert abs(float(row[3]) - limit) <= 0.02 * abs(limit)


def test_figure_fig2_rows_are_rescaled_level(capsys):
    code, out, _ = run(capsys, "figure", "fig2", "--rho-points", "7", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [(r["N"], r["n"]) for r in records] == [
        (winding, n) for _ in range(7) for winding in range(4) for n in range(5)]
    for record in records:
        ell = 1.0 / math.sqrt(record["rho"]) - 0.5
        assert record["F"] == rescaled_level(record["N"], ell, record["n"])


def test_figure_fig3_ordering(capsys):
    code, out, _ = run(capsys, "figure", "fig3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["ell", "N", "G_scaled"]
    largest = max(float(r[0]) for r in rows)
    values = {int(r[1]): float(r[2]) for r in rows if float(r[0]) == largest}
    assert values[3] < values[0] < values[2] < values[1]
    for winding, value in values.items():
        assert value == pytest.approx(gap_constant(winding), rel=1e-3)


def test_figure_fig1_deterministic(capsys):
    _, first, _ = run(capsys, "figure", "fig1", "--count", "41")
    _, second, _ = run(capsys, "figure", "fig1", "--count", "41")
    assert first == second
    header, rows = parse_csv(first)
    assert header == ["N", "s", "re", "im"]
    assert {r[0] for r in rows} == {"0", "1", "2"}


def test_verify_ho_passes(capsys, tmp_path):
    report_path = tmp_path / "ho.json"
    code, _, _ = run(capsys, "verify", "ho", "--ell", "10", "--levels", "3",
                     "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["grid"]["points"] == 6001
    assert report["approx_minus_exact"] == pytest.approx(0.0238, abs=2e-4)
    for level in report["levels"]:
        assert level["abs_diff"] < 1e-4
        assert set(level) >= {"n", "seed", "eigenvalue", "residual",
                              "closed_form", "abs_diff", "tolerance", "pass"}


def test_verify_ho_range_error(capsys):
    code, _, err = run(capsys, "verify", "ho", "--ell", "10", "--levels", "30")
    assert code == 1
    assert "n < l + 1/2" in err


def test_verify_cubic0_passes(capsys, tmp_path):
    report_path = tmp_path / "cubic0.json"
    code, _, _ = run(capsys, "verify", "cubic0", "--ell", "50",
                     "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert "calibration" not in report
    # 1.25 times the predicted error: the series' second-order term plus the
    # grid's truncation on the step solved on.
    levels = low_lying("cubic_toboggan", 50.0, 2, grid=_report_grid(report))
    for n, level in enumerate(report["levels"]):
        assert level["abs_diff"] <= level["tolerance"]
        assert level["tolerance"] == 1.25 * abs(energy_cubic_correction(50.0, n)
                                                + levels[n].grid_error)


@pytest.mark.parametrize("target", ["cubic0", "toboggan1"])
def test_verify_winding_targets_pass_below_l_25(capsys, target):
    # No calibration point bounds l from below.
    code, out, _ = run(capsys, "verify", target, "--ell", "10")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("target", ["cubic0", "toboggan1"])
def test_verify_winding_targets_solve_once(capsys, monkeypatch, target):
    calls = []
    solve = eigensolver.low_lying

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "low_lying", counted)
    code, _, _ = run(capsys, "verify", target)
    assert code == 0
    assert calls == [("cubic_toboggan", 50.0, 2)]


@pytest.mark.parametrize("target", ["cubic0", "toboggan1", "ho"])
def test_verify_builds_its_problem_at_most_twice(capsys, monkeypatch, target):
    # One build gives the grid and one the solve; the levels' closed forms,
    # series terms and grid errors come back with the solve.
    builds = []
    build = eigensolver._problem

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(eigensolver, "_problem", counted)
    code, _, _ = run(capsys, "verify", target)
    assert code == 0
    assert 1 <= len(builds) <= 2


@pytest.mark.parametrize("error", ["ShiftCollisionError", "DegenerateEigenvaluesError"])
def test_solver_failure_is_a_verification_failure(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise getattr(eigensolver, error)("seeds collided")

    monkeypatch.setattr(eigensolver, "low_lying", fail)
    for target in ("ho", "cubic0"):
        assert run(capsys, "verify", target) == (
            2, "", "toboggan: verification failed: seeds collided\n")


def test_verify_toboggan1(capsys, tmp_path):
    report_path = tmp_path / "tob1.json"
    code, _, _ = run(capsys, "verify", "toboggan1", "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "experimental" not in report
    assert report["passed"] is True
    assert "calibration" not in report
    for n, level in enumerate(report["levels"]):
        assert level["converged"] and level["iterations"] <= 10
        assert level["closed_form"] == energy_cubic(50.0, n)
        assert level["abs_diff"] <= level["tolerance"]
        assert report["paper_closed_form"][n] == energy_toboggan(1, 50.0, n)
        assert report["paper_abs_diff"][n] > level["tolerance"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ell", ["28", "30", "116.5", "200", "1e4"])
def test_verify_toboggan1_tells_the_models_apart(capsys, ell):
    # Every level sits in the predicted envelope around the N = 0 closed
    # form, and outside it around the paper's winding formula.
    code, out, _ = run(capsys, "verify", "toboggan1", "--ell", ell)
    assert code == 0
    report = json.loads(out)
    for n, level in enumerate(report["levels"]):
        value = level["eigenvalue"]["re"]
        assert abs(value - energy_cubic(float(ell), n)) <= level["tolerance"]
        assert abs(value - energy_toboggan(1, float(ell), n)) > level["tolerance"]


def test_verify_cubic0_grid_has_601_points(capsys):
    code, out, _ = run(capsys, "verify", "cubic0", "--ell", "100")
    assert code == 0
    assert json.loads(out)["grid"]["points"] == 601


def test_verify_ho_tolerance_is_the_predicted_grid_error(capsys):
    # The closed form is exact, so the series term is 0 and the tolerance is
    # 1.25 times the grid's truncation on the step solved on.
    code, out, _ = run(capsys, "verify", "ho", "--omega", "0.3048632888327971",
                       "--ell", "4.529846941673305", "--levels", "3")
    assert code == 0
    report = json.loads(out)
    levels = low_lying("ho", 4.529846941673305, 3, omega=0.3048632888327971,
                       grid=_report_grid(report))
    for n, level in enumerate(report["levels"]):
        assert level["abs_diff"] <= level["tolerance"]
        assert level["tolerance"] == 1.25 * abs(levels[n].grid_error)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [("--levels", "5"), ("--omega", "2", "--levels", "4")])
def test_verify_ho_tolerance_scales_with_n_and_omega(capsys, argv):
    # The grid error grows like omega (6n**2 + 6n + 3); a fixed 1e-4 failed
    # n = 4 here at 1.27e-4 and n = 3 at omega = 2 at 1.54e-4.
    code, out, _ = run(capsys, "verify", "ho", *argv)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_ho_tells_the_approximate_level_from_the_exact_one(capsys):
    # At l = 1e4 the approximate levels sit 2.5e-5 above the exact ones; the
    # ground level's tolerance, 3.9e-6, is below that, where 1e-4 was not.
    code, out, _ = run(capsys, "verify", "ho", "--ell", "1e4")
    assert code == 0
    report = json.loads(out)
    ground = report["levels"][0]
    assert ground["tolerance"] == pytest.approx(3.9e-6, rel=0.01)
    assert report["approx_minus_exact"] == pytest.approx(2.5e-5, rel=1e-3)
    assert ground["tolerance"] < report["approx_minus_exact"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ell, code", [("0.6", 1), ("0.62", 1), ("0.625", 0)])
def test_verify_ho_rejects_a_level_its_seed_cannot_reach(capsys, ell, code):
    # Each sweep shrinks the n = 1 seed's error by r, its distance to the
    # exact level over its distance to the other family's omega (2l + 3): r =
    # 1.5 at l = 0.6 (the seed converged to that level), 0.964 at l = 0.62
    # (200 sweeps did not converge) and 0.883 at l = 0.625, the first within
    # tol = 1e-9 in 200 sweeps.
    status, out, err = run(capsys, "verify", "ho", "--ell", ell, "--levels", "2")
    assert status == code
    if code:
        assert out == ""
        assert err == (f"toboggan: error: l = {ell} is out of regime: the seed of "
                       "level n = 1 is too near another level to reach it within "
                       "tol = 1e-09 in 200 sweeps\n")
    else:
        assert json.loads(out)["passed"] is True


def test_verify_records_carry_their_own_seeds_solve(capsys, monkeypatch):
    # At l = 1.15 both solves stop at the 200-sweep cap, seed 1's below seed
    # 0's; record n must still show the eigenvalue seed n's solve ended at.
    solves = []
    iterate = eigensolver._iterate_with_retries

    def recorded(system, shift, tol):
        solves.append((shift, iterate(system, shift, tol)))
        return solves[-1][1]

    monkeypatch.setattr(eigensolver, "_iterate_with_retries", recorded)
    code, out, _ = run(capsys, "verify", "toboggan1", "--ell", "1.15", "--levels", "2")
    levels = json.loads(out)["levels"]
    assert code == 2 and len(solves) == 2
    assert solves[1][1].eigenvalue.real < solves[0][1].eigenvalue.real
    for level, (shift, result) in zip(levels, solves):
        assert level["seed"] == shift
        assert complex(level["eigenvalue"]["re"], level["eigenvalue"]["im"]) \
            == result.eigenvalue


@pytest.mark.parametrize("target", ["ho", "cubic0", "toboggan1"])
@pytest.mark.parametrize("flag, key", [("--eps", "eps"),
                                       ("--half-width", "half_width")])
def test_verify_grid_override_leaves_the_calibration_alone(capsys, target,
                                                           flag, key):
    # Restating the automatic grid's own eps or half-width changes nothing:
    # the report and its tolerance depend only on the grid solved on.
    code, bare, _ = run(capsys, "verify", target, "--ell", "1000")
    assert code == 0
    value = repr(json.loads(bare)["grid"][key])
    code, out, _ = run(capsys, "verify", target, "--ell", "1000", flag, value)
    assert code == 0
    assert out == bare


def test_verify_reports_the_grid_it_solved_on(capsys, monkeypatch):
    seen = []
    assemble = eigensolver.build_tridiagonal

    def recorded(potential, disc, weight_fn=None):
        seen.append(disc)
        return assemble(potential, disc, weight_fn)

    monkeypatch.setattr(eigensolver, "build_tridiagonal", recorded)
    code, out, _ = run(capsys, "verify", "toboggan1", "--ell", "300",
                       "--points", "1201", "--half-width", "9")
    assert code == 0
    [disc] = seen
    assert (disc.points, disc.half_width) == (1201, 9.0)
    assert json.loads(out)["grid"] == {"half_width": disc.half_width, "points": disc.points,
                                       "eps": disc.shift_eps, "step": disc.step}


def test_verify_regime_rule_does_not_depend_on_the_level_count(capsys):
    # Below and above the switch near l = 2.68e8, one level and two give one
    # exit code.
    for ell, expected in (("2.5e8", 0), ("3e8", 1)):
        for levels in ("1", "2"):
            code, _, _ = run(capsys, "verify", "cubic0", "--ell", ell, "--levels", levels)
            assert code == expected, (ell, levels)


def test_verify_ho_identity_is_held_to_its_rounding(capsys):
    # The levels are about omega*(2l+1) = 4.3e3, so the identity's residual
    # 1.08e-12 is 1.1 ulp of them: rounding, not a failure.
    code, out, _ = run(capsys, "verify", "ho", "--ell", "8689.473324476914",
                       "--omega", "0.2473159824799772", "--levels", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert 1e-12 < report["identity_residual"] <= 16 * sys.float_info.epsilon * 4.3e3


def test_verify_has_no_format_option(capsys, tmp_path):
    # verify writes JSON only, so --format is a usage error; a config file's
    # "format" key still sets the table commands and leaves verify alone.
    code, out, err = run(capsys, "verify", "ho", "--format", "csv")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == ("toboggan: error: unrecognized arguments: "
                                    "--format csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"levels": 1, "format": "json"}))
    code, out, err = run(capsys, "--config", str(config), "verify", "ho")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["levels"]) == 1


def test_verify_targets_share_one_level_record(capsys):
    reports = {}
    for target in ("ho", "cubic0", "toboggan1"):
        code, out, _ = run(capsys, "verify", target)
        assert code == 0
        reports[target] = json.loads(out)
    key_lists = {tuple(level) for report in reports.values()
                 for level in report["levels"]}
    assert len(key_lists) == 1
    report = reports["toboggan1"]
    assert report["problem"]["ell"] == 50.0
    for n, level in enumerate(report["levels"]):
        assert level["seed"] == level["closed_form"] == energy_cubic(50.0, n)
        assert level["tolerance"] > 0
        assert level["pass"] == (level["converged"]
                                 and level["abs_diff"] <= level["tolerance"])
    # cubic0 and toboggan1 share one report shape; toboggan1 adds the paper's
    # winding formula beside it.
    assert set(reports["toboggan1"]) - set(reports["cubic0"]) == {
        "paper_closed_form", "paper_abs_diff"}
    assert report["passed"] is True


def _child_env(threads: str | None) -> dict:
    """This environment with the source tree on the path and
    OPENBLAS_NUM_THREADS set to threads, or removed for None."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(toboggan.__file__).resolve().parents[1])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.parametrize("argv", [
    ("verify", "ho", "--ell", "40", "--omega", "0.5", "--levels", "4", "--points", "24001"),
    ("verify", "toboggan1", "--ell", "50", "--points", "24001"),
], ids=["ho", "toboggan1"])
def test_verify_output_does_not_depend_on_blas_threads(argv):
    # OpenBLAS splits a dot product of more than 10,000 terms over its
    # worker threads, which changes its rounding; these grids are past that.
    # toboggan1's B != I puts the solver's B v buffer in play as well.
    # Unset is the entry point's own default, one thread.
    outputs = []
    for threads in (None, "1", "2"):
        done = subprocess.run([sys.executable, "-W", "error", "-m", "toboggan.cli", *argv],
                              env=_child_env(threads), check=True, capture_output=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["passed"] is True


def test_verify_reports_do_not_depend_on_earlier_solves(capsys):
    # A system's buffers come from memory an earlier solve may have freed
    # with its numbers still in it, so every argv must give the same bytes
    # whichever solves ran before it in the process.
    argvs = [("verify", "ho", "--ell", "40", "--omega", "0.5", "--levels", "4",
              "--points", "24001"),
             ("verify", "cubic0", "--levels", "4", "--points", "1201"),
             ("verify", "toboggan1")]
    outputs = {}
    for order in (argvs, argvs[::-1]):
        for argv in order:
            outputs.setdefault(argv, []).append(run(capsys, *argv))
    for argv, (first, second) in outputs.items():
        assert first[0] == 0, argv
        assert first == second, argv


def test_a_closed_pipe_ends_the_run_quietly():
    # As in `toboggan contour --count 200000 | head -1`: the reader leaves
    # after one line, with most of the table still to come, and the writer
    # exits 0 with nothing on stderr.
    argv = [sys.executable, "-m", "toboggan.cli", "contour", "--count", "200000"]
    with subprocess.Popen(argv, env=_child_env(None), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"s,re,im\n"
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, err) == (0, b"")


# Runs toboggan.cli as `python -m toboggan.cli` does, then prints the exit
# code, the number of OS threads the process ends with, whether the cyclic
# garbage collector is on and how many objects are frozen.
ENTRY_PROBE = textwrap.dedent("""
    import gc, os, runpy, sys
    sys.argv = ["toboggan", *sys.argv[1:], "--output", os.devnull]
    try:
        runpy.run_module("toboggan.cli", run_name="__main__")
    except SystemExit as exc:
        print(exc.code, len(os.listdir("/proc/self/task")), int(gc.isenabled()),
              gc.get_freeze_count())
    """)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task (Linux)")
@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "user-value"])
def test_entry_point_starts_openblas_with_one_thread(threads):
    # Left unset, OpenBLAS would start a worker per further core in numpy's
    # copy and in scipy's, which verify loads both of; the entry point sets
    # one thread first.  A value the user sets wins.  The process ends with
    # the collector off and the heap frozen, so the exit collection skips it.
    if threads is not None and (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no worker thread on one CPU")
    done = subprocess.run([sys.executable, "-c", ENTRY_PROBE, "verify", "ho"],
                          env=_child_env(threads), check=True, capture_output=True,
                          text=True)
    code, count, collecting, frozen = map(int, done.stdout.split())
    assert code == 0
    assert count == 1 if threads is None else count > 1
    assert not collecting and frozen > 0


def test_entry_point_sets_the_thread_count_only_when_unset(capsys, monkeypatch):
    # run() sets a default the user's own value overrides; main() called in
    # process leaves the environment alone.
    monkeypatch.setattr(sys, "argv", ["toboggan", "spectrum", "--ell", "4"])
    try:
        for value, after in ((None, "1"), ("3", "3")):
            if value is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
            assert cli.run() == 0
            assert os.environ["OPENBLAS_NUM_THREADS"] == after
    finally:  # run() leaves the collector off and the heap frozen
        gc.enable()
        gc.unfreeze()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    before = dict(os.environ)
    for argv in (("spectrum", "--ell", "4"), ("verify", "cubic0")):
        assert run(capsys, *argv)[0] == 0
    assert dict(os.environ) == before


@pytest.mark.parametrize("argv", [("contour", "--format", "json"), ("verify", "cubic0")],
                         ids=["table", "verify"])
@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, collecting):
    # Only run(), the process entry point, turns the collector off and
    # freezes the heap; library callers and in-process benchmarks keep theirs.
    if not collecting:
        gc.disable()
    try:
        assert run(capsys, *argv)[0] == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, 0)
    finally:
        gc.enable()


# Every command, the tables in CSV and in JSON, with its size option and
# about 100 times its default size.
GROWN = [((*words, *fmt), flag, size)
         for words, flag, size in ((("contour",), "--count", 32100),
                                   (("figure", "fig1"), "--count", 32100),
                                   (("figure", "fig2"), "--rho-points", 2500),
                                   (("figure", "fig3"), "--ell-points", 2500),
                                   (("spectrum", "--ell", "4"), "--levels", 500))
         for fmt in ((), ("--format", "json"))] + [
    (("verify", "ho"), "--points", 600100),
    (("verify", "cubic0"), "--points", 60100),
    (("verify", "toboggan1"), "--points", 60100)]
USAGE_ERROR = (("contour", "--bogus"), "--count", 32100)


@pytest.mark.parametrize("words, flag, size", [*GROWN, USAGE_ERROR],
                         ids=[" ".join(w) for w, _, _ in [*GROWN, USAGE_ERROR]])
def test_cyclic_garbage_does_not_grow_with_the_size(capsys, words, flag, size):
    # run() keeps the collector off for the whole command, so what a command
    # leaves in reference cycles stays until exit: that must be a fixed
    # amount (json's encoder closures, argparse's usage error), not a share
    # of the rows or grid points it computes.
    argv = [*words, "--output", os.devnull]
    run(capsys, *argv)  # the first call builds the parser and imports
    gc.collect()
    gc.disable()
    try:
        run(capsys, *argv)
        at_default = gc.collect()
        run(capsys, *argv, flag, str(size))
        grown = gc.collect()
    finally:
        gc.enable()
    assert grown == at_default


@pytest.mark.parametrize("argv", [words for words, _, _ in GROWN], ids=" ".join)
def test_a_cold_command_writes_what_main_writes(capsys, tmp_path, argv):
    # The cold process runs run(), the console script's function, without
    # the collector and with warnings as errors, and main() in process runs
    # with the collector: the --output file, stdout and exit code must not
    # differ.
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    done = subprocess.run([sys.executable, "-W", "error", "-m", "toboggan.cli", *argv,
                           "--output", str(cold)],
                          env=_child_env(None), capture_output=True)
    code, out, _ = run(capsys, *argv, "--output", str(warm))
    assert (done.returncode, done.stdout.decode(), cold.read_bytes()) == (
        code, out, warm.read_bytes())
    assert code == 0


@pytest.mark.parametrize("points", [1, 601, 8192])
def test_blocked_dot_is_one_dot_up_to_a_block(points):
    # Grids up to a block keep the digits a single np.dot gives them.
    rng = np.random.default_rng(points)
    a, b = (rng.standard_normal(points) + 1j * rng.standard_normal(points)
            for _ in range(2))
    got, want = blocked_dot(a, b), np.dot(a, b)
    assert ([float(x).hex() for x in (got.real, got.imag)]
            == [float(x).hex() for x in (want.real, want.imag)])


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ell": 4.0, "levels": 1}))
    code, out, _ = run(capsys, "--config", str(config), "spectrum", "--N", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0][4]) == energy_cubic(4.0, 0)
    # Command line wins over the config file.
    code, out, _ = run(capsys, "--config", str(config), "spectrum", "--N", "0",
                       "--levels", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2


def test_one_parser_and_no_config_left_over(capsys, monkeypatch, tmp_path):
    # The first main() call builds the parser and later calls share it; a
    # config file's values reach only the call that names it.  The file is
    # named like a subcommand, and both spellings of --config are used.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spectrum").write_text(json.dumps({"levels": 2}))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    for argv, levels in [(("--config", "spectrum", "spectrum", "--ell", "4"), 2),
                         (("spectrum", "--ell", "4"), 5),
                         (("--config=spectrum", "spectrum", "--ell", "4"), 2),
                         (("spectrum", "--ell", "4"), 5)]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == levels
    assert len(built) == 1


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no-such-option": 1}))
    code, _, _ = run(capsys, "--config", str(config), "spectrum", "--ell", "4")
    assert code == 1


@pytest.mark.parametrize("config, argv, expect", [
    ({"levels": 2}, ("spectrum", "--ell", "10", "--lev", "4"), 4),
    ({"levels": 2}, ("spectrum", "--ell", "10", "--levels=4"), 4),
    ({"levels": 2}, ("verify", "ho", "--lev", "1"), 1),
    ({"omega": 2.0}, ("verify", "cubic0", "--levels", "1"), 1),
    ({"omega": 2.0}, ("verify", "toboggan1", "--levels", "1"), 1),
    ({"count": 3}, ("contour",), 3),
    ({"count": 3}, ("figure", "fig1"), 9),
    ({"count": 3, "rho-points": 0}, ("figure", "fig1"), 9),
    ({"rho-points": 2, "count": 0}, ("figure", "fig2"), 40),
    ({"ell-points": 2, "rho-points": 0}, ("figure", "fig3"), 8),
    ({"output": 2}, ("spectrum", "--ell", "4"), 5),
    ({"which": "fig2"}, ("figure", "fig3", "--ell-points", "2"), "'which'"),
    ({"target": "ho"}, ("verify", "cubic0"), "'target'"),
    ({"command": "verify"}, ("spectrum", "--ell", "10"), "'command'"),
    ({"config": "other.json"}, ("spectrum", "--ell", "4"), "'config'"),
    ({"help": 1}, ("spectrum", "--ell", "4"), "'help'"),
    ({"levels": "x"}, ("spectrum", "--ell", "4"), "--levels"),
    ({"levels": 2.5}, ("spectrum", "--ell", "4"), "--levels"),
    ({"N": [1]}, ("spectrum", "--ell", "4"), "'N'"),
    ({"output": None}, ("spectrum", "--ell", "4"), "'output'"),
    ({"format": "xml"}, ("spectrum", "--ell", "4"), "'format'"),
    ("{", ("spectrum", "--ell", "4"), "config file"),
    ([{"levels": 2}], ("spectrum", "--ell", "4"), "must contain a JSON object"),
], ids=["abbreviated-flag-wins", "flag-with-equals-wins", "verify-flag-wins",
        "shared-omega-cubic0", "shared-omega-toboggan1",
        "shared-key-contour", "shared-key-figure", "fig1-key-only",
        "fig2-key-only", "fig3-key-only", "output-is-a-path",
        "positional-which", "positional-target", "command", "config", "help",
        "levels-not-int", "levels-float", "N-list", "output-null",
        "format-not-a-choice", "not-json", "json-array"])
def test_config_values_parse_like_flags(capsys, monkeypatch, tmp_path, config,
                                        argv, expect):
    # A config value is read as if typed: argparse converts and checks it,
    # and an explicit flag wins however it is spelled.
    monkeypatch.chdir(tmp_path)
    text = config if isinstance(config, str) else json.dumps(config)
    (tmp_path / "config.json").write_text(text)
    code, out, err = run(capsys, "--config", "config.json", *argv)
    if isinstance(expect, str):
        assert (code, out) == (1, "")
        assert err.count("error: ") == 1
        assert err.endswith("\n") and expect in err.splitlines()[-1]
        return
    assert (code, err) == (0, "")
    if "output" in config:
        out = (tmp_path / str(config["output"])).read_text()
    rows = json.loads(out)["levels"] if argv[0] == "verify" else parse_csv(out)[1]
    assert len(rows) == expect


def test_precision_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("TOBOGGAN_PRECISION", "5")
    code, out, _ = run(capsys, "spectrum", "--N", "0", "--ell", "4",
                       "--levels", "1")
    assert code == 0
    _, rows = parse_csv(out)
    energy_text = rows[0][4]
    assert len(energy_text.replace("-", "").replace(".", "")) <= 6
    assert float(energy_text) == pytest.approx(energy_cubic(4.0, 0), rel=1e-4)


@pytest.mark.parametrize("value, digits", [
    ("", 17), ("1", 1), ("17", 17),
    ("abc", None), ("99", None), ("0", None), ("-3", None), ("5.5", None)])
def test_precision_environment_range(capsys, monkeypatch, value, digits):
    monkeypatch.setenv("TOBOGGAN_PRECISION", value)
    code, out, err = run(capsys, "spectrum", "--ell", "4", "--levels", "1")
    if digits is None:
        assert (code, out) == (1, "")
        assert err == ("toboggan: error: TOBOGGAN_PRECISION must be an integer "
                       f"from 1 to 17, got {value!r}\n")
        return
    assert code == 0
    assert parse_csv(out)[1][0][4] == f"%.{digits}g" % energy_cubic(4.0, 0)


@pytest.mark.parametrize("old", [None, b"x" * 65536], ids=["new", "over-longer"])
@pytest.mark.parametrize("argv", [("contour", "--N", "0", "--eps", "1", "--count", "3"),
                                  ("verify", "ho", "--levels", "1")],
                         ids=["csv", "verify"])
def test_output_file_writing(capsys, tmp_path, argv, old):
    # --output rewrites a file in place and cuts it after the write, so a
    # short output over a longer file leaves no old byte behind.
    code, expected, _ = run(capsys, *argv)
    target = tmp_path / "out"
    if old is not None:
        target.write_bytes(old)
    code_file, out, _ = run(capsys, *argv, "--output", str(target))
    assert (code_file, out) == (code, "")
    assert target.read_text() == expected


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_dev_stdout_through_a_pipe_is_the_plain_bytes():
    # Only a regular file is cut after the write; a pipe, where ftruncate
    # fails, must carry the plain run's bytes.
    argv = [sys.executable, "-W", "error", "-m", "toboggan.cli", "verify", "ho"]
    plain = subprocess.run(argv, env=_child_env(None), check=True, capture_output=True)
    piped = subprocess.run([*argv, "--output", "/dev/stdout"], env=_child_env(None),
                           check=True, capture_output=True)
    assert (piped.stdout, piped.stderr) == (plain.stdout, b"")


def test_output_file_keeps_the_prefix_written_before_a_raise(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"x" * 65536)
    with pytest.raises(RuntimeError):
        with cli._open_output(str(target)) as out:
            out.write("s,re,im\n0,")
            raise RuntimeError
    assert target.read_bytes() == b"s,re,im\n0,"


def test_output_file_is_opened_without_truncating(capsys, tmp_path, monkeypatch):
    # Truncating a file that holds data costs more than the whole write on
    # some disk file systems; the file is cut after the write instead.
    target, opened, os_open = tmp_path / "out", [], os.open
    target.write_bytes(b"x" * 65536)

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    code, _, _ = run(capsys, "contour", "--count", "3", "--output", str(target))
    assert code == 0
    flags = [flag for path, flag in opened if path == str(target)]
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


def test_output_file_is_created_with_the_mode_open_gives(capsys, tmp_path):
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        code, _, _ = run(capsys, "contour", "--count", "3", "--output",
                         str(tmp_path / "out"))
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) \
        == stat.S_IMODE((tmp_path / "reference").stat().st_mode)


def test_contour_csv_round_trips_17_digits(capsys):
    code, out, _ = run(capsys, "contour", "--N", "2", "--eps", "0.3",
                       "--s-min", "-1.7", "--s-max", "2.3", "--count", "9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["s", "re", "im"]
    points = sample_path(WindingContour(2, 0.3), -1.7, 2.3, 9)
    assert len(rows) == len(points)
    for (_, re_txt, im_txt), q in zip(rows, points):
        assert float(re_txt) == q.real
        assert float(im_txt) == q.imag


def test_contour_json_rows_equal_sample_path(capsys):
    code, out, _ = run(capsys, "contour", "--N", "2", "--eps", "0.3",
                       "--s-min", "-1.7", "--s-max", "2.3", "--count", "9",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["N", "eps", "points"]
    assert (payload["N"], payload["eps"]) == (2, 0.3)
    points = sample_path(WindingContour(2, 0.3), -1.7, 2.3, 9)
    assert [(p["re"], p["im"]) for p in payload["points"]] \
        == [(q.real, q.imag) for q in points]


def test_contour_exact_text(capsys):
    code, out, _ = run(capsys, "contour", "--N", "1", "--eps", "0.5",
                       "--s-min", "-1", "--s-max", "1", "--count", "3")
    assert code == 0
    assert out == "s,re,im\n-1,0.25,1.375\n0,0,-0.125\n1,-0.25,1.375\n"


def test_spectrum_csv_round_trip(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "0", "--ell", "4",
                       "--levels", "2")
    assert code == 0
    table = SpectrumTable.closed_form(0, 4.0, 2)
    header, rows = parse_csv(out)
    assert header == ["N", "ell", "rho", "n", "E", "F", "G", "source"]
    assert len(rows) == 2
    for n, row in enumerate(rows):
        assert row[0] == str(table.winding_number) and row[3] == str(n)
        assert float(row[1]) == table.ell
        assert float(row[2]) == table.rho
        assert float(row[4]) == table.energy[n]
        assert float(row[5]) == table.rescaled[n]
        assert float(row[6]) == table.gap
        assert row[7] == "closed_form"


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "2", "--ell", "9",
                       "--levels", "3", "--format", "json")
    assert code == 0
    table = SpectrumTable.closed_form(2, 9.0, 3)
    payload = json.loads(out)
    assert list(payload) == ["rho", "entries"]
    assert payload["rho"] == table.rho
    assert [row["n"] for row in payload["entries"]] == [0, 1, 2]
    for n, row in enumerate(payload["entries"]):
        assert set(row) == {"N", "ell", "n", "E", "F", "G", "source"}
        assert (row["N"], row["ell"], row["source"]) \
            == (table.winding_number, table.ell, "closed_form")
        assert (row["E"], row["F"], row["G"]) \
            == (table.energy[n], table.rescaled[n], table.gap)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("which, flag", [("fig2", "--rho-points"),
                                         ("fig3", "--ell-points")])
def test_figure_point_count_below_one_is_rejected(capsys, which, flag, count, fmt):
    code, out, err = run(capsys, "figure", which, flag, count, "--format", fmt)
    assert (code, out) == (1, "")
    assert err == f"toboggan: error: {flag} must be at least 1, got {count}\n"


@pytest.mark.parametrize("argv", [
    ("figure", "fig2", "--eps", "-1"),
    ("figure", "fig3", "--s-min", "nan"),
    ("figure", "fig1", "--rho-points", "0"),
    ("figure", "fig1", "--ell-max", "1e300"),
    ("figure", "fig2", "--count", "3", "--format", "json"),
    ("figure", "fig3", "--rho-min", "1e-4"),
])
def test_figure_rejects_another_figures_option(capsys, argv):
    # Each figure parses only its own options, so one meant for another
    # figure is an error, not a value that is read and then ignored.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("error: ") == 1
    assert err.splitlines()[-1].startswith("toboggan: error: unrecognized arguments: ")


@pytest.mark.parametrize("argv", [
    ("verify", "cubic0", "--omega", "2"),
    ("verify", "toboggan1", "--omega", "0.5"),
    ("verify", "--ell", "10", "ho"),
    ("verify", "cubic0", "--omega", "-5"),
    ("verify", "cubic0", "--omega", "inf"),
    ("verify", "toboggan1", "--omega", "nan"),
    ("verify", "cubic0", "--ell", "nan", "--omega", "-1"),
], ids=["cubic0-omega-2", "toboggan1-omega-0.5", "option-before-target",
        "cubic0-omega-negative", "cubic0-omega-inf", "toboggan1-omega-nan",
        "cubic0-ell-nan-omega-negative"])
def test_verify_rejects_another_targets_option(capsys, argv):
    # Each verify target parses only its own options: the cubic has no
    # frequency, so --omega there is an error, not a value that is read and
    # then ignored, and no target takes an option before its name.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("error: ") == 1
    last = err.splitlines()[-1]
    if "--omega" in argv:
        assert last == "toboggan: error: unrecognized arguments: --omega " + argv[-1]
    else:
        assert last.startswith("toboggan: error: argument target: invalid choice: ")


@pytest.mark.parametrize("target, ell, levels", [("ho", "10", "3"), ("cubic0", "50", "2"),
                                                 ("toboggan1", "50", "2")])
def test_verify_help_shows_each_targets_own_defaults(capsys, target, ell, levels):
    code, out, err = run(capsys, "verify", target, "--help")
    assert (code, err) == (0, "")
    assert re.search(rf"--ell ELL +default {ell}\n", out)
    assert re.search(rf"--levels LEVELS +default {levels}\n", out)
    assert ("--omega" in out) == (target == "ho")


@pytest.mark.parametrize("argv, line", [
    (("contour", "--count", "x"), "argument --count: invalid int value: 'x'"),
    (("verify", "ho", "--ell", "x"), "argument --ell: invalid float value: 'x'"),
    (("figure", "fig2", "--rho-points", "x"), "argument --rho-points: invalid int value: 'x'"),
], ids=["contour", "verify-ho", "figure-fig2"])
def test_subcommand_usage_error_is_one_toboggan_error_line(capsys, argv, line):
    # argparse rejects these values in the subcommand's own parser; the error
    # line still starts `toboggan: error:`, as every other bad input's does.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("error: ") == 1
    assert err.splitlines()[-1] == f"toboggan: error: {line}"


# Every command with its one size option, the option main() names when what
# the command builds is too large.
SIZED = {"contour": (("contour",), "--count"),
         "fig1": (("figure", "fig1"), "--count"),
         "fig2": (("figure", "fig2"), "--rho-points"),
         "fig3": (("figure", "fig3"), "--ell-points"),
         "spectrum": (("spectrum", "--ell", "4"), "--levels"),
         "verify-ho": (("verify", "ho"), "--points"),
         "verify-cubic0": (("verify", "cubic0"), "--points"),
         "verify-toboggan1": (("verify", "toboggan1"), "--points")}


def out_of_memory(flag, count):
    """main()'s result for a count of flag too large to build."""
    return 1, "", f"toboggan: error: out of memory: {flag} {count} is too large\n"


def exhausted_by(args):
    """A stand-in for an allocation that fails, raising MemoryError(*args):
    a test must never really ask for the memory, since with overcommit the
    allocation can succeed and then be filled."""
    def exhausted(*_, **__):
        raise MemoryError(*args)
    return exhausted


@pytest.mark.parametrize("argv, line", [
    (("figure", "fig2", "--rho-points", "100000000000"),
     "toboggan: error: out of memory: --rho-points 100000000000 is too large\n"),
    (("verify", "ho"), "toboggan: error: out of memory\n"),  # the automatic grid
], ids=["named", "unset"])
@pytest.mark.parametrize("message", [(), ((20000,), np.dtype(complex)), ("text",)],
                         ids=["bare", "numpy", "text"])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, message, argv, line):
    # Whatever the MemoryError carries, the line names the size option and
    # its value, or names none when verify's --points is left unset.
    monkeypatch.setattr(cli, "_log_grid", exhausted_by(message))
    monkeypatch.setattr(eigensolver, "build_tridiagonal", exhausted_by(message))
    assert run(capsys, *argv) == (1, "", line)


def test_grid_count_beyond_any_list_is_a_memory_error(capsys, monkeypatch):
    # Above sys.maxsize the list cannot even be asked for: the library gives
    # Python's own error, and the CLI never calls it.
    with pytest.raises(OverflowError):
        cli._log_grid(1.0, 10.0, sys.maxsize + 1, "--ell-points")
    monkeypatch.setattr(cli, "_log_grid", lambda *args: pytest.fail("grid built"))
    assert run(capsys, "figure", "fig3", "--ell-points", str(sys.maxsize + 1)) == (
        out_of_memory("--ell-points", sys.maxsize + 1))


def test_spectrum_level_count_beyond_any_list_is_a_memory_error(capsys, monkeypatch):
    # As for _log_grid: the list of entries is asked for in one step, before
    # any level is computed, and above sys.maxsize it cannot be asked for.
    with pytest.raises(OverflowError):
        SpectrumTable.closed_form(0, 4.0, sys.maxsize + 1)
    monkeypatch.setattr(SpectrumTable, "closed_form",
                        lambda *args: pytest.fail("table built"))
    assert run(capsys, "spectrum", "--ell", "4", "--levels", str(sys.maxsize + 1)) == (
        out_of_memory("--levels", sys.maxsize + 1))


HUGE = 10 ** 23  # above sys.maxsize: rejected before anything is allocated


@pytest.mark.parametrize("command", list(SIZED))
def test_count_beyond_any_array_names_its_flag(capsys, monkeypatch, command):
    # Above MAX_COUNT main() reports the count before the command starts;
    # at the cap itself the command runs.
    words, flag = SIZED[command]
    for name in ("cmd_contour", "cmd_spectrum", "cmd_figure", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args: pytest.fail("command started"))
    assert cli.MAX_COUNT == sys.maxsize // 16
    for count in (cli.MAX_COUNT + 1, HUGE, 10 ** 30):
        assert run(capsys, *words, flag, str(count)) == out_of_memory(flag, count)
    started = []
    for name in ("cmd_contour", "cmd_spectrum", "cmd_figure", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args: started.append(args) or 0)
    assert run(capsys, *words, flag, str(cli.MAX_COUNT)) == (0, "", "")
    assert len(started) == 1


ALLOCATABLE = 10 ** 13  # indexable, but 72 TiB of float64

# The first allocation each command makes of its count: the solver's numpy
# linspace, whose MemoryError carries the shape and dtype, or the
# one-allocation list of a contour's grid, fig2/fig3's grid and spectrum's
# entries, whose MemoryError carries nothing, stood in for by the function
# that asks for it.
FIRST_ALLOCATION = {"contour": (contours, "linspace"), "fig1": (contours, "linspace"),
                    "fig2": (cli, "_log_grid"), "fig3": (cli, "_log_grid"),
                    "spectrum": (SpectrumTable, "closed_form")}


@pytest.mark.parametrize("command", list(SIZED))
def test_count_too_large_to_allocate_names_its_flag(capsys, monkeypatch, command):
    words, flag = SIZED[command]
    owner, name = FIRST_ALLOCATION.get(command, (np, "linspace"))
    args = () if owner is not np else ((ALLOCATABLE,), np.dtype(float))
    monkeypatch.setattr(owner, name, exhausted_by(args))
    assert run(capsys, *words, flag, str(ALLOCATABLE)) == out_of_memory(flag, ALLOCATABLE)


# An allocation after the first, for a count that really fits: the solver's
# buffers (np.empty), the list of a contour's points, a row of a closed-form
# table.
LATER_ALLOCATION = {"contour": ("toboggan.contours", "PathSamples"),
                    "fig1": ("toboggan.contours", "PathSamples"),
                    "fig2": ("toboggan.spectra", "Ladder"),
                    "fig3": ("toboggan.spectra", "gap"),
                    "spectrum": ("toboggan.spectra", "Ladder.level"),
                    "verify-ho": ("numpy", "empty"),
                    "verify-cubic0": ("numpy", "empty"),
                    "verify-toboggan1": ("numpy", "empty")}


@pytest.mark.parametrize("command", list(SIZED))
def test_count_that_fails_a_later_allocation_names_its_flag(capsys, monkeypatch, command):
    words, flag = SIZED[command]
    module, name = LATER_ALLOCATION[command]
    calls = []

    def exhausted(*args, **kwargs):
        calls.append(name)
        if module != "numpy":
            raise MemoryError()  # a list that cannot grow carries nothing
        raise MemoryError((20001,), np.dtype(complex))

    monkeypatch.setattr(f"{module}.{name}", exhausted)
    assert run(capsys, *words, flag, "20001") == out_of_memory(flag, 20001)
    assert calls == [name]


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


# fig2 takes rho in (0, 1e-2] and fig3 l in (0, inf); the closed forms give up
# long before 1e300.
GRID_ENDS = st.floats(min_value=5e-324, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(st.tuples(GRID_ENDS, GRID_ENDS).filter(lambda ends: ends[0] != ends[1]),
       st.integers(min_value=1, max_value=3000))
def test_log_grid_is_numpy_linspace_raised_by_libm(ends, count):
    lo, hi = sorted(ends)
    grid = cli._log_grid(lo, hi, count, "--count")
    a, b = math.log10(lo), math.log10(hi)
    expected = [math.pow(10.0, y) for y in np.linspace(a, b, count).tolist()]
    assert _bits(grid).tolist() == _bits(expected).tolist()
    assert np.abs(_bits(grid) - _bits(np.logspace(a, b, count))).max() <= 1
    assert grid[0] == 10.0 ** a
    if count > 1:
        assert grid[-1] == 10.0 ** b


@pytest.mark.parametrize("argv", [
    ("contour", "--N", "2", "--count", "9"),
    ("figure", "fig1", "--count", "9"),
    ("figure", "fig2", "--rho-points", "3"),
    ("figure", "fig3", "--ell-points", "3"),
    ("spectrum", "--N", "1", "--ell", "9", "--levels", "3"),
])
def test_table_cells_are_plain_python_types(capsys, monkeypatch, argv):
    # The JSON writer prints numbers with %r, which for a numpy scalar is
    # not the text json writes.
    tables = []
    original = cli._write_table
    monkeypatch.setattr(cli, "_write_table", lambda args, header, columns, *rest:
                        tables.append(columns) or original(args, header, columns, *rest))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(tables) == 1 and tables[0][0]
    assert all(type(cell) in (int, float, str) for column in tables[0] for cell in column)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, fragment", [
    (("spectrum", "--ell", "inf"), "l must be finite"),
    (("spectrum", "--ell", "nan"), "l must be finite"),
    (("spectrum", "--ell", "-3"), "l must be finite"),
    (("contour", "--eps", "inf"), "shift must be finite"),
    (("contour", "--s-max", "inf"), "s_max must be finite"),
    (("figure", "fig3", "--ell-max", "inf"), "ell-max"),
    (("spectrum", "--ell", "1e308"), "l = 1e+308 is too large"),
    (("spectrum", "--ell", "1e200"), "l = 1e+200 is too large"),
    (("figure", "fig3", "--ell-max", "1e300"), "is too large"),
    (("figure", "fig3", "--ell-max", "1.7976931348623157e308"),
     "10**log10(1.7976931348623157e+308) overflows"),
    # A one-point grid has no step, but its point overflows the same way.
    (("figure", "fig3", "--ell-min", "1.7976931348623155e308",
      "--ell-max", "1.7976931348623157e308", "--ell-points", "1"),
     "10**log10(1.7976931348623157e+308) overflows"),
    (("figure", "fig2", "--rho-min", "1e-320"), "(l + 1/2)**2 overflows"),
    (("verify", "ho", "--ell", "inf"), "l must be finite"),
    (("verify", "ho", "--ell", "nan"), "l must be finite"),
    (("verify", "ho", "--omega", "inf"), "omega must be finite"),
    (("verify", "ho", "--points", "2"), "got points = 2"),
    (("verify", "ho", "--half-width", "inf"), "half_width must be finite"),
    (("verify", "ho", "--eps", "inf"), "shift_eps must be finite"),
    (("verify", "cubic0", "--tol", "nan"), "tol must be finite and positive"),
    (("verify", "ho", "--tol", "-1"), "tol must be finite and positive"),
    (("verify", "ho", "--omega", "1e300"), "omega = 1e+300 are out of range"),
    (("verify", "ho", "--ell", "1e200"), "l = 1e+200 and omega = 1"),
    (("verify", "ho", "--omega", "1e-300"), "omega = 1e-300 are out of range"),
    (("verify", "ho", "--half-width", "1e-170"), "half_width = 1e-170 is too small"),
    (("verify", "ho", "--tol", "1e300"), "tol must be finite and positive, and below 1"),
    (("verify", "ho", "--tol", "1"), "tol must be finite and positive, and below 1"),
    (("verify", "ho", "--half-width", "1e300"), "half_width = 1e+300 is too large"),
    (("verify", "cubic0", "--half-width", "1e300"), "half_width = 1e+300 is too large"),
    (("verify", "ho", "--eps", "1e-300"), "potential is not finite on the grid"),
    (("verify", "toboggan1", "--half-width", "1e60"), "potential is not finite on the grid"),
    (("verify", "cubic0", "--ell", "1e12"), "l = 1e+12 is out of regime"),
    (("verify", "cubic0", "--ell", "1e12", "--levels", "1"), "l = 1e+12 is out of regime"),
    (("verify", "cubic0", "--ell", "1e16"), "l = 1e+16 is out of regime"),
    (("verify", "cubic0", "--ell", "1e20"), "l = 1e+20 is out of regime"),
    (("verify", "cubic0", "--ell", "1e30"), "l = 1e+30 is out of regime"),
    (("verify", "cubic0", "--ell", "nan"), "l must be finite"),
    (("verify", "cubic0", "--ell", "inf"), "l must be finite"),
    (("verify", "cubic0", "--ell", "-3"), "l must be finite"),
    (("verify", "cubic0", "--ell", "0"), "need L(L+1) > 0"),
    (("verify", "toboggan1", "--ell", "nan"), "l must be finite"),
    (("verify", "toboggan1", "--ell", "inf"), "l must be finite"),
    (("verify", "toboggan1", "--ell", "-3"), "l must be finite"),
    (("verify", "toboggan1", "--ell", "0"), "need L(L+1) > 0"),
    # omega is checked before l.
    (("verify", "ho", "--ell", "nan", "--omega", "-1"), "got omega = -1"),
    # A 601-point pencil has 601 eigenvalues: rejected before any closed form
    # is listed.
    (("verify", "cubic0", "--levels", "602"), "cannot find 602 levels on 601 grid points"),
    # n = 1 is out of reach at l = 0.6 and n = 2 out of range: the range is named.
    (("verify", "ho", "--ell", "0.6", "--levels", "3"),
     "level n = 2 out of range: need n < l + 1/2 = 1.1"),
    (("contour", "--N", "1000", "--count", "3"), "column re is not finite in row 1 of 3"),
    (("contour", "--N", "1000", "--count", "3", "--format", "json"),
     "column re is not finite in row 1 of 3"),
    (("contour", "--N", "3", "--s-max", "1e100", "--count", "3"),
     "column re is not finite in row 2 of 3"),
    (("contour", "--N", "3", "--s-max", "1e100", "--count", "3", "--format", "json"),
     "column re is not finite in row 2 of 3"),
], ids=["spectrum-ell-inf", "spectrum-ell-nan", "spectrum-ell-negative", "contour-eps-inf",
        "contour-s-max-inf", "fig3-ell-max-inf", "spectrum-ell-1e308",
        "spectrum-ell-1e200", "fig3-ell-max-1e300", "fig3-ell-max-largest-float",
        "fig3-one-point-at-largest-float",
        "fig2-rho-min-1e-320",
        "verify-ho-ell-inf", "verify-ho-ell-nan", "verify-ho-omega-inf",
        "verify-ho-points-2", "verify-ho-half-width-inf", "verify-ho-eps-inf",
        "verify-cubic0-tol-nan", "verify-ho-tol-negative",
        "verify-ho-omega-1e300", "verify-ho-ell-1e200", "verify-ho-omega-1e-300",
        "verify-ho-half-width-1e-170", "verify-ho-tol-1e300", "verify-ho-tol-1",
        "verify-ho-half-width-1e300", "verify-cubic0-half-width-1e300",
        "verify-ho-eps-1e-300", "verify-toboggan1-half-width-1e60",
        "verify-cubic0-ell-1e12", "verify-cubic0-ell-1e12-levels-1",
        "verify-cubic0-ell-1e16", "verify-cubic0-ell-1e20", "verify-cubic0-ell-1e30",
        "verify-cubic0-ell-nan", "verify-cubic0-ell-inf",
        "verify-cubic0-ell-negative", "verify-cubic0-ell-0", "verify-toboggan1-ell-nan",
        "verify-toboggan1-ell-inf", "verify-toboggan1-ell-negative", "verify-toboggan1-ell-0",
        "verify-ho-ell-nan-omega-negative",
        "verify-cubic0-levels-602", "verify-ho-ell-0.6-levels-3",
        "contour-N-1000", "contour-N-1000-json", "contour-s-max-1e100",
        "contour-s-max-1e100-json"])
def test_non_finite_or_negative_input_is_rejected(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("toboggan: error: ")
    assert fragment in err


@pytest.mark.parametrize("argv, grid", [
    (("verify", "ho", "--eps", "1e-300"), "eps = 1e-300"),
    (("verify", "toboggan1", "--half-width", "1e60"), "half_width = 1e+60"),
])
def test_grid_that_overflows_the_potential_is_named(capsys, argv, grid):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("toboggan: error: potential is not finite on the grid")
    assert grid in err and "points = " in err


# A span whose width overflows: numpy's linspace warned twice here, outside
# the sampling's errstate, and under -W error ended in a traceback.
OVERFLOWING_SPAN = ("contour", "--N", "2", "--s-min=-1e308", "--s-max", "1.7e308",
                    "--count", "3")


@pytest.mark.parametrize("warnings", [(), ("-W", "error")], ids=["default", "W-error"])
def test_an_overflowing_contour_span_ends_in_one_error_line(warnings):
    done = subprocess.run([sys.executable, *warnings, "-m", "toboggan.cli", *OVERFLOWING_SPAN],
                          env=_child_env(None), capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "toboggan: error: column s is not finite in row 1 of 3: nan\n")


# Spans of subnormals, with the bytes numpy's linspace gave them: a subnormal
# step, and a step that underflows to 0, where the grid is i/4*delta + s_min.
SUBNORMAL_SPANS = {
    "1e-320": ("-9.9998886718268301e-321,-9.9998886718268301e-321,-1\n"
               "-4.999944335913415e-321,-4.999944335913415e-321,-1\n"
               "0,0,-1\n"
               "4.999944335913415e-321,4.999944335913415e-321,-1\n"
               "9.9998886718268301e-321,9.9998886718268301e-321,-1\n"),
    "5e-324": ("-4.9406564584124654e-324,-4.9406564584124654e-324,-1\n" * 2
               + "0,0,-1\n"
               + "4.9406564584124654e-324,4.9406564584124654e-324,-1\n" * 2),
}


@pytest.mark.parametrize("end", list(SUBNORMAL_SPANS))
def test_a_contour_span_of_subnormals_keeps_its_bytes(capsys, end):
    assert run(capsys, "contour", f"--s-min=-{end}", "--s-max", end, "--count", "5") == (
        0, "s,re,im\n" + SUBNORMAL_SPANS[end], "")


@pytest.mark.parametrize("command", [("contour",), ("figure", "fig1")], ids=["contour", "fig1"])
@pytest.mark.parametrize("value", ["-1e1", "-1E+1", "-.1e2", "-10.", "-1.0e1"])
def test_a_negative_float_literal_may_follow_its_option(capsys, command, value):
    # argparse alone reads "--s-min -1e1" as two options and exits 1.
    spaced = run(capsys, *command, "--count", "3", "--s-min", value, "--s-max", "1")
    joined = run(capsys, *command, "--count", "3", f"--s-min={value}", "--s-max", "1")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1].split("\n")[1].split(",")[-3] == "-10"


def test_a_spaced_negative_eps_reaches_its_domain_check(capsys):
    assert run(capsys, "verify", "ho", "--eps", "-1e-3") == (
        1, "", "toboggan: error: shift_eps must be finite and positive, "
               "got shift_eps = -0.001\n")


# Runs one command, or imports and calls low_lying, in a fresh interpreter
# and prints the exit code (or low_lying's module) and what is loaded after
# `import toboggan`, after `import toboggan.cli` (or low_lying) and at the
# end: toboggan's modules and the watched ones.  repr, not json, so that the
# probe itself loads no json.
COLD_PROBE = textwrap.dedent("""
    import os, sys
    WATCHED = ("numpy", "scipy", "scipy.linalg", "scipy.linalg._flapack", "json",
               "dataclasses", "inspect")
    def loaded():
        return sorted(name for name in sys.modules
                      if name in WATCHED or name.split(".")[0] == "toboggan")
    import toboggan
    seen = [loaded()]
    if sys.argv[1:] == ["low_lying"]:
        from toboggan import low_lying
        seen.append(loaded())
        result = low_lying.__module__
        low_lying("ho", 10.0, 1)
    else:
        import toboggan.cli
        seen.append(loaded())
        result = toboggan.cli.main(sys.argv[1:] + ["--output", os.devnull])
    print(repr([result, *seen, loaded()]))
    """)

BARE = {"toboggan"}
CLI = BARE | {"toboggan.cli", "toboggan.util"}
CONTOURS = CLI | {"toboggan.contours"}
CLOSED_FORMS = CLI | {"toboggan.spectra", "toboggan.expansion", "toboggan.rectify",
                      "toboggan.potentials"}
SOLVER = (CLOSED_FORMS - {"toboggan.cli"}) | {"toboggan.eigensolver", "numpy"}
SOLVED = SOLVER | {"scipy.linalg._flapack"}
VERIFIED = CLOSED_FORMS | SOLVED | {"json"}

# Per cold run: its argv, what the probe returns, and what is loaded at the
# probe's three points.  Only the solver loads numpy, and scipy's LAPACK
# extension once it factorizes; no run loads the scipy or scipy.linalg
# package or dataclasses, and a CSV table loads no json.  numpy may import
# inspect itself (numpy 2.4 does), so inspect is checked where numpy is not.
LOADS = {
    "contour": (["contour", "--count", "3"], 0, BARE, CLI, CONTOURS),
    "fig1": (["figure", "fig1", "--count", "3"], 0, BARE, CLI, CONTOURS),
    "spectrum": (["spectrum", "--ell", "4"], 0, BARE, CLI, CLOSED_FORMS),
    "fig2": (["figure", "fig2", "--rho-points", "2"], 0, BARE, CLI, CLOSED_FORMS),
    "fig3": (["figure", "fig3", "--ell-points", "2"], 0, BARE, CLI, CLOSED_FORMS),
    "verify-ho": (["verify", "ho"], 0, BARE, CLI, VERIFIED),
    "verify-cubic0": (["verify", "cubic0"], 0, BARE, CLI, VERIFIED),
    "verify-toboggan1": (["verify", "toboggan1"], 0, BARE, CLI, VERIFIED),
    "low_lying": (["low_lying"], "toboggan.eigensolver", BARE, SOLVER, SOLVED),
}


@pytest.mark.parametrize("row", LOADS.values(), ids=list(LOADS))
def test_a_cold_run_loads_only_the_modules_it_runs(row):
    argv, result, *loads = row
    done = subprocess.run([sys.executable, "-c", COLD_PROBE, *argv], env=_child_env(None),
                          check=True, capture_output=True, text=True)
    got, *seen = ast.literal_eval(done.stdout)
    seen = [set(names) - ({"inspect"} if "numpy" in names else set()) for names in seen]
    assert [got, *seen] == [result, *loads]
