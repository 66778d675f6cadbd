import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import toboggan
from toboggan.cli import main
from toboggan.contours import WindingContour, sample_path, winding_path
from toboggan.spectra import (
    SpectrumTable,
    energy_cubic,
    energy_toboggan,
    gap_constant,
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
    assert report["calibration"]["ell"] == 25.0
    for level in report["levels"]:
        assert level["abs_diff"] <= level["tolerance"]


def test_verify_cubic0_rejects_small_ell(capsys):
    code, _, err = run(capsys, "verify", "cubic0", "--ell", "20")
    assert code == 1
    assert "calibration" in err


def test_verify_toboggan1(capsys, tmp_path):
    report_path = tmp_path / "tob1.json"
    code, _, _ = run(capsys, "verify", "toboggan1", "--output", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "experimental" not in report
    assert report["passed"] is True
    assert report["calibration"]["ell"] == 25.0
    for n, level in enumerate(report["levels"]):
        assert level["converged"] and level["iterations"] <= 10
        assert level["closed_form"] == energy_cubic(50.0, n)
        assert level["abs_diff"] <= level["tolerance"]
        assert report["paper_closed_form"][n] == energy_toboggan(1, 50.0, n)
        assert report["paper_abs_diff"][n] > level["tolerance"]
    code, _, err = run(capsys, "verify", "toboggan1", "--ell", "25")
    assert code == 1
    assert "toboggan1 verification needs ell > 25" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ell", ["28", "30", "116.5", "200", "1e4"])
def test_verify_toboggan1_tells_the_models_apart(capsys, ell):
    # Every level sits in the calibrated envelope around the N = 0 closed
    # form, and outside it around the paper's winding formula.
    code, out, _ = run(capsys, "verify", "toboggan1", "--ell", ell)
    assert code == 0
    report = json.loads(out)
    for n, level in enumerate(report["levels"]):
        value = level["eigenvalue"]["re"]
        assert abs(value - energy_cubic(float(ell), n)) <= level["tolerance"]
        assert abs(value - energy_toboggan(1, float(ell), n)) > level["tolerance"]


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


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no-such-option": 1}))
    code, _, _ = run(capsys, "--config", str(config), "spectrum", "--ell", "4")
    assert code == 1


def test_precision_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("TOBOGGAN_PRECISION", "5")
    code, out, _ = run(capsys, "spectrum", "--N", "0", "--ell", "4",
                       "--levels", "1")
    assert code == 0
    _, rows = parse_csv(out)
    energy_text = rows[0][4]
    assert len(energy_text.replace("-", "").replace(".", "")) <= 6
    assert float(energy_text) == pytest.approx(energy_cubic(4.0, 0), rel=1e-4)


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "contour.csv"
    code, out, _ = run(capsys, "contour", "--N", "0", "--eps", "1",
                       "--count", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("s,re,im\n")


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
    for row, entry in zip(rows, table.entries):
        assert row[0] == str(entry.winding_number) and row[3] == str(entry.n)
        assert float(row[1]) == entry.ell
        assert float(row[2]) == table.rho
        assert float(row[4]) == entry.energy
        assert float(row[5]) == entry.rescaled
        assert float(row[6]) == entry.gap
        assert row[7] == entry.source == "closed_form"


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "2", "--ell", "9",
                       "--levels", "3", "--format", "json")
    assert code == 0
    table = SpectrumTable.closed_form(2, 9.0, 3)
    payload = json.loads(out)
    assert list(payload) == ["rho", "entries"]
    assert payload["rho"] == table.rho
    assert [row["n"] for row in payload["entries"]] == [0, 1, 2]
    for row, entry in zip(payload["entries"], table.entries):
        assert set(row) == {"N", "ell", "n", "E", "F", "G", "source"}
        assert (row["N"], row["ell"], row["n"], row["source"]) \
            == (entry.winding_number, entry.ell, entry.n, entry.source)
        assert (row["E"], row["F"], row["G"]) \
            == (entry.energy, entry.rescaled, entry.gap)


def test_figure_empty_tables(capsys):
    code, out, _ = run(capsys, "figure", "fig2", "--rho-points", "0")
    assert (code, out) == (0, "rho,N,n,F\n")
    code, out, _ = run(capsys, "figure", "fig3", "--ell-points", "0",
                       "--format", "json")
    assert (code, out) == (0, "[]\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, fragment", [
    (("spectrum", "--ell", "inf"), "l must be finite"),
    (("spectrum", "--ell", "-3"), "l must be finite"),
    (("contour", "--eps", "inf"), "shift must be finite"),
    (("contour", "--s-max", "inf"), "s_max must be finite"),
    (("figure", "fig3", "--ell-max", "inf"), "ell-max"),
    (("spectrum", "--ell", "1e308"), "l = 1e+308 is too large"),
    (("spectrum", "--ell", "1e200"), "l = 1e+200 is too large"),
    (("figure", "fig3", "--ell-max", "1e300"), "is too large"),
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
], ids=["spectrum-ell-inf", "spectrum-ell-negative", "contour-eps-inf",
        "contour-s-max-inf", "fig3-ell-max-inf", "spectrum-ell-1e308",
        "spectrum-ell-1e200", "fig3-ell-max-1e300", "fig2-rho-min-1e-320",
        "verify-ho-ell-inf", "verify-ho-ell-nan", "verify-ho-omega-inf",
        "verify-ho-points-2", "verify-ho-half-width-inf", "verify-ho-eps-inf",
        "verify-cubic0-tol-nan", "verify-ho-tol-negative",
        "verify-ho-omega-1e300", "verify-ho-ell-1e200", "verify-ho-omega-1e-300",
        "verify-ho-half-width-1e-170", "verify-ho-tol-1e300", "verify-ho-tol-1"])
def test_non_finite_or_negative_input_is_rejected(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("toboggan: error: ")
    assert fragment in err


def test_closed_form_commands_never_load_scipy():
    # A fresh interpreter, so that no earlier test has imported scipy.
    script = textwrap.dedent("""
        import json, os, sys
        import toboggan, toboggan.cli
        commands = [["contour", "--count", "3"], ["spectrum", "--ell", "4"],
                    ["figure", "fig1", "--count", "3"],
                    ["figure", "fig2", "--rho-points", "2"],
                    ["figure", "fig3", "--ell-points", "2"], ["verify", "ho"]]
        seen = []
        for argv in commands:
            code = toboggan.cli.main(argv + ["--output", os.devnull])
            seen.append([argv[0], code, "scipy" in sys.modules])
        print(json.dumps(seen))
        """)
    src = str(Path(toboggan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert json.loads(done.stdout) == [
        ["contour", 0, False], ["spectrum", 0, False], ["figure", 0, False],
        ["figure", 0, False], ["figure", 0, False], ["verify", 0, True]]
