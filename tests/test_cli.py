import json

import pytest

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
    assert report["experimental"] is True
    assert report["passed"] is True
    assert max(report["relative_errors"]) <= 0.10


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
@pytest.mark.parametrize("argv", [
    ("spectrum", "--ell", "inf"),
    ("spectrum", "--ell", "-3"),
    ("contour", "--eps", "inf"),
    ("contour", "--s-max", "inf"),
    ("figure", "fig3", "--ell-max", "inf"),
], ids=["spectrum-ell-inf", "spectrum-ell-negative", "contour-eps-inf",
        "contour-s-max-inf", "fig3-ell-max-inf"])
def test_non_finite_or_negative_input_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("toboggan: error: ")
