"""Self-tests of the benchmark's statistics, reference computations, checks
and input mixes.  Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import mixes  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


# --- statistics -------------------------------------------------------------------

@pytest.mark.parametrize("count, percentile", [
    (39, None), (40, 75.0), (50, 80.0), (100, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile):
    assert stats.tail_percentile(count) == percentile


def test_tail_value_has_exactly_ten_samples_above():
    samples = [float(x) for x in range(100)]
    tail = stats.tail_value(list(reversed(samples)))
    assert tail == 89.0
    assert sum(s > tail for s in samples) == 10


def test_median_only_below_forty_samples():
    summary = stats.summarize([float(x) for x in range(39)])
    assert summary == {"count": 39, "median": 19.0}
    summary = stats.summarize([float(x) for x in range(40)])
    assert summary["tail"] == 29.0 and summary["tail_percentile"] == 75.0


def test_quartile_spread_is_share_of_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.quartile_spread([5.0] * 10) == 0.0


# --- reference computations -------------------------------------------------------

def test_tau_and_energy_reduce_to_the_cubic_formulas_at_n0():
    ell = 50.0
    tau = (2.0 * ell * (ell + 1.0) / 3.0) ** 0.2
    assert checks.tau_ref(0, ell) == pytest.approx(tau, rel=1e-15)
    for n in range(4):
        expected = -2.5 * tau ** 3 + math.sqrt(7.5 * tau) * (2 * n + 1)
        assert checks.energy_ref(0, ell, n) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("winding, limit", [
    (0, -1.96013), (1, -2.43957), (2, -2.88729), (3, -3.25497)])
def test_rescaled_levels_approach_the_large_l_constants(winding, limit):
    ell = 1e12
    rescaled = checks.rho_ref(ell) ** 0.6 * checks.energy_ref(winding, ell, 0)
    assert rescaled == pytest.approx(limit, abs=2e-5)


@pytest.mark.parametrize("winding", range(4))
def test_gap_is_the_level_spacing(winding):
    ell = 40.0
    spacing = checks.energy_ref(winding, ell, 3) - checks.energy_ref(winding, ell, 2)
    assert checks.gap_ref(winding, ell) == pytest.approx(spacing, rel=1e-9)


def test_exact_oscillator_levels():
    assert [checks.ho_exact(1.0, 10.0, n) for n in range(3)] == [-19.0, -15.0, -11.0]


def test_contour_reference_is_the_shifted_line_at_n0_and_cubes_at_n1():
    s = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(checks.contour_ref(0, 0.5, s), s - 0.5j)
    z = complex(2.0, -0.5)
    assert checks.contour_ref(1, 0.5, np.array([2.0]))[0] == pytest.approx(
        -1j * (1j * z) ** 3, rel=1e-15)


def test_observed_order_of_a_second_order_sequence():
    values = [1.0 + 3.0 * h * h for h in (0.1, 0.05, 0.025)]
    assert checks.observed_order(*values) == pytest.approx(2.0, abs=1e-9)


# --- checks reject wrong output -------------------------------------------------------

def _contour_table(p):
    s = np.linspace(p["s_min"], p["s_max"], p["count"])
    q = checks.contour_ref(p["N"], p["eps"], s)
    return {"s": s, "re": q.real.copy(), "im": q.imag.copy()}


def test_contour_check_accepts_reference_and_rejects_a_moved_point():
    p = {"N": 2, "eps": 1.0, "s_min": -4.0, "s_max": 4.0, "count": 101}
    table = _contour_table(p)
    checks.check_contour(table, p)
    table["re"][10] *= 1.0 + 1e-9
    with pytest.raises(checks.CheckError):
        checks.check_contour(table, p)


def _spectrum_table(p):
    n = np.arange(p["levels"])
    energy = checks.energy_ref(p["N"], p["ell"], n)
    rho = checks.rho_ref(p["ell"])
    return {"N": np.full(n.size, float(p["N"])), "ell": np.full(n.size, p["ell"]),
            "rho": np.full(n.size, rho), "n": n.astype(float), "E": energy,
            "F": rho ** 0.6 * energy,
            "G": np.full(n.size, checks.gap_ref(p["N"], p["ell"])),
            "source": ["closed_form"] * n.size}


def test_spectrum_check_rejects_a_level_off_the_ladder():
    p = {"N": 1, "ell": 30.0, "levels": 6}
    table = _spectrum_table(p)
    checks.check_spectrum(table, p)
    table["E"][3] += 1e-6 * abs(table["E"][3])
    with pytest.raises(checks.CheckError):
        checks.check_spectrum(table, p)


def test_csv_json_comparison_sees_one_ulp():
    table = {"x": np.array([1.0, 2.0])}
    other = {"x": np.array([1.0, np.nextafter(2.0, 3.0)])}
    checks.check_same_numbers(table, {"x": table["x"].copy()})
    with pytest.raises(checks.CheckError):
        checks.check_same_numbers(table, other)


def _report(values, step):
    return {"grid": {"step": step},
            "levels": [{"eigenvalue": {"re": v, "im": 0.0}} for v in values]}


def test_series_check_wants_second_order():
    good = [_report([1.0 + 2.0 * h * h], h) for h in (0.04, 0.02, 0.01)]
    assert checks.check_series(good) == [pytest.approx(2.0)]
    first_order = [_report([1.0 + 2.0 * h], h) for h in (0.04, 0.02, 0.01)]
    with pytest.raises(checks.CheckError):
        checks.check_series(first_order)


def test_ho_check_rejects_an_error_above_the_documented_accuracy():
    p = {"omega": 1.0, "ell": 10.0, "levels": 1}
    level = {"n": 0, "converged": True, "closed_form": -19.0,
             "eigenvalue": {"re": -19.0 + 5e-5, "im": 0.0}}
    # A coarser grid is fine as long as the levels are this accurate.
    report = {"passed": True, "grid": {"points": 1501}, "levels": [level]}
    assert checks.check_verify_ho(report, p) == [pytest.approx(5e-5)]
    level["eigenvalue"]["re"] = -19.0 + 2e-4
    with pytest.raises(checks.CheckError):
        checks.check_verify_ho(report, p)


def test_cubic0_check_wants_real_levels():
    ell = 100.0
    closed = checks.energy_ref(0, ell, 0)
    level = {"n": 0, "converged": True, "closed_form": closed,
             "eigenvalue": {"re": closed + 0.01, "im": 0.0}}
    report = {"passed": True, "levels": [level]}
    checks.check_verify_cubic0(report, {"ell": ell, "levels": 1})
    level["eigenvalue"]["im"] = 1e-6 * abs(closed)
    with pytest.raises(checks.CheckError):
        checks.check_verify_cubic0(report, {"ell": ell, "levels": 1})


def test_csv_and_json_tables_load_to_the_same_columns(tmp_path):
    rows = [{"s": -1.0, "re": 0.1, "im": -1.0 / 3.0}, {"s": 1.0, "re": 2.5, "im": 1e-300}]
    (tmp_path / "t.json").write_text(json.dumps({"N": 0, "eps": 1.0, "points": rows}))
    (tmp_path / "t.csv").write_text("s,re,im\n" + "".join(
        f"{r['s']:.17g},{r['re']:.17g},{r['im']:.17g}\n" for r in rows))
    checks.check_same_numbers(checks.load_table(tmp_path / "t.csv"),
                              checks.load_table(tmp_path / "t.json"))


# --- input mixes ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(mixes.ROUNDS))
def test_rounds_repeat_per_seed_and_keep_their_make_up(workload):
    first = mixes.make_round(workload, 1)
    assert [op.argv for op in first] == [op.argv for op in mixes.make_round(workload, 1)]
    other = mixes.make_round(workload, 2)
    assert [op.argv for op in first] != [op.argv for op in other]
    assert Counter(op.kind for op in first) == Counter(op.kind for op in other)


def test_oracle_draws_stay_in_their_regions():
    for seed in range(20):
        for op in mixes.make_round("oracle_sweep", seed):
            p = op.params
            if op.kind == "verify_ho":
                assert 0.25 <= p["omega"] <= 1.0 and p["levels"] <= p["ell"] <= 60.0
            elif op.kind == "verify_cubic0":
                assert 25.0 < p["ell"] <= 1e4 and 1 <= p["levels"] <= 4
            else:
                assert 35.0 <= p["ell"] <= 110.0


def test_series_halve_the_step():
    ops = mixes.make_round("oracle_sweep", 3)
    for name, sizes in (("series-ho-0", mixes.HO_SERIES),
                        ("series-cubic0-1", mixes.CUBIC0_SERIES)):
        series = [op for op in ops if op.group == name]
        assert [int(op.argv[-1]) for op in series] == list(sizes)
        assert all(2 * (a - 1) == b - 1 for a, b in zip(sizes, sizes[1:]))


def test_tables_run_every_command_in_both_formats():
    ops = mixes.make_round("tables_bulk", 5)
    pairs = Counter(op.group for op in ops)
    assert set(pairs.values()) == {2}
    assert all(op.argv[0] != "verify" for op in ops)


# --- import trace parsing ----------------------------------------------------------------

def test_importtime_parsing_counts_outermost_scipy_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |           scipy._lib",
        "import time:       200 |        300 |         scipy",
        "import time:      1000 |       1300 |       scipy.linalg",
        "import time:        50 |       1350 |     toboggan.eigensolver",
        "import time:        20 |       1370 |   toboggan",
        "import time:        10 |       1380 | toboggan.cli",
    ])
    figures = layers.parse_importtime(text)
    assert figures["import.scipy_s"] == pytest.approx(1300e-6)
    assert figures["import.total_s"] == pytest.approx(1380e-6)
    assert figures["import.toboggan_self_s"] == pytest.approx(80e-6)


# --- per-round figures and failed operations ---------------------------------------------

def test_rows_and_bytes_are_one_rounds_output_whatever_the_traced_rounds():
    tracer = layers.Tracer()
    tracer.layer_self["cli"] = 3.0  # 1 s per round over three rounds
    figures = tracer.metrics(rounds=3, rows_out=100, bytes_out=1000)
    assert figures["cli.rows_out"] == (100, "count")
    assert figures["cli.bytes_out"] == (1000, "byte")
    assert figures["cli.write_ns_per_byte"][0] == pytest.approx(1e6)


class _Failing:
    def __call__(self, argv, path):
        return 2, 0.01, 0.01

    def peak_rss_mb(self):
        return 1.0


def test_a_failed_operation_makes_the_run_incorrect(tmp_path):
    ops = mixes.make_round("cli_cold", 1)[:2]
    rounds = run.Rounds(ops, _Failing(), tmp_path)
    rounds.run(reference=True)
    assert rounds.attempted == 2 and rounds.failed == 2
    assert len(rounds.problems) == 2
    metrics = run.end_to_end(rounds, _Failing(), 0.5)
    assert set(metrics) == {"setup_s", "peak_rss_mb"}
