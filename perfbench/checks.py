"""Output checks, against values computed here apart from the program.

Nothing here imports toboggan.  The closed forms are re-derived from the tau
formula, contour points come from numpy's complex power, oscillator levels
from the exact omega*(4n+1-2l), and the finite-difference oracle is held to
properties the method must have (second-order convergence, real N = 0
levels).  No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Agreement demanded between the program's closed forms and the ones below.
# Both are a handful of float operations, so 1e-11 leaves four decades of room.
CLOSED_FORM_RTOL = 1e-11
CONTOUR_RTOL = 1e-12
# The oscillator oracle's documented accuracy, whatever grid reaches it.
HO_ACCURACY = 1e-4
TOBOGGAN1_GAP_TOLERANCE = 0.10
ORDER = 2.0
ORDER_MARGIN = 0.05
SOLVER_TOL = 1e-9


class CheckError(AssertionError):
    """An output failed a correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- reference computations ------------------------------------------------------

def tau_ref(winding: int, ell: float) -> float:
    """Polygon radius (2 L(L+1) / ((2N+1)^2 (10N+3)))^(1/(10N+5)),
    L = (2N+1)(l + 1/2) - 1/2."""
    odd = 2 * winding + 1
    big_l = odd * (ell + 0.5) - 0.5
    return (2.0 * big_l * (big_l + 1.0) / (odd * odd * (10 * winding + 3))) \
        ** (1.0 / (10 * winding + 5))


def _energy_terms(winding: int, ell: float, n):
    """(well, rung) with E = well + rung; n may be an array."""
    tau = tau_ref(winding, ell)
    well = -(10 * winding + 5) / 2.0 * tau ** (6 * winding + 3)
    rung = ((2 * np.asarray(n, dtype=float) + 1) / (2 * winding + 1)
            * math.sqrt((10 * winding + 3) * (10 * winding + 5) / 2.0)
            * tau ** (winding + 0.5))
    return well, rung


def energy_ref(winding: int, ell: float, n):
    """Closed-form level E_n of the N-winding cubic problem."""
    well, rung = _energy_terms(winding, ell, n)
    return well + rung


def energy_scale(winding: int, ell: float, n):
    """|well| + |rung|: the size rounding in E_n is relative to."""
    well, rung = _energy_terms(winding, ell, n)
    return abs(well) + np.abs(rung)


def gap_ref(winding: int, ell):
    """Equidistant spacing E_{n+1} - E_n = 2/(2N+1) sqrt((10N+3)(10N+5)/2)
    tau^(N+1/2); ell may be an array."""
    return (2.0 / (2 * winding + 1)
            * math.sqrt((10 * winding + 3) * (10 * winding + 5) / 2.0)
            * tau_ref(winding, ell) ** (winding + 0.5))


def rho_ref(ell: float) -> float:
    return 1.0 / (ell + 0.5) ** 2


def ho_exact(omega: float, ell: float, n: int) -> float:
    return omega * (4 * n + 1 - 2.0 * ell)


def contour_ref(winding: int, eps: float, s: np.ndarray) -> np.ndarray:
    """-i*[i*(s - i*eps)]^(2N+1) through numpy's complex power."""
    base = 1j * (np.asarray(s, dtype=float) - 1j * eps)
    return -1j * np.power(base, 2 * winding + 1)


def observed_order(coarse: float, mid: float, fine: float) -> float:
    """log2 of successive differences over grid steps h, h/2, h/4."""
    return math.log2(abs(coarse - mid) / abs(mid - fine))


# --- output parsing ----------------------------------------------------------------

def load_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV or JSON table output, as float arrays by header name.

    JSON spectrum output carries rho once at the top; it is spread over the
    rows so both encodings give the same columns.  The text column `source`
    is kept as a list.
    """
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".csv"):
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        columns = {}
        for i, name in enumerate(header):
            cells = [r[i] for r in rows]
            columns[name] = cells if name == "source" else np.array(
                [float(c) for c in cells])
        return columns
    data = json.loads(text)
    if isinstance(data, dict) and "points" in data:
        rows = data["points"]
    elif isinstance(data, dict) and "entries" in data:
        rows = [dict(r, rho=data["rho"]) for r in data["entries"]]
    else:
        rows = data
    columns = {}
    for name in rows[0]:
        cells = [r[name] for r in rows]
        columns[name] = cells if name == "source" else np.array(cells, dtype=float)
    return columns


def load_report(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --- table checks --------------------------------------------------------------------

def _close(actual, expected, scale, rtol, what: str) -> None:
    err = np.max(np.abs(np.asarray(actual) - np.asarray(expected)) / scale)
    _require(bool(err <= rtol), f"{what}: relative error {err:.3e} > {rtol:.0e}")


def check_contour(table: dict, p: dict) -> None:
    s = np.linspace(p["s_min"], p["s_max"], p["count"])
    _require(len(table["s"]) == p["count"], "contour: wrong row count")
    _close(table["s"], s, 1.0, 0.0, "contour s")
    q = contour_ref(p["N"], p["eps"], s)
    scale = np.maximum(1.0, np.abs(q))
    _close(table["re"] + 1j * table["im"], q, scale, CONTOUR_RTOL, "contour q")


def check_fig1(table: dict, p: dict) -> None:
    count = p["count"]
    _require(len(table["N"]) == 3 * count, "fig1: wrong row count")
    for winding in range(3):
        block = slice(winding * count, (winding + 1) * count)
        _require(bool(np.all(table["N"][block] == winding)), "fig1: N column")
        check_contour({k: table[k][block] for k in ("s", "re", "im")},
                      dict(p, N=winding))


def check_fig2(table: dict, p: dict) -> None:
    rhos = np.logspace(math.log10(p["rho_min"]), math.log10(p["rho_max"]),
                       p["points"])
    _require(len(table["rho"]) == 20 * p["points"], "fig2: wrong row count")
    rho = np.repeat(rhos, 20)
    winding = np.tile(np.repeat(np.arange(4), 5), p["points"])
    n = np.tile(np.arange(5), 4 * p["points"])
    _close(table["rho"], rho, rho, 1e-15, "fig2 rho")
    _require(bool(np.all(table["N"] == winding) and np.all(table["n"] == n)),
             "fig2: (N, n) columns")
    expected = np.empty_like(rho)
    scale = np.empty_like(rho)
    for i, r in enumerate(rhos):
        ell = 1.0 / math.sqrt(r) - 0.5
        for big_n in range(4):
            rows = slice(20 * i + 5 * big_n, 20 * i + 5 * big_n + 5)
            expected[rows] = r ** 0.6 * energy_ref(big_n, ell, np.arange(5))
            scale[rows] = r ** 0.6 * energy_scale(big_n, ell, np.arange(5))
    _close(table["F"], expected, scale, CLOSED_FORM_RTOL, "fig2 F")


def check_fig3(table: dict, p: dict) -> None:
    ells = np.logspace(math.log10(p["ell_min"]), math.log10(p["ell_max"]),
                       p["points"])
    _require(len(table["ell"]) == 4 * p["points"], "fig3: wrong row count")
    ell = np.repeat(ells, 4)
    _close(table["ell"], ell, ell, 1e-15, "fig3 ell")
    _require(bool(np.all(table["N"] == np.tile(np.arange(4), p["points"]))),
             "fig3: N column")
    winding = table["N"].astype(int)
    expected = np.empty_like(ell)
    for big_n in range(4):
        rows = winding == big_n
        expected[rows] = gap_ref(big_n, ell[rows]) / ell[rows] ** 0.2
    _close(table["G_scaled"], expected, expected, CLOSED_FORM_RTOL, "fig3 G")


def check_spectrum(table: dict, p: dict) -> None:
    big_n, ell, levels = p["N"], p["ell"], p["levels"]
    n = np.arange(levels)
    _require(len(table["n"]) == levels and bool(np.all(table["n"] == n)),
             "spectrum: n column")
    _require(bool(np.all(table["N"] == big_n) and np.all(table["ell"] == ell)),
             "spectrum: N/ell columns")
    _require(set(table["source"]) == {"closed_form"}, "spectrum: source column")
    rho = rho_ref(ell)
    _close(table["rho"], rho, rho, 1e-15, "spectrum rho")
    energy = energy_ref(big_n, ell, n)
    scale = energy_scale(big_n, ell, n)
    _close(table["E"], energy, scale, CLOSED_FORM_RTOL, "spectrum E")
    _close(table["F"], rho ** 0.6 * energy, rho ** 0.6 * scale,
           CLOSED_FORM_RTOL, "spectrum F = rho^(3/5) E")
    gap = gap_ref(big_n, ell)
    _close(table["G"], gap, gap, CLOSED_FORM_RTOL, "spectrum G")
    if levels > 1:
        # Equidistant ladder: every spacing is G up to rounding in E.
        _close(np.diff(table["E"]), gap, np.max(scale), 1e-13,
               "spectrum spacing")


TABLE_CHECKS = {
    "contour": check_contour,
    "fig1": check_fig1,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "spectrum": check_spectrum,
}


def check_same_numbers(csv_table: dict, json_table: dict) -> None:
    """CSV (17 significant digits) and JSON must carry identical floats."""
    _require(set(csv_table) == set(json_table), "CSV/JSON columns differ")
    for name, column in csv_table.items():
        if name == "source":
            _require(column == json_table[name], "CSV/JSON source differs")
        else:
            _require(bool(np.array_equal(column, json_table[name])),
                     f"CSV/JSON column {name} differs")


# --- verify report checks ----------------------------------------------------------------

def _eigen(level: dict) -> complex:
    return complex(level["eigenvalue"]["re"], level["eigenvalue"]["im"])


def check_verify_ho(report: dict, p: dict) -> list[float]:
    """Exact oscillator levels; returns |oracle - exact| per level."""
    omega, ell, levels = p["omega"], p["ell"], p["levels"]
    _require(report["passed"] is True, "verify ho: report did not pass")
    _require(len(report["levels"]) == levels, "verify ho: level count")
    errors = []
    for n, level in enumerate(report["levels"]):
        exact = ho_exact(omega, ell, n)
        _require(level["n"] == n and level["converged"], f"verify ho: level {n}")
        _require(abs(level["closed_form"] - exact) <= 1e-12 * max(1.0, abs(exact)),
                 f"verify ho: reported exact level {n} is not omega(4n+1-2l)")
        value = _eigen(level)
        err = abs(value.real - exact)
        _require(err <= HO_ACCURACY and abs(value.imag) <= HO_ACCURACY,
                 f"verify ho: level {n} off exact by {err:.3e}")
        errors.append(err)
    return errors


def check_verify_cubic0(report: dict, p: dict) -> None:
    ell, levels = p["ell"], p["levels"]
    _require(report["passed"] is True, "verify cubic0: report did not pass")
    _require(len(report["levels"]) == levels, "verify cubic0: level count")
    gap = gap_ref(0, ell)
    for n, level in enumerate(report["levels"]):
        closed = energy_ref(0, ell, n)
        _require(level["n"] == n and level["converged"], f"verify cubic0: level {n}")
        _require(abs(level["closed_form"] - closed)
                 <= CLOSED_FORM_RTOL * energy_scale(0, ell, n),
                 f"verify cubic0: closed form of level {n} differs from tau formula")
        value = _eigen(level)
        # N = 0 levels are real: Im E stays at the solver tolerance.
        _require(abs(value.imag) <= SOLVER_TOL * max(1.0, abs(value)),
                 f"verify cubic0: |Im E_{n}| = {abs(value.imag):.3e}")
        _require(abs(value.real - closed) <= 0.25 * gap,
                 f"verify cubic0: level {n} not the closed-form level {n}")


def check_verify_toboggan1(report: dict, p: dict) -> None:
    ell = p["ell"]
    _require(report["passed"] is True, "verify toboggan1: report did not pass")
    values = [_eigen(level).real for level in report["levels"]]
    _require(all(level["converged"] for level in report["levels"]),
             "verify toboggan1: level not converged")
    gap = gap_ref(1, ell)
    for lower, upper in zip(values, values[1:]):
        spacing = upper - lower
        _require(abs(spacing - gap) <= TOBOGGAN1_GAP_TOLERANCE * gap,
                 f"verify toboggan1: spacing {spacing:.6g} vs gap {gap:.6g}")


REPORT_CHECKS = {
    "verify_ho": check_verify_ho,
    "verify_cubic0": check_verify_cubic0,
    "verify_toboggan1": check_verify_toboggan1,
}


def check_series(reports: list[dict]) -> list[float]:
    """Observed order of each level over one h, h/2, h/4 series."""
    steps = [r["grid"]["step"] for r in reports]
    _require(all(math.isclose(a, 2.0 * b, rel_tol=1e-12)
                 for a, b in zip(steps, steps[1:])), "series: steps do not halve")
    orders = []
    for n in range(len(reports[0]["levels"])):
        coarse, mid, fine = (_eigen(r["levels"][n]).real for r in reports)
        order = observed_order(coarse, mid, fine)
        _require(abs(order - ORDER) <= ORDER_MARGIN,
                 f"series: observed order {order:.4f} at level {n}")
        orders.append(order)
    return orders
