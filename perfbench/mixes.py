"""The operations each workload runs, drawn from its seed.

A round is a fixed list of operations.  Its make-up (which commands, how many
of each, grid and table sizes) is the same for every seed; the seed draws only
the continuous inputs (l, omega, eps, ranges) from the stated regions.  So two
seeds give rounds of the same cost, and every run repeats whole rounds.

Every draw stays inside the region where today's program passes its own
verification; the failing regions are recorded in CHANGES.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI call.  `argv` excludes --output, which the runner appends.

    `kind` names the check applied to the output, `params` holds the inputs
    that check recomputes from, and `group` ties together operations checked
    as a set: a CSV/JSON pair or a grid-refinement series.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)
    group: str | None = None

    @property
    def ext(self) -> str:
        if self.argv[0] == "verify" or "json" in self.argv:
            return "json"
        return "csv"


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _both_formats(kind: str, argv: list[str], params: dict, group: str) -> list[Op]:
    return [Op(kind, tuple(argv), params, group),
            Op(kind, tuple(argv + ["--format", "json"]), params, group)]


# --- oracle inputs -----------------------------------------------------------

HO_OMEGA = (0.25, 1.0)
HO_ELL_MAX = 60.0
CUBIC0_ELL = (25.0, 1e4)      # open at 25: the calibration point itself
TOBOGGAN1_ELL = (35.0, 110.0)
HO_SERIES = (6001, 12001, 24001)
# The 24001-point ho solves are the slowest operations, so they set the tail.
# Their sweep count grows as l falls (about 5 per level at l = 4, 3 at l = 60);
# drawing l above 30 keeps the tail from swinging with the seed.
HO_SERIES_ELL = (30.0, HO_ELL_MAX)
CUBIC0_SERIES = (601, 1201, 2401)
SERIES_LEVELS = 4
# Verify calls per (target, level count), and refinement series per target.
ORACLE_DRAWS = 4
ORACLE_SERIES = 3


def strata(rng: random.Random, k: int, lo: float, hi: float,
           log: bool = False) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi] (of
    [log lo, log hi] when log), in random order.  Stratified draws keep every
    seed's round close to the whole region, so seeds differ little in cost."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / k
    values = [a + width * (j + rng.random()) for j in range(k)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def verify_ho(omega: float, ell: float, levels: int) -> Op:
    return Op("verify_ho",
              ("verify", "ho", "--omega", _num(omega), "--ell", _num(ell),
               "--levels", str(levels)),
              {"omega": omega, "ell": ell, "levels": levels})


def verify_cubic0(ell: float, levels: int) -> Op:
    if not ell > CUBIC0_ELL[0]:
        raise ValueError("cubic0 needs ell above its calibration point")
    return Op("verify_cubic0",
              ("verify", "cubic0", "--ell", _num(ell), "--levels", str(levels)),
              {"ell": ell, "levels": levels})


def verify_toboggan1(ell: float) -> Op:
    return Op("verify_toboggan1", ("verify", "toboggan1", "--ell", _num(ell)),
              {"ell": ell, "levels": 2})


def ho_draws(rng: random.Random, k: int, levels: int,
             ell_range: tuple[float, float] | None = None) -> list[Op]:
    omegas = strata(rng, k, *HO_OMEGA)
    ells = strata(rng, k, *(ell_range or (levels, HO_ELL_MAX)))
    return [verify_ho(w, ell, levels) for w, ell in zip(omegas, ells)]


def cubic0_draws(rng: random.Random, k: int, levels: int) -> list[Op]:
    ells = strata(rng, k, *CUBIC0_ELL, log=True)
    # The open end at 25: a draw of exactly 25.0 moves up by one ulp.
    return [verify_cubic0(max(ell, math.nextafter(CUBIC0_ELL[0], math.inf)), levels)
            for ell in ells]


def _series(op: Op, points: tuple[int, ...], name: str) -> list[Op]:
    """The same verify call at grid steps h, h/2, h/4."""
    return [Op(op.kind, op.argv + ("--points", str(p)), op.params, name)
            for p in points]


def oracle_round(rng: random.Random) -> list[Op]:
    """ORACLE_DRAWS verify calls per (target, level count), plus
    ORACLE_SERIES refinement series each for ho and cubic0 at SERIES_LEVELS
    levels."""
    ops = []
    for levels in range(1, 5):
        ops += ho_draws(rng, ORACLE_DRAWS, levels)
        ops += cubic0_draws(rng, ORACLE_DRAWS, levels)
    ops += [verify_toboggan1(ell)
            for ell in strata(rng, ORACLE_DRAWS, *TOBOGGAN1_ELL)]
    ho_series = ho_draws(rng, ORACLE_SERIES, SERIES_LEVELS, HO_SERIES_ELL)
    cubic0_series = cubic0_draws(rng, ORACLE_SERIES, SERIES_LEVELS)
    for k in range(ORACLE_SERIES):
        ops += _series(ho_series[k], HO_SERIES, f"series-ho-{k}")
        ops += _series(cubic0_series[k], CUBIC0_SERIES, f"series-cubic0-{k}")
    return ops


# --- table inputs --------------------------------------------------------------

# 25,000 points for each of N = 0..3: 10^5 contour samples per format and
# round.  Keeping each operation near 0.1-0.3 s gives about ten rounds in a
# 20 s run, so the medians rest on over a hundred samples.
CONTOUR_COUNT = 25_000
FIG1_COUNT = 8_000
FIG2_RHO_POINTS = 600
FIG3_ELL_POINTS = 2_500
SPECTRUM_LEVELS = 2_500


def contour(rng: random.Random, winding: int, count: int) -> dict:
    half = rng.uniform(4.0, 8.0)
    return {"N": winding, "eps": rng.uniform(0.5, 2.0),
            "s_min": -half, "s_max": half, "count": count}


def contour_argv(p: dict) -> list[str]:
    return ["contour", "--N", str(p["N"]), "--eps", _num(p["eps"]),
            "--s-min", _num(p["s_min"]), "--s-max", _num(p["s_max"]),
            "--count", str(p["count"])]


def fig1(rng: random.Random, count: int) -> dict:
    half = rng.uniform(4.0, 8.0)
    return {"eps": rng.uniform(0.5, 2.0), "s_min": -half, "s_max": half,
            "count": count}


def fig1_argv(p: dict) -> list[str]:
    return ["figure", "fig1", "--eps", _num(p["eps"]), "--s-min", _num(p["s_min"]),
            "--s-max", _num(p["s_max"]), "--count", str(p["count"])]


def fig2(rng: random.Random, points: int) -> dict:
    return {"rho_min": _log_uniform(rng, 1e-10, 1e-8),
            "rho_max": _log_uniform(rng, 1e-3, 1e-2), "points": points}


def fig2_argv(p: dict) -> list[str]:
    return ["figure", "fig2", "--rho-min", _num(p["rho_min"]),
            "--rho-max", _num(p["rho_max"]), "--rho-points", str(p["points"])]


def fig3(rng: random.Random, points: int) -> dict:
    return {"ell_min": _log_uniform(rng, 1e1, 1e3),
            "ell_max": _log_uniform(rng, 1e7, 1e9), "points": points}


def fig3_argv(p: dict) -> list[str]:
    return ["figure", "fig3", "--ell-min", _num(p["ell_min"]),
            "--ell-max", _num(p["ell_max"]), "--ell-points", str(p["points"])]


def spectrum(rng: random.Random, levels: int) -> dict:
    return {"N": rng.randrange(4), "ell": _log_uniform(rng, 1.0, 1e4),
            "levels": levels}


def spectrum_argv(p: dict) -> list[str]:
    return ["spectrum", "--N", str(p["N"]), "--ell", _num(p["ell"]),
            "--levels", str(p["levels"])]


def tables_round(rng: random.Random) -> list[Op]:
    """Dense tables, each once in CSV and once in JSON: contours N = 0..3,
    the three figures and one long spectrum.  No call reaches eigensolver."""
    ops = []
    for winding in range(4):
        p = contour(rng, winding, CONTOUR_COUNT)
        ops += _both_formats("contour", contour_argv(p), p, f"contour-{winding}")
    p = fig1(rng, FIG1_COUNT)
    ops += _both_formats("fig1", fig1_argv(p), p, "fig1")
    p = fig2(rng, FIG2_RHO_POINTS)
    ops += _both_formats("fig2", fig2_argv(p), p, "fig2")
    p = fig3(rng, FIG3_ELL_POINTS)
    ops += _both_formats("fig3", fig3_argv(p), p, "fig3")
    p = spectrum(rng, SPECTRUM_LEVELS)
    ops += _both_formats("spectrum", spectrum_argv(p), p, "spectrum")
    return ops


# --- cold CLI inputs -------------------------------------------------------------

# Draws of each cli_cold command per round.
CLI_DRAWS = 2


def cli_round(rng: random.Random) -> list[Op]:
    """CLI_DRAWS of each of the seven commands at default sizes (CSV tables)."""
    ops = []
    for _ in range(CLI_DRAWS):
        p = contour(rng, rng.randrange(4), 321)
        ops.append(Op("contour", tuple(contour_argv(p)), p))
        p = spectrum(rng, 5)
        ops.append(Op("spectrum", tuple(spectrum_argv(p)), p))
        p = fig1(rng, 321)
        ops.append(Op("fig1", tuple(fig1_argv(p)), p))
        p = fig2(rng, 25)
        ops.append(Op("fig2", tuple(fig2_argv(p)), p))
        p = fig3(rng, 25)
        ops.append(Op("fig3", tuple(fig3_argv(p)), p))
        ops += cubic0_draws(rng, 1, 2)
        ops += ho_draws(rng, 1, 3)
    return ops


ROUNDS = {
    "cli_cold": cli_round,
    "oracle_sweep": oracle_round,
    "tables_bulk": tables_round,
}


def make_round(workload: str, seed: int) -> list[Op]:
    return ROUNDS[workload](random.Random(f"{workload}:{seed}"))
