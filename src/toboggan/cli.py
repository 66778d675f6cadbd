"""Command-line interface: contour samples, spectrum tables, figure data,
and verification reports comparing the finite-difference solver against the
closed formulas.

All commands are deterministic (identical inputs give byte-identical
output).  Numeric fields carry 17 significant digits unless the environment
variable TOBOGGAN_PRECISION overrides the count.  Exit status: 0 success,
1 usage or domain error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
import numpy as np

from . import eigensolver, spectra
from .contours import WindingContour, sample_path
from .eigensolver import DegenerateEigenvaluesError, ShiftCollisionError
from .spectra import SpectrumTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

CUBIC_CALIBRATION_ELL = 25.0
CUBIC_SAFETY = 1.25
HO_ENVELOPE = 1e-4
HO_REFERENCE_POINTS = 6001


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digits() -> int:
    raw = os.environ.get("TOBOGGAN_PRECISION", "")
    if not raw:
        return 17
    try:
        return max(1, min(17, int(raw)))
    except ValueError:
        return 17


def build_parser() -> _Parser:
    parser = _Parser(
        prog="toboggan",
        description="Closed-form winding-contour spectra and their "
                    "finite-difference verification.",
        epilog="Set TOBOGGAN_PRECISION to override the number of significant "
               "digits in numeric output (default 17).")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with default option values "
                             "(flag names as keys; command line wins)")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("contour", help="sample a winding contour as s,re,im rows")
    p.add_argument("--N", type=int, default=0, help="winding number (default 0)")
    p.add_argument("--eps", type=float, default=1.0, help="downward shift (default 1)")
    p.add_argument("--s-min", type=float, default=-8.0)
    p.add_argument("--s-max", type=float, default=8.0)
    p.add_argument("--count", type=int, default=321, help="number of samples (>= 2)")
    _output_options(p)

    p = sub.add_parser("spectrum", help="closed-form levels E, F, G at fixed N, ell")
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--ell", type=float, default=None,
                   help="angular momentum (required, here or in the config file)")
    p.add_argument("--levels", type=int, default=5)
    _output_options(p)

    p = sub.add_parser("figure", help="emit data behind the survey figures")
    p.add_argument("which", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--eps", type=float, default=1.0, help="fig1 contour shift")
    p.add_argument("--s-min", type=float, default=-8.0)
    p.add_argument("--s-max", type=float, default=8.0)
    p.add_argument("--count", type=int, default=321)
    p.add_argument("--rho-min", type=float, default=1e-8)
    p.add_argument("--rho-max", type=float, default=1e-2)
    p.add_argument("--rho-points", type=int, default=25)
    p.add_argument("--ell-min", type=float, default=1e2)
    p.add_argument("--ell-max", type=float, default=1e8)
    p.add_argument("--ell-points", type=int, default=25)
    _output_options(p)

    p = sub.add_parser("verify", help="finite-difference check against closed forms")
    p.add_argument("target", choices=tuple(VERIFY_TARGETS))
    for i, flag, kind in ((1, "--ell", float), (2, "--levels", int)):
        p.add_argument(flag, type=kind, default=None, help="defaults: " + ", ".join(
            f"{target} {row[i]:g}" for target, row in VERIFY_TARGETS.items()))
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--points", type=int, default=None, help="grid points override")
    p.add_argument("--half-width", type=float, default=None)
    p.add_argument("--eps", type=float, default=None, help="line shift override")
    p.add_argument("--tol", type=float, default=1e-9)
    _output_options(p)
    return parser


def _output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", type=str, default=None,
                   help="output path (default: standard output)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (default csv; verify always emits JSON)")


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as stream:
            yield stream


def _write_json(args: argparse.Namespace, payload) -> None:
    with _open_output(args.output) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")


def _write_table(args: argparse.Namespace, header: tuple[str, ...], rows: list[tuple],
                 meta: dict | None = None, key: str | None = None) -> None:
    """Write rows as CSV (the default) or, with --format json, as records.

    JSON is the list of records keyed by header, or with an envelope the meta
    fields followed by that list under `key`; a record leaves out any field
    the envelope already carries.  In CSV ints and strings print as they are
    and floats at the requested number of significant digits; the line format
    is built once from the first row's cell types.
    """
    if args.format == "json":
        meta = meta or {}
        records = [{k: v for k, v in zip(header, row) if k not in meta}
                   for row in rows]
        _write_json(args, {**meta, key: records} if key else records)
        return
    float_cell = f"%.{_digits()}g"
    with _open_output(args.output) as out:
        out.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%s" if isinstance(cell, (int, str)) else float_cell
                            for cell in rows[0]) + "\n"
            out.writelines(line % row for row in rows)


def _apply_config(parser: _Parser, argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    """Re-parse with config-file values as defaults; explicit flags win."""
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        parser.error("config file must contain a JSON object")
    known = {action.dest for action in parser._actions}
    for sub_action in parser._subparsers._group_actions:
        for p in sub_action.choices.values():
            known |= {action.dest for action in p._actions}
    overrides = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.error(f"unknown option {key!r} in config file")
        overrides[dest] = value
    fresh = parser.parse_args(argv)
    explicit = _explicitly_set(argv)
    for dest, value in overrides.items():
        if dest not in explicit and hasattr(fresh, dest):
            setattr(fresh, dest, value)
    return fresh


def _explicitly_set(argv: list[str]) -> set[str]:
    names = set()
    for token in argv:
        if token.startswith("--"):
            names.add(token[2:].split("=", 1)[0].replace("-", "_"))
    return names


def _contour_rows(winding: int, args: argparse.Namespace) -> list[tuple]:
    """(s, re, im) samples of one contour, as the --eps/--s-*/--count ask."""
    contour = WindingContour(winding, args.eps)
    points = sample_path(contour, args.s_min, args.s_max, args.count)
    svals = np.linspace(args.s_min, args.s_max, args.count).tolist()
    return [(s, q.real, q.imag) for s, q in zip(svals, points)]


def cmd_contour(args: argparse.Namespace) -> int:
    _write_table(args, ("s", "re", "im"), _contour_rows(args.N, args),
                 {"N": args.N, "eps": args.eps}, "points")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.ell is None:
        raise ValueError("--ell is required")
    table = SpectrumTable.closed_form(args.N, args.ell, args.levels)
    rows = [(e.winding_number, e.ell, table.rho, e.n, e.energy, e.rescaled,
             e.gap, e.source) for e in table.entries]
    _write_table(args, ("N", "ell", "rho", "n", "E", "F", "G", "source"), rows,
                 {"rho": table.rho}, "entries")
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    if args.which == "fig1":
        rows = [(winding, *row) for winding in (0, 1, 2)
                for row in _contour_rows(winding, args)]
        header = ("N", "s", "re", "im")
    elif args.which == "fig2":
        if not (0 < args.rho_min < args.rho_max <= 1e-2):
            raise ValueError("need 0 < rho-min < rho-max <= 1e-2")
        rhos = np.logspace(math.log10(args.rho_min), math.log10(args.rho_max),
                           args.rho_points)
        rows = []
        for rho in rhos:
            ell = 1.0 / math.sqrt(rho) - 0.5
            for winding in range(4):
                for n in range(5):
                    rows.append((float(rho), winding, n,
                                 spectra.rescaled_level(winding, ell, n)))
        header = ("rho", "N", "n", "F")
    else:
        if not (0 < args.ell_min < args.ell_max < math.inf):
            raise ValueError("need 0 < ell-min < ell-max < inf")
        ells = np.logspace(math.log10(args.ell_min), math.log10(args.ell_max),
                           args.ell_points)
        rows = []
        for ell in ells:
            for winding in range(4):
                rows.append((float(ell), winding,
                             spectra.gap(winding, ell) / ell ** 0.2))
        header = ("ell", "N", "G_scaled")
    _write_table(args, header, rows)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Solve one target and write the report every target shares: problem,
    grid, one record per level, the target's extras and the verdict."""
    target, *defaults = VERIFY_TARGETS[args.target]
    given = (args.ell, args.levels, args.points)
    ell, count, points = (default if value is None else value
                          for default, value in zip(defaults, given))
    grid = {"points": points, "half_width": args.half_width, "eps": args.eps}

    def solve(model: str, ell: float, count: int, **problem):
        """low_lying's levels, and the grid it solved them on."""
        disc = eigensolver.resolved_discretization(model, ell, **problem, **grid)
        return eigensolver.low_lying(model, ell, count, tol=args.tol, **problem,
                                     **grid), disc

    # problem: the fields after "target"; body: "levels" and the target's
    # extras in report order; ok: the target's condition beside every level.
    problem, disc, body, ok = target(args, ell, count, solve)
    passed = all(level["pass"] for level in body["levels"]) and ok
    _write_json(args, {"problem": {"target": args.target, **problem},
                       "grid": {"half_width": disc.half_width, "points": disc.points,
                                "eps": disc.shift_eps, "step": disc.step},
                       **body, "passed": passed})
    return EXIT_OK if passed else EXIT_VERIFY


def _level_record(n: int, result: eigensolver.EigenResult, closed: float,
                  tolerance: float, seed: float | None = None) -> dict:
    """One level of a verify report; the seed defaults to the closed form."""
    value = result.eigenvalue
    diff = abs(value.real - closed)
    within = diff <= tolerance and abs(value.imag) <= tolerance
    return {"n": n, "seed": closed if seed is None else seed,
            "eigenvalue": {"re": value.real, "im": value.imag},
            "residual": result.residual, "iterations": result.iterations,
            "converged": result.converged, "closed_form": closed, "abs_diff": diff,
            "tolerance": tolerance, "pass": bool(result.converged and within)}


def _verify_ho(args: argparse.Namespace, ell: float, count: int, solve):
    omega = args.omega
    exact = [spectra.energy_ho_exact(ell, omega, n) for n in range(count)]
    approx = [spectra.energy_ho_approx(ell, omega, n) for n in range(count)]
    results, disc = solve("ho", ell, count, omega=omega)

    # Second-order envelope: 1e-4 at the reference grid, scaled by (h/h_ref)^2.
    reference = eigensolver.auto_discretization(4.0 * omega * omega, disc.shift_eps)
    h_ref = 2.0 * reference.half_width / (HO_REFERENCE_POINTS - 1)
    envelope = HO_ENVELOPE * max(1.0, (disc.step / h_ref) ** 2)

    records = [_level_record(n, results[n], exact[n], envelope, seed=approx[n])
               for n in range(count)]
    x = 2.0 * ell + 1.0
    identity = omega * (x - math.sqrt(x * x - 1.0))
    identity_residual = max(abs((approx[n] - exact[n]) - identity)
                            for n in range(count))
    return ({"model": "ho", "ell": ell, "omega": omega}, disc,
            {"levels": records, "approx_minus_exact": identity,
             "identity_residual": identity_residual}, identity_residual <= 1e-12)


def _verify_cubic(winding: int, args: argparse.Namespace, ell: float, count: int,
                  solve):
    """Levels of the N-winding problem against the N = 0 closed forms, in
    the envelope C*tau^(-3/4) calibrated per level on the same problem at
    l = 25.  For N >= 1 the report adds each level's distance to the
    paper's winding formula energy_toboggan."""
    if not ell > CUBIC_CALIBRATION_ELL:
        raise ValueError(
            f"{args.target} verification needs ell > {CUBIC_CALIBRATION_ELL:g} "
            "(the calibration point)")
    calib_results, _ = solve("cubic_toboggan", CUBIC_CALIBRATION_ELL, count,
                             winding=winding)
    calib_scale = spectra.energy_error_scale(0, CUBIC_CALIBRATION_ELL)
    constants = [abs(r.eigenvalue.real - spectra.energy_cubic(CUBIC_CALIBRATION_ELL, n))
                 / calib_scale for n, r in enumerate(calib_results)]

    results, disc = solve("cubic_toboggan", ell, count, winding=winding)
    scale = spectra.energy_error_scale(0, ell)
    records = [_level_record(n, results[n], spectra.energy_cubic(ell, n),
                             CUBIC_SAFETY * constants[n] * scale)
               for n in range(count)]
    calibration = {"ell": CUBIC_CALIBRATION_ELL, "constants": constants,
                   "safety": CUBIC_SAFETY}
    body = {"calibration": calibration, "levels": records}
    if winding:
        paper = [spectra.energy_toboggan(winding, ell, n) for n in range(count)]
        body["paper_closed_form"] = paper
        body["paper_abs_diff"] = [abs(r.eigenvalue.real - e)
                                  for r, e in zip(results, paper)]
    return ({"model": "cubic_toboggan", "winding": winding, "ell": ell}, disc,
            body, True)


# Per verify target: its check, and the default ell, level count and grid
# points (None: automatic).
VERIFY_TARGETS = {"ho": (_verify_ho, 10.0, 3, HO_REFERENCE_POINTS),
                  "cubic0": (partial(_verify_cubic, 0), 50.0, 2, None),
                  "toboggan1": (partial(_verify_cubic, 1), 50.0, 2, None)}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config(parser, argv, args)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    handlers = {
        "contour": cmd_contour,
        "spectrum": cmd_spectrum,
        "figure": cmd_figure,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"toboggan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ShiftCollisionError, DegenerateEigenvaluesError) as exc:
        print(f"toboggan: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
