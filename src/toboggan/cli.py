"""Command-line interface: contour samples, spectrum tables, figure data,
and verification reports comparing the finite-difference solver against the
closed formulas.  verify holds each level of every target to its closed
form within 1.25 times the oracle's predicted error: the closed form's first
omitted series term (none for the exact oscillator levels of ho) plus the
3-point scheme's leading truncation on the grid solved on.

All commands are deterministic: identical inputs give byte-identical
output, whatever the CPU count or the number of BLAS threads.  spectrum
and figure fig2/fig3 compute with Python floats and libm alone and never
import numpy, so their output does not depend on the CPU's SIMD features
either; contour, fig1 and verify values go through numpy, whose SIMD paths
can still move a last digit from one CPU to another.  Numeric
fields carry 17 significant digits unless the environment variable
TOBOGGAN_PRECISION overrides the count.  Exit status: 0 success, 1 usage or
domain error, 2 verification failure.

--config FILE's values go in as --option=value flags right after the
subcommand, so argparse checks them as typed and flags given later win.
main() builds the parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from operator import itemgetter
from typing import TYPE_CHECKING

from . import spectra
from .contours import WindingContour, sample_path
from .potentials import check_frequency
from .spectra import SpectrumTable

if TYPE_CHECKING:
    from .eigensolver import EigenResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# verify's margin over each level's predicted error, for the omitted orders.
SAFETY = 1.25


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digits() -> int:
    raw = os.environ.get("TOBOGGAN_PRECISION", "") or "17"
    if not (raw.isdecimal() and 1 <= int(raw) <= 17):
        raise ValueError("TOBOGGAN_PRECISION must be an integer from 1 to 17, "
                         f"got {raw!r}")
    return int(raw)


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
    _output_options(p, table=False)
    # Each subcommand's options but --help by dest, for --config.
    parser.commands = {name: {action.dest: action for action in command._actions
                              if action.option_strings and action.dest != "help"}
                       for name, command in sub.choices.items()}
    return parser


def _output_options(p: argparse.ArgumentParser, table: bool = True) -> None:
    p.add_argument("--output", type=str, default=None,
                   help="output path (default: standard output)")
    if table:  # verify writes JSON only
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default csv)")


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as stream:
            yield stream


def _write_table(args: argparse.Namespace, header: tuple[str, ...], rows: list[tuple],
                 meta: dict | None = None, key: str | None = None) -> None:
    """Write rows, at least one, as CSV (the default) or as --format json records.

    Cells are ints, floats and strs, a column keeping its first row's type;
    a nan or inf cell is an error, raised before anything is written.  Each
    format is a head, a %-template per row from the header and the first
    row, a separator and a tail.  CSV prints ints and strings as they are
    and floats at the requested significant digits.  JSON is the list of
    records keyed by header, or with an envelope the meta fields followed by
    that list under `key` (a record leaves out any field the envelope
    carries): json.dump(..., indent=2)'s text of the document with an empty
    list, split where the records go; %r is json's text of an int or float.
    """
    for i, (name, cell) in enumerate(zip(header, rows[0])):
        # A sum of finite floats can overflow, but nan and inf always show.
        if type(cell) is float and not math.isfinite(sum(map(itemgetter(i), rows))):
            for number, row in enumerate(rows, 1):
                if not math.isfinite(row[i]):
                    raise ValueError(f"column {name} is not finite in row {number} "
                                     f"of {len(rows)}: {row[i]!r}")
    cells = iter(rows)
    if args.format == "json":
        meta = meta or {}
        document = json.dumps({**meta, key: []} if key else [], indent=2)
        cut = document.rindex("[]") + 1
        indent = "  " if key else ""  # of the list; a record sits one level in
        pad = indent + "  "
        kept = [i for i, name in enumerate(header) if name not in meta]
        texts = {i for i in kept if type(rows[0][i]) is str}
        fields = ",\n".join(f"{pad}  {json.dumps(header[i]).replace('%', '%%')}: "
                            + ("%s" if i in texts else "%r") for i in kept)
        head, record = document[:cut] + "\n", f"{pad}{{\n{fields}\n{pad}}}"
        separator, tail = ",\n", f"\n{indent}{document[cut:]}\n"
        if texts or len(kept) < len(header):
            cells = (tuple(json.dumps(row[i]) if i in texts else row[i] for i in kept)
                     for row in rows)
    else:
        float_cell = f"%.{_digits()}g"
        head, separator, tail = ",".join(header) + "\n", "\n", "\n"
        record = ",".join("%s" if isinstance(cell, (int, str)) else float_cell
                          for cell in rows[0])
    with _open_output(args.output) as out:
        out.write(head + record % next(cells))
        record = separator + record
        out.writelines(record % row for row in cells)
        out.write(tail)


def _with_config(parser: _Parser, argv: list[str],
                 args: argparse.Namespace) -> list[str]:
    """argv with the config file's values typed in as --option=value words
    right after the subcommand word, for the options that subcommand has:
    argparse converts and checks them as typed, and the user's own flags,
    later in argv, win however they are spelled."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must contain a JSON object")
    own, words = parser.commands[args.command], []
    for key, value in config.items():
        if type(value) not in (str, int, float):  # null, booleans, lists, objects
            parser.error(f"config value of {key!r} is not a string or a number")
        dest = key.replace("-", "_")
        options = [opts[dest] for opts in parser.commands.values() if dest in opts]
        if not options:
            parser.error(f"unknown option {key!r} in config file")
        for action in options:  # argparse's own message would not name the key
            if action.choices is not None and str(value) not in action.choices:
                parser.error(f"invalid choice {value!r} for {key!r} in config file "
                             f"(choose from {', '.join(action.choices)})")
        if dest in own:
            words.append(f"{own[dest].option_strings[0]}={value}")
    at = 0  # the subcommand word: only --config PATH and --config=PATH precede it
    while argv[at].startswith("-"):
        at += 1 if "=" in argv[at] else 2
    return [*argv[:at + 1], *words, *argv[at + 1:]]


def _contour_rows(winding: int, args: argparse.Namespace) -> list[tuple]:
    """(s, re, im) samples of one contour, as the --eps/--s-*/--count ask."""
    contour = WindingContour(winding, args.eps)
    points = sample_path(contour, args.s_min, args.s_max, args.count)
    return [(s, q.real, q.imag) for s, q in zip(points.s.tolist(), points)]


def cmd_contour(args: argparse.Namespace) -> int:
    _write_table(args, ("s", "re", "im"), _contour_rows(args.N, args),
                 {"N": args.N, "eps": args.eps}, "points")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.ell is None:
        raise ValueError("--ell is required")
    table = SpectrumTable.closed_form(args.N, args.ell, args.levels)
    rows = [(e.winding_number, e.ell, table.rho, e.n, e.energy, e.rescaled,
             e.gap, "closed_form") for e in table.entries]
    _write_table(args, ("N", "ell", "rho", "n", "E", "F", "G", "source"), rows,
                 {"rho": table.rho}, "entries")
    return EXIT_OK


def _log_grid(lo: float, hi: float, count: int, flag: str) -> list[float]:
    """count points from lo to hi, evenly spaced in log10 as np.logspace
    spaces them: numpy's linspace exponents, y_i = i*step + a with the last
    one b, for a, b = log10(lo), log10(hi), each raised as 10.0 ** y_i.
    libm's pow gives the same bits on every CPU; numpy's power does not."""
    if count < 1:
        raise ValueError(f"{flag} must be at least 1, got {count}")
    a, b = math.log10(lo), math.log10(hi)
    if count == 1:
        return [10.0 ** a]
    try:
        top = 10.0 ** b
    except OverflowError:  # hi within rounding of the largest float
        raise ValueError(f"10**log10({hi!r}) overflows") from None
    try:
        grid = [top] * count  # one allocation: a count too large fails here, at once
    except OverflowError:  # count above sys.maxsize
        raise MemoryError(f"{flag} {count} is too large") from None
    step = (b - a) / (count - 1)
    for i in range(count - 1):
        grid[i] = 10.0 ** (i * step + a)
    return grid


def cmd_figure(args: argparse.Namespace) -> int:
    if args.which == "fig1":
        rows = [(winding, *row) for winding in (0, 1, 2)
                for row in _contour_rows(winding, args)]
        header = ("N", "s", "re", "im")
    elif args.which == "fig2":
        if not (0 < args.rho_min < args.rho_max <= 1e-2):
            raise ValueError("need 0 < rho-min < rho-max <= 1e-2")
        rhos = _log_grid(args.rho_min, args.rho_max, args.rho_points, "--rho-points")
        ells = [1.0 / math.sqrt(rho) - 0.5 for rho in rhos]
        rows = [(rho, winding, n, spectra.rescaled_level(winding, ell, n))
                for rho, ell in zip(rhos, ells) for winding in range(4) for n in range(5)]
        header = ("rho", "N", "n", "F")
    else:
        if not (0 < args.ell_min < args.ell_max < math.inf):
            raise ValueError("need 0 < ell-min < ell-max < inf")
        ells = _log_grid(args.ell_min, args.ell_max, args.ell_points, "--ell-points")
        rows = [(ell, winding, spectra.gap(winding, ell) / ell ** 0.2)
                for ell in ells for winding in range(4)]
        header = ("ell", "N", "G_scaled")
    _write_table(args, header, rows)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Solve one target and hold each level to its closed form within SAFETY
    times the predicted error |s_n + g_n|: s_n is the closed form's first
    omitted series term (0 for the oscillator, whose levels are exact) and
    g_n the grid's truncation_errors on the grid solved on.  Every target
    writes one report: problem, grid, one record per level, the target's
    extras and the verdict."""
    from . import eigensolver  # here, not at the top: it loads numpy

    check_frequency(args.omega)  # first, for every target, as ho's HOSpec does
    winding, *defaults = VERIFY_TARGETS[args.target]
    ell, count = (default if value is None else value
                  for default, value in zip(defaults, (args.ell, args.levels)))
    if winding is None:
        model, params = "ho", {"omega": args.omega}
        problem = {"model": model, "ell": ell, **params}
    else:
        model, params = "cubic_toboggan", {"winding": winding}
        problem = {"model": model, **params, "ell": ell}
    # The solve comes first: low_lying rejects more levels than grid points,
    # and an oscillator level n >= l + 1/2, before a closed form is listed.
    disc = eigensolver.resolved_discretization(
        model, ell, **params, points=args.points, half_width=args.half_width, eps=args.eps)
    try:
        results = eigensolver.low_lying(model, ell, count, tol=args.tol, grid=disc,
                                        **params)
    except (eigensolver.ShiftCollisionError, eigensolver.DegenerateEigenvaluesError) as exc:
        print(f"toboggan: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if winding is None:  # exact levels, seeded at the stationary-point estimate
        closed = [spectra.energy_ho_exact(ell, args.omega, n) for n in range(count)]
        seeds = [spectra.energy_ho_approx(ell, args.omega, n) for n in range(count)]
        series = [0.0] * count
    else:  # the N-winding levels are the N = 0 levels
        closed = seeds = [spectra.energy_cubic(ell, n) for n in range(count)]
        series = [spectra.energy_cubic_correction(ell, n) for n in range(count)]
    grid_errors = eigensolver.truncation_errors(model, ell, disc.step, count, **params)
    body = {"levels": [_level_record(n, r, closed[n], seeds[n],
                                     SAFETY * abs(series[n] + g))
                       for n, (r, g) in enumerate(zip(results, grid_errors))]}
    passed = all(level["pass"] for level in body["levels"])
    if winding is None:
        x = 2.0 * ell + 1.0
        body["approx_minus_exact"] = identity = args.omega * (x - math.sqrt(x * x - 1.0))
        body["identity_residual"] = residual = max(abs((a - e) - identity)
                                                   for a, e in zip(seeds, closed))
        # The residual is the rounding of levels of size omega*(2l+1).
        passed = passed and residual <= 16 * sys.float_info.epsilon * max(
            1.0, *map(abs, seeds + closed))
    elif winding:  # each level's distance to the paper's winding formula
        body["paper_closed_form"] = paper = [spectra.energy_toboggan(winding, ell, n)
                                             for n in range(count)]
        body["paper_abs_diff"] = [abs(r.eigenvalue.real - e)
                                  for r, e in zip(results, paper)]
    with _open_output(args.output) as out:
        print(json.dumps({"problem": {"target": args.target, **problem},
                          "grid": {"half_width": disc.half_width, "points": disc.points,
                                   "eps": disc.shift_eps, "step": disc.step},
                          **body, "passed": passed}, indent=2), file=out)
    return EXIT_OK if passed else EXIT_VERIFY


def _level_record(n: int, result: EigenResult, closed: float, seed: float,
                  tolerance: float) -> dict:
    """One level of a verify report."""
    value = result.eigenvalue
    diff = abs(value.real - closed)
    within = diff <= tolerance and abs(value.imag) <= tolerance
    return {"n": n, "seed": seed, "eigenvalue": {"re": value.real, "im": value.imag},
            "residual": result.residual, "iterations": result.iterations,
            "converged": result.converged, "closed_form": closed, "abs_diff": diff,
            "tolerance": tolerance, "pass": bool(result.converged and within)}


# Per verify target: its winding number (None for the oscillator), and the
# default ell and level count.
VERIFY_TARGETS = {"ho": (None, 10.0, 3),
                  "cubic0": (0, 50.0, 2),
                  "toboggan1": (1, 50.0, 2)}


_parser: _Parser | None = None  # built by the first main() call


def main(argv: list[str] | None = None) -> int:
    global _parser
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if args.config is not None:
            args = _parser.parse_args(_with_config(_parser, argv, args))
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        # By name at call time, so a wrapper patched onto a cmd_* applies.
        return globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"toboggan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a table too large to build
        print("toboggan: error: out of memory", *exc.args, sep=": ", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
