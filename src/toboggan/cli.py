"""Command-line interface: contour samples, spectrum tables, figure data,
and verification reports comparing the finite-difference solver against the
closed formulas.  verify holds each level of every target to its closed
form within 1.25 times the oracle's predicted error: the closed form's first
omitted series term (none for the exact oscillator levels of ho) plus the
3-point scheme's leading truncation on the grid solved on.

All commands are deterministic: identical inputs give byte-identical output,
whatever the CPU count or the number of BLAS threads.  contour, spectrum and
every figure compute with CPython floats, complex numbers and libm alone and
never import numpy, so their output does not depend on the CPU's SIMD
features either; only verify loads numpy, whose SIMD paths can still move a
last digit of its values from one CPU to another.  Each command imports only
the modules it runs: import toboggan.cli loads util alone; contour and
figure fig1 add contours; spectrum, fig2 and fig3 add spectra, expansion,
rectify and potentials, never contours; verify adds eigensolver too.  Every
record, the solver's too, is a namedtuple, so no command loads dataclasses,
and none but verify loads inspect, which numpy imports.  CSV numbers carry
17 significant digits unless TOBOGGAN_PRECISION sets the count; a JSON
number is the shortest text that reads back as the same double.  Exit
status: 0 success, 1 usage or domain error, 2 verification failure.

--config FILE's values go in as --option=value flags right after the
command's words, so argparse checks them as typed and flags given later win.
Each figure and each verify target is its own subcommand with only its own
options.  main() builds the parser once per process, on its first call.
Each command has one size option (--count, --rho-points, --ell-points,
spectrum's --levels or verify's --points): main() alone reports one too
large to build, above MAX_COUNT or failing to allocate, in one line naming it.

run(), the process entry point, sets OPENBLAS_NUM_THREADS to 1 unless the
environment sets it, before numpy or scipy is imported.  OpenBLAS would
otherwise start, in numpy's copy and in scipy's, one worker thread per
further core, and those threads spin on CPU time that no command gives
them work for: the solver's dot products stay on the calling thread
(eigensolver.blocked_dot) and gttrf/gttrs are not threaded.  A value the
user sets wins, and main() called in process leaves the environment alone.

run() also turns the cyclic garbage collector off before main() and
freezes the heap after it, so the process ends with the collector off and
every object frozen.  Without that, a cold verify would run 33 collections
while numpy imports, and the exit collection would free each module's
function and dict cycles one object at a time; it skips frozen objects,
and the OS reclaims their memory at once.  No command leaves more than a
few dozen objects in cycles, however large its output, and none relies on
the collector to finish its output: --output files close in a with block
and stdout is flushed at exit.  main() touches neither setting, so library
callers, tests and in-process benchmarks keep their collector.

--output FILE is rewritten in place: opened without truncating, then cut
to its new length after the write, a raise included, so it holds exactly
what was written.  Only a regular file is cut; /dev/null, pipes and
terminals are written as they are.  Nothing is fsynced, so a process
killed mid-write may leave the old file's tail after the new bytes.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from itertools import chain, islice

from .util import linspace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# verify's margin over each level's predicted error, for the omitted orders.
SAFETY = 1.25

# Rows a table writer formats with one % and writes at once.
BLOCK_ROWS = 512

# The arguments argparse takes for negative numbers, not options: every
# negative decimal float literal, as -1, -1.5, -5. and -1e1; argparse's own
# pattern leaves out the last two forms.  Compiled with the first parser,
# not at import.
NEGATIVE_NUMBER = r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1, as `toboggan: error:`.
    An option's value may be any negative decimal float literal: argparse
    alone reads --s-min -1e1 as two options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(NEGATIVE_NUMBER)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"toboggan: error: {message}\n")


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
    _size_option(p, "--count", default=321, help="number of samples (>= 2)")
    _output_options(p)

    p = sub.add_parser("spectrum", help="closed-form levels E, F, G at fixed N, ell")
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--ell", type=float, default=None,
                   help="angular momentum (required, here or in the config file)")
    _size_option(p, "--levels", default=5)
    _output_options(p)

    # Each figure or verify target has only its own options: another's is an error.
    figures = sub.add_parser("figure", help="emit data behind the survey figures"
                             ).add_subparsers(dest="which", required=True,
                                              parser_class=_Parser)
    p = figures.add_parser("fig1", help="the N = 0, 1, 2 contours as N,s,re,im rows")
    p.add_argument("--eps", type=float, default=1.0, help="contour shift (default 1)")
    p.add_argument("--s-min", type=float, default=-8.0)
    p.add_argument("--s-max", type=float, default=8.0)
    _size_option(p, "--count", default=321)
    _output_options(p)
    p = figures.add_parser("fig2", help="rescaled levels F on a log rho grid")
    p.add_argument("--rho-min", type=float, default=1e-8)
    p.add_argument("--rho-max", type=float, default=1e-2)
    _size_option(p, "--rho-points", default=25)
    _output_options(p)
    p = figures.add_parser("fig3", help="scaled gaps G/ell^(1/5) on a log ell grid")
    p.add_argument("--ell-min", type=float, default=1e2)
    p.add_argument("--ell-max", type=float, default=1e8)
    _size_option(p, "--ell-points", default=25)
    _output_options(p)

    targets = sub.add_parser("verify", help="finite-difference check against closed forms"
                             ).add_subparsers(dest="target", required=True,
                                              parser_class=_Parser)
    for target, (winding, ell, levels) in VERIFY_TARGETS.items():
        p = targets.add_parser(target)
        p.add_argument("--ell", type=float, default=ell, help="default %(default)g")
        p.add_argument("--levels", type=int, default=levels, help="default %(default)s")
        if winding is None:  # only the oscillator has a frequency
            p.add_argument("--omega", type=float, default=1.0)
        _size_option(p, "--points", default=None, help="grid points override")
        p.add_argument("--half-width", type=float, default=None)
        p.add_argument("--eps", type=float, default=None, help="line shift override")
        p.add_argument("--tol", type=float, default=1e-9)
        _output_options(p, table=False)
    # Every command's options but --help, by dest, for --config: an option
    # that several commands have is the same option in each.
    parser.options = {action.dest: action
                      for command in [*sub.choices.values(), *figures.choices.values(),
                                      *targets.choices.values()]
                      for action in command._actions
                      if action.option_strings and action.dest != "help"}
    return parser


def _size_option(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add the one option that sizes what p's command builds, for main()."""
    p.set_defaults(size=p.add_argument(flag, type=int, **kwargs).dest)


def _output_options(p: argparse.ArgumentParser, table: bool = True) -> None:
    p.add_argument("--output", type=str, default=None,
                   help="output path (default: standard output)")
    if table:  # verify writes JSON only
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default csv)")


def _keep_length(path: str, flags: int) -> int:
    """open()'s opener for "w" without O_TRUNC, at open()'s own mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _open_output(path: str | None):
    """Standard output, or the file at `path` rewritten in place.

    The file is opened for writing without O_TRUNC and, once the body ends
    (a raise included), cut at the length written, so it holds exactly the
    bytes written, as open(path, "w") would leave it.  Only a regular file
    is cut: ftruncate fails on /dev/null, a pipe or a terminal, and those
    keep no old bytes.  Truncating a file that already holds data before
    writing costs hundreds of microseconds on some disk file systems (ext4
    mounted with discard), which cutting it after the write avoids.
    Nothing is fsynced: a process killed mid-write may leave the old
    file's tail after the new bytes, where open(path, "w") would leave a
    short file.
    """
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", opener=_keep_length) as stream:
            try:
                yield stream
            finally:
                if stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                    stream.truncate()  # at the written length


def _write_table(args: argparse.Namespace, header: tuple[str, ...], columns: tuple[list, ...],
                 meta: dict | None = None, key: str | None = None) -> None:
    """Write a table given by its columns, equally long lists of at least one
    cell, as CSV (the default) or as --format json records.

    Cells are ints, floats and strs, a column keeping its first cell's type;
    a nan or inf cell is an error, raised before anything is written.  Each
    format is a head, a %-template per row from the header and the first
    row, a separator and a tail; the rows after the first go out in blocks
    of BLOCK_ROWS, each formatted with one % on the separator and template
    repeated over the block's cells.  CSV prints ints and strings as they are
    and floats at the requested significant digits.  JSON is the list of
    records keyed by header, or with an envelope the meta fields followed by
    that list under `key` (a record leaves out any field the envelope
    carries): json.dump(..., indent=2)'s text of the document with an empty
    list, split where the records go; %r is json's text of an int or float.
    """
    for name, column in zip(header, columns):
        # A sum of finite floats can overflow, but nan and inf always show.
        if type(column[0]) is float and not math.isfinite(sum(column)):
            for number, cell in enumerate(column, 1):
                if not math.isfinite(cell):
                    raise ValueError(f"column {name} is not finite in row {number} "
                                     f"of {len(column)}: {cell!r}")
    if args.format == "json":
        import json  # only JSON tables, --config and verify read it
        meta = meta or {}
        document = json.dumps({**meta, key: []} if key else [], indent=2)
        cut = document.rindex("[]") + 1
        indent = "  " if key else ""  # of the list; a record sits one level in
        pad = indent + "  "
        kept = [(name, column) for name, column in zip(header, columns) if name not in meta]
        fields = ",\n".join(f"{pad}  {json.dumps(name).replace('%', '%%')}: "
                            + ("%s" if type(column[0]) is str else "%r")
                            for name, column in kept)
        head, record = document[:cut] + "\n", f"{pad}{{\n{fields}\n{pad}}}"
        separator, tail = ",\n", f"\n{indent}{document[cut:]}\n"
        columns = [list(map(json.dumps, column)) if type(column[0]) is str else column
                   for _, column in kept]
    else:
        float_cell = f"%.{_digits()}g"
        head, separator, tail = ",".join(header) + "\n", "\n", "\n"
        record = ",".join(float_cell if type(column[0]) is float else "%s"
                          for column in columns)
    rows = zip(*columns)
    with _open_output(args.output) as out:
        out.write(head + record % next(rows))
        record = separator + record
        block = record * BLOCK_ROWS
        while cells := tuple(chain.from_iterable(islice(rows, BLOCK_ROWS))):
            count = len(cells) // len(columns)
            out.write((block if count == BLOCK_ROWS else record * count) % cells)
        out.write(tail)


def _with_config(parser: _Parser, argv: list[str],
                 args: argparse.Namespace) -> list[str]:
    """argv with the config file's values typed in as --option=value words
    right after the command's words (`figure fig1`, `verify ho`), for the
    options that command has: argparse converts and checks them as typed,
    and the user's own flags, later in argv, win however they are spelled."""
    import json
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must contain a JSON object")
    own, words = vars(args), []  # what the given command parsed: its options by dest
    for key, value in config.items():
        if type(value) not in (str, int, float):  # null, booleans, lists, objects
            parser.error(f"config value of {key!r} is not a string or a number")
        action = parser.options.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"unknown option {key!r} in config file")
        # argparse's own message would not name the key.
        if action.choices is not None and str(value) not in action.choices:
            parser.error(f"invalid choice {value!r} for {key!r} in config file "
                         f"(choose from {', '.join(action.choices)})")
        if action.dest in own:
            words.append(f"{action.option_strings[0]}={value}")
    at = 0  # the command's first word: only --config PATH and --config=PATH precede it
    while argv[at].startswith("-"):
        at += 1 if "=" in argv[at] else 2
    while at < len(argv) and not argv[at].startswith("-"):  # its words: verify ho, ...
        at += 1
    return [*argv[:at], *words, *argv[at:]]


def _contour_columns(winding: int, args: argparse.Namespace) -> tuple[list, list, list]:
    """The s, re and im columns of one contour's samples, as the
    --eps/--s-*/--count ask."""
    from .contours import WindingContour, sample_path  # only contour and fig1 sample
    contour = WindingContour(winding, args.eps)
    points = sample_path(contour, args.s_min, args.s_max, args.count)
    return points.s, [q.real for q in points], [q.imag for q in points]


def cmd_contour(args: argparse.Namespace) -> int:
    _write_table(args, ("s", "re", "im"), _contour_columns(args.N, args),
                 {"N": args.N, "eps": args.eps}, "points")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .spectra import SpectrumTable

    if args.ell is None:
        raise ValueError("--ell is required")
    table = SpectrumTable.closed_form(args.N, args.ell, args.levels)
    levels = len(table.energy)
    columns = ([table.winding_number] * levels, [table.ell] * levels, [table.rho] * levels,
               list(range(levels)), table.energy, table.rescaled, [table.gap] * levels,
               ["closed_form"] * levels)
    _write_table(args, ("N", "ell", "rho", "n", "E", "F", "G", "source"), columns,
                 {"rho": table.rho}, "entries")
    return EXIT_OK


def _log_grid(lo: float, hi: float, count: int, flag: str) -> list[float]:
    """count points from lo to hi, evenly spaced in log10 as np.logspace
    spaces them: numpy's linspace exponents y_i from a = log10(lo) to
    b = log10(hi) (util.linspace), each raised as 10.0 ** y_i in place.
    libm's pow gives the same bits on every CPU; numpy's power does not."""
    if count < 1:
        raise ValueError(f"{flag} must be at least 1, got {count}")
    a, b = math.log10(lo), math.log10(hi)
    grid = [a] if count == 1 else linspace(a, b, count)
    try:
        for i, y in enumerate(grid):
            grid[i] = 10.0 ** y
    except OverflowError:  # hi within rounding of the largest float
        raise ValueError(f"10**log10({hi!r}) overflows") from None
    return grid


def cmd_figure(args: argparse.Namespace) -> int:
    if args.which == "fig1":
        columns = ([], [], [], [])  # the N = 0, 1, 2 curves, one after the other
        for winding in (0, 1, 2):
            curve = _contour_columns(winding, args)
            columns[0].extend([winding] * len(curve[0]))
            for column, part in zip(columns[1:], curve):
                column.extend(part)
        header = ("N", "s", "re", "im")
    elif args.which == "fig2":
        from .spectra import Ladder, density_parameter

        if not (0 < args.rho_min < args.rho_max <= 1e-2):
            raise ValueError("need 0 < rho-min < rho-max <= 1e-2")
        rhos = _log_grid(args.rho_min, args.rho_max, args.rho_points, "--rho-points")
        levels = []  # F for N = 0..3 and n = 0..4 at each rho
        for rho in rhos:
            ell = 1.0 / math.sqrt(rho) - 0.5
            scale = density_parameter(ell) ** 0.6  # as rescaled_level scales
            for winding in range(4):
                ladder = Ladder(winding, ell)
                levels += [scale * ladder.level(n) for n in range(5)]
        columns = ([rho for rho in rhos for _ in range(20)],
                   [winding for winding in range(4) for _ in range(5)] * len(rhos),
                   list(range(5)) * (4 * len(rhos)), levels)
        header = ("rho", "N", "n", "F")
    else:
        from .spectra import gap

        if not (0 < args.ell_min < args.ell_max < math.inf):
            raise ValueError("need 0 < ell-min < ell-max < inf")
        ells = _log_grid(args.ell_min, args.ell_max, args.ell_points, "--ell-points")
        columns = ([ell for ell in ells for _ in range(4)], list(range(4)) * len(ells),
                   [gap(winding, ell) / ell ** 0.2
                    for ell in ells for winding in range(4)])
        header = ("ell", "N", "G_scaled")
    _write_table(args, header, columns)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Solve one target and hold each level to its closed form within SAFETY
    times the predicted error |s_n + g_n|: s_n is the closed form's first
    omitted series term (0 for the oscillator, whose levels are exact) and
    g_n the grid's truncation error on the grid solved on, both from the
    level's record.  Every target writes one report: problem, grid, one
    record per level, the target's extras and the verdict."""
    import json
    from . import eigensolver, spectra  # only verify runs eigensolver, which loads numpy

    winding, ell, count = VERIFY_TARGETS[args.target][0], args.ell, args.levels
    if winding is None:
        model, params = "ho", {"omega": args.omega}
        problem = {"model": model, "ell": ell, **params}
    else:
        model, params = "cubic_toboggan", {"winding": winding}
        problem = {"model": model, **params, "ell": ell}
    disc = eigensolver.resolved_discretization(
        model, ell, **params, points=args.points, half_width=args.half_width, eps=args.eps)
    try:
        levels = eigensolver.low_lying(model, ell, count, tol=args.tol, grid=disc, **params)
    except (eigensolver.ShiftCollisionError, eigensolver.DegenerateEigenvaluesError) as exc:
        print(f"toboggan: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    body = {"levels": []}
    for n, level in enumerate(levels):
        value = level.eigenvalue
        tolerance = SAFETY * abs(level.series + level.grid_error)
        diff = abs(value.real - level.closed_form)
        within = diff <= tolerance and abs(value.imag) <= tolerance
        body["levels"].append({
            "n": n, "seed": level.seed, "eigenvalue": {"re": value.real, "im": value.imag},
            "residual": level.residual, "iterations": level.iterations,
            "converged": level.converged, "closed_form": level.closed_form,
            "abs_diff": diff, "tolerance": tolerance, "pass": level.converged and within})
    passed = all(record["pass"] for record in body["levels"])
    if winding is None:  # exact levels, seeded at the stationary-point estimate
        x = 2.0 * ell + 1.0
        body["approx_minus_exact"] = identity = args.omega * (x - math.sqrt(x * x - 1.0))
        body["identity_residual"] = residual = max(
            abs((level.seed - level.closed_form) - identity) for level in levels)
        # The residual is the rounding of levels of size omega*(2l+1).
        passed = passed and residual <= 16 * sys.float_info.epsilon * max(
            1.0, *(abs(e) for level in levels for e in (level.seed, level.closed_form)))
    elif winding:  # each level's distance to the paper's winding formula
        body["paper_closed_form"] = paper = [spectra.energy_toboggan(winding, ell, n)
                                             for n in range(count)]
        body["paper_abs_diff"] = [abs(level.eigenvalue.real - e)
                                  for level, e in zip(levels, paper)]
    with _open_output(args.output) as out:
        print(json.dumps({"problem": {"target": args.target, **problem},
                          "grid": {"half_width": disc.half_width, "points": disc.points,
                                   "eps": disc.shift_eps, "step": disc.step},
                          **body, "passed": passed}, indent=2), file=out)
    return EXIT_OK if passed else EXIT_VERIFY


# Per verify target: its winding number (None for the oscillator), and the
# default ell and level count.
VERIFY_TARGETS = {"ho": (None, 10.0, 3),
                  "cubic0": (0, 50.0, 2),
                  "toboggan1": (1, 50.0, 2)}


_parser: _Parser | None = None  # built by the first main() call

MAX_COUNT = sys.maxsize // 16  # numpy cannot index more complex128 items than this


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
    size = getattr(args, args.size)  # None only for verify's automatic grid
    try:
        if size is not None and size > MAX_COUNT:
            raise MemoryError  # before anything is built
        # By name at call time, so a wrapper patched onto a cmd_* applies.
        return globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"toboggan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # whatever failed to allocate, the size option asked for it
        flag = "--" + args.size.replace("_", "-")
        named = "" if size is None else f": {flag} {size} is too large"
        print(f"toboggan: error: out of memory{named}", file=sys.stderr)
        return EXIT_USAGE


def run() -> int:
    """main() as the entry point of a process: `python -m toboggan.cli` and
    the `toboggan` script.  Starts OpenBLAS with one thread unless the
    environment already sets OPENBLAS_NUM_THREADS, and runs without the
    cyclic garbage collector."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()  # the exit collection skips frozen objects


if __name__ == "__main__":
    sys.exit(run())
