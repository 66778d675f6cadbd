"""Per-layer tracing from outside the program.

The tracer wraps public functions of the toboggan modules in place (every
module namespace that holds a reference gets the same wrapper, so a call is
counted once) and removes the wrappers again on restore().  Each wrapped call
is a span with a layer; a span's self time is its duration minus the time of
the spans it encloses.  Spans are aggregated in memory per function and per
layer, and written out as one JSON file when the run ends.

Nothing under src/ is edited: the numbers are what calls into each module's
public interface cost, as seen from the benchmark.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer, module, function names) wrapped as timed spans.
SPANS = [
    ("contours", "toboggan.contours", ["sample_path"]),
    ("spectra", "toboggan.spectra",
     ["energy_toboggan", "energy_cubic", "rescaled_level", "gap",
      "energy_error_scale", "energy_ho_exact", "energy_ho_approx"]),
    ("expansion", "toboggan.expansion",
     ["tau_general", "tau_ho", "taylor_rectified", "taylor_ho"]),
    ("rectify", "toboggan.rectify", ["rectified_potential", "weight"]),
    ("potentials", "toboggan.potentials", ["v_eff_ho", "v_eff_cubic"]),
    ("eigensolver", "toboggan.eigensolver",
     ["low_lying", "resolved_discretization", "build_tridiagonal",
      "inverse_iteration"]),
    ("cli", "toboggan.cli",
     ["cmd_contour", "cmd_spectrum", "cmd_figure", "cmd_verify"]),
]


class Tracer:
    """Aggregates spans and counters while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_incl: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_sweeps = 0
        self._stack: list[list] = []  # [layer, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def timed(self, layer: str, name: str, fn, before=None, after=None):
        """Wrap fn as a span; before(args, kwargs) and after(args, kwargs,
        result) update counters outside the span's own timing."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.layer_calls[layer] += 1
                self.incl[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.layer_self[layer] += elapsed - frame[1]
                if outermost:
                    self.layer_incl[layer] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "toboggan" or name.startswith("toboggan."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def install(self) -> None:
        import toboggan.cli
        import toboggan.eigensolver as eigensolver
        import toboggan.spectra as spectra
        import toboggan.util as util

        hooks = {
            "sample_path": {"before": lambda a, k: self._add(
                "contours.points", _arg(a, k, 3, "count"))},
            "low_lying": {"before": lambda a, k: self._add(
                "eigensolver.levels", _arg(a, k, 2, "count"))},
            "build_tridiagonal": {"after": lambda a, k, system: self._add(
                "eigensolver.grid_points", system.diag.size)},
            "inverse_iteration": {"after": self._after_sweeps},
        }
        for layer, module_name, names in SPANS:
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                self._patch_everywhere(original, self.timed(
                    layer, name, original, **hooks.get(name, {})))
        closed_form = vars(spectra.SpectrumTable)["closed_form"].__func__
        self._patch(spectra.SpectrumTable, "closed_form", classmethod(
            self.timed("spectra", "SpectrumTable.closed_form", closed_form)))
        self._patch_everywhere(util.ipow, self.counted("ipow", util.ipow))
        self._patch_everywhere(eigensolver.get_lapack_funcs,
                               self._lapack(eigensolver.get_lapack_funcs))
        self._patch_everywhere(toboggan.cli.build_parser,
                               self._parser(toboggan.cli.build_parser))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- hooks -----------------------------------------------------------------
    def _add(self, counter: str, amount: int) -> None:
        self.counts[counter] += int(amount)

    def _after_sweeps(self, args, kwargs, result) -> None:
        system = _arg(args, kwargs, 0, "system")
        self.counts["eigensolver.sweeps"] += result.iterations
        self.counts["eigensolver.point_sweeps"] += result.iterations * system.diag.size
        self.max_sweeps = max(self.max_sweeps, result.iterations)

    def _lapack(self, get_lapack_funcs):
        """Time the gttrf/gttrs routines the solver fetches."""
        def traced(names, *args, **kwargs):
            funcs = get_lapack_funcs(names, *args, **kwargs)
            return tuple(self.timed("lapack", name, f) for name, f in zip(names, funcs))
        return functools.update_wrapper(traced, get_lapack_funcs)

    def _parser(self, build_parser):
        """Time building the parser and parsing the arguments."""
        def traced():
            parser = self.timed("cli.parse", "build_parser", build_parser)()
            parser.parse_args = self.timed("cli.parse", "parse_args", parser.parse_args)
            return parser
        return functools.update_wrapper(traced, build_parser)

    # -- report ------------------------------------------------------------------
    def metrics(self, rounds: int, rows_out: int, bytes_out: int) -> dict:
        """Per-layer figures per round of the mix; max_sweeps is a maximum.

        The tracer sums over `rounds` traced rounds; rows_out and bytes_out
        are already one round's output and pass through as they are."""
        per = 1.0 / rounds
        c = self.counts
        sample_s = self.incl["sample_path"] * per
        points = c["contours.points"] * per
        write_s = self.layer_self["cli"] * per
        runs = self.calls["inverse_iteration"]
        point_sweeps = c["eigensolver.point_sweeps"] * per
        sweep_s = self.incl["inverse_iteration"] * per
        return {
            "cli.parse_s": (self.layer_incl["cli.parse"] * per, "s"),
            "cli.write_s": (write_s, "s"),
            "cli.rows_out": (rows_out, "count"),
            "cli.bytes_out": (bytes_out, "byte"),
            "cli.write_ns_per_byte": (_ratio(write_s * 1e9, bytes_out), "ns/byte"),
            "contours.sample_s": (sample_s, "s"),
            "contours.points": (points, "count"),
            "contours.ns_per_point": (_ratio(sample_s * 1e9, points), "ns"),
            "util.ipow_calls": (self.calls["ipow"] * per, "count"),
            "spectra.closed_form_s": (self.layer_incl["spectra"] * per, "s"),
            "spectra.closed_form_calls": (self.layer_calls["spectra"] * per, "count"),
            "expansion.tau_calls": (
                (self.calls["tau_general"] + self.calls["tau_ho"]) * per, "count"),
            "expansion.self_s": (self.layer_self["expansion"] * per, "s"),
            "rectify.eval_s": (self.layer_incl["rectify"] * per, "s"),
            "potentials.eval_s": (self.layer_incl["potentials"] * per, "s"),
            "eigensolver.low_lying_self_s": (self.self_time["low_lying"] * per, "s"),
            "eigensolver.assemble_s": (self.incl["build_tridiagonal"] * per, "s"),
            "eigensolver.grid_points": (c["eigensolver.grid_points"] * per, "count"),
            "eigensolver.gttrf_s": (self.incl["gttrf"] * per, "s"),
            "eigensolver.gttrf_calls": (self.calls["gttrf"] * per, "count"),
            "eigensolver.gttrs_s": (self.incl["gttrs"] * per, "s"),
            "eigensolver.sweeps": (c["eigensolver.sweeps"] * per, "count"),
            "eigensolver.sweep_self_s": (self.self_time["inverse_iteration"] * per, "s"),
            "eigensolver.point_sweeps": (point_sweeps, "count"),
            "eigensolver.ns_per_point_sweep": (_ratio(sweep_s * 1e9, point_sweeps), "ns"),
            "eigensolver.runs": (runs * per, "count"),
            "eigensolver.levels": (c["eigensolver.levels"] * per, "count"),
            "eigensolver.levels_per_run": (_ratio(c["eigensolver.levels"], runs), "1"),
            "eigensolver.max_sweeps": (self.max_sweeps, "count"),
        }

    def dump(self) -> dict:
        return {
            "functions": {name: {"calls": self.calls[name], "incl_s": self.incl[name],
                                 "self_s": self.self_time[name]}
                          for name in sorted(self.calls)},
            "layers": {layer: {"incl_s": self.layer_incl[layer],
                               "self_s": self.layer_self[layer]}
                       for layer in sorted(self.layer_self)},
            "counts": dict(self.counts),
            "max_sweeps": self.max_sweeps,
        }


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- import cost ------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Import cost of toboggan.cli from `python -X importtime` output, in s:
    total (cumulative of the top-level toboggan imports), scipy (cumulative
    of the outermost scipy imports, so what scipy pulls in counts too) and
    toboggan's own modules (self time)."""
    entries = [(len(indent) // 2, name.split(".")[0], int(self_us), int(cum_us))
               for self_us, cum_us, indent, name in _IMPORTTIME.findall(stderr)]
    total = scipy = own = 0
    # The output lists a module after the modules it imports, so reading it
    # backwards meets every module before its imports.
    ancestors: list[tuple[int, bool]] = []  # (level, inside a scipy import)
    for level, top, self_us, cum_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        inside = bool(ancestors) and ancestors[-1][1]
        if top == "scipy" and not inside:
            scipy += cum_us
        if top == "toboggan":
            own += self_us
            if level == 0:
                total += cum_us
        ancestors.append((level, inside or top == "scipy"))
    return {"import.total_s": total * 1e-6, "import.scipy_s": scipy * 1e-6,
            "import.toboggan_self_s": own * 1e-6}


def import_probe(env: dict, starts: int) -> dict:
    """Median import figures over `starts` fresh interpreters."""
    samples = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import toboggan.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {name: (statistics.median(s[name] for s in samples), "s")
            for name in samples[0]}
