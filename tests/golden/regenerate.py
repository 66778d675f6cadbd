"""Rewrite the golden corpus of CLI output in this directory.

Each case is one argv run through toboggan.cli.main() in process, from the
repository root (a --config path is relative to it), with TOBOGGAN_PRECISION
unset and COLUMNS=80: argparse wraps its usage lines at the width that
COLUMNS, or else the terminal, gives.  cases.json lists every case's name,
argv, exit code and stderr; <name>.out holds its stdout.  tests/test_golden.py
compares the program against these files byte for byte, in process and as a
fresh `python -W error -m toboggan.cli` per case, so a change that moves
output on purpose reruns this script and shows the moved bytes in `git diff`:

    PYTHONPATH=src python tests/golden/regenerate.py

verify's solved reports are left out: their last digits depend on the CPU.
Its argv that fail before solving are CPU-independent and are kept.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HUGE = "100000000000000000000000"  # more items than any table can hold

SMALL = {
    "contour": ["contour", "--count", "5"],
    "contour-n2": ["contour", "--N", "2", "--eps", "0.5", "--s-min", "-2",
                   "--s-max", "3", "--count", "7"],
    "spectrum": ["spectrum", "--ell", "4"],
    "spectrum-n1-large-ell": ["spectrum", "--N", "1", "--ell", "1e8", "--levels", "3"],
    "spectrum-n3": ["spectrum", "--N", "3", "--ell", "50", "--levels", "4"],
    "fig1": ["figure", "fig1", "--count", "5"],
    "fig2": ["figure", "fig2", "--rho-points", "3"],
    "fig3": ["figure", "fig3", "--ell-points", "3"],
}

# Each case by name: every small table in CSV and in JSON, then edge sizes
# and the error lines.
CASES = {
    **{f"{name}-csv": argv for name, argv in SMALL.items()},
    **{f"{name}-json": [*argv, "--format", "json"] for name, argv in SMALL.items()},
    "contour-two-points": ["contour", "--N", "1", "--count", "2"],
    "spectrum-small-ell": ["spectrum", "--ell", "0.1", "--levels", "2"],
    "fig2-narrow-json": ["figure", "fig2", "--rho-min", "1e-6", "--rho-max", "1e-3",
                         "--rho-points", "1", "--format", "json"],
    "fig3-two-points": ["figure", "fig3", "--ell-min", "10", "--ell-max", "1e4",
                        "--ell-points", "2"],
    "error-spectrum-negative-ell": ["spectrum", "--ell", "-1"],
    "error-spectrum-no-ell": ["spectrum"],
    "error-spectrum-no-levels": ["spectrum", "--ell", "4", "--levels", "0"],
    "error-spectrum-huge-levels": ["spectrum", "--ell", "4", "--levels", HUGE],
    "error-contour-negative-eps": ["contour", "--eps", "-1"],
    "error-contour-negative-n": ["contour", "--N", "-1"],
    "error-contour-count-not-int": ["contour", "--count", "x"],
    "error-fig1-nan-s-min": ["figure", "fig1", "--s-min", "nan"],
    "error-fig2-no-rho-points": ["figure", "fig2", "--rho-points", "0"],
    "error-fig3-zero-ell-min": ["figure", "fig3", "--ell-min", "0"],
    "error-verify-ho-no-levels": ["verify", "ho", "--levels", "0"],
    # l = 1e12: tol cannot tell the closed-form levels apart, for one level
    # as for two.
    "error-verify-cubic0-huge-ell": ["verify", "cubic0", "--ell", "1e12"],
    "error-verify-cubic0-huge-ell-one-level": ["verify", "cubic0", "--ell", "1e12",
                                               "--levels", "1"],
    # l = 0.6: the n = 1 seed is too near the other family's level to reach
    # its own in 200 sweeps.
    "error-verify-ho-small-ell": ["verify", "ho", "--ell", "0.6", "--levels", "2"],
    # A size above sys.maxsize // 16 fails before anything is built, with the
    # line that names the command's size option.
    "error-contour-huge-count": ["contour", "--count", HUGE],
    "error-fig1-huge-count": ["figure", "fig1", "--count", HUGE],
    "error-fig2-huge-rho-points": ["figure", "fig2", "--rho-points", HUGE],
    "error-fig3-huge-ell-points": ["figure", "fig3", "--ell-points", HUGE],
    "error-verify-ho-huge-points": ["verify", "ho", "--points", HUGE],
    # Only ho has a frequency.
    "error-verify-cubic0-omega": ["verify", "cubic0", "--omega", "-5"],
    "error-verify-toboggan1-omega-nan": ["verify", "toboggan1", "--omega", "nan"],
    "error-verify-ho-ell-not-float": ["verify", "ho", "--ell", "x"],
    # --config's values go in as flags after the subcommand.
    "config-spectrum-json": ["--config", "tests/golden/config.json", "spectrum",
                             "--ell", "4"],
}


def main() -> None:
    from toboggan.cli import main as toboggan_main

    os.environ.pop("TOBOGGAN_PRECISION", None)
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    for stale in HERE.glob("*.out"):
        stale.unlink()
    index = []
    for name, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = toboggan_main(argv)
        (HERE / f"{name}.out").write_text(out.getvalue(), encoding="utf-8", newline="")
        index.append({"name": name, "argv": argv, "exit": code, "stderr": err.getvalue()})
    with open(HERE / "cases.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(index)} cases to {HERE}")


if __name__ == "__main__":
    main()
