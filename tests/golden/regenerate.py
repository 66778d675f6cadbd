"""Rewrite the golden corpus of CLI output in this directory.

Each case is one argv run through toboggan.cli.main() in process, with
TOBOGGAN_PRECISION unset.  cases.json lists every case's name, argv, exit
code and stderr; <name>.out holds its stdout.  tests/test_golden.py compares
the program against these files byte for byte, so a change that moves
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
    "error-spectrum-huge-levels": ["spectrum", "--ell", "4", "--levels",
                                   "100000000000000000000000"],
    "error-contour-negative-eps": ["contour", "--eps", "-1"],
    "error-contour-negative-n": ["contour", "--N", "-1"],
    "error-contour-count-not-int": ["contour", "--count", "x"],
    "error-fig1-nan-s-min": ["figure", "fig1", "--s-min", "nan"],
    "error-fig2-no-rho-points": ["figure", "fig2", "--rho-points", "0"],
    "error-fig3-zero-ell-min": ["figure", "fig3", "--ell-min", "0"],
    "error-verify-ho-no-levels": ["verify", "ho", "--levels", "0"],
}


def main() -> None:
    from toboggan.cli import main as toboggan_main

    os.environ.pop("TOBOGGAN_PRECISION", None)
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
