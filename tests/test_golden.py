"""The CLI against its golden corpus (tests/golden): every case's exit code,
stdout and stderr, byte for byte, with TOBOGGAN_PRECISION unset, COLUMNS=80
(argparse wraps its usage lines at that width) and the repository root as
cwd.  Each case runs in process and again cold, as a fresh
`python -W error -m toboggan.cli`.  tests/golden/regenerate.py rewrites the
corpus."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toboggan.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
IDS = [case["name"] for case in CASES]


def test_corpus_holds_one_stdout_file_per_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(IDS)


def test_corpus_lists_the_script_cases_in_order():
    """A case added to regenerate.py but never regenerated fails here."""
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    assert [(case["name"], case["argv"]) for case in CASES] \
        == list(regenerate.CASES.items())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_output_is_the_golden_bytes(capsys, monkeypatch, case):
    monkeypatch.delenv("TOBOGGAN_PRECISION", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cold_output_is_the_golden_bytes(case):
    env = {**os.environ, "PYTHONPATH": "src", "COLUMNS": "80"}
    env.pop("TOBOGGAN_PRECISION", None)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "toboggan.cli", *case["argv"]],
                          cwd=ROOT, env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (case["exit"], case["stderr"].encode("utf-8"))
    assert done.stdout == (GOLDEN / f"{case['name']}.out").read_bytes()
