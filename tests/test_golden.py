"""The CLI against its golden corpus (tests/golden): every case's exit code,
stdout and stderr, byte for byte, run in process with TOBOGGAN_PRECISION
unset.  tests/golden/regenerate.py rewrites the corpus."""

import json
from pathlib import Path

import pytest

from toboggan.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_corpus_holds_one_stdout_file_per_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) \
        == sorted(case["name"] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_output_is_the_golden_bytes(capsys, monkeypatch, case):
    monkeypatch.delenv("TOBOGGAN_PRECISION", raising=False)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
