"""The table writer's JSON is what json.dumps(payload, indent=2) writes, and
its CSV what writing one row at a time gives, across its blocks of rows."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toboggan import cli
from toboggan.cli import _write_table
from toboggan.spectra import SpectrumTable

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22,
               1.7976931348623157e308, -1.7976931348623157e308]
EDGE_TEXTS = ['"', "\\", '\\"', "a\"b\\c", "ünïcødé", "日本", "\U0001d11e", "\n\t",
              "%", "%r", ""]
CELLS = {
    float: st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
    int: st.integers(),
    str: st.text() | st.sampled_from(EDGE_TEXTS),
}
NAMES = st.text(min_size=1) | st.sampled_from(EDGE_TEXTS[:-1])


@st.composite
def tables(draw):
    """(header, rows, meta, key): a plain list of records when key is None,
    else an envelope whose meta may share names with the header."""
    header = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    types = [draw(st.sampled_from(list(CELLS))) for _ in header]
    rows = draw(st.lists(st.tuples(*(CELLS[kind] for kind in types)),
                         min_size=1, max_size=6))  # every command writes a row
    if not draw(st.booleans()):
        return tuple(header), rows, None, None
    # The envelope repeats at most all but one column, so a record keeps a field.
    dropped = draw(st.lists(st.sampled_from(header), max_size=len(header) - 1,
                            unique=True))
    names = draw(st.lists(NAMES.filter(lambda name: name not in header),
                          max_size=3, unique=True))
    meta = {name: draw(CELLS[float] | CELLS[int] | CELLS[str])
            for name in dropped + names}
    key = draw(NAMES.filter(lambda name: name not in meta))
    return tuple(header), rows, meta, key


@given(tables())
def test_json_table_equals_json_dumps_indent_2(table):
    header, rows, meta, key = table
    records = [{k: v for k, v in zip(header, row) if k not in (meta or {})}
               for row in rows]
    payload = {**meta, key: records} if key else records
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(argparse.Namespace(format="json", output=None), header,
                     [list(column) for column in zip(*rows)], meta, key)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


# The first row goes out alone, the rest in blocks of BLOCK_ROWS: one block
# minus one row, exactly one block and two blocks plus one row, with the
# first row on either side of each boundary.
BLOCK = cli.BLOCK_ROWS
BOUNDARY_ROWS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 2 * BLOCK + 2]


@pytest.mark.parametrize("levels", BOUNDARY_ROWS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_table_across_blocks_is_its_row_by_row_text(capsys, monkeypatch, fmt,
                                                           levels):
    monkeypatch.setenv("TOBOGGAN_PRECISION", "7")
    table = SpectrumTable.closed_form(1, 9.0, levels)
    header = ("N", "ell", "rho", "n", "E", "F", "G", "source")
    assert len(table.energy) == len(table.rescaled) == levels
    rows = [(table.winding_number, table.ell, table.rho, n, table.energy[n],
             table.rescaled[n], table.gap, "closed_form") for n in range(levels)]
    assert cli.main(["spectrum", "--N", "1", "--ell", "9", "--levels", str(levels),
                     "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        records = [{k: v for k, v in zip(header, row) if k != "rho"} for row in rows]
        assert out == json.dumps({"rho": table.rho, "entries": records}, indent=2) + "\n"
    else:
        lines = [",".join(cell if type(cell) is str else
                          "%.7g" % cell if type(cell) is float else str(cell)
                          for cell in row) for row in rows]
        assert out == ",".join(header) + "\n" + "".join(line + "\n" for line in lines)
