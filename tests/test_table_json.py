"""The table writer's JSON is what json.dumps(payload, indent=2) writes."""

import argparse
import contextlib
import io
import json

from hypothesis import given
from hypothesis import strategies as st

from toboggan.cli import _write_table

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
        _write_table(argparse.Namespace(format="json", output=None), header, rows,
                     meta, key)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
