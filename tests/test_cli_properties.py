"""Properties of every CLI command: a run ends in one of three ways, and the
same argv gives the same bytes.

A command is drawn with options from the union of every command's flags,
most of them its own, so that both the working paths and the usage errors
are reached.  Exit 0 must print only finite numbers and nothing on stderr;
exit 1 must print nothing on stdout and exactly one `toboggan: error:` line;
exit 2, a verification failure, is allowed for verify alone.  Counts are
drawn small, so that no example builds a large table or grid, or above
cli.MAX_COUNT, where main() ends the run in one line naming the count's
option before anything is built.  Counts in between could really allocate
and are not drawn.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from toboggan import cli

PARSER = cli.build_parser()
FLAGS = PARSER.options  # every command's options by dest
COMMANDS = {words: sorted(dest for dest in vars(PARSER.parse_args(words.split()))
                          if dest in FLAGS)
            for words in ["contour", "spectrum", "figure fig1", "figure fig2", "figure fig3",
                          *(f"verify {target}" for target in cli.VERIFY_TARGETS)]}
# Each command's one size option, by dest.
SIZE = {words: PARSER.parse_args(words.split()).size for words in COMMANDS}
ABOVE_CAP = st.integers(cli.MAX_COUNT + 1, 10 ** 30)

# The largest value drawn for each integer option; the smallest is -2.
INT_MAX = {"count": 1000, "rho_points": 1000, "ell_points": 1000, "points": 2001,
           "levels": 4, "N": 1000}
FLOAT_EDGES = ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e300", "-1e300", "1e-300",
               "5e-324", "x"]
FLOATS = (st.sampled_from(FLOAT_EDGES)
          | st.floats(-1e3, 1e3, allow_nan=False).map(repr)
          | st.floats(1e-9, 1e9).map(repr)
          | st.floats(0.5, 60.0).map(repr))  # where every command has inputs it takes


def _values(dest):
    action = FLAGS[dest]
    if action.choices is not None:
        return st.sampled_from([*action.choices, "xml"])
    if action.type is int:
        small = st.integers(-2, INT_MAX[dest]).map(str) | st.sampled_from(["x", "1.5"])
        return (small | ABOVE_CAP.map(str)) if dest in SIZE.values() else small
    if action.type is float:
        return FLOATS
    return st.just(None)  # --output: a file in the example's own directory


@st.composite
def invocations(draw):
    """(words, options, config): a command, (flag dest, value) pairs drawn
    mostly from the command's own options and at times from another
    command's, and at times a --config file's (dest, value) pairs."""
    words = draw(st.sampled_from(sorted(COMMANDS)))
    dests = draw(st.lists(st.sampled_from(COMMANDS[words]), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        dests.append(draw(st.sampled_from(sorted(FLAGS))))
    config = []
    if draw(st.integers(0, 3)) == 0:
        config = draw(st.lists(st.sampled_from(sorted(FLAGS)), min_size=1, max_size=2))
    return (words, [(dest, draw(_values(dest))) for dest in dests],
            {dest: draw(_values(dest)) for dest in config})


def _run(argv):
    """main(argv) with warnings as errors: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _numbers(text):
    """Every number in a CSV table or a JSON document."""
    try:
        document = json.loads(text)
    except ValueError:  # CSV: the cells that read as numbers, nan and inf too
        for cell in text.replace("\n", ",").split(","):
            with contextlib.suppress(ValueError):
                yield float(cell)
        return
    stack = [document]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            yield float(item)


def _argv(words, options, config, output):
    """argv for the command words with the (dest, value) options as flags
    and the config pairs in a --config file beside output; a None value is
    the path output."""
    argv = words.split()
    if config:
        path = output.with_name("config.json")
        path.write_text(json.dumps({dest: str(output) if value is None else value
                                    for dest, value in config.items()}))
        argv = ["--config", str(path), *argv]
    for dest, value in options:
        argv += [FLAGS[dest].option_strings[0], str(output) if value is None else value]
    return argv


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_every_command_exits_0_1_or_2_with_the_same_bytes_each_run(invocation):
    words, options, config = invocation
    with tempfile.TemporaryDirectory() as folder:
        output = Path(folder, "out")
        argv = _argv(words, options, config, output)
        runs = []
        for _ in range(2):
            code, out, err = _run(argv)
            written = output.read_bytes() if output.exists() else None
            output.unlink(missing_ok=True)
            runs.append((code, out, err, written))
    assert runs[0] == runs[1], argv
    code, out, err, written = runs[0]
    if code == 0:
        assert err == "", argv
        text = out if written is None else written.decode()
        assert text, argv
        assert all(math.isfinite(x) for x in _numbers(text)), argv
    elif code == 1:
        assert out == "", argv
        lines = err.splitlines()
        assert err.endswith("\n") and lines[-1].startswith("toboggan: error: "), argv
        assert sum(line.startswith("toboggan: error:") for line in lines) == 1, argv
    else:
        assert code == 2 and words.startswith("verify "), argv


def _parses(value):
    """Whether argparse takes value after a flag: a word that starts with "-"
    is read as another flag unless it looks like a negative number."""
    return value not in ("x", "1.5", "xml") and (
        value is None or not value.startswith("-") or re.fullmatch(r"-\d+|-\d*\.\d+", value))


# A value argparse takes for each option: a bad one would end the run at
# parsing, before main() looks at the count.
PARSEABLE = {dest: _values(dest).filter(_parses) for dest in FLAGS}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_a_count_above_the_cap_is_one_line_naming_its_option(words, data):
    # Whatever the other options say, a size above the cap, on the command
    # line or in a config file, ends the run before the command builds or
    # writes anything.
    size = SIZE[words]
    dests = data.draw(st.lists(st.sampled_from([dest for dest in COMMANDS[words]
                                                if dest != size]), max_size=4))
    options = [(dest, data.draw(PARSEABLE[dest])) for dest in dests]
    count = data.draw(ABOVE_CAP)
    config = {}
    if data.draw(st.booleans()):
        config[size] = count
    else:
        options.append((size, str(count)))
    with tempfile.TemporaryDirectory() as folder:
        output = Path(folder, "out")
        code, out, err = _run(_argv(words, options, config, output))
        assert not output.exists()
    flag = FLAGS[size].option_strings[0]
    assert (code, out, err) == (
        1, "", f"toboggan: error: out of memory: {flag} {count} is too large\n")
