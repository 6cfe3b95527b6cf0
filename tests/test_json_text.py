"""cli._json_text, the writer behind every --json report, against
json.dumps(value, indent=2): a derandomized hypothesis property over nested
values, every golden JSON case, and one report of each subcommand."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrpfermat import cli
from rrpfermat.cli import _json_text, main, shipped_q_list_path

CASES = json.loads((Path(__file__).parent / "golden" / "cli_cases.json").read_text(encoding="utf-8"))

# Any code point, lone surrogates included, and the ones json escapes drawn
# often: quotes, backslashes, control characters and non-ASCII text.
TEXT = st.text(st.characters(blacklist_categories=())
               | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀"]))
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(VALUES)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [{}, [()]]})
@example([2**64, -(2**64) - 1, -1, 0, True, False, None, math.nan, math.inf, -math.inf, 0.1])
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "x": 0.1, "t": True, "n": None})
@example({"\"\\\n\x01é\ud800": "\"\\\n\x01é\ud800"})
def test_the_writer_is_json_dumps_indent_2(value):
    assert _json_text(value, "\n") == json.dumps(value, indent=2)
    # Nested one level down, each line break carries the deeper indentation.
    assert _json_text([value], "\n") == json.dumps([value], indent=2)


def test_keys_that_are_not_str_and_refused_values_go_to_json():
    odd_keys = {1: [], 2.5: {}, None: 1, True: "x", False: [1.5], "k": {3: None}}
    for value in (odd_keys, [odd_keys], {"outer": odd_keys}):
        assert _json_text(value, "\n") == json.dumps(value, indent=2)
    for value in (object(), [1, object()], {"k": {1}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value, "\n")


JSON_CASES = [c for c in CASES if c["stdout"].startswith("{")]


@pytest.mark.parametrize("case", JSON_CASES, ids=[" ".join(c["argv"]) for c in JSON_CASES])
def test_every_golden_report_is_json_dumps_of_itself(case):
    report = json.loads(case["stdout"])
    assert _json_text(report, "\n") + "\n" == case["stdout"]
    assert json.dumps(report, indent=2) + "\n" == case["stdout"]


@pytest.mark.parametrize("argv", [
    ["check-q", "--r", "199", "--json"],
    ["scan-q", "--max-r", "150", "--expect", shipped_q_list_path(), "--json"],
    ["check-quad", "--d", "5", "--r", "199", "--theorem", "--json"],
    ["frey", "--r", "23", "--x", "3", "--y", "2", "--json"],
])
def test_each_subcommand_report_is_json_dumps(argv, monkeypatch, capsys):
    # Every call of the writer, at every depth and on the report's own
    # objects (tuples, NamedTuple fields), is compared with json.dumps.
    real = cli._json_text
    calls = []

    def checking(value, indent):
        text = real(value, indent)
        calls.append((value, indent, text))
        return text

    monkeypatch.setattr(cli, "_json_text", checking)
    main(argv)
    out = capsys.readouterr().out
    report, indent, _ = calls[-1]  # the top-level call returns last
    assert indent == "\n" and len(calls) > 1
    for value, indent, text in calls:
        assert text == json.dumps(value, indent=2).replace("\n", indent)
    assert out == json.dumps(report, indent=2) + "\n"
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
