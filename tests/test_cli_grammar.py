"""The CLI grammar under a derandomized hypothesis strategy.  Each argv
carries at most one fault: a required flag left out, or one flag given an
edge value (at its cap, just past it or far past it; negative, zero,
non-integer or 31-digit; a missing, unreadable or malformed --expect or
--hplus-table file).  cli.main runs in-process and must answer every argv
within a wall-clock budget, and:

- the exit code is 0, 1, 2 or 64, or 70 for an unfactored Frey cofactor
  alone (a conductor leftover whose square root exceeds --smoothness-bound
  and that Miller-Rabin does not prove prime: a composite, or a number of
  at least 3317044064679887385961981; ROADMAP item 5);
- nothing escapes main, so no traceback reaches stderr;
- stderr is exactly one line on exit 64.

An accepted --smoothness-bound is drawn <= 10^5 (frey's default);
test_cli_bounds.test_frey_corner_finishes_in_bounded_time covers its cap.
"""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrpfermat.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    MAX_D,
    MAX_FREY_R,
    MAX_FREY_XY,
    MAX_SMOOTHNESS_BOUND,
    main,
    shipped_q_list_path,
)
from rrpfermat.numutil import MAX_R, is_squarefree, primes_upto

# Seconds per call.  The dearest calls drawn here (scan-q --max-r 200, frey
# at r = 31) took under 0.05 s each in-process; the budget leaves room for a
# loaded machine.
BUDGET = 3.0

HUGE = 10**30 + 57  # 31 digits
NON_INTEGERS = ["", "1.5", "0x10", "--", "٣"]
COFACTOR_ERROR = re.compile(r"error: cofactor \d+ has no prime factor <= \d+\n")


def _edges(cap: int, *more) -> st.SearchStrategy:
    """Values that probe an integer flag bounded above by cap: the cap, just
    past it, far past it, negative, zero, 31-digit and non-integer."""
    values = [cap, cap + 1, cap + 2, 10 * cap, HUGE, -HUGE, -1, 0, *more]
    return st.sampled_from([str(v) for v in values] + NON_INTEGERS)


def _ints(*strategies) -> st.SearchStrategy:
    return st.one_of(*strategies).map(str)


# Each flag: (strategy of ordinary values, strategy of edge values); a value
# None leaves an optional flag out.  File values are keys of input_files.
R_FLAG = (st.sampled_from([str(r) for r in primes_upto(MAX_R) if r >= 5]),
          _edges(MAX_R, 1, 2, 3, 4, 9, 199, 211))
FLAGS = {
    "check-q": {"--r": R_FLAG},
    "scan-q": {
        "--max-r": (_ints(st.integers(0, MAX_R)), _edges(MAX_R, 4, 5)),
        "--expect": (st.sampled_from([None, "file:q_list", "file:wrong_list", "file:empty"]),
                     st.sampled_from(["file:missing", "file:directory", "file:non_utf8",
                                      "file:bad_int"])),
    },
    "check-quad": {
        "--d": (_ints(st.sampled_from([0, max(d for d in range(MAX_D - 100, MAX_D) if is_squarefree(d))]),
                      st.integers(2, 40).filter(is_squarefree)),
                _edges(MAX_D, 1, 4, 12)),
        "--r": R_FLAG,
        "--hplus-table": (st.sampled_from([None, "file:shipped", "file:empty"]),
                          st.sampled_from(["file:missing", "file:directory", "file:non_utf8",
                                           "file:short_line", "file:bad_int", "file:bad_parity",
                                           "file:duplicate"])),
    },
    "frey": {
        "--r": (st.sampled_from([str(r) for r in primes_upto(MAX_FREY_R) if r >= 5]),
                _edges(MAX_FREY_R, 2, 3, 4, 37, 199, 211)),
        "--x": (_ints(st.integers(-12, 12), st.integers(-MAX_FREY_XY, MAX_FREY_XY),
                      st.sampled_from([MAX_FREY_XY, -MAX_FREY_XY])),
                _edges(MAX_FREY_XY, -MAX_FREY_XY - 1)),
        # Mostly primes and units, so that gcd(x, y) = 1 in most draws.
        "--y": (_ints(st.sampled_from([1, -1, 2, 3, -5, 7, 9973, -9973, MAX_FREY_XY - 1, 1 - MAX_FREY_XY]),
                      st.integers(-MAX_FREY_XY, MAX_FREY_XY)),
                _edges(MAX_FREY_XY, -MAX_FREY_XY - 1)),
        "--k": (st.sampled_from([None, "0,1,2", "1,2,3", "2,0,1"]),
                st.sampled_from(["0,1,1", "0,1", "0,1,2,3", "a,b,c", "0,1,99", "-1,0,1", ""])),
        "--smoothness-bound": (st.none() | _ints(st.integers(3, 10**5)),
                               _edges(MAX_SMOOTHNESS_BOUND, 2, -MAX_SMOOTHNESS_BOUND)),
    },
}
SWITCHES = {"check-q": ["--json"], "scan-q": ["--json"], "check-quad": ["--theorem", "--json"],
            "frey": ["--json"]}


@st.composite
def _argv(draw, command: str) -> list[str]:
    """argv for one subcommand with at most one fault, none in a third of
    the draws: one flag left out, or one flag given an edge value.  Each
    switch is on or off, and the words come in a drawn order."""
    flags = FLAGS[command]
    faults = [(None, None)] * len(flags) + [(f, k) for f in flags for k in ("drop", "edge")]
    fault, kind = draw(st.sampled_from(faults))
    words = []
    for flag, (ordinary, edge) in flags.items():
        value = draw(edge if (flag, kind) == (fault, "edge") else ordinary)
        if value is not None and (flag, kind) != (fault, "drop"):
            words.append([flag, value])
    words += [[s] for s in SWITCHES[command] if draw(st.booleans())]
    return [command] + [w for group in draw(st.permutations(words)) for w in group]


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """file:<key> -> the path that an --expect or --hplus-table value names."""
    root = tmp_path_factory.mktemp("cli-grammar")
    contents = {
        "wrong_list": b"5 7 11\n",
        "empty": b"",
        "non_utf8": b"\xff\xfe5 7 11\n",
        "bad_int": b"5 7 eleven\n2 five odd external\n",
        "short_line": b"2 5 odd\n",
        "bad_parity": b"2 5 maybe external\n",
        "duplicate": b"2 5 odd a\n2 5 odd b\n",
    }
    paths = {
        "file:q_list": shipped_q_list_path(),
        "file:shipped": str(resources.files("rrpfermat").joinpath("data/hplus_parity.txt")),
        "file:missing": str(root / "missing.txt"),
        "file:directory": str(root),
    }
    for key, data in contents.items():
        (root / key).write_bytes(data)
        paths[f"file:{key}"] = str(root / key)
    return paths


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_argv_exits_with_a_verdict_or_one_usage_line(input_files, command, data):
    argv = [input_files.get(w, w) for w in data.draw(_argv(command))]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.monotonic() - t0
    err = err.getvalue()
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_UNDETERMINED, EXIT_USAGE, EXIT_INTERNAL), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == EXIT_USAGE:
        assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)
    if code == EXIT_INTERNAL:
        assert argv[0] == "frey" and COFACTOR_ERROR.fullmatch(err), (argv, err)
    assert elapsed < BUDGET, (argv, elapsed)
