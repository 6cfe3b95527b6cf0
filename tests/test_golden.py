"""Golden CLI corpus: every recorded invocation must reproduce its exit code
and its stdout and stderr bytes exactly.

The cases in golden/cli_cases.json cover each branch of the verdict
builders (Galois-ring and norm-residue condition (iv), ramified, inert and
unavailable quadratic bases, every rational-base exclusion), the r bound and
the frey report.  All of them use --json or fail before printing, so no
wall-clock timing appears in the recorded output.
"""

import json
from pathlib import Path

import pytest

from rrpfermat.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli_cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_cli_output(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
