"""The package keeps its memory footprint small: no module imports
dataclasses, which pulls in inspect, ast, dis and tokenize (about 1 MB of
resident memory in every process that imports the CLI), and element
arithmetic parks no memory on the interpreter's tuple free lists.  Its code
footprint too: no module imports a name it does not use, and each CLI
subcommand loads only the modules it runs."""

import ast
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rrpfermat
from rrpfermat import cli, criteria
from rrpfermat.cycfield import build_field

PACKAGE = Path(rrpfermat.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_dataclasses():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 13
    for path in sources:
        names = set(_imported_modules(ast.parse(path.read_text(), str(path))))
        assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def test_no_module_has_an_unused_import():
    # Only __init__.py re-exports, its import lines marked `# noqa: F401`;
    # every name any other module imports must be read in it, so a module
    # cannot alias another module's constant for its callers.
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        reexports = path.name == "__init__.py"
        assert reexports or "noqa: F401" not in text, path.name
        tree = ast.parse(text, str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            and not (reexports and "noqa: F401" in lines[node.lineno - 1])
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def _named(path: Path) -> set[str]:
    """Every name a module reads, every attribute it takes and every name it
    imports from another module."""
    tree = ast.parse(path.read_text(), str(path))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    return named


def test_only_numutil_tests_primality_or_takes_integer_square_roots():
    # Trial division lives in numutil.trial_factor, and is_prime factors
    # through it: a module that needs a primality test or a square-root bound
    # on its divisors calls numutil, so no other module names is_prime or isqrt.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "numutil.py":
            assert not _named(path) & {"is_prime", "isqrt"}, path.name


def test_only_numutil_tests_squarefreeness():
    # numutil.check_quadratic_d is the one caller of is_squarefree: the
    # verdict engine and the CLI run the rule, and every layer below takes
    # a checked d, so no other module names the test.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "numutil.py":
            assert "is_squarefree" not in _named(path), path.name


def test_only_the_field_and_the_cli_run_the_prime_rule():
    # A checked r is a RealCyclotomicField: its constructor runs
    # numutil.check_prime_r, the CLI runs it for its usage message, and every
    # other function takes the field, so no other module names the rule.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in ("numutil.py", "cycfield.py", "cli.py"):
            assert "check_prime_r" not in _named(path), path.name


def _raises(path: Path, name: str) -> list[str]:
    """The function (or class) around each `raise name` or `raise name(...)`
    in a module, one entry per raise."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == name:
                    found.append(getattr(top, "name", "<module>"))
    return found


# Each `raise ConsistencyError` is a place where two routes meet or a
# post-condition is checked; a new cross-check lands with its row here.
CONSISTENCY_CHECKS = {"classnumber": 4, "cycfield": 2, "descent": 1, "ffpoly": 5,
                      "frey": 6, "galoisring": 4, "numutil": 1, "splitting": 2}


def test_every_consistency_check_is_in_the_ledger():
    counts = {path.stem: len(_raises(path, "ConsistencyError"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {m: n for m, n in counts.items() if n} == CONSISTENCY_CHECKS


def test_criteria_builds_the_h_plus_parity_evidence():
    # No adapter between the verdict engine and the code that decides h+
    # parity: classnumber returns h_r^- and parses the table, and criteria
    # alone names the evidence methods of the condition.
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for method in ('"maillet-h-minus"', '"external-table"'):
            assert (method in text) == (path.name == "criteria.py"), (path.name, method)


def test_frey_curve_is_the_one_check_of_a_frey_input():
    # frey_curve refuses a pair that is not coprime and a singular model,
    # once each; the CLI maps the refusal and runs no gcd of its own.
    assert "gcd" not in _named(PACKAGE / "cli.py")
    assert _raises(PACKAGE / "frey.py", "NotCoprimeError") == ["frey_curve"]
    assert _raises(PACKAGE / "frey.py", "DegenerateCurveError") == ["frey_curve"]


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, rrpfermat.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# Run in a fresh interpreter: import rrpfermat.cli, make the one cli.main call
# given (none for None), print the rrpfermat submodules then loaded and
# whether hashlib is.
_LOADED = """\
import contextlib, io, json, sys
from rrpfermat import cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("rrpfermat."))
print(json.dumps([loaded, "hashlib" in sys.modules]))
"""


def _loaded_after(argv):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded, hashlib_loaded = json.loads(out.stdout)
    return set(loaded), hashlib_loaded


def test_importing_the_cli_loads_only_errors_and_numutil():
    assert _loaded_after(None) == ({"cli", "errors", "numutil"}, False)


def test_a_frey_process_loads_only_the_curve_and_the_field():
    loaded, hashlib_loaded = _loaded_after(["frey", "--r", "5", "--x", "2", "--y", "1", "--json"])
    assert loaded == {"cli", "cycfield", "errors", "frey", "intlinalg", "numutil"}
    assert not hashlib_loaded


def test_a_frey_process_loads_no_resource_or_path_modules():
    # Under -S no site-packages .pth file imports these first, so this sees
    # what the package itself loads: the shipped data paths import
    # importlib.resources and pathlib only where they are read.
    code = (
        "import contextlib, io, sys\n"
        "from rrpfermat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['frey', '--r', '5', '--x', '2', '--y', '1', '--json'])\n"
        "print(sorted(m for m in ('importlib.resources', 'pathlib') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_command_loads_importlib_resources():
    # The shipped table and the q list are found from the package's __file__.
    code = (
        "import contextlib, io, sys\n"
        "from rrpfermat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['check-quad', '--d', '2', '--r', '11', '--json'])\n"
        "    cli.main(['scan-q', '--max-r', '30', '--expect', cli.shipped_q_list_path()])\n"
        "print('importlib.resources' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [["check-q", "--r", "7", "--json"], ["scan-q", "--max-r", "30"]])
def test_the_rational_commands_load_no_curve_descent_or_digest(argv):
    loaded, hashlib_loaded = _loaded_after(argv)
    assert "criteria" in loaded
    assert not loaded & {"frey", "descent"}
    assert not hashlib_loaded


@pytest.mark.parametrize("theorem", [False, True])
def test_check_quad_loads_descent_only_with_theorem(theorem):
    argv = ["check-quad", "--d", "2", "--r", "11", "--json"] + ["--theorem"] * theorem
    loaded, hashlib_loaded = _loaded_after(argv)
    assert ("descent" in loaded) == theorem
    assert "frey" not in loaded
    assert hashlib_loaded  # the shipped h+ table is hashed into the report


def test_the_verdict_exit_codes_cover_the_three_verdicts():
    assert set(cli._VERDICT_EXIT) == {criteria.PASS, criteria.FAIL, criteria.UNDETERMINED}


def test_element_arithmetic_leaves_no_tuples_on_the_free_lists():
    # tuple(generator) allocates 10 slots and resizes, so each result of a
    # length other than 10 is freed onto a free list that no exact-length
    # allocation drained: up to 2,000 idle tuples per length, about 1 MB over
    # the seven field degrees of frey-desk.  Built from lists, the tuples
    # come from and go back to the same list.
    a = build_field(23).theta
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3000):
            b = -(3 * (a + a) - a)
        del b
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 50_000, held
