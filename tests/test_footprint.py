"""The package keeps its memory footprint small: no module imports
dataclasses, which pulls in inspect, ast, dis and tokenize (about 1 MB of
resident memory in every process that imports the CLI), and element
arithmetic parks no memory on the interpreter's tuple free lists.  Its code
footprint too: no module imports a name it does not use."""

import ast
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import rrpfermat
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


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, rrpfermat.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
