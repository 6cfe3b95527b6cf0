"""The package keeps its import footprint small: no module imports
dataclasses, which pulls in inspect, ast, dis and tokenize (about 1 MB of
resident memory in every process that imports the CLI)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rrpfermat

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


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, rrpfermat.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
