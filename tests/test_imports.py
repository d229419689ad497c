"""The package imports nothing outside the standard library and itself.

pyproject.toml declares ``dependencies = []``, while the tests use sympy,
hypothesis and a matrix realization of their own; this keeps any of them
from leaking into ``src/liework``.
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liework"
ALLOWED = set(sys.stdlib_module_names) | {"liework"}


def foreign_imports(source: str, filename: str) -> list[str]:
    """'file:line: module' for each absolute import outside ALLOWED."""
    bad = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [f"{filename}:{node.lineno}: {name}" for name in names
                if name.split(".")[0] not in ALLOWED]
    return bad


def test_package_imports_only_stdlib_and_liework():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = [b for path in files for b in foreign_imports(path.read_text(), path.name)]
    assert bad == []


def test_foreign_imports_are_found():
    source = ("import math\nfrom . import exactlin\nfrom liework.chevalley import Root\n"
              "import numpy as np\ndef f():\n    from sympy import Matrix\n")
    assert foreign_imports(source, "m.py") == ["m.py:4: numpy", "m.py:6: sympy"]
