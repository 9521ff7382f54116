"""The package runs on the standard library alone."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "commitlotto"


def absolute_imports(path: Path) -> list[str]:
    """The top-level name of every absolute import in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    allowed = {"__future__", "commitlotto"} | set(sys.stdlib_module_names)
    for path in modules:
        outside = set(absolute_imports(path)) - allowed
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_package_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
