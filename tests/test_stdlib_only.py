"""The package runs on the standard library alone, and its modules share
only public names."""

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


def test_no_module_imports_another_modules_private_names():
    # an underscore name is its module's own; a second user means it is
    # public and wants a public name
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


def test_the_package_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
