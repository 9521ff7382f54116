"""Every function, class and method in the package is reached from the
package itself: code that only tests call belongs in the tests.

The check is by name. A definition counts as reached when its name occurs
anywhere in the package as a name, an attribute or a whole string constant
(`METHODS` tuples name contract methods by string). So one used name covers
every definition that shares it: a test-only `Chain.advance` once hid behind
the `Vm.advance` that `Vm.advance_to` calls.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "commitlotto"

# names no command reaches yet, each kept for its known consumer
KEEP = {
    "compute_ntxid": "the benchmark's tracer wraps it as a layer until its workloads change",
    "export_log_jsonl": "the structured trace (ROADMAP 5) and CHAIN_LOG_GOLDEN read it",
    "adversary_library": "exact dominance and the minimax search (ROADMAP 14, 19) read it",
}


def definitions_and_uses() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return defined, used


def test_every_definition_is_reached_from_the_package():
    defined, used = definitions_and_uses()
    unreached = {
        name: where for name, where in defined.items()
        if name not in used and name not in KEEP and not (name.startswith("__") and name.endswith("__"))
    }
    assert not unreached, f"no package code uses {sorted(unreached.items())}"


def test_every_kept_name_is_defined_and_still_unreached():
    # a kept name that the package starts to use, or deletes, leaves the list
    defined, used = definitions_and_uses()
    assert {name for name in KEEP if name in defined and name not in used} == set(KEEP)


# the views a strategy is asked with; `SigningView` lives in `scaffold` and
# carries the whole tournament for a verifying signer
VIEWS = ("CommitView", "OpenView", "BroadcastView")


def test_every_view_field_is_read_by_a_strategy():
    # "a view carries only what some strategy reads": a runtime passes view
    # fields by keyword, so the name-based check above cannot see them
    tree = ast.parse((PACKAGE / "strategies.py").read_text())
    fields = {
        f"{node.name}.{stmt.target.id}": stmt.target.id
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in VIEWS
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
    }
    assert {name.split(".")[0] for name in fields} == set(VIEWS)
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "view"
    }
    unread = sorted(name for name, attr in fields.items() if attr not in read)
    assert not unread, f"no strategy reads {unread}"
