"""The benchmark's per-layer tracer names only attributes that exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_layers():
    """(module, attribute) of every entry of the tracer's LAYERS, read from its source."""
    tree = ast.parse(TRACER.read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    return [(entry.elts[1].value, entry.elts[2].value) for entry in layers.elts]


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    for module, attr in layers:
        owner = importlib.import_module(module)
        if "." in attr:
            # a method is patched on the class that defines it
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{module}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr)), f"{module}.{attr}"
