"""The benchmark under perfbench/ imports names from extrec, and its tracer
looks more up by string; each must keep resolving, so that a change cannot
delete one while the tests stay green."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_imports_resolve():
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "extrec":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    assert len(found) > 20  # the benchmark's modules were read
    missing = [
        f"{where}: from {module} import {name}"
        for where, module, name in found
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_traced_layer_functions_resolve():
    # LAYER_FUNCTIONS rows are (span name, defining module, function, ...);
    # the tracer wraps each function with getattr on the module
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    rows = next(
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets)
    )
    pairs = [(row.elts[1].value, row.elts[2].value) for row in rows]
    assert len(pairs) > 20 and ("extrec.subst", "compose") in pairs
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
