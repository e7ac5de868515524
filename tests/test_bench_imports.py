"""The benchmark under perfbench/ imports names from extrec; each must keep
resolving, so that a change cannot delete one while the tests stay green."""

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
