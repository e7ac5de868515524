"""The package's modules import each other in one direction:
cli -> checker -> infer -> unify/subst -> normalize -> syntax.  The checker
is the oracle for inference, so nothing inference runs on may import it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extrec"
ENGINE = ("derivation", "infer", "unify", "subst", "normalize", "kinding", "syntax")


def _relative_imports():
    """(importing module, imported module, inside a function) per import."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # `from .m import x` imports m; `from . import m` imports m
                targets = [node.module] if node.module else [a.name for a in node.names]
                found.extend((path.stem, t.split(".")[0], id(node) in local) for t in targets)
    return found


def _graph():
    graph = {path.stem: set() for path in SRC.glob("*.py")}
    for importer, imported, _ in _relative_imports():
        graph[importer].add(imported)
    return graph


def _reaches(graph, start, goal):
    seen, todo = set(), [start]
    while todo:
        m = todo.pop()
        for n in graph[m]:
            if n == goal:
                return True
            if n not in seen:
                seen.add(n)
                todo.append(n)
    return False


def test_graph_was_read():
    graph = _graph()
    assert {"checker", "cli", "infer", "syntax"} <= graph.keys()
    assert "syntax" in graph["normalize"]


def test_import_graph_has_no_cycle():
    graph = _graph()
    cyclic = sorted(m for m in graph if _reaches(graph, m, m))
    assert not cyclic


def test_only_the_front_ends_import_the_checker():
    graph = _graph()
    assert sorted(m for m in graph if "checker" in graph[m]) == ["__init__", "cli"]
    assert not [m for m in ENGINE if _reaches(graph, m, "checker")]


def test_no_relative_import_inside_a_function():
    assert not [(importer, imported) for importer, imported, local in _relative_imports() if local]
