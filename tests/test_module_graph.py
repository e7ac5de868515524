"""The package's modules import each other in one direction:
cli -> checker -> infer -> subst -> unify -> kinding -> normalize -> syntax.
The checker is the oracle for inference, so nothing inference runs on may
import it.  Only `syntax` writes a value's slots past its constructor, but
for `normalize`'s writes of the `_nf` cache."""

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


def _slot_writes(module):
    """(line, is a call that writes the `_nf` slot) for each reference to
    `object.__new__` or `object.__setattr__` in the module."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    nf_writes = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "_nf"
    }
    return [
        (node.lineno, id(node) in nf_writes)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("__new__", "__setattr__")
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]


def test_only_syntax_writes_slots_past_the_constructors():
    # Every other module builds a value through its class; normalize may
    # only fill the `_nf` cache.
    found = {
        path.stem: [line for line, nf in _slot_writes(path.stem) if not (nf and path.stem == "normalize")]
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "syntax"
    }
    assert not {m: lines for m, lines in found.items() if lines}
    assert _slot_writes("syntax")  # the walk sees the writes it looks for
