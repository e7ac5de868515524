"""Spans and counts recorded from outside the program, around calls into
each extrec layer.

A layer boundary is a name that an importing module binds to a layer's
public function, for example `extrec.infer.unify` or
`extrec.unify.apply_type`.  The tracer replaces each such binding with a
wrapper for the duration of a `with` block and restores the originals
afterwards.  It never wraps the defining module's own global, so a
layer's recursion into itself is not counted as calls into it.  The two
exceptions are `extrec.infer.infer` and `extrec.checker.check`, which
are wrapped in their defining modules too: some callers reach them
through the defining module (a function-local import in the checker, a
module alias in the cli), and neither module calls them itself.  Calls made through a function-local import of a function
that its own module also calls (the matcher in `extrec.subst` reaching
`kinding.field_info`) are not seen; their time stays with the caller.

Each wrapper records a span (name, start, end, parent) in compact arrays
and bumps its counters.  A span's self time is its duration minus the
durations of its direct children; the children of one span never
overlap, because the program is single-threaded.

Which end-to-end metric each layer should move, and on which workload:

  parser     op_p50_ms, ops_per_s on corpus; flat on scaling
  cli        op_p50_ms on corpus
  infer      every metric on corpus and scaling
  subst      let_chain_s, extend_chain_s, growth_exp on scaling; little
             on solve
  checker    subst_derivation: let_chain_s, extend_chain_s on scaling,
             op_p50_ms on corpus; check: op_p50_ms on corpus; validate
             runs only in the reference checks and moves nothing
  unify      ops_per_s, op_tail_ms on solve; op_p50_ms on corpus
  normalize  ops_per_s, geomean_s on solve; extend_chain_s on scaling
  kinding    solve; growth_exp on scaling
  syntax     growth_exp on scaling
  interp     op_p50_ms on corpus, a little
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _chars(extra, name, args, result, exc):
    extra[name + ".chars"] += len(args[0])


def _entries(extra, name, args, result, exc):
    extra[name + ".entries"] += len(args[1])


def _out_size(extra, name, args, result, exc):
    if exc is None:
        extra[name + ".out_size"] += len(result)


def _unify_counts(extra, name, args, result, exc):
    extra[name + ".eqs_in"] += len(args[1])
    if exc is None:
        extra[name + ".subst_out"] += len(result[1])
    elif type(exc).__name__ == "UnificationError":
        extra[name + ".fails"] += 1


def _infer_counts(extra, name, args, result, exc):
    if type(result).__name__ == "InferFailure":
        extra[name + ".fails"] += 1


# (span name, defining module, function, counter, also wrap the defining
# module's own global); wrapped wherever another module binds the function
LAYER_FUNCTIONS = (
    ("parser.parse_term", "extrec.parser", "parse_term", _chars, False),
    ("parser.pretty_term", "extrec.parser", "pretty_term", None, False),
    ("parser.pretty_type", "extrec.parser", "pretty_type", None, False),
    ("parser.pretty_kind", "extrec.parser", "pretty_kind", None, False),
    ("parser.pretty_poly", "extrec.parser", "pretty_poly", None, False),
    ("parser.pretty_kind_assignment", "extrec.parser", "pretty_kind_assignment", None, False),
    ("parser.pretty_subst", "extrec.parser", "pretty_subst", None, False),
    ("infer.infer", "extrec.infer", "infer", _infer_counts, True),
    ("subst.apply_assignment", "extrec.subst", "apply_assignment", _entries, False),
    ("subst.apply_type", "extrec.subst", "apply_type", None, False),
    ("subst.compose", "extrec.subst", "compose", _out_size, False),
    ("subst.closure", "extrec.subst", "closure", None, False),
    ("subst.generic_instance", "extrec.subst", "generic_instance", None, False),
    ("checker.check", "extrec.checker", "check", None, True),
    ("checker.subst_derivation", "extrec.checker", "subst_derivation", None, False),
    ("checker.validate", "extrec.checker", "validate", None, False),
    ("unify.unify", "extrec.unify", "unify", _unify_counts, False),
    ("normalize.normalize", "extrec.normalize", "normalize", None, False),
    ("normalize.equiv", "extrec.normalize", "equiv", None, False),
    ("kinding.field_info", "extrec.kinding", "field_info", None, False),
    ("kinding.wf_kind_assignment", "extrec.kinding", "wf_kind_assignment", None, False),
    ("kinding.has_kind", "extrec.kinding", "has_kind", None, False),
    ("syntax.ftv", "extrec.syntax", "ftv", None, False),
    ("syntax.eftv", "extrec.syntax", "eftv", None, False),
    ("interp.eval_term", "extrec.interp", "eval_term", None, False),
)


class Tracer:
    """Install with `with tracer:`; read `calls`, `self_s` and `extra`."""

    def __init__(self, callers, only=None):
        """`callers` are the benchmark's own modules that call into extrec;
        `only`, if given, restricts tracing to those span names."""
        self.callers = list(callers)
        self.only = only
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.names: list[str] = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span id, child time]
        self._next_id = 0
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def add_global(self, name, module, attr):
        """Wrap `module.attr` itself: the benchmark's own entry points."""
        if self.only is None or name in self.only:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), None))

    def __enter__(self):
        extrec_mods = [
            m for n, m in list(sys.modules.items()) if n == "extrec" or n.startswith("extrec.")
        ]
        for name, defining, attr, count, own_global in LAYER_FUNCTIONS:
            if self.only is not None and name not in self.only:
                continue
            home = sys.modules[defining]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count)
            for mod in extrec_mods + self.callers:
                if mod is home:
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)
            if own_global:
                self._patch(home, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _patch(self, mod, attr, wrapper):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, count):
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        extra = self.extra
        spans = (self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end)

        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if count is not None:
                    count(extra, name, args, result, exc)
                ids, parents, names, starts, ends = spans
                ids.append(span)
                parents.append(parent)
                names.append(name_idx)
                starts.append(start)
                ends.append(end)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Binary dump: one JSON header line (span names, span count), then
        the columns id, parent (int64), name index (int32), start, end
        (float64 perf_counter seconds), each in native byte order, one
        entry per span in the order the spans ended."""
        header = {"names": self.names, "spans": len(self.span_id)}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.span_id, self.span_parent, self.span_name,
                           self.span_start, self.span_end):
                column.tofile(fh)

    @property
    def span_count(self):
        return len(self.span_id)
