"""Call-by-value evaluator for closed terms.

Record operations are checked at runtime: selecting, modifying, or
removing an absent field is an error, as is extending with a present one.
Together with inference this gives an executable type-soundness smoke
test: accepted closed programs never hit these errors.
"""

from __future__ import annotations

from .parser import quote_string
from .syntax import (
    Abs,
    App,
    Const,
    Extend,
    Frozen,
    Let,
    Modify,
    RecordLit,
    Remove,
    Select,
    Term,
    Var,
)


class EvalError(Exception):
    def __init__(self, message: str, term: Term | None = None):
        self.term = term
        super().__init__(message)


class IntV(Frozen):
    __slots__ = _fields = ("value",)


class BoolV(Frozen):
    __slots__ = _fields = ("value",)


class StringV(Frozen):
    __slots__ = _fields = ("value",)


class RecordV(Frozen):
    __slots__ = _fields = ("fields",)

    def field_map(self):
        return dict(self.fields)


class ClosureV(Frozen):
    __slots__ = _fields = ("param", "body", "env")


Value = IntV | BoolV | StringV | RecordV | ClosureV

# A record operation's runtime rule: whether its label must be present,
# and the verb of the error when it is not so
_RECORD_OPS = {
    Select: (True, "selecting"),
    Modify: (True, "modifying"),
    Remove: (True, "removing"),
    Extend: (False, "extending with"),
}


def eval_term(term: Term, env: dict | None = None) -> Value:
    env = env if env is not None else {}

    if isinstance(term, Var):
        if term.name not in env:
            raise EvalError(f"unbound variable {term.name}", term)
        return env[term.name]
    if isinstance(term, Const):
        if term.base == "Int":
            return IntV(term.value)
        if term.base == "Bool":
            return BoolV(term.value)
        return StringV(term.value)
    if isinstance(term, Abs):
        return ClosureV(term.param, term.body, tuple(env.items()))
    if isinstance(term, App):
        fn = eval_term(term.fn, env)
        arg = eval_term(term.arg, env)
        if not isinstance(fn, ClosureV):
            raise EvalError("application of a non-function", term)
        return eval_term(fn.body, {**dict(fn.env), fn.param: arg})
    if isinstance(term, Let):
        bound = eval_term(term.bound, env)
        return eval_term(term.body, {**env, term.name: bound})
    if isinstance(term, RecordLit):
        return RecordV(tuple((l, eval_term(sub, env)) for l, sub in term.fields))
    row = _RECORD_OPS.get(term.__class__)
    if row is not None:
        present, verb = row
        rec = eval_term(term.target, env)
        if not isinstance(rec, RecordV):
            raise EvalError("record operation on a non-record", term)
        fields = rec.field_map()
        if (term.label in fields) != present:
            raise EvalError(f"{verb} {'absent' if present else 'present'} field {term.label}", term)
        if term.__class__ is Select:
            return fields[term.label]
        if term.__class__ is Remove:
            del fields[term.label]
        else:
            fields[term.label] = eval_term(term.value, env)
        return RecordV(tuple(sorted(fields.items())))
    raise TypeError(f"eval_term: not a term: {term!r}")


def show_value(v: Value) -> str:
    if isinstance(v, IntV):
        return str(v.value)
    if isinstance(v, BoolV):
        return "true" if v.value else "false"
    if isinstance(v, StringV):
        return quote_string(v.value)
    if isinstance(v, RecordV):
        inner = ", ".join(f"{l} = {show_value(f)}" for l, f in v.fields)
        return "{" + inner + "}"
    return f"<fun {v.param}>"
