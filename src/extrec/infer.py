"""Type inference for the extensible-record calculus.

infer computes a principal kinded typing (residual kind assignment,
substitution, canonical monotype).  On request (want_trace) it also
returns a derivation tree for the declarative system, which the checker
validates, giving an executable soundness oracle.  The walk records each
node's judgment unsubstituted; the tree is built by applying the final
substitution once, at the end, and only when asked for.

Failures are returned as values, tagged with the syntax case that failed
and the offending subterm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checker import Derivation, Judgment, KindingClaim, subst_derivation
from .normalize import normalize
from .subst import apply_assignment, apply_kind, apply_type, closure, compose
from .syntax import (
    Abs,
    App,
    Arrow,
    BaseType,
    Const,
    Contr,
    Ext,
    Extend,
    KindAssignment,
    Let,
    Modify,
    MonoType,
    PolyType,
    RecordKind,
    RecordLit,
    RecordType,
    Remove,
    Select,
    Substitution,
    Term,
    TypeAssignment,
    TyVar,
    UKind,
    Var,
    base_of,
    ftv,
    is_extensible,
    poly,
)
from .unify import UnificationError, unify


class FreshSupply:
    """Monotone source of type-variable uids for one inference run."""

    def __init__(self, start: int = 1):
        self.next_uid = start

    def fresh(self, name: str = "") -> TyVar:
        v = TyVar(self.next_uid, name)
        self.next_uid += 1
        return v


def supply_for(*values) -> FreshSupply:
    """A supply starting above every uid reachable from the given values
    (assignments, polytypes, monotypes)."""
    seen: set[TyVar] = set()
    for x in values:
        if isinstance(x, dict):
            # a kind assignment's keys are variables, a type assignment's names
            seen.update(v for v in x if isinstance(v, TyVar))
            members = x.values()
        else:
            members = (x,)
        for y in members:
            seen |= ftv(y)
            if isinstance(y, PolyType):
                seen.update(v for v, _ in y.quants)
    return FreshSupply(max((v.uid for v in seen), default=0) + 1)


@dataclass(frozen=True)
class InferFailure:
    rule: str  # syntax case that failed: var, app, let, record, select, ...
    reason: str  # unbound_variable / base_in_value / occurs_check / kind_clash / ...
    message: str
    term: Term

    @property
    def span(self):
        return getattr(self.term, "span", None)


@dataclass(frozen=True)
class InferResult:
    kenv: KindAssignment
    subst: Substitution
    type: MonoType
    trace: Derivation | None = None


def instantiate(
    kenv: KindAssignment, sigma: PolyType, fs: FreshSupply
) -> tuple[KindAssignment, MonoType]:
    """Replace quantified variables with fresh ones, threading the renaming
    through the kinds, and extend the kind assignment accordingly."""
    ren: Substitution = {}
    out = dict(kenv)
    for v, k in sigma.quants:
        fresh = fs.fresh(v.name)
        out[fresh] = apply_kind(ren, k)
        ren[v] = fresh
    return out, normalize(apply_type(ren, sigma.body))


def infer(
    kenv: KindAssignment,
    tenv: TypeAssignment,
    term: Term,
    fs: FreshSupply | None = None,
    want_trace: bool = False,
) -> InferResult | InferFailure:
    """Principal typing of term under (kenv, tenv), or a failure value."""
    if fs is None:
        fs = supply_for(kenv, tenv)
    extensions: list = []
    out = _infer(kenv, tenv, term, fs, extensions)
    if isinstance(out, InferFailure):
        return out
    k, s, t, d = out
    # The extension rule's base-variable condition is the one side
    # condition later substitutions can break: re-check it under the final
    # substitution, in the order the extensions were typed.
    for subject, value, ext in extensions:
        bad = _base_in_value(
            normalize(apply_type(s, subject)), normalize(apply_type(s, value)), ext
        )
        if bad is not None:
            return bad
    # Every node's types avoid the domain of the substitution made before
    # it, so applying the final substitution once yields the derivation.
    return InferResult(k, s, t, subst_derivation(d, s, k) if want_trace else None)


def _base_in_value(record: MonoType, value: MonoType, term: Term) -> InferFailure | None:
    if is_extensible(record):
        base = base_of(record)
        if isinstance(base, TyVar) and base in ftv(value):
            return InferFailure(
                "extend",
                "base_in_value",
                "extended record's type occurs in the added field's type",
                term,
            )
    return None


def _fail_unify(case: str, term: Term, err: UnificationError) -> InferFailure:
    return InferFailure(case, err.reason, err.message, term)


def _lefts(label, t) -> RecordKind:
    return RecordKind(((label, t),), ())


def _rights(label, t) -> RecordKind:
    return RecordKind((), ((label, t),))


# Term class -> (rule, failure tag, has a value premise, side of the record
# kind the field goes on, result type from (a_rec, label, a_field)).
_FIELD_RULES = {
    Select: ("Sel", "select", False, _lefts, lambda rec, l, f: f),
    Modify: ("Modif", "modify", True, _lefts, lambda rec, l, f: rec),
    Remove: ("Contr", "remove", False, _lefts, Contr),
    Extend: ("Ext", "extend", True, _rights, Ext),
}


def _infer(kenv, tenv, term, fs, extensions):
    """Returns (kenv', subst, canonical type, unsubstituted derivation) or
    InferFailure.  Each node's judgment keeps the type assignment it was
    called with; `extensions` collects (record type, value type, term) for
    every Extend typed."""

    if isinstance(term, Var):
        if term.name not in tenv:
            return InferFailure(
                "var", "unbound_variable", f"unbound variable {term.name}", term
            )
        k1, t = instantiate(kenv, tenv[term.name], fs)
        return k1, {}, t, Derivation("Var", Judgment(k1, tenv, term, poly(t)))

    if isinstance(term, Const):
        t = BaseType(term.base)
        return kenv, {}, t, Derivation("Const", Judgment(kenv, tenv, term, poly(t)))

    if isinstance(term, Abs):
        alpha = fs.fresh()
        inner_kenv = {**kenv, alpha: UKind()}
        inner_tenv = {**tenv, term.param: poly(alpha)}
        res = _infer(inner_kenv, inner_tenv, term.body, fs, extensions)
        if isinstance(res, InferFailure):
            return res
        k1, s1, t1, d1 = res
        t = Arrow(normalize(apply_type(s1, alpha)), t1)
        return k1, s1, t, Derivation("Abs", Judgment(k1, tenv, term, poly(t)), (d1,))

    if isinstance(term, App):
        res = _infer(kenv, tenv, term.fn, fs, extensions)
        if isinstance(res, InferFailure):
            return res
        k1, s1, t1, d1 = res
        res = _infer(k1, apply_assignment(s1, tenv), term.arg, fs, extensions)
        if isinstance(res, InferFailure):
            return res
        k2, s2, t2, d2 = res
        alpha = fs.fresh()
        try:
            k3, s3 = unify(
                {**k2, alpha: UKind()},
                [(apply_type(s2, t1), Arrow(t2, alpha))],
                fresh=fs.fresh,
            )
        except UnificationError as e:
            return _fail_unify("app", term, e)
        s = compose(s3, compose(s2, s1))
        t = normalize(apply_type(s3, alpha))
        return k3, s, t, Derivation("App", Judgment(k3, tenv, term, poly(t)), (d1, d2))

    if isinstance(term, Let):
        res = _infer(kenv, tenv, term.bound, fs, extensions)
        if isinstance(res, InferFailure):
            return res
        k1, s1, t1, d1 = res
        gamma1 = apply_assignment(s1, tenv)
        k1r, sigma = closure(k1, gamma1, t1)
        gen = Derivation("Gen", Judgment(k1r, gamma1, term.bound, sigma), (d1,))
        res = _infer(k1r, {**gamma1, term.name: sigma}, term.body, fs, extensions)
        if isinstance(res, InferFailure):
            return res
        k2, s2, t2, d2 = res
        d = Derivation("Let", Judgment(k2, tenv, term, poly(t2)), (gen, d2))
        return k2, compose(s2, s1), t2, d

    if isinstance(term, RecordLit):
        cur_kenv, cur_tenv = kenv, tenv
        s_all: Substitution = {}
        types, children = [], []
        for label, sub in term.fields:
            res = _infer(cur_kenv, cur_tenv, sub, fs, extensions)
            if isinstance(res, InferFailure):
                return res
            cur_kenv, s_i, t_i, d_i = res
            cur_tenv = apply_assignment(s_i, cur_tenv)
            s_all = compose(s_i, s_all)
            types.append((label, t_i))
            children.append(d_i)
        # each field type avoids the domain of the substitutions made up to
        # it, so the whole substitution brings it up to date
        t = RecordType(tuple((l, normalize(apply_type(s_all, t_i))) for l, t_i in types))
        d = Derivation("Rec", Judgment(cur_kenv, tenv, term, poly(t)), tuple(children))
        return cur_kenv, s_all, t, d

    field_rule = _FIELD_RULES.get(type(term))
    if field_rule is not None:
        rule, case, has_value, side, result = field_rule
        res = _infer(kenv, tenv, term.target, fs, extensions)
        if isinstance(res, InferFailure):
            return res
        k, s, t_rec, d1 = res
        children = (d1,)
        if has_value:
            res = _infer(k, apply_assignment(s, tenv), term.value, fs, extensions)
            if isinstance(res, InferFailure):
                return res
            k, s2, t_value, d2 = res
            if rule == "Ext":
                bad = _base_in_value(t_rec, t_value, term)
                if bad is not None:
                    return bad
            s = compose(s2, s)
            t_rec = apply_type(s2, t_rec)
            children = (d1, d2)
        a_field = fs.fresh()
        a_rec = fs.fresh()
        eqs = [(a_field, t_value), (a_rec, t_rec)] if has_value else [(a_rec, t_rec)]
        try:
            k3, s3 = unify(
                {**k, a_field: UKind(), a_rec: side(term.label, a_field)},
                eqs,
                fresh=fs.fresh,
            )
        except UnificationError as e:
            return _fail_unify(case, term, e)
        t = normalize(apply_type(s3, result(a_rec, term.label, a_field)))
        claim = KindingClaim(
            normalize(apply_type(s3, a_rec)),
            side(term.label, normalize(apply_type(s3, a_field))),
        )
        if rule == "Ext":
            extensions.append((claim.subject, t_value, term))
        d = Derivation(rule, Judgment(k3, tenv, term, poly(t)), children, claim)
        return k3, compose(s3, s), t, d

    raise TypeError(f"infer: not a term: {term!r}")
