"""Type inference for the extensible-record calculus.

infer computes a principal kinded typing (residual kind assignment,
substitution, canonical monotype).  One run keeps one kind assignment and
one triangular substitution, which unification updates in place; the type
assignment is resolved through the substitution only where a variable is
looked up and where a let generalizes.  The result's assignment and
substitution are read back, resolved, once at the end.

On request (want_trace) infer also returns a derivation tree for the
declarative system, which the checker validates, giving an executable
soundness oracle.  The walk records each node's judgment unsubstituted;
the tree is built by applying the final substitution once, at the end,
and only when asked for.

Failures are returned as values, tagged with the syntax case that failed
and the offending subterm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .checker import Derivation, Judgment, KindingClaim, subst_derivation
from .normalize import normalize
from .subst import apply_kind, apply_type, closure, resolve, resolve_poly
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
from .unify import UnificationError, unify_in_place


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
    out = dict(kenv)
    return out, _instantiate(out, sigma, fs)


def _instantiate(kenv: KindAssignment, sigma: PolyType, fs: FreshSupply) -> MonoType:
    """`instantiate`, adding the fresh variables' kinds to kenv in place."""
    ren: Substitution = {}
    for v, k in sigma.quants:
        fresh = fs.fresh(v.name)
        kenv[fresh] = apply_kind(ren, k)
        ren[v] = fresh
    return normalize(apply_type(ren, sigma.body))


class _Run:
    """The state one inference run updates in place: the kind assignment,
    the triangular substitution, the fresh-variable supply, and the
    (record type, value type, term) of every Extend typed."""

    def __init__(self, kenv: KindAssignment, fs: FreshSupply):
        self.kenv = dict(kenv)
        self.subst: Substitution = {}
        self.fs = fs
        self.extensions: list = []

    def unify(self, equations):
        unify_in_place(self.kenv, self.subst, equations, self.fs.fresh)

    def current(self, t: MonoType) -> MonoType:
        """t resolved through the substitution so far, normalized."""
        return normalize(resolve(self.subst, t))

    def generalize(self, tenv: TypeAssignment, t: MonoType):
        """Close t over tenv: (tenv resolved, the polytype, the quantified
        variables' kinds).  The quantified variables leave the kind
        assignment, which is left resolved."""
        gamma = {x: resolve_poly(self.subst, sigma) for x, sigma in tenv.items()}
        kenv = {v: resolve(self.subst, k) for v, k in self.kenv.items()}
        self.kenv, sigma = closure(kenv, gamma, t)
        quantified = {v: k for v, k in kenv.items() if v not in self.kenv}
        return gamma, sigma, quantified


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
    run = _Run(kenv, fs)
    out = _infer(run, tenv, term)
    if isinstance(out, InferFailure):
        return out
    t, d = out
    # The extension rule's base-variable condition is the one side
    # condition later substitutions can break: re-check it under the final
    # substitution, in the order the extensions were typed.
    for subject, value, ext in run.extensions:
        bad = _base_in_value(run.current(subject), run.current(value), ext)
        if bad is not None:
            return bad
    s = {v: resolve(run.subst, v) for v in list(run.subst)}
    k = {v: resolve(run.subst, kind) for v, kind in run.kenv.items()}
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

# The walk records judgments with this kind assignment in place of its
# own: `subst_derivation` gives every node the final one.  Only a Gen
# node's premise carries a real one, the variables it quantifies.
_FINAL_KENV: KindAssignment = {}


def _infer(run: _Run, tenv: TypeAssignment, term: Term):
    """Returns (type, unsubstituted derivation) or InferFailure.  The type is
    resolved through the substitution as it stands on return, and
    normalized; tenv is not resolved, and each node's judgment keeps it as
    it was passed."""

    if isinstance(term, Var):
        if term.name not in tenv:
            return InferFailure(
                "var", "unbound_variable", f"unbound variable {term.name}", term
            )
        sigma = resolve_poly(run.subst, tenv[term.name])
        t = _instantiate(run.kenv, sigma, run.fs)
        return t, Derivation("Var", Judgment(_FINAL_KENV, tenv, term, poly(t)))

    if isinstance(term, Const):
        t = BaseType(term.base)
        return t, Derivation("Const", Judgment(_FINAL_KENV, tenv, term, poly(t)))

    if isinstance(term, Abs):
        alpha = run.fs.fresh()
        run.kenv[alpha] = UKind()
        res = _infer(run, {**tenv, term.param: poly(alpha)}, term.body)
        if isinstance(res, InferFailure):
            return res
        t1, d1 = res
        t = Arrow(run.current(alpha), t1)
        return t, Derivation("Abs", Judgment(_FINAL_KENV, tenv, term, poly(t)), (d1,))

    if isinstance(term, App):
        res = _infer(run, tenv, term.fn)
        if isinstance(res, InferFailure):
            return res
        t1, d1 = res
        res = _infer(run, tenv, term.arg)
        if isinstance(res, InferFailure):
            return res
        t2, d2 = res
        alpha = run.fs.fresh()
        run.kenv[alpha] = UKind()
        try:
            run.unify([(t1, Arrow(t2, alpha))])
        except UnificationError as e:
            return _fail_unify("app", term, e)
        t = run.current(alpha)
        return t, Derivation("App", Judgment(_FINAL_KENV, tenv, term, poly(t)), (d1, d2))

    if isinstance(term, Let):
        res = _infer(run, tenv, term.bound)
        if isinstance(res, InferFailure):
            return res
        t1, d1 = res
        gamma1, sigma, quantified = run.generalize(tenv, t1)
        premise = replace(d1, judgment=replace(d1.judgment, kenv=quantified))
        gen = Derivation("Gen", Judgment(_FINAL_KENV, gamma1, term.bound, sigma), (premise,))
        res = _infer(run, {**gamma1, term.name: sigma}, term.body)
        if isinstance(res, InferFailure):
            return res
        t2, d2 = res
        return t2, Derivation("Let", Judgment(_FINAL_KENV, tenv, term, poly(t2)), (gen, d2))

    if isinstance(term, RecordLit):
        types, children = [], []
        for label, sub in term.fields:
            res = _infer(run, tenv, sub)
            if isinstance(res, InferFailure):
                return res
            t_i, d_i = res
            types.append((label, t_i))
            children.append(d_i)
        t = RecordType(tuple((l, run.current(t_i)) for l, t_i in types))
        d = Derivation("Rec", Judgment(_FINAL_KENV, tenv, term, poly(t)), tuple(children))
        return t, d

    field_rule = _FIELD_RULES.get(type(term))
    if field_rule is not None:
        rule, case, has_value, side, result = field_rule
        res = _infer(run, tenv, term.target)
        if isinstance(res, InferFailure):
            return res
        t_rec, d1 = res
        children = (d1,)
        if has_value:
            res = _infer(run, tenv, term.value)
            if isinstance(res, InferFailure):
                return res
            t_value, d2 = res
            if rule == "Ext":
                bad = _base_in_value(t_rec, t_value, term)
                if bad is not None:
                    return bad
            children = (d1, d2)
        a_field = run.fs.fresh()
        a_rec = run.fs.fresh()
        run.kenv[a_field] = UKind()
        run.kenv[a_rec] = side(term.label, a_field)
        eqs = [(a_field, t_value), (a_rec, t_rec)] if has_value else [(a_rec, t_rec)]
        try:
            run.unify(eqs)
        except UnificationError as e:
            return _fail_unify(case, term, e)
        t = run.current(result(a_rec, term.label, a_field))
        claim = KindingClaim(run.current(a_rec), side(term.label, run.current(a_field)))
        if rule == "Ext":
            run.extensions.append((claim.subject, t_value, term))
        d = Derivation(rule, Judgment(_FINAL_KENV, tenv, term, poly(t)), children, claim)
        return t, d

    raise TypeError(f"infer: not a term: {term!r}")
