"""Type inference for the extensible-record calculus.

infer computes a principal kinded typing (residual kind assignment,
substitution, canonical monotype).  One run keeps one kind assignment and
one triangular substitution, which unification updates in place; the type
assignment is resolved through the substitution only where a variable is
looked up and where a let generalizes.  The result's assignment and
substitution are read back, resolved, once at the end.

The walk returns only each subterm's type.  On request (want_trace) the run
also keeps a stack of finished derivation nodes for the declarative system,
each judgment unsubstituted; infer applies the final substitution to the
tree once, at the end, and the checker validates it, giving an executable
soundness oracle.  Without the request no node is built.

A failure is raised at the first offending subterm in walk order; infer
returns it as a value, tagged with the syntax case that failed and that
subterm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .derivation import Derivation, Judgment, KindingClaim, subst_derivation
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


class _Failed(Exception):
    """Carries the InferFailure of its arguments out of the walk to `infer`."""

    def __init__(self, rule: str, reason: str, message: str, term: Term):
        super().__init__(message)
        self.failure = InferFailure(rule, reason, message, term)


def instantiate(kenv: KindAssignment, sigma: PolyType, fs: FreshSupply) -> MonoType:
    """Replace quantified variables with fresh ones, threading the renaming
    through the kinds, and add the fresh variables' kinds to kenv in place."""
    ren: Substitution = {}
    for v, k in sigma.quants:
        fresh = fs.fresh(v.name)
        kenv[fresh] = apply_kind(ren, k)
        ren[v] = fresh
    return normalize(apply_type(ren, sigma.body))


class _Run:
    """The state one inference run updates in place: the kind assignment,
    the triangular substitution, the fresh-variable supply, the (record
    type, value type, term) of every Extend typed, and, only when a
    derivation is wanted, the post-order stack of finished nodes."""

    def __init__(self, kenv: KindAssignment, fs: FreshSupply, want_trace: bool):
        self.kenv = dict(kenv)
        self.subst: Substitution = {}
        self.fs = fs
        self.extensions: list = []
        self.nodes: list[Derivation] | None = [] if want_trace else None

    def unify(self, equations, case: str, term: Term):
        """Unify in place; a clash fails the syntax case `case` at term."""
        try:
            unify_in_place(self.kenv, self.subst, equations, self.fs.fresh)
        except UnificationError as e:
            raise _Failed(case, e.reason, e.message, term) from None

    def current(self, t: MonoType) -> MonoType:
        """t resolved through the substitution so far, normalized."""
        return normalize(resolve(self.subst, t))

    def record(self, rule, tenv, term, t, premises=0, claim=None):
        """Push term's derivation node, whose premises are the top `premises`
        nodes, if a derivation is wanted.  Its judgment's kind assignment is
        left empty: `subst_derivation` gives every node the final one."""
        if self.nodes is None:
            return
        cut = len(self.nodes) - premises
        children = tuple(self.nodes[cut:])
        del self.nodes[cut:]
        self.nodes.append(Derivation(rule, Judgment({}, tenv, term, poly(t)), children, claim))

    def generalize(self, tenv: TypeAssignment, t: MonoType, bound: Term):
        """Close t, the type of the let-bound term `bound`, over tenv: (tenv
        resolved, the polytype).  The quantified variables leave the kind
        assignment, which is left resolved; the top derivation node becomes
        the premise of a Gen node and carries their kinds."""
        gamma = {x: resolve_poly(self.subst, sigma) for x, sigma in tenv.items()}
        kenv = {v: resolve(self.subst, k) for v, k in self.kenv.items()}
        self.kenv, sigma = closure(kenv, gamma, t)
        if self.nodes is not None:
            d = self.nodes.pop()
            quantified = {v: k for v, k in kenv.items() if v not in self.kenv}
            premise = replace(d, judgment=replace(d.judgment, kenv=quantified))
            self.nodes.append(Derivation("Gen", Judgment({}, gamma, bound, sigma), (premise,)))
        return gamma, sigma


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
    run = _Run(kenv, fs, want_trace)
    try:
        t = _infer(run, tenv, term)
        # The extension rule's base-variable condition is the one side
        # condition later substitutions can break: re-check it under the
        # final substitution, in the order the extensions were typed.
        for subject, value, ext in run.extensions:
            _check_base(run.current(subject), run.current(value), ext)
    except _Failed as e:
        return e.failure
    s = {v: resolve(run.subst, v) for v in list(run.subst)}
    k = {v: resolve(run.subst, kind) for v, kind in run.kenv.items()}
    # Every node's types avoid the domain of the substitution made before
    # it, so applying the final substitution once yields the derivation.
    trace = None if run.nodes is None else subst_derivation(run.nodes.pop(), s, k)
    return InferResult(k, s, t, trace)


def _check_base(record: MonoType, value: MonoType, term: Term):
    if is_extensible(record):
        base = base_of(record)
        if isinstance(base, TyVar) and base in ftv(value):
            raise _Failed(
                "extend",
                "base_in_value",
                "extended record's type occurs in the added field's type",
                term,
            )


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


def _infer(run: _Run, tenv: TypeAssignment, term: Term) -> MonoType:
    """The type of term, resolved through the substitution as it stands on
    return, and normalized; raises _Failed.  tenv is not resolved, and each
    recorded judgment keeps it as it was passed."""

    if isinstance(term, Var):
        if term.name not in tenv:
            raise _Failed("var", "unbound_variable", f"unbound variable {term.name}", term)
        t = instantiate(run.kenv, resolve_poly(run.subst, tenv[term.name]), run.fs)
        run.record("Var", tenv, term, t)
        return t

    if isinstance(term, Const):
        t = BaseType(term.base)
        run.record("Const", tenv, term, t)
        return t

    if isinstance(term, Abs):
        alpha = run.fs.fresh()
        run.kenv[alpha] = UKind()
        t1 = _infer(run, {**tenv, term.param: poly(alpha)}, term.body)
        t = Arrow(run.current(alpha), t1)
        run.record("Abs", tenv, term, t, 1)
        return t

    if isinstance(term, App):
        t1 = _infer(run, tenv, term.fn)
        t2 = _infer(run, tenv, term.arg)
        alpha = run.fs.fresh()
        run.kenv[alpha] = UKind()
        run.unify([(t1, Arrow(t2, alpha))], "app", term)
        t = run.current(alpha)
        run.record("App", tenv, term, t, 2)
        return t

    if isinstance(term, Let):
        t1 = _infer(run, tenv, term.bound)
        gamma1, sigma = run.generalize(tenv, t1, term.bound)
        t2 = _infer(run, {**gamma1, term.name: sigma}, term.body)
        run.record("Let", tenv, term, t2, 2)
        return t2

    if isinstance(term, RecordLit):
        types = [(label, _infer(run, tenv, sub)) for label, sub in term.fields]
        t = RecordType(tuple((l, run.current(t_i)) for l, t_i in types))
        run.record("Rec", tenv, term, t, len(types))
        return t

    field_rule = _FIELD_RULES.get(type(term))
    if field_rule is not None:
        rule, case, has_value, side, result = field_rule
        t_rec = _infer(run, tenv, term.target)
        if has_value:
            t_value = _infer(run, tenv, term.value)
            if rule == "Ext":
                _check_base(t_rec, t_value, term)
        a_field = run.fs.fresh()
        a_rec = run.fs.fresh()
        run.kenv[a_field] = UKind()
        run.kenv[a_rec] = side(term.label, a_field)
        eqs = [(a_field, t_value), (a_rec, t_rec)] if has_value else [(a_rec, t_rec)]
        run.unify(eqs, case, term)
        t = run.current(result(a_rec, term.label, a_field))
        claim = KindingClaim(run.current(a_rec), side(term.label, run.current(a_field)))
        if rule == "Ext":
            run.extensions.append((claim.subject, t_value, term))
        run.record(rule, tenv, term, t, 1 + has_value, claim)
        return t

    raise TypeError(f"infer: not a term: {term!r}")
