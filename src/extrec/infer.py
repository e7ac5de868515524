"""Type inference for the extensible-record calculus.

infer computes a principal kinded typing (residual kind assignment,
substitution, canonical monotype).  One run keeps one kind assignment and
one triangular substitution, which unification updates in place; the type
assignment is resolved through the substitution only where a variable is
looked up.  A let generalizes by levels, from what its bound term created,
without reading the type assignment (see `_Run`).  The result's assignment
and substitution are read back, resolved, once at the end.

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
from operator import attrgetter

from .derivation import Derivation, Judgment, KindingClaim, subst_derivation
from .normalize import normalize
from .subst import apply_type, quantifier_prefix, resolve
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
    eftv,
    eftv_assignment,
    ftv,
    is_extensible,
    poly,
    trusted_record_kind,
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
    """Replace quantified variables with fresh ones, from fs.fresh(name),
    threading the renaming through the kinds, and add the fresh variables'
    kinds to kenv in place."""
    ren: Substitution = {}
    for v, k in sigma.quants:
        fresh = fs.fresh(v.name)
        kenv[fresh] = apply_type(ren, k)
        ren[v] = fresh
    return normalize(apply_type(ren, sigma.body))


class _Run:
    """The state one inference run updates in place: the kind assignment,
    the triangular substitution, the fresh-variable supply, the (record
    type, value type, term) of every Extend typed, and, only when a
    derivation is wanted, the post-order stack of finished nodes.

    It also ranks variables by let depth (Remy's ranks, the levels of
    OCaml's checker), so that a let generalizes without reading the type
    assignment.  `level` is the number of let-bound terms the walk is in;
    `levels` maps each variable the run created to the depth it was created
    at, lowered by unification (`lower`) to the depth of any variable it
    comes to hang off, through a binding or a kind.  The caller's variables
    are at depth 0.  So on leaving a let's bound term, a variable deeper
    than the let is one the bound term created and the let's type
    assignment cannot reach.  `pools[d]` lists the variables put at depth
    d, some since bound or moved.

    The converse holds except where unification forgets part of a kind:
    binding a record-kinded variable to a record drops the field types the
    kind forbade, and reducing an equation's sides drops variables.  What
    was reachable only through them keeps its level; `stale` holds these
    variables, and those lowered from them, for `generalize` to check."""

    def __init__(self, kenv: KindAssignment, fs: FreshSupply, want_trace: bool):
        self.kenv = dict(kenv)
        self.subst: Substitution = {}
        self.fs = fs
        self.extensions: list = []
        self.nodes: list[Derivation] | None = [] if want_trace else None
        self.level = 0
        self.levels: dict[TyVar, int] = {}
        self.pools: list[list[TyVar]] = [[]]
        self.stale: set[TyVar] = set()

    def fresh(self, name: str = "") -> TyVar:
        """A fresh variable at the current depth; its kind is the caller's
        to add."""
        v = self.fs.fresh(name)
        if self.level:
            self.levels[v] = self.level
            self.pools[-1].append(v)
        return v

    def lower(self, v: TyVar, *types):
        """Bring every variable reachable from `types` up to v's depth at
        most: `types` are being bound to v or written into v's kind.  When v
        is at the current depth nothing reachable can be deeper."""
        level = self.levels.get(v, 0)
        if level >= self.level:
            return
        levels, subst, kenv = self.levels, self.subst, self.kenv
        taint = v in self.stale
        work = [w for t in types for w in ftv(t)]
        while work:
            w = work.pop()
            if levels.get(w, 0) <= level:
                continue
            levels[w] = level
            if taint:
                self.stale.add(w)
            image = subst.get(w)
            if image is None:
                self.pools[level].append(w)
                work.extend(ftv(kenv[w]))
            else:
                work.extend(ftv(image))

    def lose(self, v, *types):
        """Unification dropped `types` from v's kind, or from some kind (v
        None): mark stale what is reachable from them at a depth below the
        current one.  What hangs off a variable at the current depth was
        never reachable from an enclosing let's type assignment."""
        if v is not None and self.levels.get(v, 0) >= self.level:
            return
        seen: set[TyVar] = set()
        work = [w for t in types for w in ftv(t)]
        while work:
            w = work.pop()
            if w in seen:
                continue
            seen.add(w)
            if self.levels.get(w, 0) < self.level:
                self.stale.add(w)
            image = self.subst.get(w)
            work.extend(ftv(self.kenv[w] if image is None else image))

    def unify(self, equations, case: str, term: Term):
        """Unify in place; a clash fails the syntax case `case` at term.
        Outside every let no level can change: all are 0."""
        levels = self if self.level else None
        try:
            unify_in_place(self.kenv, self.subst, equations, self.fresh, levels=levels)
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

    def enter_let(self):
        """Go one let deeper, to type a let-bound term."""
        self.level += 1
        self.pools.append([])

    def generalize(self, tenv: TypeAssignment, t: MonoType, bound: Term) -> PolyType:
        """Close t, the type of the let-bound term `bound`, over tenv, on
        leaving the bound term: what `subst.closure` gives over the resolved
        kind and type assignments, read off the variables the bound term
        created.  Those that are essentially free in t are quantified,
        except where a residual kind mentions one; they leave the kind
        assignment, and the rest come up to the let's depth.

        A shallow variable's kind mentions only shallow ones, so the walk
        from t stops at them.  Only if it meets a stale one is tenv read,
        and the whole kind assignment: closure's own rule decides.  The top
        derivation node, if any, becomes the premise of a Gen node that
        carries the quantified kinds."""
        self.level -= 1
        level, levels, subst, kenv = self.level, self.levels, self.subst, self.kenv
        deep = [v for v in self.pools.pop() if levels[v] > level and v in kenv]
        kinds = {}  # resolved
        for v in deep:
            kinds[v] = kenv[v] = resolve(subst, kenv[v])
        quantify: set[TyVar] = set()
        exact = False
        work = list(ftv(t))
        while work:
            v = work.pop()
            if v in kinds:
                if v not in quantify:
                    quantify.add(v)
                    work.extend(ftv(kinds[v]))
            elif v in self.stale:
                exact = True
        if exact or self.nodes is not None:
            gamma = {x: resolve(subst, sigma) for x, sigma in tenv.items()}
        if exact:
            kinds = {v: resolve(subst, k) for v, k in kenv.items()}
            deep = list(kinds)
            quantify = eftv(kinds, t) - eftv_assignment(kinds, gamma)
        # Ties go by position in the kind assignment: the run adds its
        # variables in uid order, after the caller's, whose uids are lower.
        ordered = quantifier_prefix(quantify, deep, kinds, attrgetter("uid"))
        for v in deep:
            if v in quantify:
                del kenv[v]
            elif levels.get(v, 0) > level:
                levels[v] = level
                self.pools[level].append(v)
        sigma = PolyType(tuple((v, kinds[v]) for v in ordered), t) if ordered else poly(t)
        if self.nodes is not None:
            d = self.nodes.pop()
            quantified = {v: kinds[v] for v in sorted(quantify, key=attrgetter("uid"))}
            premise = replace(d, judgment=replace(d.judgment, kenv=quantified))
            self.nodes.append(Derivation("Gen", Judgment({}, gamma, bound, sigma), (premise,)))
        return sigma


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
    return trusted_record_kind(((label, t),), ())


def _rights(label, t) -> RecordKind:
    return trusted_record_kind((), ((label, t),))


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
        t = instantiate(run.kenv, resolve(run.subst, tenv[term.name]), run)
        run.record("Var", tenv, term, t)
        return t

    if isinstance(term, Const):
        t = BaseType(term.base)
        run.record("Const", tenv, term, t)
        return t

    if isinstance(term, Abs):
        alpha = run.fresh()
        run.kenv[alpha] = UKind()
        t1 = _infer(run, {**tenv, term.param: poly(alpha)}, term.body)
        t = Arrow(run.current(alpha), t1)
        run.record("Abs", tenv, term, t, 1)
        return t

    if isinstance(term, App):
        t1 = _infer(run, tenv, term.fn)
        t2 = _infer(run, tenv, term.arg)
        alpha = run.fresh()
        run.kenv[alpha] = UKind()
        run.unify([(t1, Arrow(t2, alpha))], "app", term)
        t = run.current(alpha)
        run.record("App", tenv, term, t, 2)
        return t

    if isinstance(term, Let):
        run.enter_let()
        t1 = _infer(run, tenv, term.bound)
        sigma = run.generalize(tenv, t1, term.bound)
        t2 = _infer(run, {**tenv, term.name: sigma}, term.body)
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
        a_field = run.fresh()
        a_rec = run.fresh()
        run.kenv[a_field] = UKind()
        run.kenv[a_rec] = side(term.label, a_field)
        eqs = [(a_field, t_value), (a_rec, t_rec)] if has_value else [(a_rec, t_rec)]
        run.unify(eqs, case, term)
        t = run.current(result(a_rec, term.label, a_field))
        if rule == "Ext":
            run.extensions.append((run.current(a_rec), t_value, term))
        if run.nodes is not None:
            claim = KindingClaim(run.current(a_rec), side(term.label, run.current(a_field)))
            run.record(rule, tenv, term, t, 1 + has_value, claim)
        return t

    raise TypeError(f"infer: not a term: {term!r}")
