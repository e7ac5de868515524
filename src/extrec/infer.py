"""Type inference for the extensible-record calculus.

infer computes a principal kinded typing (residual kind assignment,
substitution, canonical monotype).  One run is one unification state
(`unify.Solver`), whose kind assignment and triangular substitution every
unification updates in place; the type assignment is resolved through the
substitution only where a variable is looked up.  A let generalizes by
levels, from what its bound term created, without reading the type
assignment (see `_Run`).  The result is read back, resolved, once at the end.

An application of a function typed as an arrow, and a field operation on
a record, are typed directly, with no fresh variables: the arrow's domain
is unified with the argument's type and its codomain is the answer; the
record's field is met at its label by unification's own step, `meet_at`.
So is one on a chain over a record-kinded variable at a label the chain's
operations leave alone: the variable's kind states the field or gains it,
by unification's `write_at`.  infer makes no field check of its own.
A variable subject, or a chain that operates on the label, goes through
fresh variables and the unifier, whose substitution the acceptance suite's
criterion 1 pins.  So the substitution holds only the bindings needed.

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

from operator import attrgetter

from .derivation import Derivation, Judgment, KindingClaim, subst_derivation
from .normalize import fold_op, normalize
from .subst import closure, quantifier_prefix
from .syntax import (
    Abs,
    App,
    Arrow,
    BASE_BY_NAME,
    CON,
    EXT,
    Const,
    Contr,
    Ext,
    Extend,
    FRESH,
    FRESH_START,
    FreshSupply,
    Frozen,
    KindAssignment,
    Let,
    Modify,
    MonoType,
    OP_LABEL,
    PolyType,
    RecordKind,
    RecordLit,
    RecordType,
    Remove,
    Select,
    Term,
    TypeAssignment,
    TyVar,
    U,
    Var,
    find,
    ftv,
    poly,
    rebind,
    trusted_record,
)
from .unify import (
    CLASH,
    KIND,
    LEFT,
    OCCURS,
    OWN_KIND,
    RIGHT,
    Solver,
    UnificationError,
    meet_at,
    resolve,
    write_at,
)


class InferFailure(Frozen):
    """`rule` is the syntax case that failed (var, app, let, record, ...),
    `reason` why (unbound_variable, base_in_value, occurs_check, ...)."""

    __slots__ = _fields = ("rule", "reason", "message", "term")

    @property
    def span(self):
        """The (start, end) offsets of the failing subterm's head token in
        the parsed text, or None for a term built without one."""
        return getattr(self.term, "span", None)


class InferResult(Frozen):
    __slots__ = _fields = ("kenv", "subst", "type", "trace")


class _Failed(Exception):
    """Carries the InferFailure of its arguments out of the walk to `infer`."""

    def __init__(self, rule: str, reason: str, message: str, term: Term):
        super().__init__(message)
        self.failure = InferFailure(rule, reason, message, term)


def instantiate(kenv: KindAssignment, sigma: PolyType, fs: FreshSupply) -> MonoType:
    """Replace quantified variables with fresh ones, from fs.fresh(name),
    through `rebind`, and add the fresh variables' kinds to kenv in place.
    The result is normal: renaming the binders of a body that is its own
    normal form keeps it normal, so only another body is normalized again."""
    body = sigma.body
    if not sigma.quants:
        return normalize(body)
    p = rebind(sigma, [fs.fresh(v.name) for v, _ in sigma.quants])
    kenv.update(p.quants)
    return p.body if normalize(body) is body else normalize(p.body)


class _Run(Solver):
    """The state one inference run updates in place: unification's state
    (the kind assignment, the triangular substitution and the fresh-variable
    supply), the (record type, value type, term) of every Extend typed, and,
    only when a derivation is wanted, the post-order stack of finished
    nodes.

    It also ranks variables by let depth (Remy's ranks, the levels of
    OCaml's checker), so that a let generalizes without reading the type
    assignment.  `level` is the number of let-bound terms the walk is in;
    `levels` maps each variable the run created (`fresh`) to the depth it
    was created at, lowered (`lower`, the solver's hook) to the depth of any
    variable it comes to hang off, through a binding or a kind.  The
    caller's variables are at depth 0.  So on leaving a let's bound term, a
    variable deeper than the let is one the bound term created and the
    let's type assignment cannot reach.  `pools[d]` lists the variables put at depth
    d, some since bound or moved.

    The converse holds except where unification forgets part of a kind:
    binding a record-kinded variable to a record drops the field types the
    kind forbade, and reducing an equation's sides drops variables.  What
    was reachable only through them keeps the depth it was lowered to,
    which may be shallower than closure would have it.  `forgot` holds the
    depths of the let-bound terms open at that moment and deeper than the
    variable that forgot them (`lose`, the solver's other hook);
    `generalize` calls `closure` there."""

    def __init__(self, kenv: KindAssignment, fs: FreshSupply, want_trace: bool):
        super().__init__(dict(kenv), fs.fresh)
        self.extensions: list = []
        self.nodes: list[Derivation] | None = [] if want_trace else None
        self.level = 0
        self.levels: dict[TyVar, int] = {}
        self.pools: list[list[TyVar]] = [[]]
        self.forgot: set[int] = set()

    def fresh(self, name: str = "") -> TyVar:
        """A fresh variable at the current depth."""
        v = super().fresh(name)
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
        work = [w for t in types for w in ftv(t)]
        while work:
            w = work.pop()
            if levels.get(w, 0) <= level:
                continue
            levels[w] = level
            image = subst.get(w)
            if image is None:
                self.pools[level].append(w)
                work.extend(ftv(kenv[w]))
            else:
                work.extend(ftv(image))

    def lose(self, v, *types):
        """Unification dropped `types` from v's kind, or from some kind (v
        None).  A variable they hold may have been lowered through v, so the
        lets open deeper than v must take closure's rule.  What hangs off
        a variable at the current depth was never reachable from an
        enclosing let's type assignment."""
        start = 1 if v is None else self.levels.get(v, 0) + 1
        if start <= self.level and any(ftv(t) for t in types):
            self.forgot.update(range(start, self.level + 1))

    def unify(self, equations, case: str, term: Term):
        """Unify in place; a clash fails the syntax case `case` at term."""
        try:
            self.solve(equations)
        except UnificationError as e:
            raise _Failed(case, e.reason, e.message, term) from None

    def current(self, t: MonoType) -> MonoType:
        """t resolved through the substitution so far, normalized."""
        return normalize(resolve(self.subst, t))

    def record(self, rule, tenv, term, t, premises=0, claim=None):
        """Push term's derivation node, whose premises are the top `premises`
        nodes; a derivation is wanted.  Its judgment keeps a copy of the
        scope, which the walk goes on to change, and an empty kind
        assignment: `subst_derivation` gives every node the final one."""
        cut = len(self.nodes) - premises
        children = tuple(self.nodes[cut:])
        del self.nodes[cut:]
        judgment = Judgment({}, dict(tenv), term, poly(t))
        self.nodes.append(Derivation(rule, judgment, children, claim))

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
        from t stops at them.  Only if unification forgot part of a kind
        while this bound term was open (`lose`) is tenv read, and the whole
        kind assignment: `closure` itself decides.  The top derivation
        node, if any, becomes, as it was recorded, the premise of a Gen
        node, whose polytype carries the quantified kinds.  When nothing was
        forgotten and the bound term left no variable deeper than the let,
        as in a chain of lets that each extend a record, t is returned
        under no quantifier at once."""
        exact = self.level in self.forgot
        self.forgot.discard(self.level)
        self.level -= 1
        level, levels, subst, kenv = self.level, self.levels, self.subst, self.kenv
        deep = [v for v in self.pools.pop() if levels[v] > level and v in kenv]
        if exact:
            gamma = {x: resolve(subst, sigma) for x, sigma in tenv.items()}
            kinds = {v: self.kind(v) for v in kenv}  # resolved
            deep = list(kinds)
            sigma = closure(kinds, gamma, t)[1]
            quantify = {v for v, _ in sigma.quants}
        elif not deep:  # the bound term left no variable to quantify
            sigma = poly(t)
        else:
            kinds = {v: self.kind(v) for v in deep}  # resolved
            quantify: set[TyVar] = set()
            work = list(ftv(t))
            while work:
                v = work.pop()
                if v in kinds and v not in quantify:
                    quantify.add(v)
                    work.extend(ftv(kinds[v]))
            # Ties go by uid, as closure's by position in the kind
            # assignment: the run adds its variables in uid order.
            ordered = quantifier_prefix(quantify, deep, kinds, attrgetter("uid"))
            sigma = poly(t, tuple((v, kinds[v]) for v in ordered))
        for v in deep:
            if v in quantify:
                del kenv[v]
            elif levels.get(v, 0) > level:
                levels[v] = level
                self.pools[level].append(v)
        if self.nodes is not None:
            judgment = Judgment({}, dict(tenv), bound, sigma)
            self.nodes.append(Derivation("Gen", judgment, (self.nodes.pop(),)))
        return sigma


def infer(
    kenv: KindAssignment,
    tenv: TypeAssignment,
    term: Term,
    fs: FreshSupply | None = None,
    want_trace: bool = False,
) -> InferResult | InferFailure:
    """Principal typing of term under (kenv, tenv), or a failure value.
    Every chain in tenv must have a kind (`kinding.unkinded_chain`), as those
    inference builds do: a field operation on one reads its base's kind.
    Fresh variables come from fs, whose uids must lie above every variable
    of kenv and tenv and apart from those `syntax.FRESH` hands out, since
    renaming draws on FRESH; by default they come from FRESH itself.  Any
    other whose next uid is in FRESH's range raises ValueError, and so does
    a variable drawn that the run already kinds or binds."""
    if fs not in (None, FRESH) and fs.next_uid >= FRESH_START:
        raise ValueError(f"infer: supply's next uid {fs.next_uid} is in syntax.FRESH's range")
    run = _Run(kenv, FRESH if fs is None else fs, want_trace)
    try:
        t = _infer(run, dict(tenv), term)
        # The extension rule's base-variable condition is the one side
        # condition later substitutions can break: re-check it under the
        # final substitution, in the order the extensions were typed.
        for subject, value, ext in run.extensions:
            _check_base(run.current(subject), run.current(value), ext)
    except _Failed as e:
        return e.failure
    k, s = run.resolved()
    # Every node's types avoid the domain of the substitution made before
    # it, so applying the final substitution once yields the derivation.
    trace = None if run.nodes is None else subst_derivation(run.nodes.pop(), s, k)
    return InferResult(k, s, t, trace)


def _check_base(record: MonoType, value: MonoType, term: Term):
    """Fail when the variable at the bottom of record occurs in value."""
    base = record.bottom if isinstance(record, (Ext, Contr)) else record
    if isinstance(base, TyVar) and base in ftv(value):
        raise _Failed(
            "extend",
            "base_in_value",
            "extended record's type occurs in the added field's type",
            term,
        )


def _open_base(run: _Run, t: MonoType, label) -> TyVar | None:
    """The bottom of t when t is a chain over a record-kinded variable whose
    operations, sorted by label in a normal chain, leave label alone."""
    if isinstance(t, (Ext, Contr)) and isinstance(t.bottom, TyVar):
        if isinstance(run.kenv.get(t.bottom), RecordKind) and find(t.ops, label, OP_LABEL)[1] is None:
            return t.bottom


def _known_field(run: _Run, t, base, term: Term, case: str, side, value):
    """term's field in the record t, or in the kind of base, t's bottom, met
    at its label on `side` as unification meets it: the type stated there,
    or the one written into base's kind (`value`, else a fresh variable), or
    None when the field is absent and must be."""
    facts = t if base is None else run.kind(base)
    at = meet_at(facts, term.label, side)
    if at is None:
        raise _Failed(case, KIND, CLASH[side].format([term.label]), term)
    i, field = at
    if base is None:
        return field
    kind = facts
    if field is None:
        field = value
        if value is None:
            field = run.new_var(U)
        kind = write_at(facts, term.label, field, side, i)
    if base in ftv(kind):
        raise _Failed(case, OCCURS, OWN_KIND, term)
    run.kenv[base] = kind
    if kind is not facts:
        run.lower(base, field)
    return field


_NO_FIELDS = RecordKind((), ())

# Term class -> (rule, failure tag, has a value premise, side of the record
# kind the field goes on, the chain class of the operation the result puts
# on the record's type, or None when the result is the field's type (a
# select) or the record's (a modify)).
_FIELD_RULES = {
    Select: ("Sel", "select", False, LEFT, None),
    Modify: ("Modif", "modify", True, LEFT, None),
    Remove: ("Contr", "remove", False, LEFT, Contr),
    Extend: ("Ext", "extend", True, RIGHT, Ext),
}


def _infer(run: _Run, tenv: TypeAssignment, term: Term) -> MonoType:
    """The type of term, resolved through the substitution as it stands on
    return, and normalized; raises _Failed.  tenv is the scope, one dict
    for the whole walk: a binder binds its name in it for its body, and
    puts back the entry it shadowed, or deletes the name, after the body.
    Its types are not resolved, and a recorded judgment keeps a copy."""
    cls = term.__class__
    if cls is Var:
        sigma = tenv.get(term.name)
        if sigma is None:
            raise _Failed("var", "unbound_variable", f"unbound variable {term.name}", term)
        t = instantiate(run.kenv, resolve(run.subst, sigma), run)
        if run.nodes is not None:
            run.record("Var", tenv, term, t)
        return t

    if cls is Const:
        t = BASE_BY_NAME[term.base]
        if run.nodes is not None:
            run.record("Const", tenv, term, t)
        return t

    if cls is Abs:
        alpha = run.new_var(U)
        name = term.param
        shadowed = tenv.get(name)
        tenv[name] = poly(alpha)
        t1 = _infer(run, tenv, term.body)
        if shadowed is None:
            del tenv[name]
        else:
            tenv[name] = shadowed
        t = Arrow(run.current(alpha), t1)
        if run.nodes is not None:
            run.record("Abs", tenv, term, t, 1)
        return t

    if cls is App:
        t1 = _infer(run, tenv, term.fn)
        t2 = _infer(run, tenv, term.arg)
        if t1.__class__ is Arrow:
            run.unify([(t1.dom, t2)], "app", term)
            t = run.current(t1.cod)
        else:
            alpha = run.new_var(U)
            run.unify([(t1, Arrow(t2, alpha))], "app", term)
            t = run.current(alpha)
        if run.nodes is not None:
            run.record("App", tenv, term, t, 2)
        return t

    if cls is Let:
        run.enter_let()
        t1 = _infer(run, tenv, term.bound)
        name = term.name
        shadowed = tenv.get(name)
        tenv[name] = run.generalize(tenv, t1, term.bound)
        t2 = _infer(run, tenv, term.body)
        if shadowed is None:
            del tenv[name]
        else:
            tenv[name] = shadowed
        if run.nodes is not None:
            run.record("Let", tenv, term, t2, 2)
        return t2

    if cls is RecordLit:
        types = [(label, _infer(run, tenv, sub)) for label, sub in term.fields]
        t = trusted_record(tuple((l, run.current(t_i)) for l, t_i in types))
        if run.nodes is not None:
            run.record("Rec", tenv, term, t, len(types))
        return t

    field_rule = _FIELD_RULES.get(cls)
    if field_rule is not None:
        rule, case, has_value, side, op = field_rule
        t_rec = _infer(run, tenv, term.target)
        t_value = _infer(run, tenv, term.value) if has_value else None
        record = t_rec.__class__ is RecordType
        if rule == "Ext" and not record:  # a record has no base variable
            _check_base(t_rec, t_value, term)
        base = None if record else _open_base(run, t_rec, term.label)
        if record or base is not None:
            field = _known_field(run, t_rec, base, term, case, side, t_value)
            if has_value and field is not None and field is not t_value:
                run.unify([(t_value, field)], case, term)
            a_rec, a_field = t_rec, t_value if has_value else field
        else:
            a_field = run.new_var(U)
            a_rec = run.new_var(write_at(_NO_FIELDS, term.label, a_field, side, 0))
            eqs = [(a_field, t_value), (a_rec, t_rec)] if has_value else [(a_rec, t_rec)]
            run.unify(eqs, case, term)
        if rule == "Ext" and not record:  # a record has no base to re-check
            run.extensions.append((a_rec, t_value, term))
        if op is None:
            t = run.current(a_rec if has_value else a_field)
        elif record:  # the field goes in, or out, at its label
            # a_field, the value's type or the record's field, is current:
            # nothing was unified since the last subterm was typed
            sign = EXT if op is Ext else CON
            t = fold_op(run.current(a_rec), (sign, term.label, a_field))
        else:
            t = run.current(op(a_rec, term.label, a_field))
        if run.nodes is not None:
            one_field = write_at(_NO_FIELDS, term.label, run.current(a_field), side, 0)
            claim = KindingClaim(run.current(a_rec), one_field)
            run.record(rule, tenv, term, t, 1 + has_value, claim)
        return t

    raise TypeError(f"infer: not a term: {term!r}")
