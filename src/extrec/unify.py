"""Kinded unification by transformation.

The solver transforms a state (pending equations, kind assignment,
substitution), a `Solver`, until the equations are exhausted.  It binds
variables in place: the substitution is triangular, an elimination records
one `v := image` and deletes or replaces one kind entry, and each equation
and kind is resolved through the substitution (`resolve`) when a rule reads
it; `resolve` follows variable links itself and hands compound values to
`syntax._walk`, the one substitution walk.  `unify` solves one equation set
in a new state and reads the result back resolved (`Solver.resolved`); an
inference run is one state for the whole run, a subclass whose level
hooks follow Rémy's ranks.

Equations are taken from the front of a queue, and the equations a rule
derives go to its front, in their order: each is solved before any
equation queued earlier, so a field equation that a kind implies is
solved before a later input equation needs it.  Rules are tried per
equation in a fixed order: (i) equality modulo reduction, (v, vi) record
and arrow decomposition, (ii) elimination of a universally kinded
variable, (iii) merging of two record-kinded variables, (iv) variable
against record, (vii) variable against an extension/contraction chain
that is its own canonical form, (viii) cancellation of matching
operations across two chains, a retry on normal forms (types are not
normalized eagerly, and substitution builds shapes, such as chains over
records, that no rule matches; a chain that is not its own canonical
form, being reducible or having its operations out of label order, meets
rule vii here), (ix) the two-chain merge onto a fresh common base, and
(x) a chain over a variable against a record.  The rule is decided from one read of the two sides:
one kind lookup per side picks among ii-vii and the side eliminated, and
one read of each side's chain operations serves viii and ix.

The four rules that eliminate a record-kinded variable (iii, iv, vii and
ix) share one step, `_meet`, as in Ohori's kinded unification: the
variable is bound once the field facts of its image meet its kind, label
by label, through `meet_at` and `write_at`, which inference's direct path
calls too.  Rule ix kinds a fresh base with the labels both chains
contract on the left and those they extend on the right, then meets each
chain's base with the fresh base under the other chain's operations.

A chain's field facts are read one way, by work linear in its base's
kind, from the label maps of its operation tuple (`normalize.label_maps`)
and that kind: the kind with the labels the chain moves taken across, at
the operations' own types.  Rule x reads the same maps.  A chain that
repeats a label with one sign has no facts.

Each applied rule strictly shrinks (unsolved variables, equation size,
cancellable-operation count) lexicographically, so the loop terminates.
"""

from __future__ import annotations

from collections import deque

from .kinding import wf_kind_assignment
from .normalize import CON, EXT, equiv, label_maps, normalize
from .syntax import (
    Arrow,
    BaseType,
    Contr,
    Ext,
    FRESH,
    KindAssignment,
    MonoType,
    RecordKind,
    RecordType,
    Substitution,
    TyVar,
    UKind,
    _walk,
    chain,
    find,
    ftv,
    trusted_record_kind,
    union,
)

OCCURS = "occurs_check"
KIND = "kind_clash"
CONSTRUCTOR = "constructor_clash"
# A field's side in a record kind, an index into (lefts, rights), and by
# side the message where facts state the other side (`meet_at`'s clash), in
# `_meet` and in infer's direct path alike
LEFT, RIGHT = 0, 1
CLASH = ("required field(s) {} absent", "forbidden field(s) {} present")
OWN_KIND = "variable occurs in its own kind"


class UnificationError(Exception):
    def __init__(self, reason: str, message: str):
        self.reason = reason
        self.message = message
        super().__init__(f"{reason}: {message}")


def resolve(s: Substitution, t):
    """Apply the triangular substitution s to a monotype, a kind or a
    polytype: replace each bound variable by its image, resolved in turn,
    until none is left.  A compound value goes to `syntax._walk`, the one
    substitution walk behind `apply_type`, with the resolved images of its
    free variables that s binds.

    A triangular substitution maps each variable to the image it was bound
    to, which may mention variables bound after it.  Resolution compresses
    paths: every binding it follows is overwritten with its resolved image.
    Variable-to-variable links are followed in a loop, not by recursion."""
    if t.__class__ is TyVar:
        image = s.get(t)
        if image is None:
            return t
        path = [t]
        while isinstance(image, TyVar) and image in s:
            path.append(image)
            image = s[image]
        if not isinstance(image, TyVar):
            image = resolve(s, image)
        for v in path:
            s[v] = image
        return image
    free = t._fv
    if free is None:
        free = ftv(t)
    if not free:  # a closed type, as most of inference's records are
        return t
    unbound = free.difference(s)
    if len(unbound) == len(free):
        return t
    images = {v: resolve(s, v) for v in free - unbound}
    try:
        return _walk(images, t, met=True)
    except ValueError as e:  # `chain`: a chain's bottom is bound to a type no operation extends
        raise UnificationError(CONSTRUCTOR, str(e)) from None


class Solver:
    """The state that unification transforms, kept across calls: the kind
    assignment and the triangular substitution, both updated in place, the
    fresh-variable supply, the rule trace and the queue of pending
    equations.  An inference run is one for the whole run (`infer._Run`),
    whose `fresh`, `lower` and `lose` follow let depths."""

    def __init__(self, kenv: KindAssignment, fresh, trace: list | None = None):
        self.kenv: KindAssignment = kenv
        self.subst: Substitution = {}
        self.supply = fresh
        self.trace = trace
        self.eqs: deque = deque()

    def solve(self, equations):
        """Solve the equations into the state.  Every variable of the
        equations, once resolved, must have a kind; there is no entry check,
        and on UnificationError the state is left part-way."""
        self.eqs = eqs = deque(equations)
        subst = self.subst
        while eqs:
            t1, t2 = eqs.popleft()
            _step(self, resolve(subst, t1), resolve(subst, t2))

    def resolved(self) -> tuple[KindAssignment, Substitution]:
        """The kind assignment and the substitution, each resolved."""
        subst = self.subst
        s = {v: resolve(subst, v) for v in list(subst)}  # compresses every path first
        return {v: resolve(subst, k) for v, k in self.kenv.items()}, s

    def kind(self, v: TyVar):
        """v's kind, resolved, and stored back resolved."""
        self.kenv[v] = k = resolve(self.subst, self.kenv[v])
        return k

    def fresh(self, name: str = "") -> TyVar:
        """A variable from the supply, called with name if one is given.  A
        variable the state already kinds or binds raises ValueError: the
        supply has reached the caller's variables."""
        v = self.supply(name) if name else self.supply()
        if v in self.kenv or v in self.subst:
            raise ValueError(f"fresh variable of uid {v.uid} is already kinded or bound")
        return v

    def new_var(self, kind) -> TyVar:
        """A fresh variable of the given kind."""
        v = self.fresh()
        self.kenv[v] = kind
        return v

    def bind(self, v: TyVar, image: MonoType):
        """Record v := image; v leaves the kind assignment."""
        self.lower(v, image)
        self.subst[v] = image
        del self.kenv[v]

    def push(self, *pairs):
        """Queue a rule's derived equations, in their order, before every
        equation queued earlier."""
        self.eqs.extendleft(reversed(pairs))

    def note(self, rule: str):
        if self.trace is not None:
            self.trace.append(rule)

    def lower(self, v: TyVar, *types):
        """Hook: types are about to be bound to v, or have entered v's kind
        from an eliminated variable's."""

    def lose(self, v: TyVar | None, *types):
        """Hook: v's kind, or some kind (v None), dropped types: the fields a
        variable bound to a record forbade, and what reduction removes from
        an equation's sides."""


def unify(
    kenv: KindAssignment,
    equations,
    fresh=None,
    trace: list | None = None,
) -> tuple[KindAssignment, Substitution]:
    """Most general unifier of a kinded equation set.

    Returns (residual kind assignment, substitution); raises
    UnificationError when no unifier exists.  `fresh`, called with no
    arguments, supplies variables for the two-chain merge,
    `syntax.FRESH.fresh` by default; one already kinded or bound raises
    ValueError.  `trace`, if given, collects applied rule names.
    """
    eqs = list(equations)
    if not wf_kind_assignment(kenv):
        raise ValueError("unify: kind assignment not well formed")
    kinded = frozenset(kenv)  # subset tests use the hashes the sets store
    for a, b in eqs:
        if not (ftv(a) <= kinded and ftv(b) <= kinded):
            v = next(v for v in ftv(a) | ftv(b) if v not in kinded)
            raise ValueError(f"unify: equation variable '{v.name or v.uid}' unkinded")
    st = Solver(dict(kenv), fresh if fresh is not None else FRESH.fresh, trace)
    st.solve(eqs)
    return st.resolved()


def _step(st: Solver, t1: MonoType, t2: MonoType):
    # i) equal modulo reduction
    if equiv(t1, t2):
        st.note("i")
        if ftv(t1) is not ftv(t2):
            st.lose(None, *(ftv(t1) ^ ftv(t2)))
        return
    c1, c2 = t1.__class__, t2.__class__  # read once; no type class has a subclass
    # v) record decomposition
    if c1 is RecordType and c2 is RecordType:
        m1, m2 = t1.field_map(), t2.field_map()
        if m1.keys() != m2.keys():
            raise UnificationError(KIND, "records with different label sets")
        st.note("v")
        st.push(*((m1[l], m2[l]) for l in m1))
        return
    # vi) arrow decomposition
    if c1 is Arrow and c2 is Arrow:
        st.note("vi")
        st.push((t1.dom, t2.dom), (t1.cod, t2.cod))
        return
    # ii-vii) the kinds of the sides (None for a non-variable) pick the side
    # a rule eliminates, a: universally kinded before record-kinded, the
    # newer of two alike, so that results do not depend on equation order
    k1 = st.kenv.get(t1) if c1 is TyVar else None
    k2 = st.kenv.get(t2) if c2 is TyVar else None
    a, ka, b, kb, cb = t1, k1, t2, k2, c2
    if k2 is not None and (
        k1 is None or (k2.__class__ is UKind, t2.uid) > (k1.__class__ is UKind, t1.uid)
    ):
        a, ka, b, kb, cb = t2, k2, t1, k1, c1
    # ii) universally kinded variable
    if ka.__class__ is UKind:
        st.note("ii")
        if a in ftv(b):
            raise UnificationError(OCCURS, "variable occurs in its own solution")
        st.bind(a, b)
        return
    if ka.__class__ is RecordKind:
        # iii) two record-kinded variables
        if kb.__class__ is RecordKind:
            st.note("iii")
            _meet(st, a, b, b)
            return
        # iv) record-kinded variable against a record type
        if cb is RecordType:
            st.note("iv")
            _meet(st, a, b, None)
            return
        # vii) record-kinded variable against a chain that is its own
        # canonical form, with a kinded variable base.  Any other chain
        # (reducible, or with operations out of label order) falls through
        # to the normalization retry below; after rule i the test reads a
        # cached slot.
        if (cb is Ext or cb is Contr) and normalize(b) is b:
            base = b.bottom
            if isinstance(base, TyVar) and isinstance(st.kenv.get(base), RecordKind):
                st.note("vii")
                _meet(st, a, b, base)
                return
    # viii and ix read two chains over variables, once
    chains = (c1 is Ext or c1 is Contr) and (c2 is Ext or c2 is Contr)
    if chains:
        base1, ops1 = t1.bottom, t1.ops
        base2, ops2 = t2.bottom, t2.ops
        chains = base1.__class__ is TyVar and base2.__class__ is TyVar
    # viii) matching operation on two chains over variables
    if chains:
        pair = _matching_ops(ops1, ops2)
        if pair is not None:
            i, j = pair
            st.note("viii")
            st.push(
                (ops1[i][2], ops2[j][2]),
                (
                    chain(base1, ops1[:i] + ops1[i + 1 :]),
                    chain(base2, ops2[:j] + ops2[j + 1 :]),
                ),
            )
            return
    # Retry on normal forms.  Past this point t1 and t2 are normal: the
    # retry ran, or left them as they were.  `normalize` returns a normal
    # type itself, so identity tells which, and a retry's own retry does not
    # fire; `==` would recurse down both.
    n1, n2 = normalize(t1), normalize(t2)
    if n1 is not t1 or n2 is not t2:
        st.lose(None, *(ftv(t1) - ftv(n1)), *(ftv(t2) - ftv(n2)))
        _step(st, n1, n2)
        return
    # ix) two chains over distinct record-kinded variables, merged onto a
    # fresh common base
    if (
        chains
        and base1 != base2
        and isinstance(st.kenv.get(base1), RecordKind)
        and isinstance(st.kenv.get(base2), RecordKind)
    ):
        st.note("ix")
        _rule_ix(st, base1, ops1, base2, ops2)
        return
    # x) derived: chain over a variable base against a plain record
    for a, b, ca, cb in ((t1, t2, c1, c2), (t2, t1, c2, c1)):
        if (ca is Ext or ca is Contr) and cb is RecordType and a.bottom.__class__ is TyVar:
            _rule_chain_record(st, a, b)
            return
    _fail(st, t1, t2)


def _matching_ops(ops1, ops2):
    """First same-sign, same-label operation pair across two chains."""
    for i, (s1, l1, _) in enumerate(ops1):
        for j, (s2, l2, _) in enumerate(ops2):
            if s1 == s2 and l1 == l2:
                return i, j
    return None


def meet_at(facts, label, side):
    """The field rule at one label, for a kind's field on `side`: where the
    label goes on that side of facts, a record kind or a record (which lacks
    every label it does not state), and the type stated there or None.  None
    instead, a clash, where the facts state the label on the other side."""
    if isinstance(facts, RecordType):
        i, t = find(facts.fields, label)
        return None if (t is None) == (side == LEFT) else (i, t)
    own, other = (facts.lefts, facts.rights) if side == LEFT else (facts.rights, facts.lefts)
    return None if find(other, label)[1] is not None else find(own, label)


def write_at(kind, label, t, side, i, own=None) -> RecordKind:
    """kind with label: t at position i of its `side`, over the entry of
    type `own` there or, when own is None, inserted; built unchecked, and
    with kind's free variables and t's when nothing is written over."""
    fields = kind.lefts if side == LEFT else kind.rights
    fields = fields[:i] + ((label, t),) + fields[i + (own is not None) :]
    fv = union(ftv(kind), ftv(t)) if own is None else None
    if side == LEFT:
        return trusted_record_kind(fields, kind.rights, fv)
    return trusted_record_kind(kind.lefts, fields, fv)


def _meet(st: Solver, v: TyVar, image: MonoType, base: TyVar | None):
    """Eliminate the record-kinded variable v into image, once image's field
    facts meet v's kind at each of its labels: rules iii, iv and vii, and
    both halves of ix.  The facts are base's kind, or a chain's over base,
    or image itself, a record, when base is None.  A field the facts state
    is equated with their type.  v's fields go into base's kind: over its
    own entries when image is base (the two are equated anyway), else where
    the facts state nothing, since a chain only moves labels of the kind.
    A record states every label; the fields v forbade are dropped."""
    k: RecordKind = st.kind(v)
    occurs = v in ftv(image)
    if occurs and base is not None:
        # checked before the facts, which would otherwise mention v
        raise UnificationError(OCCURS, "variable occurs in its own solution")
    eqs, facts = [], image
    if base is not None:
        facts = kb = st.kind(base)
        if image != base:
            facts = _moved(kb.left_map(), kb.right_map(), image, eqs)
    met = [
        [(l, t, meet_at(facts, l, side)) for l, t in fields]
        for side, fields in enumerate((k.lefts, k.rights))
    ]
    for side, fields in enumerate(met):
        clash = [l for l, _, at in fields if at is None]
        if clash:
            raise UnificationError(KIND, CLASH[side].format(clash))
    if occurs:
        raise UnificationError(OCCURS, "variable occurs in its own solution")
    eqs += [(t, at[1]) for fields in met for _, t, at in fields if at[1] is not None]
    if base is None:
        st.lose(v, *(t for _, t in k.rights))
        st.bind(v, image)
    else:
        kind, written = kb, []
        for side, fields in enumerate(met):
            if image != base:  # where the label goes in base's kind, which lacks it
                fields = [(l, t, meet_at(kb, l, side)) for l, t, at in fields if at[1] is None]
            # from the last label back, so that each position still holds
            for l, t, (i, own) in reversed(fields):
                kind = write_at(kind, l, t, side, i, own)
            written += [t for _, t, _ in fields]
        kind = resolve({v: image}, kind)
        if base in ftv(kind):
            raise UnificationError(OCCURS, OWN_KIND)
        st.bind(v, image)
        st.kenv[base] = kind
        st.lower(base, *written)
    st.push(*eqs)


def _moved(kl: dict, kr: dict, t: MonoType, eqs: list) -> RecordKind:
    """The field facts of a chain over a base whose kind has the sides kl
    and kr, as a kind: the base's kind with the labels the chain moves
    taken across, at the operations' own types.  An extension needs its
    label forbidden by the kind and a contraction its label required.  A
    kind entry that is not equivalent to its operation's type goes to eqs,
    in chain order: a merge may have written another type over it, with
    the equation between the two still queued."""
    maps = label_maps(t.ops)
    if maps is None:
        raise UnificationError(KIND, "chain's operations contradict its base's kind")
    ext, con = maps
    for sign, l, f in t.ops:
        side = kr if sign == EXT else kl
        if l not in side:
            raise UnificationError(KIND, "chain's operations contradict its base's kind")
        if not equiv(side[l], f):
            eqs.append((side[l], f))
    present = {l: f for l, f in kl.items() if l not in con}
    absent = {l: f for l, f in kr.items() if l not in ext}
    present.update(ext)
    absent.update(con)
    return trusted_record_kind(tuple(sorted(present.items())), tuple(sorted(absent.items())))


def _rule_ix(st: Solver, v1: TyVar, ops1, v2: TyVar, ops2):
    """Both chains' bases become chains over one fresh base, whose kind has
    the contracted labels on the left and the extended ones on the right:
    v1 := fresh·ops2 and v2 := fresh·ops1."""
    lefts = {l: f for sign, l, f in ops1 + ops2 if sign == CON}
    rights = {l: f for sign, l, f in ops1 + ops2 if sign == EXT}
    if lefts.keys() & rights.keys():
        # A shared same-sign pair was already taken by the cancellation
        # rule, so a shared label is contracted on one side and extended on
        # the other: unsatisfiable.
        raise UnificationError(KIND, "chains share a label with opposite operations")
    if any({v1, v2} & ftv(f) for _, _, f in ops1 + ops2):
        # each meet would check one base against the other chain's
        # operations only, and only after the other base's kind checks
        raise UnificationError(OCCURS, "chain base occurs in an operation type")
    fresh = st.new_var(RecordKind(tuple(lefts.items()), tuple(rights.items())))
    _meet(st, v1, chain(fresh, ops2), fresh)
    _meet(st, v2, chain(fresh, ops1), fresh)


def _rule_chain_record(st: Solver, t: MonoType, rec: RecordType):
    """t, a chain normal over a variable base, against a record: the base is
    the record without the extended fields and with the contracted ones."""
    maps = label_maps(t.ops)
    if maps is None:
        raise UnificationError(KIND, "chain repeats an operation on a label")
    ext, con = maps
    fields = rec.field_map()
    if not ext.keys() <= fields.keys():
        raise UnificationError(KIND, "extended field missing from the record")
    if con.keys() & fields.keys():
        raise UnificationError(KIND, "contracted field still present in the record")
    st.note("x")
    reduced = {l: f for l, f in fields.items() if l not in ext}
    reduced.update(con)
    # in chain order: a normal chain's labels are sorted
    eqs = [(ext[l], fields[l]) for l in sorted(ext)]
    st.push(*eqs, (t.bottom, RecordType(tuple(reduced.items()))))


def _fail(st: Solver, t1: MonoType, t2: MonoType):
    for a, b in ((t1, t2), (t2, t1)):
        if isinstance(a, TyVar) and a in ftv(b):
            raise UnificationError(OCCURS, "variable occurs in the other side")
        if isinstance(a, (Ext, Contr)):
            base = a.bottom
            if isinstance(base, TyVar) and base in ftv(b):
                raise UnificationError(OCCURS, "chain base occurs in the other side")
    rigid = (BaseType, Arrow)
    if isinstance(t1, rigid) or isinstance(t2, rigid):
        raise UnificationError(CONSTRUCTOR, "incompatible type constructors")
    raise UnificationError(KIND, "no rule applies; kinds are incompatible")
