"""Kinded unification by transformation.

The solver transforms a state (pending equations, kind assignment,
substitution) until the equations are exhausted.  It binds variables in
place: the substitution is triangular, an elimination records one
`v := image` and deletes or replaces one kind entry, and each equation and
kind is resolved through the substitution when a rule reads it.  `unify`
reads the result back resolved; inference keeps one state for a whole run
and calls `unify_in_place`.

Rules are tried per equation (FIFO) in a fixed order: trivial equality,
record and arrow decomposition, variable elimination (universal kind),
merging of two record-kinded variables, variable against record, variable
against an extension/contraction chain, cancellation of matching
operations across two chains, and finally the two-chain merge onto a
fresh common base.

The four rules that eliminate a record-kinded variable (iii, iv, vii and
ix) share one step, `_meet`, as in Ohori's kinded unification: the
variable is bound once the field facts of its image meet its kind.  Rule
ix kinds a fresh base with the labels both chains contract on the left
and those they extend on the right, then meets each chain's base with the
fresh base under the other chain's operations.

A chain's field facts are read one way, from the label maps of its
operation tuple (`normalize.label_maps`) and its base's kind: the kind
with the labels the chain moves taken across, at the operations' own
types.  Rule x reads the same maps.  A chain that repeats a label with
one sign has no facts.  The facts and the merged kind are still built
from the base's whole kind, by work linear in its size.

Extensible types are not normalized eagerly; a normalization retry plus a
chain-against-record decomposition cover the shapes plain substitution can
produce that the primary rules do not match.

Each applied rule strictly shrinks (unsolved variables, equation size,
cancellable-operation count) lexicographically, so the loop terminates.
"""

from __future__ import annotations

from collections import deque

from .kinding import wf_kind_assignment
from .normalize import CON, EXT, chain_ops, equiv, is_normal, label_maps, normalize
from .subst import apply_type, resolve
from .syntax import (
    Arrow,
    BaseType,
    Contr,
    Ext,
    KindAssignment,
    MonoType,
    RecordKind,
    RecordType,
    Substitution,
    TyVar,
    UKind,
    base_of,
    chain,
    ftv,
    internal_fresh,
    trusted_record_kind,
    union_all,
)

OCCURS = "occurs_check"
KIND = "kind_clash"
CONSTRUCTOR = "constructor_clash"
# `_meet`'s field failures, which `infer._known_field` raises too
ABSENT, PRESENT = "required field(s) {} absent", "forbidden field(s) {} present"
OWN_KIND = "variable occurs in its own kind"


class UnificationError(Exception):
    def __init__(self, reason: str, message: str):
        self.reason = reason
        self.message = message
        super().__init__(f"{reason}: {message}")


def _is_chain(t: MonoType) -> bool:
    return isinstance(t, (Ext, Contr))


class _State:
    def __init__(self, kenv, subst, eqs, fresh, trace, levels):
        self.eqs = deque(eqs)
        self.kenv: KindAssignment = kenv
        self.subst: Substitution = subst
        self.fresh = fresh
        self.trace = trace
        self.levels = levels

    def note(self, rule: str):
        if self.trace is not None:
            self.trace.append(rule)

    def push(self, *pairs):
        self.eqs.extend(pairs)

    def kind(self, v: TyVar):
        """v's kind, resolved, and stored back resolved."""
        self.kenv[v] = k = resolve(self.subst, self.kenv[v])
        return k

    def bind(self, v: TyVar, image: MonoType):
        """Record v := image; v leaves the kind assignment."""
        if self.levels is not None:
            self.levels.lower(v, image)
        self.subst[v] = image
        del self.kenv[v]


def unify(
    kenv: KindAssignment,
    equations,
    fresh=None,
    trace: list | None = None,
) -> tuple[KindAssignment, Substitution]:
    """Most general unifier of a kinded equation set.

    Returns (residual kind assignment, substitution); raises
    UnificationError when no unifier exists.  `fresh` supplies variables
    for the two-chain merge; `trace`, if given, collects applied rule
    names.
    """
    eqs = list(equations)
    if not wf_kind_assignment(kenv):
        raise ValueError("unify: kind assignment not well formed")
    for a, b in eqs:
        for v in ftv(a) | ftv(b):
            if v not in kenv:
                raise ValueError(f"unify: equation variable '{v.name or v.uid}' unkinded")
    kenv = dict(kenv)
    subst: Substitution = {}
    unify_in_place(kenv, subst, eqs, fresh if fresh is not None else internal_fresh, trace)
    return (
        {v: resolve(subst, k) for v, k in kenv.items()},
        {v: resolve(subst, v) for v in list(subst)},
    )


def unify_in_place(
    kenv: KindAssignment,
    subst: Substitution,
    equations,
    fresh,
    trace: list | None = None,
    levels=None,
):
    """Solve the equations into a kind assignment and a triangular
    substitution, both updated in place.

    Every variable of the equations, once resolved through subst, must
    have a kind in kenv; the kinds themselves may still mention bound
    variables.  There is no entry check and no copy; on UnificationError
    the state is left part-way.

    `levels`, if given, follows which types hang off which variables:
    `levels.lower(v, *types)` is called before v is bound to the types and
    after they enter v's kind from an eliminated variable's, and
    `levels.lose(v, *types)` when v's kind, or some kind (v None), drops
    them: the fields a variable bound to a record forbade, and what
    reduction removes from an equation's sides."""
    st = _State(kenv, subst, equations, fresh, trace, levels)
    while st.eqs:
        t1, t2 = st.eqs.popleft()
        _step(st, resolve(subst, t1), resolve(subst, t2))


def _step(st: _State, t1: MonoType, t2: MonoType, retried: bool = False):
    # i) equal modulo reduction
    if equiv(t1, t2):
        st.note("i")
        if st.levels is not None and ftv(t1) is not ftv(t2):
            st.levels.lose(None, *(ftv(t1) ^ ftv(t2)))
        return
    # v) record decomposition
    if isinstance(t1, RecordType) and isinstance(t2, RecordType):
        m1, m2 = t1.field_map(), t2.field_map()
        if m1.keys() != m2.keys():
            raise UnificationError(KIND, "records with different label sets")
        st.note("v")
        st.push(*((m1[l], m2[l]) for l in m1))
        return
    # vi) arrow decomposition
    if isinstance(t1, Arrow) and isinstance(t2, Arrow):
        st.note("vi")
        st.push((t1.dom, t2.dom), (t1.cod, t2.cod))
        return
    # ii) universally kinded variable; when both sides qualify, the newer
    # variable is eliminated, so results do not depend on equation order
    candidates = [
        (a, b)
        for a, b in ((t1, t2), (t2, t1))
        if isinstance(a, TyVar) and isinstance(st.kenv.get(a), UKind)
    ]
    if candidates:
        a, b = max(candidates, key=lambda ab: ab[0].uid)
        if a in ftv(b):
            raise UnificationError(OCCURS, "variable occurs in its own solution")
        st.note("ii")
        st.bind(a, b)
        return
    # iii) two record-kinded variables; the newer one is eliminated
    if (
        isinstance(t1, TyVar)
        and isinstance(t2, TyVar)
        and isinstance(st.kenv.get(t1), RecordKind)
        and isinstance(st.kenv.get(t2), RecordKind)
    ):
        if t1.uid < t2.uid:
            t1, t2 = t2, t1
        st.note("iii")
        _meet(st, t1, t2, t2)
        return
    # iv) record-kinded variable against a record type
    for a, b in ((t1, t2), (t2, t1)):
        if (
            isinstance(a, TyVar)
            and isinstance(st.kenv.get(a), RecordKind)
            and isinstance(b, RecordType)
        ):
            st.note("iv")
            _meet(st, a, b, None)
            return
    # vii) record-kinded variable against a normal chain with a kinded
    # variable base.  A reducible chain falls through to the normalization
    # retry below: its syntactic operations misstate its net field effect.
    for a, b in ((t1, t2), (t2, t1)):
        if (
            isinstance(a, TyVar)
            and isinstance(st.kenv.get(a), RecordKind)
            and _is_chain(b)
            and is_normal(b)
        ):
            base = base_of(b)
            if isinstance(base, TyVar) and isinstance(st.kenv.get(base), RecordKind):
                st.note("vii")
                _meet(st, a, b, base)
                return
    # viii) matching operation on two chains over variables
    if _is_chain(t1) and _is_chain(t2):
        base1, ops1 = chain_ops(t1)
        base2, ops2 = chain_ops(t2)
        if isinstance(base1, TyVar) and isinstance(base2, TyVar):
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
    # Substitution can build chains over record bases and other reducible
    # shapes the rules above do not match; retry once on normal forms.  Past
    # this point t1 and t2 are normal: the retry ran, or left them as they
    # were.  `normalize` returns a normal type itself, so identity tells
    # which; `==` would recurse down both chains.
    if not retried:
        n1, n2 = normalize(t1), normalize(t2)
        if n1 is not t1 or n2 is not t2:
            if st.levels is not None:
                st.levels.lose(None, *(ftv(t1) - ftv(n1)), *(ftv(t2) - ftv(n2)))
            _step(st, n1, n2, retried=True)
            return
    # ix) two chains over distinct record-kinded variables, merged onto a
    # fresh common base
    if _is_chain(t1) and _is_chain(t2):
        base1, ops1 = chain_ops(t1)
        base2, ops2 = chain_ops(t2)
        if (
            isinstance(base1, TyVar)
            and isinstance(base2, TyVar)
            and base1 != base2
            and isinstance(st.kenv.get(base1), RecordKind)
            and isinstance(st.kenv.get(base2), RecordKind)
        ):
            st.note("ix")
            _rule_ix(st, base1, ops1, base2, ops2)
            return
    # x) derived: chain over a variable base against a plain record
    for a, b in ((t1, t2), (t2, t1)):
        if _is_chain(a) and isinstance(b, RecordType):
            if isinstance(base_of(a), TyVar):
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


def _meet(st: _State, v: TyVar, image: MonoType, base: TyVar | None):
    """Eliminate the record-kinded variable v into image, once image's field
    facts meet v's kind: rules iii, iv and vii, and both halves of ix.  The
    facts come from base's kind, when image is base or a chain over it, or
    from image itself, a record, when base is None.

    Each field of v's kind that the facts state is equated with the facts'
    type.  When image is base, v's fields go into base's kind over base's
    own entries (the two are equated anyway).  A chain over base only
    moves labels of base's kind, so base keeps its own entries and gains
    v's fields on the labels it does not state.  A record states every
    label, and the types of the fields v forbade are dropped."""
    k: RecordKind = st.kind(v)
    occurs = v in ftv(image)
    if occurs and base is not None:
        # checked before the facts, which would otherwise mention v
        raise UnificationError(OCCURS, "variable occurs in its own solution")
    eqs = []
    if base is None:
        present, absent = image.field_map(), {}
    else:
        kb = st.kind(base)
        present, absent = kb.left_map(), kb.right_map()
        if image != base:
            present, absent = _moved(present, absent, image, eqs)
    lefts, rights = k.left_map(), k.right_map()
    missing = [l for l in lefts if l in absent or base is None and l not in present]
    if missing:
        raise UnificationError(KIND, ABSENT.format(missing))
    clash = [l for l in rights if l in present]
    if clash:
        raise UnificationError(KIND, PRESENT.format(clash))
    if occurs:
        raise UnificationError(OCCURS, "variable occurs in its own solution")
    eqs += [(t, present[l]) for l, t in lefts.items() if l in present]
    eqs += [(t, absent[l]) for l, t in rights.items() if l in absent]
    if base is None:
        if st.levels is not None:
            st.levels.lose(v, *rights.values())
        st.bind(v, image)
    else:
        if image != base:
            # the chain's facts state every label of base's kind
            lefts = {l: t for l, t in lefts.items() if l not in present}
            rights = {l: t for l, t in rights.items() if l not in absent}
            adds = True
        else:  # the facts are base's kind
            adds = present.keys().isdisjoint(lefts) and absent.keys().isdisjoint(rights)
        kind = apply_type({v: image}, _merged_kind(kb, lefts, rights, adds))
        if base in ftv(kind):
            raise UnificationError(OCCURS, OWN_KIND)
        st.bind(v, image)
        st.kenv[base] = kind
        if st.levels is not None:
            st.levels.lower(base, *lefts.values(), *rights.values())
    st.push(*eqs)


def _moved(kl: dict, kr: dict, t: MonoType, eqs: list) -> tuple[dict, dict]:
    """The field facts of a chain over a base whose kind has the sides kl
    and kr: the kind with the labels the chain moves taken across, at the
    operations' own types.  An extension needs its label forbidden by the
    kind and a contraction its label required.  A kind entry that is not
    equivalent to its operation's type goes to eqs, in chain order: a merge
    may have written another type over it, with the equation between the
    two still queued."""
    maps = label_maps(t.ops)
    if maps is None:
        raise UnificationError(KIND, "chain's operations contradict its base's kind")
    ext, con = maps
    if not (ext.items() <= kr.items() and con.items() <= kl.items()):
        # the maps do not keep the order of operations across the two signs
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
    return present, absent


def _merged_kind(kb: RecordKind, lefts: dict, rights: dict, adds: bool) -> RecordKind:
    """kb with the fields lefts and rights written over its own, which adds
    labels only if `adds`.  The checks of `_meet` keep the two sides
    disjoint, and the merge keeps them sorted, so the kind is built without
    the constructor's checks.  When the merge only adds labels, its free
    variables are kb's plus the new fields'."""
    if adds:
        fv = union_all([ftv(kb), *map(ftv, lefts.values()), *map(ftv, rights.values())])
        return trusted_record_kind(_add_fields(kb.lefts, lefts), _add_fields(kb.rights, rights), fv)
    return trusted_record_kind(
        tuple(sorted({**kb.left_map(), **lefts}.items())),
        tuple(sorted({**kb.right_map(), **rights}.items())),
    )


def _add_fields(side: tuple, new: dict) -> tuple:
    """A sorted side with new labels added, sharing its (label, type) pairs."""
    return tuple(sorted(side + tuple(new.items()))) if new else side


def _rule_ix(st: _State, v1: TyVar, ops1, v2: TyVar, ops2):
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
    fresh = st.fresh()
    st.kenv[fresh] = RecordKind(tuple(lefts.items()), tuple(rights.items()))
    _meet(st, v1, chain(fresh, ops2), fresh)
    _meet(st, v2, chain(fresh, ops1), fresh)


def _rule_chain_record(st: _State, t: MonoType, rec: RecordType):
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
    st.push(*((ext[l], fields[l]) for l in sorted(ext)))
    st.push((t.bottom, RecordType(tuple(reduced.items()))))


def _fail(st: _State, t1: MonoType, t2: MonoType):
    for a, b in ((t1, t2), (t2, t1)):
        if isinstance(a, TyVar) and a in ftv(b):
            raise UnificationError(OCCURS, "variable occurs in the other side")
        if _is_chain(a):
            base = base_of(a)
            if isinstance(base, TyVar) and base in ftv(b):
                raise UnificationError(OCCURS, "chain base occurs in the other side")
    rigid = (BaseType, Arrow)
    if isinstance(t1, rigid) or isinstance(t2, rigid):
        raise UnificationError(CONSTRUCTOR, "incompatible type constructors")
    raise UnificationError(KIND, "no rule applies; kinds are incompatible")
