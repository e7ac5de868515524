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

Extensible types are not normalized eagerly; a normalization retry plus a
chain-against-record decomposition cover the shapes plain substitution can
produce that the primary rules do not match.

Each applied rule strictly shrinks (unsolved variables, equation size,
cancellable-operation count) lexicographically, so the loop terminates.
"""

from __future__ import annotations

from collections import deque

from .kinding import field_info, wf_kind_assignment
from .normalize import chain_ops, equiv, is_normal, normalize, rebuild_chain, CON, EXT
from .subst import apply_kind, resolve
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
    ftv,
    internal_fresh,
    is_extensible,
)

OCCURS = "occurs_check"
KIND = "kind_clash"
CONSTRUCTOR = "constructor_clash"


class UnificationError(Exception):
    def __init__(self, reason: str, message: str):
        self.reason = reason
        self.message = message
        super().__init__(f"{reason}: {message}")


def efields(t: MonoType) -> dict:
    """Labels extended along t's chain, mapped to their field types."""
    if not is_extensible(t):
        raise ValueError(f"efields: not an extensible type: {t!r}")
    _, ops = chain_ops(t)
    return {l: f for sign, l, f in ops if sign == EXT}


def cfields(t: MonoType) -> dict:
    """Labels contracted along t's chain, mapped to their field types."""
    if not is_extensible(t):
        raise ValueError(f"cfields: not an extensible type: {t!r}")
    _, ops = chain_ops(t)
    return {l: f for sign, l, f in ops if sign == CON}


def fmap_plus(f1: dict, f2: dict) -> dict:
    """Union of two label maps, preferring f1 on overlap."""
    out = dict(f2)
    out.update(f1)
    return out


def fmap_minus(f1: dict, f2: dict) -> dict:
    """f1 restricted to labels not in f2."""
    return {l: t for l, t in f1.items() if l not in f2}


def _is_chain(t: MonoType) -> bool:
    return isinstance(t, (Ext, Contr))


class _State:
    def __init__(self, kenv, subst, eqs, fresh, trace):
        self.eqs = deque(eqs)
        self.kenv: KindAssignment = kenv
        self.subst: Substitution = subst
        self.fresh = fresh
        self.trace = trace

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
):
    """Solve the equations into a kind assignment and a triangular
    substitution, both updated in place.

    Every variable of the equations, once resolved through subst, must
    have a kind in kenv; the kinds themselves may still mention bound
    variables.  There is no entry check and no copy; on UnificationError
    the state is left part-way."""
    st = _State(kenv, subst, equations, fresh, trace)
    while st.eqs:
        t1, t2 = st.eqs.popleft()
        _step(st, resolve(subst, t1), resolve(subst, t2))


def _step(st: _State, t1: MonoType, t2: MonoType, retried: bool = False):
    # i) equal modulo reduction
    if equiv(t1, t2):
        st.note("i")
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
        _rule_iii(st, t1, t2)
        return
    # iv) record-kinded variable against a record type
    for a, b in ((t1, t2), (t2, t1)):
        if (
            isinstance(a, TyVar)
            and isinstance(st.kenv.get(a), RecordKind)
            and isinstance(b, RecordType)
        ):
            _rule_iv(st, a, b)
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
            base, _ = chain_ops(b)
            if isinstance(base, TyVar) and isinstance(st.kenv.get(base), RecordKind):
                _rule_vii(st, a, b, base)
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
                        rebuild_chain(base1, ops1[:i] + ops1[i + 1 :]),
                        rebuild_chain(base2, ops2[:j] + ops2[j + 1 :]),
                    ),
                )
                return
    # Substitution can build chains over record bases and other reducible
    # shapes the rules above do not match; retry once on normal forms.
    if not retried:
        n1, n2 = normalize(t1), normalize(t2)
        if (n1, n2) != (t1, t2):
            _step(st, n1, n2, retried=True)
            return
    # ix) two chains over distinct record-kinded variables, merged onto a
    # fresh common base
    if _is_chain(t1) and _is_chain(t2):
        n1, n2 = normalize(t1), normalize(t2)
        if _is_chain(n1) and _is_chain(n2):
            base1, ops1 = chain_ops(n1)
            base2, ops2 = chain_ops(n2)
            if (
                isinstance(base1, TyVar)
                and isinstance(base2, TyVar)
                and base1 != base2
                and isinstance(st.kenv.get(base1), RecordKind)
                and isinstance(st.kenv.get(base2), RecordKind)
            ):
                _rule_ix(st, base1, ops1, base2, ops2)
                return
    # Derived: chain over a variable base against a plain record
    for a, b in ((t1, t2), (t2, t1)):
        na, nb = normalize(a), normalize(b)
        if _is_chain(na) and isinstance(nb, RecordType):
            base, _ = chain_ops(na)
            if isinstance(base, TyVar):
                _rule_chain_record(st, na, nb)
                return
    _fail(st, t1, t2)


def _matching_ops(ops1, ops2):
    """First same-sign, same-label operation pair across two chains."""
    for i, (s1, l1, _) in enumerate(ops1):
        for j, (s2, l2, _) in enumerate(ops2):
            if s1 == s2 and l1 == l2:
                return i, j
    return None


def _rule_iii(st: _State, v1: TyVar, v2: TyVar):
    k1: RecordKind = st.kind(v1)
    k2: RecordKind = st.kind(v2)
    f1l, f1r = k1.left_map(), k1.right_map()
    f2l, f2r = k2.left_map(), k2.right_map()
    if f1l.keys() & f2r.keys() or f1r.keys() & f2l.keys():
        raise UnificationError(
            KIND, "one variable requires a field the other forbids"
        )
    eqs = [(f1l[l], f2l[l]) for l in f1l.keys() & f2l.keys()]
    eqs += [(f1r[l], f2r[l]) for l in f1r.keys() & f2r.keys()]
    merged = RecordKind(
        tuple(fmap_plus(f1l, f2l).items()), tuple(fmap_plus(f1r, f2r).items())
    )
    merged = apply_kind({v1: v2}, merged)
    if v2 in ftv(merged):
        raise UnificationError(OCCURS, "variable occurs in its own merged kind")
    st.note("iii")
    st.bind(v1, v2)
    st.kenv[v2] = merged
    st.push(*eqs)


def _rule_iv(st: _State, v: TyVar, rec: RecordType):
    k: RecordKind = st.kind(v)
    f1l, f1r = k.left_map(), k.right_map()
    fields = rec.field_map()
    if not f1l.keys() <= fields.keys():
        missing = sorted(f1l.keys() - fields.keys())
        raise UnificationError(KIND, f"record lacks required field(s) {missing}")
    if f1r.keys() & fields.keys():
        clash = sorted(f1r.keys() & fields.keys())
        raise UnificationError(KIND, f"record carries forbidden field(s) {clash}")
    if v in ftv(rec):
        raise UnificationError(OCCURS, "variable occurs in the record type")
    st.note("iv")
    st.bind(v, rec)
    st.push(*((f1l[l], fields[l]) for l in f1l))


def _rule_vii(st: _State, v: TyVar, chain: MonoType, base: TyVar):
    k1: RecordKind = st.kind(v)
    k2: RecordKind = st.kind(base)
    f1l, f1r = k1.left_map(), k1.right_map()
    f2l, f2r = k2.left_map(), k2.right_map()
    if v in ftv(chain):
        raise UnificationError(OCCURS, "variable occurs in the chain")
    # Net field facts of the chain.  On inference-shaped chains (contracted
    # labels in the base's lefts, extended labels exactly the base's rights)
    # this is the contracted/guaranteed bookkeeping of the transformation;
    # synthesizing it from the chain also covers shapes substitution built.
    info = field_info({base: k2}, chain)
    if info is None:
        raise UnificationError(KIND, "chain's operations contradict its base's kind")
    present, absent = info.present, info.absent
    if f1l.keys() & absent.keys():
        raise UnificationError(KIND, "required field is guaranteed absent")
    if f1r.keys() & present.keys():
        raise UnificationError(KIND, "forbidden field is guaranteed present")
    eqs = [(f1l[l], present[l]) for l in f1l.keys() & present.keys()]
    eqs += [(f1r[l], absent[l]) for l in f1r.keys() & absent.keys()]
    settled = present.keys() | absent.keys()
    try:
        base_kind = RecordKind(
            tuple(fmap_plus(f2l, {l: t for l, t in f1l.items() if l not in settled}).items()),
            tuple(fmap_plus(f2r, {l: t for l, t in f1r.items() if l not in settled}).items()),
        )
    except ValueError as e:
        raise UnificationError(KIND, str(e)) from None
    base_kind = apply_kind({v: chain}, base_kind)
    if base in ftv(base_kind):
        raise UnificationError(OCCURS, "chain base occurs in its own kind")
    st.note("vii")
    st.bind(v, chain)
    st.kenv[base] = base_kind
    st.push(*eqs)


def _rule_ix(st: _State, v1: TyVar, ops1, v2: TyVar, ops2):
    chain1 = rebuild_chain(v1, ops1)
    chain2 = rebuild_chain(v2, ops2)
    e1, c1 = efields(chain1), cfields(chain1)
    e2, c2 = efields(chain2), cfields(chain2)
    labels1 = e1.keys() | c1.keys()
    labels2 = e2.keys() | c2.keys()
    if labels1 & labels2:
        # A shared same-sign pair was already taken by the cancellation
        # rule, so the shared operation here is present on one side and
        # absent on the other: unsatisfiable.
        raise UnificationError(
            KIND, "chains share a label with opposite operations"
        )
    k1: RecordKind = st.kind(v1)
    k2: RecordKind = st.kind(v2)
    f1l, f1r = k1.left_map(), k1.right_map()
    f2l, f2r = k2.left_map(), k2.right_map()
    # occurs checks look at whole chains
    if v1 in ftv(chain2) or v2 in ftv(chain1):
        raise UnificationError(OCCURS, "chain base occurs on the other side")
    ops_vars = set()
    for _, _, f in ops1 + ops2:
        ops_vars |= ftv(f)
    if v1 in ops_vars or v2 in ops_vars:
        raise UnificationError(OCCURS, "chain base occurs in an operation type")

    # The variables' kinds must be compatible with the operations landing
    # on their images: a field a kind requires cannot be contracted away,
    # and a field a kind forbids cannot be extended in.
    for fl, fr, e_opp, c_opp, e_own, c_own in (
        (f1l, f1r, e2, c2, e1, c1),
        (f2l, f2r, e1, c1, e2, c2),
    ):
        if fl.keys() & c_opp.keys() or fl.keys() & e_own.keys():
            raise UnificationError(KIND, "required field is extended or contracted away")
        if fr.keys() & e_opp.keys() or fr.keys() & c_own.keys():
            raise UnificationError(KIND, "forbidden field is supplied")

    eqs = [(f1l[l], e2[l]) for l in f1l.keys() & e2.keys()]
    eqs += [(f1r[l], c2[l]) for l in f1r.keys() & c2.keys()]
    eqs += [(f2l[l], e1[l]) for l in f2l.keys() & e1.keys()]
    eqs += [(f2r[l], c1[l]) for l in f2r.keys() & c1.keys()]

    # Demands on the fresh common base.
    left_sources = [c1, c2, fmap_minus(f1l, fmap_plus(e2, c2)), fmap_minus(f2l, fmap_plus(e1, c1))]
    right_sources = [e1, e2, fmap_minus(f1r, fmap_plus(e2, c2)), fmap_minus(f2r, fmap_plus(e1, c1))]
    lefts: dict = {}
    rights: dict = {}
    for src in left_sources:
        for l, t in src.items():
            if l in lefts:
                eqs.append((lefts[l], t))
            else:
                lefts[l] = t
    for src in right_sources:
        for l, t in src.items():
            if l in rights:
                eqs.append((rights[l], t))
            else:
                rights[l] = t
    if lefts.keys() & rights.keys():
        raise UnificationError(
            KIND, "a field is required present on one side and absent on the other"
        )

    fresh = st.fresh()
    st.note("ix")
    st.bind(v1, rebuild_chain(fresh, ops2))
    st.bind(v2, rebuild_chain(fresh, ops1))
    st.kenv[fresh] = RecordKind(tuple(lefts.items()), tuple(rights.items()))
    st.push(*eqs)


def _rule_chain_record(st: _State, chain: MonoType, rec: RecordType):
    e, c = efields(chain), cfields(chain)
    fields = rec.field_map()
    if not e.keys() <= fields.keys():
        raise UnificationError(KIND, "extended field missing from the record")
    if c.keys() & fields.keys():
        raise UnificationError(KIND, "contracted field still present in the record")
    st.note("x")
    eqs = [(e[l], fields[l]) for l in e]
    reduced = fmap_plus(c, fmap_minus(fields, e))
    st.push(*eqs, (base_of(chain), RecordType(tuple(reduced.items()))))


def _fail(st: _State, t1: MonoType, t2: MonoType):
    for a, b in ((t1, t2), (t2, t1)):
        if isinstance(a, TyVar) and a in ftv(b):
            raise UnificationError(OCCURS, "variable occurs in the other side")
        if _is_chain(a):
            base, _ = chain_ops(a)
            if isinstance(base, TyVar) and base in ftv(b):
                raise UnificationError(OCCURS, "chain base occurs in the other side")
    rigid = (BaseType, Arrow)
    if isinstance(t1, rigid) or isinstance(t2, rigid):
        raise UnificationError(CONSTRUCTOR, "incompatible type constructors")
    raise UnificationError(KIND, "no rule applies; kinds are incompatible")
