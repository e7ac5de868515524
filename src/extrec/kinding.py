"""Well-formedness checks and the kinding judgment.

has_kind works by synthesizing, for an extensible type, the full field
information any derivation could establish: which labels are provably
present (with their types) and which are provably absent.  A requested
record kind then holds iff it is a sub-specification of that synthesis.
Chains over a record base additionally satisfy absence of any label the
chain never mentions, at any well-formed type.

`field_info` is the reference synthesis, for `has_kind`, `unkinded_chain`
and the tests.  Unification reads the same facts its own way, from a
base's kind and the label maps of the chain's operations
(`normalize.label_maps`).
"""

from __future__ import annotations

from .normalize import EXT, chain_ops, equiv
from .syntax import (
    Contr,
    Ext,
    Frozen,
    Kind,
    KindAssignment,
    MonoType,
    PolyType,
    RecordKind,
    RecordType,
    TypeAssignment,
    TyVar,
    UKind,
    ftv,
    map_type,
)


def wf_kind_assignment(kenv: KindAssignment) -> bool:
    """Every kind's free variables stay inside the assignment's domain: one
    subset test per kind, which uses the hashes the sets store."""
    kinded = frozenset(kenv)
    return all(ftv(k) <= kinded for k in kenv.values())


def wf_type(kenv: KindAssignment, t: MonoType | Kind | PolyType) -> bool:
    """Every free variable of the monotype, kind or polytype t has a kind."""
    return all(v in kenv for v in ftv(t))


def wf_type_assignment(kenv: KindAssignment, gamma: TypeAssignment) -> bool:
    return all(wf_type(kenv, sigma) for sigma in gamma.values())


class FieldInfo(Frozen):
    """Maximal field facts derivable for an extensible type; `record_base`
    says that unmentioned labels are absent at any type."""

    __slots__ = _fields = ("present", "absent", "record_base")


def field_info(kenv: KindAssignment, t: MonoType) -> FieldInfo | None:
    """Synthesize field facts, or None when no record kind is derivable.

    The facts of a chain's base are folded through its operations
    innermost-first, in one pair of maps."""
    base, ops = chain_ops(t)
    if isinstance(base, TyVar):
        k = kenv.get(base)
        if not isinstance(k, RecordKind):
            return None
        present, absent, record_base = k.left_map(), k.right_map(), False
    elif isinstance(base, RecordType):
        present, absent, record_base = base.field_map(), {}, True
    else:
        return None
    for sign, label, fty in ops:
        if sign == EXT:
            if label in present:
                return None
            if label in absent:
                if not equiv(absent.pop(label), fty):
                    return None
            elif not record_base:
                return None
            present[label] = fty
        else:
            if label not in present or not equiv(present.pop(label), fty):
                return None
            absent[label] = fty
    return FieldInfo(present, absent, record_base)


def unkinded_chain(kenv: KindAssignment, t: MonoType | Kind | PolyType) -> MonoType | None:
    """The first chain in the monotype, kind or polytype t that has no
    kind (`field_info` gives None) under kenv and t's own quantifiers, or
    None when every chain has one."""
    if isinstance(t, PolyType) and t.quants:
        kenv = {**kenv, **dict(t.quants)}
    if isinstance(t, (Ext, Contr)) and field_info(kenv, t) is None:
        return t
    hits = []
    map_type(lambda child: hits.append(unkinded_chain(kenv, child)) or child, t)
    return next((hit for hit in hits if hit is not None), None)


def has_kind(kenv: KindAssignment, t: MonoType, k: Kind) -> bool:
    """The kinding judgment: t has kind k under kenv."""
    if not wf_type(kenv, t) or not wf_type(kenv, k):
        return False
    if isinstance(k, UKind):
        return True
    info = field_info(kenv, t)
    if info is None:
        return False
    for label, fty in k.lefts:
        if label not in info.present or not equiv(info.present[label], fty):
            return False
    for label, fty in k.rights:
        if label in info.absent:
            if not equiv(info.absent[label], fty):
                return False
        elif not (info.record_base and label not in info.present):
            return False
    return True
