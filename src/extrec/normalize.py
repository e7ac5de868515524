"""Reduction of extensible types to canonical form, and the equivalence it
decides on types, kinds and polytypes alike.

The rewrite system cancels matching extension/contraction pairs and folds
field operations into record bases.  `reduce_once` and `one_step_reducts`
state it one step at a time, as the reference the faster functions are
tested against.

`normalize` reaches the same normal form in one bottom-up pass.  It
normalizes a node's children and builds a chain's normal form on that of
its longest prefix known to be normal: the first `_np` operations (see
`syntax`), else the bottom alone.  Only the operations after the prefix
are read.  Over a record they fold into it innermost-first.  Over a
variable they merge into the prefix's sorted operations: each cancels its
innermost open partner, and the survivors are sorted by label, which
turns the "same base, same field information" notion of equality into
plain structural equality.  Only the prefix's operations in the new
labels' range, found by bisection, take part; the rest of the tuple is
sliced around them.  A fresh chain is the case where the prefix is the
bottom.  There is no step limit: every chain is taken apart once.

A kind or a polytype is normalized by mapping `normalize` over it
(`syntax.map_type`), without a cache, so `equiv` compares two kinds or
two polytypes as it compares two monotypes.

`label_maps` reads a chain's operations as two label maps; it is how
unification reads a chain's field facts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from operator import itemgetter

from .syntax import (
    CON,
    EXT,
    IS_NORMAL,
    Arrow,
    BaseType,
    Contr,
    Ext,
    MonoType,
    RecordType,
    TyVar,
    chain,
    ftv,
    map_type,
    trusted_record,
)

_LABEL = itemgetter(1)
_FIELD_LABEL = itemgetter(0)


def chain_ops(t: MonoType) -> tuple[MonoType, tuple[tuple[int, str, MonoType], ...]]:
    """(bottom, operations innermost first) of an extensible type: a chain's
    own, or t and none."""
    return (t.bottom, t.ops) if isinstance(t, (Ext, Contr)) else (t, ())


def _record_rule(base: RecordType, ops):
    """Rules folding the innermost operation into a record base, or None."""
    sign, label, fty = ops[0]
    fields = base.field_map()
    if sign == CON:
        if label in fields and equiv(fields[label], fty):
            del fields[label]
            return chain(RecordType(tuple(fields.items())), ops[1:])
        return None
    if label not in fields:
        fields[label] = fty
        return chain(RecordType(tuple(fields.items())), ops[1:])
    return None


def _first_cancelling_pair(ops):
    """Positions of the first same-label, same-field-type +/- pair, or None.

    Field types are compared modulo equivalence; equal extensible types are
    interchangeable everywhere, including inside field operations.
    """
    for i in range(len(ops)):
        si, li, ti = ops[i]
        for j in range(i + 1, len(ops)):
            sj, lj, tj = ops[j]
            if li == lj and si == -sj and equiv(ti, tj):
                return i, j
    return None


def _chain_reducts(t: MonoType) -> list[MonoType]:
    """Every one-step reduct available at the top of a chain node."""
    base, ops = chain_ops(t)
    out = []
    if isinstance(base, RecordType) and ops:
        r = _record_rule(base, ops)
        if r is not None:
            out.append(r)
    if isinstance(base, TyVar):
        pair = _first_cancelling_pair(ops)
        if pair is not None:
            i, j = pair
            rest = [op for k, op in enumerate(ops) if k not in (i, j)]
            out.append(chain(base, rest))
    return out


def _subterm_slots(t: MonoType):
    """Immediate positions reduction may recurse into, innermost-first for
    chains: base before operation field types, in chain order."""
    if isinstance(t, Arrow):
        yield t.dom, lambda s: Arrow(s, t.cod)
        yield t.cod, lambda s: Arrow(t.dom, s)
    elif isinstance(t, RecordType):
        for idx, (l, ft) in enumerate(t.fields):
            yield ft, lambda s, idx=idx: RecordType(
                t.fields[:idx] + ((t.fields[idx][0], s),) + t.fields[idx + 1 :]
            )
    elif isinstance(t, (Ext, Contr)):
        base, ops = t.bottom, t.ops
        yield base, lambda s: chain(s, ops)
        for idx, (sign, l, ft) in enumerate(ops):
            yield ft, lambda s, idx=idx: chain(
                base, ops[:idx] + ((sign, l, s),) + ops[idx + 1 :]
            )


def reduce_once(t: MonoType) -> MonoType | None:
    """One reduction step at the leftmost-innermost applicable position;
    None when t is in normal form."""
    if isinstance(t, (BaseType, TyVar)):
        return None
    for sub, put in _subterm_slots(t):
        r = reduce_once(sub)
        if r is not None:
            return put(r)
    if isinstance(t, (Ext, Contr)):
        reducts = _chain_reducts(t)
        if reducts:
            return reducts[0]
    return None


def one_step_reducts(t: MonoType) -> list[MonoType]:
    """All types reachable in exactly one reduction step (any position)."""
    out = []
    if isinstance(t, (BaseType, TyVar)):
        return out
    for sub, put in _subterm_slots(t):
        out.extend(put(r) for r in one_step_reducts(sub))
    if isinstance(t, (Ext, Contr)):
        out.extend(_chain_reducts(t))
    return out


def _fold_into_record(base, ops):
    """Fold operations into base, a record, innermost-first, up to the first
    one that sticks: (new base, operations left), or None if none folds,
    as over a chain stuck on a record.  Each label is found by bisection
    in the sorted fields and inserted or deleted there, so nothing is
    sorted or checked again, and the new base shares the old one's
    (label, type) pairs: extending a record of n fields allocates one pair
    and a list and a tuple of n + 1 references.  The free variables of a
    record that was only extended are the base's and the new fields'."""
    fields, fv = list(base.fields), ftv(base)
    folded = 0
    for sign, label, fty in ops:
        i = bisect_left(fields, label, key=_FIELD_LABEL)
        here = i < len(fields) and fields[i][0] == label
        if sign == CON:
            if not here or fields[i][1] != fty:
                break
            del fields[i]
            fv = None
        elif here:
            break
        else:
            fields.insert(i, (label, fty))
            if fv is not None and not ftv(fty) <= fv:
                fv = fv | ftv(fty)
        folded += 1
    if not folded:
        return None
    return trusted_record(tuple(fields), fv), ops[folded:]


def fold_op(record: RecordType, op) -> MonoType:
    """normalize(chain(record, (op,))) for a normal record and an operation
    whose field type is normal and that folds, without building the chain:
    the record with the field put in or taken out is normal.  The caller,
    inference's record branch, has met the label in `_known_field`, so a
    removal's field is present with that type and an extension's is absent."""
    folded = _fold_into_record(record, (op,))
    object.__setattr__(folded[0], "_nf", IS_NORMAL)
    return folded[0]


def _cancel_pairs(ops) -> set[int]:
    """Positions of the cancelling +/- pairs of a chain over a variable, in
    one left-to-right sweep: each operation cancels the earliest open one
    with its label and field type and the opposite sign.  These are the
    pairs repeated `_first_cancelling_pair` removes, also when a label
    repeats.  Field types must be normal, so that equivalence is equality."""
    if len(ops) < 2:
        return ()
    open_ops: dict[tuple, deque[int]] = {}
    dropped = set()
    for j, (sign, label, fty) in enumerate(ops):
        partners = open_ops.get((label, -sign, fty))
        if partners:
            dropped.add(partners.popleft())
            dropped.add(j)
        else:
            open_ops.setdefault((label, sign, fty), deque()).append(j)
    return dropped


def normalize(t):
    """Unique normal form of a monotype, with the operations of every chain
    over a variable sorted by label; of a kind or a polytype, the same
    value with every type in it normalized.  Returns t itself when it is in
    that form already.

    A compound monotype's answer is cached on it and marked on the normal
    form, so that asking again about either costs one slot read.  Kinds and
    polytypes have no cache slot and are mapped afresh."""
    c = t.__class__
    if c is TyVar or c is BaseType:
        return t
    try:
        nf = t._nf
    except AttributeError:  # a kind or a polytype
        return map_type(normalize, t)
    if nf is not None:
        return t if nf is IS_NORMAL else nf
    if c is Ext or c is Contr:
        nf = _normalize_chain(t)
    else:
        nf = map_type(normalize, t)
    if nf is t:
        object.__setattr__(t, "_nf", IS_NORMAL)
    else:
        object.__setattr__(t, "_nf", nf)
        if nf.__class__ is not TyVar and nf.__class__ is not BaseType:
            object.__setattr__(nf, "_nf", IS_NORMAL)
    return nf


def _normalize_chain(t: MonoType) -> MonoType:
    """Normal form of the chain t, by the module docstring's merge.  The
    prefix's operations are sorted and open, so only those in the new
    labels' range can cancel or move; the pairs can be cancelled after a
    stable sort, since partners share a label and it keeps their order."""
    np, ops = t._np, t.ops
    prefix, new, same = ops[:np], [], True  # same: t's field types are normal
    for op in ops[np:]:
        fty = normalize(op[2])
        if fty is not op[2]:
            op, same = (op[0], op[1], fty), False
        new.append(op)
    bottom = normalize(t.bottom) if not np else t.bottom
    same = same and bottom is t.bottom  # t is bottom + prefix + new
    if isinstance(bottom, RecordType):
        folded = None if prefix else _fold_into_record(bottom, new)
        if folded is not None:
            return chain(*folded)
        # stuck: the rules fold innermost-first, so the order left matters
        return t if same else chain(bottom, prefix + tuple(new))
    news = sorted(new, key=_LABEL) if len(new) > 1 else new
    lo = bisect_left(prefix, news[0][1], key=_LABEL)
    hi = bisect_right(prefix, news[-1][1], lo, key=_LABEL)
    kept = sorted(prefix[lo:hi] + tuple(news), key=_LABEL)  # prefix's first at equal labels
    dropped = _cancel_pairs(kept)
    if dropped:
        kept = [op for j, op in enumerate(kept) if j not in dropped]
    out = prefix[:lo] + tuple(kept) + prefix[hi:]
    if same and out == ops:
        return t
    return chain(bottom, out, t._fv if same and not dropped else None)


def label_maps(ops) -> tuple[dict, dict] | None:
    """A chain's operations as two label maps, (extended label -> field type,
    contracted label -> field type), each in chain order; None when a label
    repeats with one sign.  A label may appear in both maps."""
    ext, con = {}, {}
    for sign, label, fty in ops:
        side = ext if sign == EXT else con
        if label in side:
            return None
        side[label] = fty
    return ext, con


def is_normal(t: MonoType) -> bool:
    """No reduction applies anywhere in t.  A value that is its own sorted
    normal form answers from its cache; any other asks the reference."""
    return normalize(t) is t or reduce_once(t) is None


def equiv(t1, t2) -> bool:
    """Equality modulo reduction and label permutation, of two monotypes,
    two kinds or two polytypes (whose equality is alpha-invariant): their
    normal forms, compared once.  Two equal values have equal normal forms,
    and a compound monotype caches its own."""
    return t1 is t2 or normalize(t1) == normalize(t2)
