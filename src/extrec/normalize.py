"""Reduction of extensible types to canonical form, and the equivalences it
decides on types, kinds and polytypes.

The rewrite system cancels matching extension/contraction pairs and folds
field operations into record bases.  `reduce_once` and `one_step_reducts`
state it one step at a time, as the reference the faster functions are
tested against.

`normalize` reaches the same normal form in one bottom-up pass: it
normalizes a node's children, then folds a chain's operations into its
record base innermost-first, or cancels its pairs over a variable base in
one left-to-right sweep.  The surviving operations over a variable are
sorted by label, which turns the "same base, same field information"
notion of equality into plain structural equality.  There is no step
limit: every chain is taken apart once.
"""

from __future__ import annotations

from collections import deque

from .syntax import (
    IS_NORMAL,
    Arrow,
    BaseType,
    Contr,
    Ext,
    Kind,
    MonoType,
    PolyType,
    RecordType,
    Substitution,
    TyVar,
    map_type,
)

EXT = 1
CON = -1


def chain_ops(t: MonoType) -> tuple[MonoType, list[tuple[int, str, MonoType]]]:
    """Split an Ext/Contr chain into (base, ops), ops listed innermost first."""
    ops: list[tuple[int, str, MonoType]] = []
    while isinstance(t, (Ext, Contr)):
        sign = EXT if isinstance(t, Ext) else CON
        ops.append((sign, t.label, t.field_type))
        t = t.base
    ops.reverse()
    return t, ops


def rebuild_chain(base: MonoType, ops) -> MonoType:
    t = base
    for sign, label, fty in ops:
        t = Ext(t, label, fty) if sign == EXT else Contr(t, label, fty)
    return t


def _record_rule(base: RecordType, ops):
    """Rules folding the innermost operation into a record base, or None."""
    sign, label, fty = ops[0]
    fields = base.field_map()
    if sign == CON:
        if label in fields and equiv(fields[label], fty):
            del fields[label]
            return rebuild_chain(RecordType(tuple(fields.items())), ops[1:])
        return None
    if label not in fields:
        fields[label] = fty
        return rebuild_chain(RecordType(tuple(fields.items())), ops[1:])
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
            out.append(rebuild_chain(base, rest))
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
        base, ops = chain_ops(t)
        yield base, lambda s: rebuild_chain(s, ops)
        for idx, (sign, l, ft) in enumerate(ops):
            yield ft, lambda s, idx=idx: rebuild_chain(
                base, ops[:idx] + [(ops[idx][0], ops[idx][1], s)] + ops[idx + 1 :]
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


def _fold_into_record(base: RecordType, ops):
    """Fold operations into a record base innermost-first, up to the first
    one that sticks: (new base, operations left), or None if none folds."""
    fields = base.field_map()
    folded = 0
    for sign, label, fty in ops:
        if sign == CON:
            if fields.get(label) != fty:
                break
            del fields[label]
        elif label in fields:
            break
        else:
            fields[label] = fty
        folded += 1
    if not folded:
        return None
    return RecordType(tuple(fields.items())), ops[folded:]


def _cancel_pairs(ops):
    """Drop the cancelling +/- pairs of a chain over a variable.

    One left-to-right sweep: each operation cancels the earliest open one
    with the same label and field type and the opposite sign.  These are
    the pairs that repeated `_first_cancelling_pair` removes, also when a
    label repeats.  Field types must be normal, so that equivalence is
    equality.
    """
    open_ops: dict[tuple, deque[int]] = {}
    dropped = set()
    for j, (sign, label, fty) in enumerate(ops):
        partners = open_ops.get((label, -sign, fty))
        if partners:
            dropped.add(partners.popleft())
            dropped.add(j)
        else:
            open_ops.setdefault((label, sign, fty), deque()).append(j)
    if not dropped:
        return ops
    return [op for k, op in enumerate(ops) if k not in dropped]


def normalize(t: MonoType) -> MonoType:
    """Unique normal form, with the operations of every chain over a variable
    sorted by label.  Returns t itself when it is in that form already.

    The answer is cached on t and marked on the normal form, so that asking
    again about either costs one slot read."""
    if isinstance(t, (BaseType, TyVar)):
        return t
    nf = t._nf
    if nf is not None:
        return t if nf is IS_NORMAL else nf
    if isinstance(t, (Ext, Contr)):
        nf = _normalize_chain(t)
    else:
        nf = map_type(normalize, t)
    if nf is t:
        object.__setattr__(t, "_nf", IS_NORMAL)
    else:
        object.__setattr__(t, "_nf", nf)
        if not isinstance(nf, (BaseType, TyVar)):
            object.__setattr__(nf, "_nf", IS_NORMAL)
    return nf


def _normalize_chain(t: MonoType) -> MonoType:
    base, ops = chain_ops(t)
    new_base = normalize(base)
    new_ops = [(sign, label, normalize(fty)) for sign, label, fty in ops]
    changed = new_base is not base or any(
        new[2] is not old[2] for new, old in zip(new_ops, ops)
    )
    if isinstance(new_base, RecordType):
        folded = _fold_into_record(new_base, new_ops)
        if folded is not None:
            new_base, new_ops = folded
            changed = True
    elif isinstance(new_base, TyVar):
        kept = _cancel_pairs(new_ops)
        changed = changed or kept is not new_ops
        # Stable by label: distinct labels (the normal-form case) get a total
        # order; repeated labels in unkindable debris keep their chain order.
        # Operations stuck over a record base stay put: the folding rules
        # consume them innermost-first, so their order is meaningful.
        if any(a[1] > b[1] for a, b in zip(kept, kept[1:])):
            kept.sort(key=lambda op: op[1])
            changed = True
        new_ops = kept
    return rebuild_chain(new_base, new_ops) if changed else t


def is_normal(t: MonoType) -> bool:
    """No reduction applies anywhere in t (`reduce_once(t) is None`).

    A chain is checked in one sweep: its base and field types are normal,
    its innermost operation does not fold into a record base, and no pair
    of its operations over a variable cancels."""
    if normalize(t) is t:
        return True
    if isinstance(t, Arrow):
        return is_normal(t.dom) and is_normal(t.cod)
    if isinstance(t, RecordType):
        return all(is_normal(fty) for _, fty in t.fields)
    base, ops = chain_ops(t)
    if not is_normal(base) or not all(is_normal(fty) for _, _, fty in ops):
        return False
    if isinstance(base, RecordType):
        return _record_rule(base, ops) is None
    normal_ops = [(sign, label, normalize(fty)) for sign, label, fty in ops]
    return _cancel_pairs(normal_ops) is normal_ops


def equiv(t1: MonoType, t2: MonoType) -> bool:
    """Type equality modulo reduction and label permutation."""
    return t1 is t2 or t1 == t2 or normalize(t1) == normalize(t2)


def kind_equiv(k1: Kind, k2: Kind) -> bool:
    return map_type(normalize, k1) == map_type(normalize, k2)


def norm_poly(p: PolyType) -> PolyType:
    quants = tuple((v, map_type(normalize, k)) for v, k in p.quants)
    return PolyType(quants, normalize(p.body))


def poly_equiv(p1: PolyType, p2: PolyType) -> bool:
    return norm_poly(p1) == norm_poly(p2)


def subst_equal(s1: Substitution, s2: Substitution) -> bool:
    """Substitution equality: images agree up to equiv on every variable."""
    for v in s1.keys() | s2.keys():
        if not equiv(s1.get(v, v), s2.get(v, v)):
            return False
    return True
