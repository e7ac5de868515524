"""Abstract syntax: terms, types, kinds, and the two assignment maps.

Everything here is an immutable value.  Type variables compare by their
integer uid; the printable name is cosmetic only.  Label maps (record
fields, record-kind sides) are kept sorted by label so that structural
equality is insensitive to the order labels were written in.

Every type, kind and polytype value caches its free type variables in a
`_fv` slot.  `ftv` fills the slot on the first request and returns the
same frozenset ever after.  Some builders fill it first, from sets they
already hold: `trusted_record_kind`, and `chain`, which every chain node
comes from.  Since the values are immutable, a cached set never goes
stale.  Substitution relies on it to return a value untouched, as the
same object, when its free variables miss the substitution's domain.

Every compound monotype (record, arrow, extension, contraction) likewise
caches its normal form in a `_nf` slot, and `normalize` is its only
writer.  A value that is its own normal form is marked with the
`IS_NORMAL` sentinel rather than a reference to itself, so that no value
sits in a reference cycle and reference counting can free it.

A chain of extensions and contractions is one node: its bottom (a type
variable or a record) and the tuple of its operations, innermost first.
Ext and Contr are the node's two classes, chosen by the top operation;
`.base`, `.label` and `.field_type` are derived from the tuple, and
equality, hashing and `repr` read it without recursing per operation.
The node's `_np` slot counts its leading operations known to form a
normal chain with the bottom: `chain` sets it from a base that is its
own normal form, and `normalize` merges only the operations after it.

A record kind built by `trusted_record_kind` skips the constructor's
sorting and checks, and may come with its `_fv` set by its builder.  Its
builders vouch for its sides: `map_type`, which keeps labels; a one-field
kind; and unification's merge of two kinds.

`map_type` is the one structural map over every type-level value: a
monotype, a kind or a polytype.  Substitution, resolution, renaming and
normalization are each one function over all three through it.  It keeps
a polytype's binders; `rebind` renames them, for alpha-equality and for
substitution's capture avoidance.  The walkers that are not maps stay
their own: `ftv`, a cached fold; the printers in `parser`; the matcher
in `subst`, which walks two types at once; and `normalize`'s reference
reducer, which stays independent of `normalize`.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass, field

Label = str

BASE_TYPES = ("Int", "Bool", "String")

# Supply for variables created internally (alpha-renaming away from a
# substitution's domain).  Kept far above ids handed out by parsers and
# inference so the ranges never collide.
_internal_uids = itertools.count(1_000_000)


def internal_fresh(name: str = "") -> "TyVar":
    return TyVar(next(_internal_uids), name)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str
    span: "object" = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Const:
    """Literal constant tagged with its base type (Int, Bool or String)."""

    value: object
    base: str
    span: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.base not in BASE_TYPES:
            raise ValueError(f"unknown base type {self.base!r}")


@dataclass(frozen=True)
class Abs:
    param: str
    body: "Term"
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Let:
    name: str
    bound: "Term"
    body: "Term"
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RecordLit:
    """Record literal; fields are stored sorted by label, labels distinct."""

    fields: tuple[tuple[Label, "Term"], ...]
    span: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "fields", _sorted_fields(self.fields))


@dataclass(frozen=True)
class Select:
    target: "Term"
    label: Label
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Modify:
    target: "Term"
    label: Label
    value: "Term"
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Remove:
    target: "Term"
    label: Label
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Extend:
    target: "Term"
    label: Label
    value: "Term"
    span: object = field(default=None, compare=False, repr=False)


Term = Var | Const | Abs | App | Let | RecordLit | Select | Modify | Remove | Extend


def _sorted_fields(fields):
    pairs = tuple(sorted(fields, key=lambda kv: kv[0]))
    labels = [l for l, _ in pairs]
    if len(set(labels)) != len(labels):
        dup = next(l for i, l in enumerate(labels) if l in labels[:i])
        raise ValueError(f"duplicate label {dup!r}")
    return pairs


# ---------------------------------------------------------------------------
# Types


def _cache_slot():
    """A cache field of a type value (`_fv`, `_nf`): filled in on first
    request by its one writer, invisible to equality, hashing and repr."""
    return field(default=None, init=False, repr=False, compare=False)


IS_NORMAL = object()


@dataclass(frozen=True, slots=True)
class BaseType:
    name: str
    _fv: "frozenset[TyVar] | None" = _cache_slot()

    def __post_init__(self):
        if self.name not in BASE_TYPES:
            raise ValueError(f"unknown base type {self.name!r}")


@dataclass(frozen=True, slots=True)
class TyVar:
    """Type variable; identity is the uid, the name is display-only."""

    uid: int
    name: str = field(default="", compare=False)
    _fv: "frozenset[TyVar] | None" = _cache_slot()

    def __hash__(self):
        return self.uid


@dataclass(frozen=True, slots=True)
class RecordType:
    fields: tuple[tuple[Label, "MonoType"], ...]
    _fv: "frozenset[TyVar] | None" = _cache_slot()
    _nf: "MonoType | object | None" = _cache_slot()

    def __post_init__(self):
        object.__setattr__(self, "fields", _sorted_fields(self.fields))

    def field_map(self) -> dict[Label, "MonoType"]:
        return dict(self.fields)


@dataclass(frozen=True, slots=True)
class Arrow:
    dom: "MonoType"
    cod: "MonoType"
    _fv: "frozenset[TyVar] | None" = _cache_slot()
    _nf: "MonoType | object | None" = _cache_slot()


EXT = 1
CON = -1


class _Chain:
    """A chain of field operations on a bottom, a type variable or a record:
    `bottom`, and `ops`, its (sign, label, field_type) triples innermost
    first, with sign EXT or CON.  Its class, Ext or Contr, is its top
    operation's.  `chain` builds every node; `Ext(base, l, t)` and
    `Contr(base, l, t)` put one operation on a base."""

    __slots__ = ("bottom", "ops", "_fv", "_nf", "_np")

    def __new__(cls, base: "MonoType", label: Label, field_type: "MonoType"):
        return chain(base, ((EXT if cls is Ext else CON, label, field_type),))

    @property
    def base(self) -> "MonoType":
        """The chain without its top operation, built anew."""
        return chain(self.bottom, self.ops[:-1])

    @property
    def label(self) -> Label:
        return self.ops[-1][1]

    @property
    def field_type(self) -> "MonoType":
        return self.ops[-1][2]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bottom == other.bottom and self.ops == other.ops

    def __hash__(self):
        return hash((self.bottom, self.ops))

    def __repr__(self):
        """The nested constructor calls: Ext(base=..., label=..., field_type=...)."""
        names = ["Ext(base=" if sign == EXT else "Contr(base=" for sign, _, _ in reversed(self.ops)]
        tails = [f", label={label!r}, field_type={fty!r})" for _, label, fty in self.ops]
        return "".join(names) + repr(self.bottom) + "".join(tails)

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Ext(_Chain):
    """Field extension on an extensible head: base + {label: field_type}."""

    __slots__ = ()


class Contr(_Chain):
    """Field contraction on an extensible head: base - {label: field_type}."""

    __slots__ = ()


MonoType = BaseType | TyVar | RecordType | Arrow | Ext | Contr


def chain(base: MonoType, ops, fv: "frozenset[TyVar] | None" = None) -> MonoType:
    """base under the operations ops, (sign, label, field_type) triples
    innermost first; base itself when there are none.  A chain base is
    flattened: its operations go first.  `fv`, if given, is the result's
    free variables; else they are base's with the new field types'."""
    if not ops:
        return base
    ops = tuple(ops)
    if isinstance(base, _Chain):
        bottom, np = base.bottom, len(base.ops) if base._nf is IS_NORMAL else base._np
        all_ops = base.ops + ops
    elif isinstance(base, (TyVar, RecordType)):
        bottom, np, all_ops = base, 0, ops
    else:
        what = "extension" if ops[-1][0] == EXT else "contraction"
        raise ValueError(f"{what} base must be an extensible type")
    if fv is None:
        fv = ftv(base)
        for _, _, fty in ops:
            fv = _union(fv, ftv(fty))
    t = object.__new__(Ext if ops[-1][0] == EXT else Contr)
    object.__setattr__(t, "bottom", bottom)
    object.__setattr__(t, "ops", all_ops)
    object.__setattr__(t, "_fv", fv)
    object.__setattr__(t, "_nf", None)
    object.__setattr__(t, "_np", np)
    return t


INT = BaseType("Int")
BOOL = BaseType("Bool")
STRING = BaseType("String")
EMPTY_RECORD = RecordType(())


def is_extensible(t: MonoType) -> bool:
    return isinstance(t, (TyVar, RecordType, Ext, Contr))


def base_of(t: MonoType) -> MonoType:
    """Bottom of an Ext/Contr chain: the type variable or record type."""
    if isinstance(t, _Chain):
        return t.bottom
    if isinstance(t, (TyVar, RecordType)):
        return t
    raise ValueError(f"base_of: not an extensible type: {t!r}")


# ---------------------------------------------------------------------------
# Kinds


@dataclass(frozen=True, slots=True)
class UKind:
    """The universal kind: no constraint beyond well-formedness."""

    _fv: "frozenset[TyVar] | None" = _cache_slot()


@dataclass(frozen=True, slots=True)
class RecordKind:
    """Fields the type must have (lefts) and must lack (rights)."""

    lefts: tuple[tuple[Label, MonoType], ...]
    rights: tuple[tuple[Label, MonoType], ...]
    _fv: "frozenset[TyVar] | None" = _cache_slot()

    def __post_init__(self):
        object.__setattr__(self, "lefts", _sorted_fields(self.lefts))
        object.__setattr__(self, "rights", _sorted_fields(self.rights))
        shared = {l for l, _ in self.lefts} & {l for l, _ in self.rights}
        if shared:
            raise ValueError(f"label on both kind sides: {sorted(shared)}")

    def left_map(self) -> dict[Label, MonoType]:
        return dict(self.lefts)

    def right_map(self) -> dict[Label, MonoType]:
        return dict(self.rights)


Kind = UKind | RecordKind

U = UKind()


def record_kind(lefts=(), rights=()) -> RecordKind:
    return RecordKind(tuple(dict(lefts).items()), tuple(dict(rights).items()))


def trusted_record_kind(lefts, rights, fv=None) -> RecordKind:
    """A record kind from sides that are already sorted by label, without
    repeated labels, and disjoint, built without checking them; `fv`, if
    given, is its free variables and fills the `_fv` cache."""
    k = object.__new__(RecordKind)
    object.__setattr__(k, "lefts", lefts)
    object.__setattr__(k, "rights", rights)
    object.__setattr__(k, "_fv", fv)
    return k


# ---------------------------------------------------------------------------
# Polytypes


@dataclass(frozen=True, eq=False, slots=True)
class PolyType:
    """Prenex kinded-quantified type.

    Equality is alpha-invariant: renaming the quantified variables (keeping
    order and kinds) is invisible.
    """

    quants: tuple[tuple[TyVar, Kind], ...]
    body: MonoType
    _fv: "frozenset[TyVar] | None" = _cache_slot()

    @property
    def is_mono(self) -> bool:
        return not self.quants

    def _canonical(self):
        c = rebind(self, [TyVar(-i) for i in range(1, len(self.quants) + 1)])
        return (tuple(k for _, k in c.quants), c.body)

    def __eq__(self, other):
        if not isinstance(other, PolyType):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())


def poly(t: MonoType) -> PolyType:
    return PolyType((), t)


# Assignments are plain dicts used functionally (copied, never mutated once
# shared).  Insertion order of a kind assignment is meaningful: entries are
# added dependencies-first.
KindAssignment = dict  # TyVar -> Kind
TypeAssignment = dict  # str -> PolyType
Substitution = dict  # TyVar -> MonoType


# ---------------------------------------------------------------------------
# Free variables

_NO_VARS: frozenset[TyVar] = frozenset()


def ftv(x) -> frozenset[TyVar]:
    """Free type variables of a monotype, polytype, or kind.

    Computed once per value, bottom-up, and cached on it.  A value shares
    its set object with a child whose set covers the other children's."""
    try:
        fv = x._fv
    except AttributeError:
        raise TypeError(f"ftv: unsupported value {x!r}") from None
    if fv is not None:
        return fv
    if isinstance(x, TyVar):
        fv = frozenset((x,))
    elif isinstance(x, Arrow):
        fv = _union(ftv(x.dom), ftv(x.cod))
    elif isinstance(x, RecordType):
        fv = union_all([ftv(t) for _, t in x.fields])
    elif isinstance(x, RecordKind):
        fv = union_all([ftv(t) for _, t in x.lefts] + [ftv(t) for _, t in x.rights])
    elif isinstance(x, PolyType):
        # A quantifier binds in later kinds and the body, not in its own kind.
        fv = ftv(x.body)
        for v, k in reversed(x.quants):
            if v in fv:
                fv = fv - {v}
            fv = _union(fv, ftv(k))
    else:  # BaseType, UKind
        fv = _NO_VARS
    object.__setattr__(x, "_fv", fv)
    return fv


def _union(a: frozenset[TyVar], b: frozenset[TyVar]) -> frozenset[TyVar]:
    """a | b, as one of the operands itself when it already holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def union_all(sets: list) -> frozenset[TyVar]:
    """The union of the sets, in one call, as the largest of them itself
    when it holds the others."""
    if not sets:
        return _NO_VARS
    largest = max(sets, key=len)
    fv = largest.union(*sets)
    return largest if len(fv) == len(largest) else fv


def ftv_assignment(gamma: TypeAssignment) -> set[TyVar]:
    acc: set[TyVar] = set()
    for sigma in gamma.values():
        acc |= ftv(sigma)
    return acc


def eftv(kenv: KindAssignment, t) -> set[TyVar]:
    """Essentially-free type variables: FTV closed under kind dependencies."""
    seed = ftv(t)
    unbound = {v for v in seed if v not in kenv}
    if unbound:
        raise ValueError(f"eftv: not well formed, unbound {sorted(v.uid for v in unbound)}")
    acc = set(seed)
    work = list(seed)
    while work:
        v = work.pop()
        k = kenv.get(v)
        if k is None:
            continue
        for w in ftv(k):
            if w not in acc:
                acc.add(w)
                work.append(w)
    return acc


def eftv_assignment(kenv: KindAssignment, gamma: TypeAssignment) -> set[TyVar]:
    acc: set[TyVar] = set()
    for sigma in gamma.values():
        acc |= eftv(kenv, sigma)
    return acc


# ---------------------------------------------------------------------------
# One structural level


def map_type(f, x):
    """x rebuilt with f applied to each child, one level down.

    x is a monotype, a kind or a polytype.  Labels are kept, so fields
    stay sorted and a kind's sides disjoint.  A polytype's children are
    its quantifiers' kinds, in order, and its body; its binders are kept,
    so avoiding capture is the caller's job.
    Returns x itself when every child comes back as the same object, so a
    walk that changes nothing allocates nothing."""
    if isinstance(x, Arrow):
        dom, cod = f(x.dom), f(x.cod)
        return x if dom is x.dom and cod is x.cod else Arrow(dom, cod)
    if isinstance(x, _Chain):
        bottom, ops = f(x.bottom), _map_ops(f, x.ops)
        return x if bottom is x.bottom and ops is x.ops else chain(bottom, ops)
    if isinstance(x, RecordType):
        fields = _map_fields(f, x.fields)
        return x if fields is x.fields else RecordType(fields)
    if isinstance(x, RecordKind):
        lefts, rights = _map_fields(f, x.lefts), _map_fields(f, x.rights)
        if lefts is x.lefts and rights is x.rights:
            return x
        return trusted_record_kind(lefts, rights)
    if isinstance(x, PolyType):
        quants, body = x.quants and _map_fields(f, x.quants), f(x.body)
        return x if quants is x.quants and body is x.body else PolyType(quants, body)
    if isinstance(x, (TyVar, BaseType, UKind)):
        return x
    raise TypeError(f"map_type: not a monotype, kind or polytype: {x!r}")


def _map_fields(f, fields):
    """(key, child) pairs with f applied to each child: record fields, kind
    sides, and a polytype's (binder, kind) quantifiers."""
    out = tuple([(key, f(t)) for key, t in fields])
    if all(new is old for (_, new), (_, old) in zip(out, fields)):
        return fields
    return out


def _map_ops(f, ops):
    out = [op if (t := f(op[2])) is op[2] else (op[0], op[1], t) for op in ops]
    if all(new is old for new, old in zip(out, ops)):
        return ops
    return tuple(out)


def rename_vars(x, mapping: dict[int, TyVar]):
    """Replace type variables per uid->TyVar map in a type, kind or polytype,
    binders included."""
    if isinstance(x, TyVar):
        return mapping.get(x.uid, x)
    if isinstance(x, PolyType):
        x = PolyType(tuple((mapping.get(v.uid, v), k) for v, k in x.quants), x.body)
    return map_type(lambda c: rename_vars(c, mapping), x)


def rebind(p: PolyType, binders) -> PolyType:
    """p with its binders replaced by `binders`, in order, and each bound
    occurrence renamed to match.  A quantifier binds in later kinds and the
    body, not in its own kind, so the renaming grows one binder at a time."""
    if not p.quants:
        return p
    mapping: dict[int, TyVar] = {}
    quants = []
    for (v, k), w in zip(p.quants, binders):
        quants.append((w, rename_vars(k, mapping)))
        mapping[v.uid] = w
    return PolyType(tuple(quants), rename_vars(p.body, mapping))
