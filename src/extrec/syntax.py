"""Abstract syntax: terms, types, kinds, and the two assignment maps.

Everything here is an immutable value.  Type variables compare by their
integer uid; the printable name is cosmetic only.  Label maps (record
fields, record-kind sides) are kept sorted by label so that structural
equality is insensitive to the order labels were written in, and `find`
looks a label up in one, or in a chain's operations sorted by label, by
bisection under its key, `FIELD_LABEL` or `OP_LABEL`.

Every value class of the package is a `Frozen` subclass with `__slots__`.
One constructor, `Frozen.__init__`, fills the slots past
`Frozen.__setattr__`, which refuses assignment: the fields a class names
in `_fields`, in order and each one required, then a term's `span`, by
position or as `span=`; every other slot, a cache, starts as None.  Eight
classes write their own: `Const`, `BaseType` and `RecordKind` check their
arguments (`Const` then fills its slots itself), `RecordLit` and
`RecordType` sort their fields (`RecordLit` then fills its slots
itself), `TyVar` has a default name, `Arrow`, built on every
substitution, fills its slots itself, and `derivation.Derivation`
checks its rule and has defaults.  `Frozen.__init__` fills two to four
slots without a loop.  A chain's
`__new__` builds the node.  The trusted builders write a value's slots
past its constructor, for callers that vouch for the fields: `chain`,
`trusted_record`, `trusted_record_kind` and `poly`, all here.  No other
module writes a slot but `normalize`, which fills `_nf` caches; the
parser builds each term through its class.  Equality, hashing and `repr`
read the fields a class names in `_fields`, as a frozen dataclass's do
(a term's `span`, a type's caches and `TyVar.name` stay out), through
closures over `operator.attrgetter`: importing the package compiles no
generated methods, as `dataclasses` would for each class.  The hot type
equalities are written out.  `dataclasses.replace` does not apply to a
value; rebuild it through its constructor.

Every type, kind and polytype value caches its free type variables in a
`_fv` slot.  `ftv` fills the slot on the first request and returns the
same frozenset ever after.  Some builders fill it first, from sets they
already hold: `trusted_record_kind`, `trusted_record`, and `chain`, which
every chain node comes from.  Since the values are immutable, a cached
set never goes stale.  Substitution relies on it to return a value
untouched, as the same object, when its free variables miss the
substitution's domain.

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

A record kind built by `trusted_record_kind`, and a record type built by
`trusted_record`, skip the constructor's sorting and checks, and may come
with their `_fv` set by their builder.  The builders vouch for the sides
or fields: `map_type`, which keeps labels; `unify`'s splice of one field
into a kind and its sorted chain facts; inference's type of a record literal,
whose fields the term keeps sorted; and normalization's fold of field
operations into a record, which inserts and deletes by bisection.

`map_type` is the one structural map over every type-level value: a
monotype, a kind or a polytype; it keeps a polytype's binders, and picks
its branch by the value's class itself.  Substitution is one walk over
it, `_walk` behind `apply_type`, with one capture rule (caught binders
are renamed by `freshen`); resolution (`unify.resolve`), renaming
(`rebind`, for alpha-equality, `freshen` and instantiation) and
`rename_vars` all go through that walk.  The walk tests a value's free
variables against the substitution once, at the top, where `resolve`,
having made that test itself, starts below it; then one closure maps
every node's children, looking a variable up in the substitution and
handing back a child whose cached free variables miss it, before any
further call.
Normalization is one function over all three through `map_type` too.  The
walkers that are not maps stay their own: `ftv`, a cached fold; the
printers in `parser`; and `normalize`'s reference reducer, which stays
independent of `normalize`.

Every type variable comes from a `FreshSupply`: a parser's `VarEnv` is
one, a caller of `infer` or `unify` may pass one, and the process-wide
`FRESH` serves the rest.  Only the order of uids matters, and a newer
variable has a higher one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError
from operator import attrgetter, itemgetter

Label = str

BASE_TYPES = ("Int", "Bool", "String")

# ---------------------------------------------------------------------------
# Values


_set = object.__setattr__  # fills a slot past Frozen.__setattr__


class Frozen:
    """An immutable value with slots, whose equality, hashing and `repr` read
    the fields its class names in `_fields`, unless the class writes them."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields")
        if fields is None:
            return
        slots = cls.__dict__.get("__slots__", ())
        cls._params = params = fields + ("span",) if "span" in slots else fields
        cls._puts = tuple(getattr(cls, name).__set__ for name in params)
        cls._clears = tuple(getattr(cls, name).__set__ for name in slots if name not in params)
        if len(fields) == 1:
            one = attrgetter(*fields)
            key = lambda self: (one(self),)
        else:
            key = attrgetter(*fields) if fields else lambda self: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            shown = ", ".join(f"{n}={v!r}" for n, v in zip(fields, key(self)))
            return f"{self.__class__.__qualname__}({shown})"

        for method in (__eq__, __hash__, __repr__):
            if cls.__dict__.get(method.__name__) is None:
                setattr(cls, method.__name__, method)

    def __init__(self, *args, **kwargs):
        """Fill the slots through their descriptors: the fields in `_fields`,
        in order and each one required, then a term's `span`, by position or
        as `span=`, None if not given.  Every other slot, a cache, is None."""
        puts = self._puts
        n = len(puts)
        if kwargs or len(args) != n:
            args = self._bind(args, kwargs)
        # unrolled for the two to four slots most classes have: a loop over
        # them costs a term node about as much as its other work
        if n == 3:
            put, put1, put2 = puts
            arg, arg1, arg2 = args
            put(self, arg)
            put1(self, arg1)
            put2(self, arg2)
        elif n == 2:
            put, put1 = puts
            arg, arg1 = args
            put(self, arg)
            put1(self, arg1)
        elif n == 4:
            put, put1, put2, put3 = puts
            arg, arg1, arg2, arg3 = args
            put(self, arg)
            put1(self, arg1)
            put2(self, arg2)
            put3(self, arg3)
        else:
            for put, arg in zip(puts, args):
                put(self, arg)
        clears = self._clears
        if clears:
            for clear in clears:
                clear(self, None)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """One argument for each of `_params`, in order, bound from args and
        kwargs as a call binds them; TypeError for a missing, extra or
        repeated one."""
        params, name = cls._params, cls.__qualname__
        if len(args) > len(params):
            raise TypeError(f"{name}() takes {len(params)} arguments but {len(args)} were given")
        bound = dict(zip(params, args))
        for key, value in kwargs.items():
            if key not in params or key in bound:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            bound[key] = value
        if "span" in params:
            bound.setdefault("span", None)
        missing = [p for p in params if p not in bound]
        if missing:
            raise TypeError(f"{name}() is missing argument(s) {', '.join(missing)}")
        return [bound[p] for p in params]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        """Copying and pickling carry the fields, not the caches."""
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __setstate__(self, state):
        for name in self.__slots__:
            _set(self, name, state.get(name))


# ---------------------------------------------------------------------------
# Terms; each keeps its source span out of equality, hashing and repr.


class Var(Frozen):
    __slots__ = ("name", "span")
    _fields = ("name",)


_CONST_TYPES = {"Int": int, "Bool": bool, "String": str}


class Const(Frozen):
    """Literal constant tagged with its base type (Int, Bool or String), and
    a Python value of that type: an int that is not a bool, a bool, a str."""

    __slots__ = ("value", "base", "span")
    _fields = ("value", "base")

    def __init__(self, value: object, base: str, span=None):
        if base not in BASE_TYPES:
            raise ValueError(f"unknown base type {base!r}")
        if isinstance(value, bool) != (base == "Bool") or not isinstance(value, _CONST_TYPES[base]):
            raise ValueError(f"constant {value!r} is not of base type {base}")
        put_value, put_base, put_span = self._puts
        put_value(self, value)
        put_base(self, base)
        put_span(self, span)


class Abs(Frozen):
    __slots__ = ("param", "body", "span")
    _fields = ("param", "body")


class App(Frozen):
    __slots__ = ("fn", "arg", "span")
    _fields = ("fn", "arg")


class Let(Frozen):
    __slots__ = ("name", "bound", "body", "span")
    _fields = ("name", "bound", "body")


class RecordLit(Frozen):
    """Record literal; fields are stored sorted by label, labels distinct."""

    __slots__ = ("fields", "span")
    _fields = ("fields",)

    def __init__(self, fields: "tuple[tuple[Label, Term], ...]", span=None):
        put_fields, put_span = self._puts
        put_fields(self, _sorted_fields(fields))
        put_span(self, span)


class Select(Frozen):
    __slots__ = ("target", "label", "span")
    _fields = ("target", "label")


class Modify(Frozen):
    __slots__ = ("target", "label", "value", "span")
    _fields = ("target", "label", "value")


class Remove(Frozen):
    __slots__ = ("target", "label", "span")
    _fields = ("target", "label")


class Extend(Frozen):
    __slots__ = ("target", "label", "value", "span")
    _fields = ("target", "label", "value")


Term = Var | Const | Abs | App | Let | RecordLit | Select | Modify | Remove | Extend


FIELD_LABEL = itemgetter(0)  # the label of a (label, type) field
OP_LABEL = itemgetter(1)  # the label of a (sign, label, type) chain operation


def find(items, label, key=FIELD_LABEL):
    """Where label goes in items sorted by key, and its entry's type or None."""
    i = bisect_left(items, label, key=key)
    return i, items[i][-1] if i < len(items) and key(items[i]) == label else None


def _sorted_fields(fields):
    """fields sorted by label; ValueError names the first label that repeats."""
    pairs = tuple(sorted(fields, key=FIELD_LABEL))
    prev = None
    for label, _ in pairs:
        if label == prev:
            raise ValueError(f"duplicate label {label!r}")
        prev = label
    return pairs


# ---------------------------------------------------------------------------
# Types


IS_NORMAL = object()


class BaseType(Frozen):
    __slots__ = ("name", "_fv")
    _fields = ("name",)

    def __init__(self, name: str):
        if name not in BASE_TYPES:
            raise ValueError(f"unknown base type {name!r}")
        Frozen.__init__(self, name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name


class TyVar(Frozen):
    """Type variable; identity is the uid, the name is display-only."""

    __slots__ = ("uid", "name", "_fv")
    _fields = ("uid",)

    def __init__(self, uid: int, name: str = ""):
        _set(self, "uid", uid)
        _set(self, "name", name)
        _set(self, "_fv", None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self):
        return self.uid

    def __repr__(self):
        return f"TyVar(uid={self.uid!r}, name={self.name!r})"


class FreshSupply:
    """Monotone source of type variables: each has a uid one above the last."""

    def __init__(self, start: int = 1):
        self.next_uid = start

    def fresh(self, name: str = "") -> TyVar:
        v = TyVar(self.next_uid, name)
        self.next_uid += 1
        return v


# The supply of every caller that brings none: `freshen`, `unify`'s merges,
# instance checking, `infer` and `check`.  It starts far above the uids a
# parser hands out and only counts up, so what it makes is newest.
FRESH_START = 1_000_000
FRESH = FreshSupply(FRESH_START)


class RecordType(Frozen):
    __slots__ = ("fields", "_fv", "_nf")
    _fields = ("fields",)

    def __init__(self, fields: "tuple[tuple[Label, MonoType], ...]"):
        Frozen.__init__(self, _sorted_fields(fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields == other.fields

    def field_map(self) -> dict[Label, "MonoType"]:
        return dict(self.fields)


class Arrow(Frozen):
    __slots__ = ("dom", "cod", "_fv", "_nf")
    _fields = ("dom", "cod")

    def __init__(self, dom: "MonoType", cod: "MonoType"):
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "_fv", None)
        _set(self, "_nf", None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod


EXT = 1
CON = -1


class _Chain(Frozen):
    """A chain of field operations on a bottom, a type variable or a record:
    `bottom`, and `ops`, its (sign, label, field_type) triples innermost
    first, with sign EXT or CON.  Its class, Ext or Contr, is its top
    operation's.  `chain` builds every node; `Ext(base, l, t)` and
    `Contr(base, l, t)` put one operation on a base."""

    __slots__ = ("bottom", "ops", "_fv", "_nf", "_np")

    def __new__(cls, base: "MonoType", label: Label, field_type: "MonoType"):
        return chain(base, ((EXT if cls is Ext else CON, label, field_type),))

    __init__ = object.__init__  # `__new__` builds the node

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

    def __reduce__(self):
        return chain, (self.bottom, self.ops)


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
            fv = union(fv, ftv(fty))
    t = object.__new__(Ext if ops[-1][0] == EXT else Contr)
    _set(t, "bottom", bottom)
    _set(t, "ops", all_ops)
    _set(t, "_fv", fv)
    _set(t, "_nf", None)
    _set(t, "_np", np)
    return t


BASE_BY_NAME = {name: BaseType(name) for name in BASE_TYPES}  # one value per name
INT = BASE_BY_NAME["Int"]
BOOL = BASE_BY_NAME["Bool"]
STRING = BASE_BY_NAME["String"]
EMPTY_RECORD = RecordType(())


def base_of(t: MonoType) -> MonoType:
    """Bottom of an Ext/Contr chain: the type variable or record type."""
    if isinstance(t, _Chain):
        return t.bottom
    if isinstance(t, (TyVar, RecordType)):
        return t
    raise ValueError(f"base_of: not an extensible type: {t!r}")


def trusted_record(fields, fv=None) -> RecordType:
    """A record type from fields that are already sorted by label, without
    repeated labels, built without checking them; `fv`, if given, is its
    free variables and fills the `_fv` cache."""
    t = object.__new__(RecordType)
    _set(t, "fields", fields)
    _set(t, "_fv", fv)
    _set(t, "_nf", None)
    return t


# ---------------------------------------------------------------------------
# Kinds


class UKind(Frozen):
    """The universal kind: no constraint beyond well-formedness."""

    __slots__ = ("_fv",)
    _fields = ()


class RecordKind(Frozen):
    """Fields the type must have (lefts) and must lack (rights)."""

    __slots__ = ("lefts", "rights", "_fv")
    _fields = ("lefts", "rights")

    def __init__(self, lefts: tuple, rights: tuple):
        lefts, rights = _sorted_fields(lefts), _sorted_fields(rights)
        shared = {l for l, _ in lefts} & {l for l, _ in rights}
        if shared:
            raise ValueError(f"label on both kind sides: {sorted(shared)}")
        Frozen.__init__(self, lefts, rights)

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
    _set(k, "lefts", lefts)
    _set(k, "rights", rights)
    _set(k, "_fv", fv)
    return k


# ---------------------------------------------------------------------------
# Polytypes


class PolyType(Frozen):
    """Prenex kinded-quantified type.

    Equality is alpha-invariant: renaming the quantified variables (keeping
    order and kinds) is invisible.
    """

    __slots__ = ("quants", "body", "_fv")
    _fields = ("quants", "body")

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


def poly(t: MonoType, quants: tuple = ()) -> PolyType:
    """`PolyType(quants, t)`, by default with no quantifier, built slot by
    slot: a trusted builder."""
    p = object.__new__(PolyType)
    _set(p, "quants", quants)
    _set(p, "body", t)
    _set(p, "_fv", None)
    return p


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
        fv = union(ftv(x.dom), ftv(x.cod))
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
            fv = union(fv, ftv(k))
    else:  # BaseType, UKind
        fv = _NO_VARS
    _set(x, "_fv", fv)
    return fv


def union(a: frozenset[TyVar], b: frozenset[TyVar]) -> frozenset[TyVar]:
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
    walk that changes nothing allocates nothing.  The branch is picked by
    x's class itself: no value class has a subclass but `_Chain`'s two."""
    c = x.__class__
    if c is Arrow:
        dom, cod = f(x.dom), f(x.cod)
        return x if dom is x.dom and cod is x.cod else Arrow(dom, cod)
    if c is RecordType:
        fields = _map_fields(f, x.fields)
        return x if fields is x.fields else trusted_record(fields)
    if c is Ext or c is Contr:
        bottom, ops = f(x.bottom), _map_ops(f, x.ops)
        return x if bottom is x.bottom and ops is x.ops else chain(bottom, ops)
    if c is RecordKind:
        lefts, rights = _map_fields(f, x.lefts), _map_fields(f, x.rights)
        if lefts is x.lefts and rights is x.rights:
            return x
        return trusted_record_kind(lefts, rights)
    if c is PolyType:
        quants, body = x.quants and _map_fields(f, x.quants), f(x.body)
        return x if quants is x.quants and body is x.body else poly(body, quants)
    if c is TyVar or c is BaseType or c is UKind:
        return x
    raise TypeError(f"map_type: not a monotype, kind or polytype: {x!r}")


def _map_fields(f, fields):
    """(key, child) pairs with f applied to each child: record fields, kind
    sides, and a polytype's (binder, kind) quantifiers.  One loop builds
    the new pairs and notes a changed child; an unchanged pair is kept."""
    out, same = [], True
    for pair in fields:
        t = f(pair[1])
        if t is not pair[1]:
            pair, same = (pair[0], t), False
        out.append(pair)
    return fields if same else tuple(out)


def _map_ops(f, ops):
    """A chain's (sign, label, field_type) operations with f applied to each
    field type, as `_map_fields` maps pairs."""
    out, same = [], True
    for op in ops:
        t = f(op[2])
        if t is not op[2]:
            op, same = (op[0], op[1], t), False
        out.append(op)
    return ops if same else tuple(out)


def apply_type(s: Substitution, t):
    """Apply s to a monotype, a kind or a polytype.  A value whose free
    variables miss s comes back as itself.  The one capture rule: a
    polytype's binders are renamed first (`freshen`) when s maps one of them,
    or when the image of one of its free variables mentions one."""
    if t.__class__ is TyVar:  # a lookup is cheaper than the walk
        return s.get(t, t)
    return _walk(s, t)


def _walk(s: Substitution, x, met: bool = False):
    """`apply_type` of x, for `apply_type` itself, `rebind`, `rename_vars`
    and `unify.resolve` (the benchmark's tracer wraps `apply_type` only).
    `met` says that the caller has found a free variable of x that s maps,
    as `resolve` has, so the walk starts below that test.  Below x, one
    closure maps every node; only x can be a polytype, since no child is
    one, so the capture rule is applied to x alone."""
    if not met:
        if x.__class__ is TyVar:
            return s.get(x, x)
        # Set difference looks free's members up in s with the hashes the
        # set has stored, where a test per member would call TyVar.__hash__.
        free = ftv(x)
        if len(free.difference(s)) == len(free):
            return x
    if x.__class__ is PolyType and x.quants:
        images = [ftv(s[v]) for v in ftv(x) if v in s]
        if any(v in s or any(v in fv for fv in images) for v, _ in x.quants):
            x = freshen(x)

    def walk(y):
        if y.__class__ is TyVar:
            return s.get(y, y)
        free = y._fv
        if free is None:
            free = ftv(y)
        if not free or len(free.difference(s)) == len(free):
            return y
        return map_type(walk, y)

    y = map_type(walk, x)
    del walk  # it holds itself through its cell: freed now, not by the collector
    return y


def rename_vars(x, mapping: dict[int, TyVar]):
    """Replace type variables per uid->TyVar map in a type, kind or polytype,
    binders included, with no capture test: the benchmark's and the tests'
    canonical forms."""
    s = {TyVar(uid): w for uid, w in mapping.items()}
    if isinstance(x, PolyType):
        quants = tuple((s.get(v, v), _walk(s, k)) for v, k in x.quants)
        return PolyType(quants, _walk(s, x.body))
    return _walk(s, x)


def rebind(p: PolyType, binders) -> PolyType:
    """p with its binders replaced by `binders`, in order, and each bound
    occurrence renamed to match.  A quantifier binds in later kinds and the
    body, not in its own kind, so the renaming grows one binder at a time."""
    if not p.quants:
        return p
    s: Substitution = {}
    quants = []
    for (v, k), w in zip(p.quants, binders):
        quants.append((w, _walk(s, k) if s else k))
        s[v] = w
    return poly(_walk(s, p.body), tuple(quants))


def freshen(p: PolyType) -> PolyType:
    """p with every binder renamed to a fresh variable."""
    return rebind(p, [FRESH.fresh(v.name) for v, _ in p.quants])
