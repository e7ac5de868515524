import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random
from dataclasses import FrozenInstanceError

import pytest

import extrec
from extrec import syntax
from extrec.checker import ValidationIssue
from extrec.derivation import Derivation, Judgment, KindingClaim
from extrec.infer import InferFailure, InferResult
from extrec.interp import BoolV, ClosureV, IntV, RecordV, StringV
from extrec.kinding import FieldInfo
from extrec.normalize import normalize
from extrec.subst import KindedSubstitution
from extrec.syntax import (
    Abs,
    App,
    Arrow,
    BOOL,
    BaseType,
    Const,
    Contr,
    EMPTY_RECORD,
    Ext,
    Extend,
    Frozen,
    INT,
    Let,
    Modify,
    PolyType,
    RecordKind,
    RecordLit,
    RecordType,
    Remove,
    Select,
    TyVar,
    Var,
    UKind,
    base_of,
    eftv,
    ftv,
    map_type,
    poly,
    rename_vars,
)
from gen import gen_arb_kind, gen_arb_mono, gen_arb_poly, gen_kind_assignment

a, b, g = TyVar(1, "a"), TyVar(2, "b"), TyVar(3, "g")


def test_ftv_examples():
    assert ftv(INT) == set()
    assert ftv(PolyType(((a, UKind()),), Arrow(a, b))) == {b}
    assert ftv(RecordKind((("l", a),), (("m", b),))) == {a, b}


def test_ftv_quantifier_binds_body_not_kind():
    # the binder's own kind may mention the same variable freely
    p = PolyType(((a, RecordKind((("l", a),), ())),), a)
    assert ftv(p) == {a}


def test_eftv_examples():
    k = {a: RecordKind((("l", b),), ()), b: UKind()}
    assert eftv(k, a) == {a, b}
    assert eftv({a: UKind()}, a) == {a}
    # transitive closure, computed by hand
    k2 = {a: RecordKind((), (("l", b),)), b: RecordKind((("m", g),), ()), g: UKind()}
    assert eftv(k2, a) == {a, b, g}


def test_eftv_requires_well_formed():
    with pytest.raises(ValueError):
        eftv({}, a)


def test_eftv_of_polytype():
    k = {a: RecordKind((("l", b),), ()), b: UKind(), g: UKind()}
    p = PolyType(((g, UKind()),), Arrow(g, a))
    assert eftv(k, p) == {a, b}


def test_eftv_contains_ftv():
    rng = random.Random(7)
    for _ in range(100):
        kenv = gen_kind_assignment(rng, 3)
        for v in kenv:
            assert ftv(v) <= eftv(kenv, v)


def test_base_of():
    chain = Contr(Ext(a, "l1", INT), "l2", BOOL)
    assert base_of(chain) == a
    r = RecordType((("l", INT),))
    assert base_of(r) == r
    with pytest.raises(ValueError):
        base_of(Arrow(INT, INT))


def test_extensible_head_enforced():
    with pytest.raises(ValueError):
        Ext(Arrow(INT, INT), "l", INT)
    with pytest.raises(ValueError):
        Contr(INT, "l", INT)


def test_record_labels_sorted_and_distinct():
    r = RecordType((("m", INT), ("l", BOOL)))
    assert [l for l, _ in r.fields] == ["l", "m"]
    with pytest.raises(ValueError):
        RecordType((("l", INT), ("l", BOOL)))
    with pytest.raises(ValueError):
        RecordKind((("l", INT),), (("l", BOOL),))
    assert EMPTY_RECORD.fields == ()


def test_polytype_alpha_equality():
    p1 = PolyType(((a, UKind()),), Arrow(a, a))
    p2 = PolyType(((b, UKind()),), Arrow(b, b))
    assert p1 == p2
    assert hash(p1) == hash(p2)
    # kinds participate in equality
    p3 = PolyType(((b, RecordKind((), ())),), Arrow(b, b))
    assert p1 != p3
    # free variables are not up for renaming
    assert poly(a) != poly(b)
    # a later quantifier's kind mentions an earlier binder, renamed with it
    p4 = PolyType(((a, UKind()), (b, RecordKind((("l", a),), ()))), Arrow(b, a))
    p5 = PolyType(((g, UKind()), (a, RecordKind((("l", g),), ()))), Arrow(a, g))
    assert p4 == p5 and hash(p4) == hash(p5)


def test_ftv_stable_under_renaming():
    rng = random.Random(11)
    for _ in range(100):
        p = gen_arb_poly(rng)
        bound = [v for v, _ in p.quants]
        mapping = {v.uid: TyVar(1000 + i) for i, v in enumerate(bound)}
        renamed = PolyType(
            tuple((mapping[v.uid], rename_vars(k, {m: w for m, w in mapping.items() if m != v.uid})) for v, k in p.quants),
            rename_vars(p.body, mapping),
        )
        assert ftv(renamed) == ftv(p)


def _ref_ftv(x):
    """Free variables by a plain walk; quantifiers are read left to right,
    each binding in the later kinds and the body."""
    if isinstance(x, TyVar):
        return {x}
    if isinstance(x, Arrow):
        return _ref_ftv(x.dom) | _ref_ftv(x.cod)
    if isinstance(x, RecordType):
        return set().union(*(_ref_ftv(t) for _, t in x.fields))
    if isinstance(x, (Ext, Contr)):
        return _ref_ftv(x.base) | _ref_ftv(x.field_type)
    if isinstance(x, RecordKind):
        return set().union(*(_ref_ftv(t) for _, t in x.lefts + x.rights))
    if isinstance(x, PolyType):
        free, bound = set(), set()
        for v, k in x.quants:
            free |= _ref_ftv(k) - bound
            bound.add(v)
        return free | (_ref_ftv(x.body) - bound)
    return set()


def test_ftv_agrees_with_reference_walk_and_is_cached():
    rng = random.Random(13)
    pool = tuple(TyVar(100 + i) for i in range(4))
    for _ in range(300):
        for x in (gen_arb_mono(rng, 3, pool), gen_arb_kind(rng, pool), gen_arb_poly(rng)):
            first = ftv(x)
            assert first == _ref_ftv(x)
            assert ftv(x) is first


def test_ftv_shares_a_chain_base_set():
    chain = a
    for i in range(50):
        chain = Ext(chain, f"l{i}", INT)
    assert ftv(chain) is ftv(a)


def test_map_type_hands_back_what_it_does_not_change():
    rng = random.Random(17)
    pool = tuple(TyVar(100 + i) for i in range(4))
    for _ in range(300):
        for x in (gen_arb_mono(rng, 3, pool), gen_arb_kind(rng, pool)):
            assert map_type(lambda c: c, x) is x


def test_map_type_rebuilds_one_level():
    swap = {a: b, b: a}

    def flip(c):
        return swap.get(c, c)

    assert map_type(flip, Arrow(a, Arrow(a, b))) == Arrow(b, Arrow(a, b))
    # a chain's children are its bottom and every field type
    assert map_type(flip, Contr(Ext(a, "l", b), "m", a)) == Contr(Ext(b, "l", a), "m", b)
    assert map_type(flip, Ext(a, "l", b)) == Ext(b, "l", a)
    seen = []
    t = Contr(Ext(Ext(a, "l", INT), "m", b), "n", g)
    assert map_type(lambda c: seen.append(c) or c, t) is t
    assert seen == [a, INT, b, g]
    # a bottom mapped to a chain is flattened into one node
    flat = map_type(lambda c: Ext(b, "k", INT) if c == a else c, t)
    assert flat.bottom == b and [l for _, l, _ in flat.ops] == ["k", "l", "m", "n"]
    assert map_type(flip, RecordType((("m", a), ("l", b)))) == RecordType((("l", a), ("m", b)))
    assert map_type(flip, RecordKind((("l", a),), (("m", g),))) == RecordKind((("l", b),), (("m", g),))
    for leaf in (a, INT, UKind()):
        assert map_type(flip, leaf) is leaf
    # a polytype's children are its quantifiers' kinds and its body; the
    # binders stay, even where f would map them
    p = PolyType(((a, UKind()), (g, RecordKind((("l", a),), ()))), b)
    seen = []
    assert map_type(lambda c: seen.append(c) or c, p) is p
    assert seen == [UKind(), RecordKind((("l", a),), ()), b]
    q = map_type(flip, p)
    assert q.quants == p.quants and q.body == a
    fixed = poly(g)
    assert map_type(flip, fixed) is fixed and map_type(flip, poly(a)) == poly(b)
    with pytest.raises(TypeError):
        map_type(flip, Var("x"))


def _cached(t):
    """t with its `_fv` cache, and `_nf` where it has one, filled in."""
    ftv(t)
    if hasattr(t, "_nf"):
        normalize(t)
    return t


# what a value that holds a dict hashes like: nothing, as a frozen
# dataclass with a dict field
_UNHASHABLE = object()


def _package_value_classes():
    """Every `Frozen` subclass that a module of the package defines."""
    modules = [importlib.import_module(f"extrec.{m.name}") for m in pkgutil.iter_modules(extrec.__path__)]
    return {
        c
        for module in modules
        for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, Frozen) and c.__module__ == module.__name__
    } - {Frozen}


def _value_cases():
    """(value, an equal value that differs only where equality does not
    look, a value that differs where it does, what hashes like the value,
    the value's repr) for every value class of the package."""
    x, one = Var("x"), Const(1, "Int")
    tv, ti = "TyVar(uid=1, name='a')", "BaseType(name='Int')"
    terms = [
        (Var("x", (0, 1)), Var("x", (5, 6)), Var("y"), ("x",), "Var(name='x')"),
        (Const(1, "Int", (0, 1)), Const(1, "Int"), Const(2, "Int"), (1, "Int"),
         "Const(value=1, base='Int')"),
        (Abs("x", x, (0, 5)), Abs("x", x), Abs("y", x), ("x", x),
         "Abs(param='x', body=Var(name='x'))"),
        (App(x, one, (0, 3)), App(x, one), App(one, x), (x, one),
         "App(fn=Var(name='x'), arg=Const(value=1, base='Int'))"),
        (Let("x", one, x, (0, 9)), Let("x", one, x), Let("x", x, x), ("x", one, x),
         "Let(name='x', bound=Const(value=1, base='Int'), body=Var(name='x'))"),
        (RecordLit((("m", x), ("l", one)), (0, 9)), RecordLit((("l", one), ("m", x))),
         RecordLit((("l", x),)), ((("l", one), ("m", x)),),
         "RecordLit(fields=(('l', Const(value=1, base='Int')), ('m', Var(name='x'))))"),
        (Select(x, "l", (0, 3)), Select(x, "l"), Select(x, "m"), (x, "l"),
         "Select(target=Var(name='x'), label='l')"),
        (Modify(x, "l", one, (0, 9)), Modify(x, "l", one), Modify(x, "l", x), (x, "l", one),
         "Modify(target=Var(name='x'), label='l', value=Const(value=1, base='Int'))"),
        (Remove(x, "l", (0, 9)), Remove(x, "l"), Remove(one, "l"), (x, "l"),
         "Remove(target=Var(name='x'), label='l')"),
        (Extend(x, "l", one, (0, 9)), Extend(x, "l", one), Extend(x, "m", one), (x, "l", one),
         "Extend(target=Var(name='x'), label='l', value=Const(value=1, base='Int'))"),
    ]
    types = [
        (BaseType("Int"), _cached(BaseType("Int")), BOOL, ("Int",), ti),
        # a variable hashes as its uid
        (TyVar(1, "a"), _cached(TyVar(1, "other")), TyVar(2, "a"), 1, tv),
        (RecordType((("l", INT),)), _cached(RecordType((("l", INT),))), RecordType((("l", BOOL),)),
         ((("l", INT),),), f"RecordType(fields=(('l', {ti}),))"),
        (Arrow(a, INT), _cached(Arrow(TyVar(1), INT)), Arrow(INT, a), (a, INT),
         f"Arrow(dom={tv}, cod={ti})"),
        (Ext(a, "l", INT), _cached(Ext(TyVar(1), "l", INT)), Ext(a, "m", INT),
         (a, ((1, "l", INT),)), f"Ext(base={tv}, label='l', field_type={ti})"),
        (Contr(a, "l", INT), _cached(Contr(TyVar(1), "l", INT)), Contr(a, "l", BOOL),
         (a, ((-1, "l", INT),)), f"Contr(base={tv}, label='l', field_type={ti})"),
        (UKind(), _cached(UKind()), RecordKind((), ()), (), "UKind()"),
        (RecordKind((("l", a),), (("m", INT),)), _cached(RecordKind((("l", a),), (("m", INT),))),
         RecordKind((), (("m", INT),)), ((("l", a),), (("m", INT),)),
         f"RecordKind(lefts=(('l', {tv}),), rights=(('m', {ti}),))"),
        # equality and hashing are alpha-invariant
        (PolyType(((a, UKind()),), Arrow(a, a)), _cached(PolyType(((b, UKind()),), Arrow(b, b))),
         PolyType(((a, UKind()),), Arrow(a, INT)), None,
         f"PolyType(quants=(({tv}, UKind()),), body=Arrow(dom={tv}, cod={tv}))"),
    ]
    closure = ClosureV("x", x, (("y", IntV(1)),))
    values = [
        (IntV(1), IntV(1), IntV(2), (1,), "IntV(value=1)"),
        (BoolV(True), BoolV(True), BoolV(False), (True,), "BoolV(value=True)"),
        (StringV("s"), StringV("s"), StringV("t"), ("s",), "StringV(value='s')"),
        (RecordV((("l", IntV(1)),)), RecordV((("l", IntV(1)),)), RecordV(()),
         ((("l", IntV(1)),),), "RecordV(fields=(('l', IntV(value=1)),))"),
        (closure, ClosureV("x", x, (("y", IntV(1)),)), ClosureV("x", x, ()),
         ("x", x, (("y", IntV(1)),)),
         "ClosureV(param='x', body=Var(name='x'), env=(('y', IntV(value=1)),))"),
    ]
    u, kenv, tenv = UKind(), {a: UKind()}, {"x": poly(a)}
    judged = Judgment(kenv, tenv, x, poly(a))
    claim = KindingClaim(a, RecordKind((("l", INT),), ()))
    failure = ("var", "unbound_variable", "unbound variable x")
    results = [
        (InferFailure(*failure, Var("x", (0, 1))), InferFailure(*failure, x),
         InferFailure("var", "unbound_variable", "unbound variable y", x), (*failure, x),
         "InferFailure(rule='var', reason='unbound_variable', message='unbound variable x', "
         "term=Var(name='x'))"),
        (InferResult(kenv, {}, a, None), InferResult({TyVar(1): u}, {}, TyVar(1), None),
         InferResult({}, {}, INT, None), _UNHASHABLE,
         f"InferResult(kenv={{{tv}: UKind()}}, subst={{}}, type={tv}, trace=None)"),
        (ValidationIssue((0, 1), "bad"), ValidationIssue((0, 1), "bad"), ValidationIssue((), "bad"),
         ((0, 1), "bad"), "ValidationIssue(path=(0, 1), reason='bad')"),
        (KindedSubstitution(kenv, {b: a}), KindedSubstitution({TyVar(1): u}, {TyVar(2): TyVar(1)}),
         KindedSubstitution(kenv, {}), _UNHASHABLE,
         f"KindedSubstitution(kenv={{{tv}: UKind()}}, subst={{TyVar(uid=2, name='b'): {tv}}})"),
        (FieldInfo({"l": INT}, {}, False), FieldInfo({"l": INT}, {}, False),
         FieldInfo({"l": INT}, {}, True), _UNHASHABLE,
         f"FieldInfo(present={{'l': {ti}}}, absent={{}}, record_base=False)"),
        (judged, Judgment({TyVar(1): u}, {"x": poly(TyVar(1))}, Var("x", (0, 1)), poly(a)),
         Judgment(kenv, {}, x, poly(a)), _UNHASHABLE,
         f"Judgment(kenv={{{tv}: UKind()}}, tenv={{'x': PolyType(quants=(), body={tv})}}, "
         f"term=Var(name='x'), sigma=PolyType(quants=(), body={tv}))"),
        (claim, KindingClaim(TyVar(1), RecordKind((("l", INT),), ())),
         KindingClaim(a, RecordKind((), (("l", INT),))), (a, claim.kind),
         f"KindingClaim(subject={tv}, kind=RecordKind(lefts=(('l', {ti}),), rights=()))"),
        (Derivation("Var", judged), Derivation("Var", judged, (), None), Derivation("Const", judged),
         _UNHASHABLE, f"Derivation(rule='Var', judgment={judged!r}, children=(), claim=None)"),
    ]
    return terms + types + values + results


def test_every_value_class_keeps_the_frozen_dataclass_contract():
    cases = _value_cases()
    assert {type(v) for v, *_ in cases} == _package_value_classes() - {syntax._Chain}
    for v, twin, other, hashed, text in cases:
        assert v == twin and not v != twin, text
        assert v != other and not v == other, text
        assert v != 1 and v != Var("unrelated"), text
        if hashed is _UNHASHABLE:
            with pytest.raises(TypeError):
                hash(v)
        else:
            assert hash(v) == hash(twin), text
            if hashed is not None:
                assert hash(v) == hash(hashed), text
        assert repr(v) == text
        assert not hasattr(v, "__dict__"), text
        slots = [n for c in type(v).__mro__ for n in c.__dict__.get("__slots__", ())]
        for name in slots + ["extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(v, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(v, name)
        assert v == twin and repr(v) == text
        for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(copied) is type(v) and copied == v and repr(copied) == text


# each writes its own constructor: Const, BaseType and RecordKind check
# their arguments, RecordLit and RecordType sort their fields, TyVar has a
# default name, Arrow is built on every substitution, and Derivation checks
# its rule and has defaults; a chain's `__new__` builds the node
_OWN_CONSTRUCTORS = {Const, BaseType, RecordKind, RecordLit, RecordType, TyVar, Arrow, Derivation,
                     syntax._Chain, Ext, Contr}


def test_plain_value_classes_share_one_constructor():
    shared = [v for v, *_ in _value_cases() if type(v).__init__ is Frozen.__init__]
    assert {type(v) for v in shared} == _package_value_classes() - _OWN_CONSTRUCTORS
    assert len(shared) == 22
    span = (0, 9)
    for v in shared:
        c = type(v)
        args = [getattr(v, name) for name in c._fields]
        spanned = "span" in c.__slots__
        assert c(*args) == v and c(**dict(zip(c._fields, args))) == v, c
        if args:
            with pytest.raises(TypeError):
                c(*args[:-1])
        with pytest.raises(TypeError):
            c(*args, *[None] * (spanned + 1))
        with pytest.raises(TypeError):
            c(*args, extra=None)
        if spanned:
            assert c(*args).span is None, c
            for built in (c(*args, span), c(*args, span=span)):
                assert built.span == span and built == c(*args), c
            with pytest.raises(TypeError):
                c(*args, span, span=span)
        else:
            with pytest.raises(TypeError):
                c(*args, span=span)
        for name in c.__slots__:
            if name not in c._fields and name != "span":
                assert getattr(c(*args), name) is None, (c, name)


def test_value_constructors_check_their_arguments():
    # RecordType and RecordKind are checked in test_record_labels_sorted_and_distinct
    with pytest.raises(ValueError, match="unknown base type"):
        BaseType("Float")
    with pytest.raises(ValueError, match="unknown base type"):
        Const(1.0, "Float")
    with pytest.raises(ValueError, match="duplicate label"):
        RecordLit((("l", Var("x")), ("l", Var("y"))))


@pytest.mark.parametrize("value, base", [
    ("s", "Int"), (True, "Int"), (1.5, "Int"),
    (1, "Bool"), ("true", "Bool"),
    (1, "String"), (False, "String"),
])
def test_a_constant_refuses_a_value_its_base_contradicts(value, base):
    # inference types a constant by its base, evaluation by its value
    with pytest.raises(ValueError, match="is not of base type"):
        Const(value, base)


def test_a_constant_takes_a_value_of_its_base():
    for value, base in [(0, "Int"), (-7, "Int"), (True, "Bool"), ("", "String")]:
        assert Const(value, base).value is value


def test_no_class_of_the_package_is_a_dataclass():
    # dataclasses generate and compile methods for each class at import
    names = [m.name for m in pkgutil.iter_modules(extrec.__path__)]
    assert {"cli", "derivation", "infer", "syntax"} <= set(names)
    found = [
        f"{name}.{attr}"
        for name in names
        for attr, c in vars(importlib.import_module(f"extrec.{name}")).items()
        if isinstance(c, type) and dataclasses.is_dataclass(c)
    ]
    assert found == []
