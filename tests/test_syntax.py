import random

import pytest

from extrec.syntax import (
    Arrow,
    BOOL,
    Contr,
    EMPTY_RECORD,
    Ext,
    INT,
    PolyType,
    RecordKind,
    RecordType,
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
