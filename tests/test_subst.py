import random

from extrec.infer import FreshSupply, infer
from extrec.kinding import has_kind
from extrec.normalize import equiv, normalize
from extrec.parser import parse_term
from extrec.subst import (
    KindedSubstitution,
    apply_type,
    closure,
    compose,
    generic_instance,
    respects,
)
from extrec.syntax import (
    Arrow,
    BOOL,
    BaseType,
    CON,
    Contr,
    EXT,
    Ext,
    INT,
    PolyType,
    RecordKind,
    RecordType,
    TyVar,
    UKind,
    chain,
    ftv,
    poly,
    record_kind,
)
from gen import (
    gen_arb_kind,
    gen_arb_mono,
    gen_arb_poly,
    gen_closed_term,
    gen_kind_assignment,
    gen_kindable_chain,
    gen_respecting_subst,
)

a, b, g = TyVar(1, "a"), TyVar(2, "b"), TyVar(3, "g")
a1, a2 = TyVar(4, "a1"), TyVar(5, "a2")


def test_apply_examples():
    assert apply_type({a: INT}, Arrow(a, a)) == Arrow(INT, INT)
    r = RecordType((("l", INT),))
    out = apply_type({a: r}, Contr(a, "l", INT))
    assert out == Contr(r, "l", INT)
    assert normalize(out) == RecordType(())
    # substitution reaches under the binder into the kind
    p = PolyType(((g, record_kind([("l", a)])),), g)
    assert apply_type({a: b}, p) == PolyType(((g, record_kind([("l", b)])),), g)


def test_apply_poly_avoids_capture():
    p = PolyType(((a, UKind()),), Arrow(a, b))
    out = apply_type({b: a}, p)  # the free b goes to a; bound a must step aside
    v, _ = out.quants[0]
    assert v != a
    assert out.body == Arrow(v, a)


def test_compose_examples():
    s = {a: INT}
    assert compose({}, s) == s
    assert compose(s, {}) == s
    assert apply_type(compose({b: INT}, {a: b}), a) == INT


def test_compose_is_composition():
    rng = random.Random(41)
    for _ in range(100):
        kenv = gen_kind_assignment(rng, 3)
        _, s1 = gen_respecting_subst(rng, kenv)
        _, s2 = gen_respecting_subst(rng, kenv)
        t = gen_kindable_chain(rng, kenv, 4)
        assert equiv(apply_type(compose(s2, s1), t), apply_type(s2, apply_type(s1, t)))


def test_respects_examples():
    k_target = record_kind([("l", INT)])
    assert respects(KindedSubstitution({}, {a: RecordType((("l", INT),))}), {a: k_target})
    assert not respects(KindedSubstitution({}, {a: RecordType(())}), {a: k_target})
    ks = KindedSubstitution({b: record_kind([], [("l", INT)])}, {a: Ext(b, "l", INT)})
    assert respects(ks, {a: k_target})


def test_composition_respects_kinding():
    rng = random.Random(43)
    for _ in range(80):
        kenv = gen_kind_assignment(rng, 3)
        k1, s1 = gen_respecting_subst(rng, kenv)
        k2, s2 = gen_respecting_subst(rng, k1)
        assert respects(KindedSubstitution(k1, s1), kenv)
        assert respects(KindedSubstitution(k2, s2), k1)
        assert respects(KindedSubstitution(k2, compose(s2, s1)), kenv)


def test_kinding_stable_under_respecting_substitution():
    rng = random.Random(47)
    checked = 0
    for _ in range(150):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 4)
        from extrec.kinding import field_info

        info = field_info(kenv, t)
        if info is None:
            continue
        kind = RecordKind(tuple(info.present.items()), tuple(info.absent.items()))
        if not has_kind(kenv, t, kind):
            continue
        k1, s = gen_respecting_subst(rng, kenv)
        assert has_kind(k1, apply_type(s, t), apply_type(s, kind))
        checked += 1
    assert checked > 50


def test_closure_examples():
    kenv = {a1: UKind(), a2: record_kind([("l", a1)])}
    resid, sigma = closure(kenv, {}, Arrow(a2, a1))
    assert resid == {}
    assert sigma == PolyType(((a1, UKind()), (a2, record_kind([("l", a1)]))), Arrow(a2, a1))

    kenv2 = {a: UKind()}
    resid2, sigma2 = closure(kenv2, {"x": poly(a)}, Arrow(a, INT))
    assert resid2 == kenv2
    assert sigma2 == poly(Arrow(a, INT))

    assert closure({}, {}, INT) == ({}, poly(INT))


def test_closure_orders_quantifiers_by_dependency():
    # insertion order puts the dependent variable first; closure must reorder
    kenv = {a2: record_kind([("l", a1)]), a1: UKind()}
    _, sigma = closure(kenv, {}, Arrow(a2, a1))
    names = [v for v, _ in sigma.quants]
    assert names.index(a1) < names.index(a2)


def test_closure_keeps_gamma_essential_variables():
    # b is essentially free in gamma through x's type; only a generalizes
    kenv = {a: UKind(), b: UKind()}
    resid, sigma = closure(kenv, {"x": poly(b)}, Arrow(a, b))
    assert [v for v, _ in sigma.quants] == [a]
    assert resid == {b: UKind()}


def test_closure_pins_residually_referenced_and_cyclic_variables():
    # a residual kind mentioning a candidate keeps that candidate around
    kenv = {a: UKind(), b: record_kind([("l", a)])}
    resid, sigma = closure(kenv, {"x": poly(b)}, a)
    assert sigma == poly(a)
    assert resid == kenv
    # mutually cyclic kinds cannot be ordered as a quantifier prefix
    cyc = {a: record_kind([("l", b)]), b: record_kind([("m", a)]), g: UKind()}
    resid2, sigma2 = closure(cyc, {}, Arrow(a, Arrow(b, g)))
    assert [v for v, _ in sigma2.quants] == [g]
    assert resid2 == {a: cyc[a], b: cyc[b]}


def test_generic_instance_examples():
    p_id = PolyType(((a, UKind()),), Arrow(a, a))
    assert generic_instance({}, p_id, poly(Arrow(INT, INT)))
    assert not generic_instance({}, p_id, poly(Arrow(INT, BOOL)))

    p_sel = PolyType(((a, record_kind([("l", INT)])),), Arrow(a, INT))
    wide = RecordType((("l", INT), ("m", BOOL)))
    assert generic_instance({}, p_sel, poly(Arrow(wide, INT)))
    assert not generic_instance({}, p_sel, poly(Arrow(RecordType((("m", BOOL),)), INT)))


def test_generic_instance_reflexive_and_poly_to_poly():
    p = PolyType(((a, UKind()), (b, record_kind([("l", a)]))), Arrow(b, a))
    assert generic_instance({}, p, p)
    # instantiate only the field type, keeping the record variable quantified
    q = PolyType(((b, record_kind([("l", INT)])),), Arrow(b, INT))
    assert generic_instance({}, p, q)
    assert not generic_instance({}, q, p)


def test_generic_instance_chain_decomposition():
    kenv = {g: record_kind([], [("l", INT)])}
    p = PolyType(((a, record_kind([], [("l", INT)])),), Ext(a, "l", INT))
    assert generic_instance(kenv, p, poly(Ext(g, "l", INT)))
    # inverted against a record subject
    assert generic_instance({}, p, poly(RecordType((("l", INT), ("m", BOOL)))))


def test_instance_transitive():
    rng = random.Random(53)
    for _ in range(60):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 3)
        k0, sigma1 = closure(kenv, {}, t)
        # constructively instantiate part of sigma1 twice
        sigma2 = _instantiate_some(rng, k0, sigma1)
        sigma3 = _instantiate_some(rng, k0, sigma2)
        assert generic_instance(k0, sigma1, sigma2)
        assert generic_instance(k0, sigma2, sigma3)
        assert generic_instance(k0, sigma1, sigma3)


_UNDOING = ["\\f. \\x. f (remove(x, l))", "\\x. \\f. f (remove(x, l))",
            "\\f. \\x. \\y. f (extend(x, l, y))", "\\f. \\x. f (remove(remove(x, l), m))",
            "\\f. \\x. {a = f (remove(x, l)), b = x.m}", "\\f. \\x. f (extend(remove(x, l), m, x.l))"]


def _undoing_instance(rng, sigma):
    """A kind-respecting instance of sigma and the fresh variables' kinds.
    A record-kinded quantifier becomes a fresh variable, a record, or a
    chain over a fresh variable whose operations move some of its kind's
    labels across, which undoes sigma's operations on them."""
    s, kinds = {}, {}
    for v, k in sigma.quants:
        k, roll = apply_type(s, k), rng.random()
        if isinstance(k, UKind) and roll < 0.5:
            s[v] = rng.choice((INT, BOOL))
        elif isinstance(k, UKind) or roll < 0.25:
            s[v] = TyVar(600 + len(kinds))
            kinds[s[v]] = k
        elif roll < 0.45:
            s[v] = RecordType(k.lefts + (() if roll < 0.35 else (("z", INT),)))
        else:
            left, right, ops = k.left_map(), k.right_map(), []
            for l in [l for l in (*left, *right) if rng.random() < 0.7]:
                if l in left:
                    right[l] = left.pop(l)
                    ops.append((EXT, l, right[l]))
                else:
                    left[l] = right.pop(l)
                    ops.append((CON, l, left[l]))
            q = TyVar(600 + len(kinds))
            kinds[q] = record_kind(left.items(), right.items())
            s[v] = chain(q, ops)
    return kinds, apply_type(s, sigma.body)


def test_generic_instance_accepts_instances_that_undo_operations():
    rng = random.Random(71)
    programs = [parse_term(src) for src in _UNDOING] * 10
    while len(programs) < 300:
        programs.append(gen_closed_term(rng, rng.randint(1, 4)))
    undone = 0
    for term in programs * 2:
        res = infer({}, {}, term, FreshSupply(1))
        if not hasattr(res, "type"):
            continue
        resid, sigma = closure(res.kenv, {}, res.type)
        kinds, body = _undoing_instance(rng, sigma)
        _, claim = closure({**resid, **kinds}, {}, body)
        assert generic_instance(resid, sigma, claim), (term, claim)
        undone += normalize(body) != body
    assert undone > 50


def _instantiate_some(rng, kenv, sigma):
    """Ground a random subset of quantifiers, keeping the rest."""
    keep, s = [], {}
    for v, k in sigma.quants:
        k = apply_type(s, k)
        if rng.random() < 0.5:
            keep.append((v, k))
        elif isinstance(k, UKind):
            s[v] = rng.choice((INT, BOOL))
        else:
            s[v] = RecordType(tuple(k.lefts))
    return PolyType(tuple(keep), apply_type(s, sigma.body))


# ---------------------------------------------------------------------------
# Sharing: substitution leaves alone what it cannot touch

# gen_arb_poly's free variables are 100, 101 and its binders 200-202; 300 and
# 301 occur nowhere, so a substitution over them alone misses every value.
_POOL = tuple(TyVar(u, f"p{u}") for u in (100, 101, 200, 201, 202, 300, 301))


def _ref_apply(s, x):
    """Structural application with no short cut; every binder is renamed to
    a fresh variable first, so nothing is ever captured."""
    if isinstance(x, TyVar):
        return s.get(x, x)
    if isinstance(x, (BaseType, UKind)):
        return x
    if isinstance(x, Arrow):
        return Arrow(_ref_apply(s, x.dom), _ref_apply(s, x.cod))
    if isinstance(x, RecordType):
        return RecordType(tuple((l, _ref_apply(s, t)) for l, t in x.fields))
    if isinstance(x, (Ext, Contr)):
        return type(x)(_ref_apply(s, x.base), x.label, _ref_apply(s, x.field_type))
    if isinstance(x, RecordKind):
        return RecordKind(
            tuple((l, _ref_apply(s, t)) for l, t in x.lefts),
            tuple((l, _ref_apply(s, t)) for l, t in x.rights),
        )
    assert isinstance(x, PolyType)
    inner = dict(s)
    quants = []
    for i, (v, k) in enumerate(x.quants):
        quants.append((TyVar(5000 + i), _ref_apply(inner, k)))
        inner[v] = quants[-1][0]
    return PolyType(tuple(quants), _ref_apply(inner, x.body))


def _random_subst(rng, domain):
    """Extensible images (chain heads may be substituted), some of them
    mentioning the binders of gen_arb_poly's values."""
    s = {}
    for v in domain:
        pick = rng.random()
        if pick < 0.3:
            s[v] = rng.choice(_POOL)
        elif pick < 0.6:
            s[v] = Ext(rng.choice(_POOL), "q", gen_arb_mono(rng, 1, _POOL))
        else:
            s[v] = RecordType((("q", gen_arb_mono(rng, 1, _POOL)),))
    return s


def _random_values(rng):
    yield apply_type, gen_arb_mono(rng, 3, _POOL[:5])
    yield apply_type, gen_arb_kind(rng, _POOL[:5])
    yield apply_type, gen_arb_poly(rng)


def test_apply_agrees_with_structural_reference():
    rng = random.Random(59)
    for _ in range(300):
        s = _random_subst(rng, rng.sample(_POOL, rng.randint(0, 4)))
        for apply, x in _random_values(rng):
            assert apply(s, x) == _ref_apply(s, x), (s, x)


def test_apply_returns_untouched_values_themselves():
    rng = random.Random(61)
    shared = touched = 0
    for _ in range(300):
        for apply, x in _random_values(rng):
            misses = [v for v in _POOL if v not in ftv(x)]
            s = _random_subst(rng, rng.sample(misses, rng.randint(0, len(misses))))
            free = sorted(ftv(x), key=lambda v: v.uid)
            hits = _random_subst(rng, rng.sample(free, min(len(free), 2)))
            for s in (s, hits):
                if s.keys().isdisjoint(ftv(x)):
                    assert apply(s, x) is x, (s, x)
                    shared += 1
                else:
                    touched += 1
    assert shared > 300 and touched > 300


def test_compose_keeps_images_the_outer_substitution_misses():
    rng = random.Random(67)
    kept = 0
    for _ in range(300):
        s1 = _random_subst(rng, rng.sample(_POOL, rng.randint(0, 4)))
        s2 = _random_subst(rng, rng.sample(_POOL, rng.randint(0, 3)))
        out = compose(s2, s1)
        for v, t in s1.items():
            if s2.keys().isdisjoint(ftv(t)):
                assert out[v] is t
                kept += 1
    assert kept > 100
