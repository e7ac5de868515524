import random

from extrec.infer import FreshSupply, infer
from extrec.kinding import has_kind
from extrec.normalize import equiv, normalize
from extrec.parser import parse_env_file, parse_term, parse_type
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
    trusted_record,
    trusted_record_kind,
)
from gen import (
    gen_arb_kind,
    gen_arb_mono,
    gen_arb_poly,
    gen_closed_term,
    gen_kind_assignment,
    gen_kindable_chain,
    gen_respecting_subst,
    naive_apply,
)
from extrec.unify import resolve

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
    # so does the kind of a variable that neither t nor gamma mentions
    assert closure(kenv, {}, a) == (kenv, poly(a))
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


def _random_subst(rng, domain, tyvars=_POOL):
    """Extensible images (chain heads may be substituted) over tyvars, some
    of them mentioning the binders of gen_arb_poly's values."""
    s = {}
    for v in domain:
        pick = rng.random()
        if pick < 0.3:
            s[v] = rng.choice(tyvars)
        elif pick < 0.6:
            s[v] = Ext(rng.choice(tyvars), "q", gen_arb_mono(rng, 1, tyvars))
        else:
            s[v] = RecordType((("q", gen_arb_mono(rng, 1, tyvars)),))
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
            assert apply(s, x) == naive_apply(s, x), (s, x)


def _triangular(rng):
    """A triangular substitution over _POOL, as unification leaves one: each
    variable's image mentions only variables bound after it or not at all,
    and the same substitution fully resolved."""
    order = rng.sample(_POOL, rng.randint(1, 5))
    free = [v for v in _POOL if v not in order]
    tri = {}
    for i, v in enumerate(order):
        tri.update(_random_subst(rng, [v], tuple(order[i + 1 :] + free)))
    full = {}
    for v in reversed(order):
        full[v] = naive_apply(full, tri[v])
    return tri, full


def test_one_walk_substitutes_resolves_and_avoids_capture():
    # apply_type agrees, up to renaming, with naive_apply, which renames
    # every binder apart first, on polytypes whose binders the substitution
    # maps or the images of their free variables mention; and resolve
    # through a triangular substitution is apply_type with the substitution
    # fully resolved.  Each half of the capture rule is exercised.
    rng = random.Random(71)
    maps_binder = image_mentions_binder = 0
    for _ in range(600):
        p = gen_arb_poly(rng)
        binders = {v for v, _ in p.quants}
        free = ftv(p)
        tri, full = _triangular(rng)
        for s in (_random_subst(rng, rng.sample(_POOL, rng.randint(1, 5))), full):
            assert apply_type(s, p) == naive_apply(s, p), (s, p)
            if s.keys() & free:
                maps_binder += bool(s.keys() & binders)
                image_mentions_binder += any(ftv(s[v]) & binders for v in free & s.keys())
        for x in (p, gen_arb_mono(rng, 3, _POOL), gen_arb_kind(rng, _POOL)):
            assert resolve(tri, x) == apply_type(full, x) == naive_apply(full, x), (tri, x)
    assert maps_binder > 100 and image_mentions_binder > 50, (maps_binder, image_mentions_binder)


def test_the_walk_reads_a_child_whose_free_variables_no_builder_cached():
    # A trusted builder may fill a value's free-variable set and leave its
    # children's unfilled; the walk computes a child's set where it finds
    # none, through apply_type and through resolve alike.
    p, q = _POOL[0], _POOL[1]
    for make in (
        lambda: trusted_record_kind((("l", Arrow(p, INT)),), (), frozenset((p,))),
        lambda: trusted_record((("l", Arrow(INT, p)), ("m", INT)), frozenset((p,))),
    ):
        x = make()
        assert (x.lefts if isinstance(x, RecordKind) else x.fields)[0][1]._fv is None
        want = naive_apply({p: BOOL}, x)
        assert apply_type({p: BOOL}, x) == want != x
        assert resolve({p: q, q: BOOL}, make()) == want


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


GI_ENV = "'r :: << || l: Int, m: Int>>\n's :: <<l: Int || >>\n't :: << || l: Bool>>\n"
_SELECT = "forall 'a :: U. forall 'b :: <<l: 'a || >>. 'b -> 'a"
_LACKS = "forall 'a :: U. forall 'b :: << || l: 'a>>. 'b -> 'a"
_EXTEND = "forall 'a :: << || l: Int>>. 'a + {l: Int}"

# (pattern, a claim that is not an instance, an accepted neighbour) under
# GI_ENV.  Each rejection is a way the pattern and the subject disagree;
# unification fails there, or its witness fails the final checks.
INSTANCE_TABLE = (
    # a variable matched twice, a rigid leaf, an arrow, a record
    ("forall 'a :: U. 'a -> 'a", "Int -> Bool", "Int -> Int"),
    ("forall 'a :: U. 'a -> Int", "Int -> Bool", "Bool -> Int"),
    ("forall 'a :: U. 'a -> 'a", "Int", "Bool -> Bool"),
    ("forall 'a :: U. {l: 'a}", "Int", "{l: Int}"),
    ("forall 'a :: U. {l: 'a}", "{m: Int}", "{l: Bool}"),
    ("forall 'a :: U. {l: 'a, m: 'a}", "{l: Int, m: Bool}", "{l: Int, m: Int}"),
    # a chain over a free variable: the subject's chain must have its shape
    ("forall 'a :: U. 'r + {l: 'a}", "Int", "'r + {l: Int}"),
    ("forall 'a :: U. 'r + {l: 'a}", "'r + {l: Int} + {m: Int}", "'r + {l: Int}"),
    ("forall 'a :: U. 's - {l: 'a}", "'r - {l: Int}", "'s - {l: Int}"),
    ("forall 'a :: U. 'r + {l: 'a}", "'r + {m: Int}", "'r + {l: Int}"),
    ("forall 'a :: U. 'r + {l: 'a} + {m: 'a}", "'r + {l: Int} + {m: Bool}", "'r + {l: Int} + {m: Int}"),
    # a chain over a pattern variable: signs, field types, and a record
    # subject that lacks or has the field
    (_EXTEND, "'s - {l: Int}", "'r + {l: Int}"),
    (_EXTEND, "'t + {l: Bool}", "'r + {l: Int}"),
    (_EXTEND, "Int", "{l: Int, m: Int}"),
    (_EXTEND, "{m: Int}", "{l: Int, m: Int}"),
    (_EXTEND, "{l: Bool, m: Int}", "{l: Int, m: Int}"),
    ("forall 'a :: << || m: Int>>. 'a + {m: Int}", "{l: Int} + {l: Int}", "{l: Int, m: Int}"),
    ("forall 'a :: <<l: Int || >>. 'a - {l: Int}", "{l: Int}", "{m: Int}"),
    # a postponed head against the variable's binding
    (
        "forall 'a :: << || l: Int>>. 'a + {l: Int} -> 'a",
        "{l: Int, m: Int} -> {m: Bool}",
        "{l: Int, m: Int} -> {m: Int}",
    ),
    # a bound variable's kind against its image
    (_SELECT, "Int -> Int", "{l: Int} -> Int"),
    (_SELECT, "{m: Int} -> Int", "{l: Int} -> Int"),
    (_SELECT, "{l: Int} -> Bool", "{l: Int} -> Int"),
    (_LACKS, "'r -> Bool", "'r -> Int"),
    (_LACKS, "{l: Int} -> Int", "{m: Int} -> Int"),
    ("forall 'a :: <<l: Int || >>. 'a -> Int", "{} -> Int", "{l: Int} -> Int"),
)


def test_generic_instance_rejects_what_the_final_checks_refuse():
    kenv, _, venv = parse_env_file(GI_ENV)
    for pattern, rejected, accepted in INSTANCE_TABLE:
        sigma = parse_type(pattern, venv)
        assert not generic_instance(kenv, sigma, parse_type(rejected, venv)), (pattern, rejected)
        assert generic_instance(kenv, sigma, parse_type(accepted, venv)), (pattern, accepted)


def test_generic_instance_takes_a_witness_from_a_kind_and_refuses_an_unkinded_pattern():
    _, _, venv = parse_env_file("")
    # 'a1 := {l: 'a0, n: 'a0}: the body fixes n only, 'a1's kind fixes l
    ops = " - {l: 'a0} - {n: 'a0} + {n: 'a0}"
    pattern = f"forall 'a0 :: << || l: String>>. forall 'a1 :: <<l: 'a0, n: 'a0 || >>. 'a1{ops}"
    claim = f"forall 'a0 :: << || l: String>>. {{l: 'a0, n: 'a0}}{ops}"
    assert generic_instance({}, parse_type(pattern, venv), parse_type(claim, venv))
    # 'q0 :: U neither requires nor forbids l, so the pattern's chain has no
    # kind and the pattern is not a type
    unkinded = parse_type("forall 'q0 :: U. 'q0 - {l: {}}", venv)
    assert not generic_instance({}, unkinded, parse_type("forall 'q0 :: << || >>. 'q0", venv))


def test_generic_instance_refuses_a_witness_left_with_a_kind_cycle():
    # 'r and 's both meet 'p, which leaves the remainder 'r :: <<a: 'r || >>:
    # no default breaks the cycle, and the answer is False.  The cycle comes
    # from rule ii, which binds 'x := 'r with no occurs check through kinds;
    # with one, unification fails and the answer stays False.
    _, _, venv = parse_env_file("")
    pattern = parse_type(
        "forall 'x :: U. forall 'r :: <<a: 'x || >>. forall 's :: <<a: 'r || >>. "
        "forall 't :: <<a: 'x || >>. 's -> 't -> Int",
        venv,
    )
    claim = parse_type("forall 'p :: << || >>. 'p -> 'p -> Int", venv)
    assert not generic_instance({}, pattern, claim)


def test_generic_instance_answers_ill_formed_candidates():
    # A witness may build a chain over a non-extensible type, which is not
    # a type: the answer is False, not a ValueError.
    rng = random.Random(11)
    closed = 0
    for _ in range(5000):
        p1, p2 = gen_arb_poly(rng), gen_arb_poly(rng)
        if ftv(p1) or ftv(p2):
            continue
        closed += 1
        assert isinstance(generic_instance({}, p1, p2), bool), (p1, p2)
    assert closed > 1000
