import random
from collections import Counter

import pytest

from extrec.kinding import field_info, has_kind
from extrec.normalize import (
    EXT,
    chain_ops,
    equiv,
    is_normal,
    normalize,
    one_step_reducts,
    reduce_once,
)
from extrec.parser import pretty_type
from extrec.subst import apply_type
from extrec.syntax import (
    IS_NORMAL,
    Arrow,
    BaseType,
    BOOL,
    Contr,
    Ext,
    INT,
    PolyType,
    RecordKind,
    RecordType,
    TyVar,
    UKind,
    chain,
    ftv,
    rebind,
)
from gen import (
    DEBRIS_VARS,
    gen_debris,
    gen_kind_assignment,
    gen_kindable_chain,
    gen_respecting_subst,
    subst_equal,
)

a = TyVar(1, "a")
a1, a2 = TyVar(2, "a1"), TyVar(3, "a2")


def test_reduce_once_rule_instances():
    # record contraction
    r = RecordType((("l1", INT), ("l2", BOOL)))
    assert reduce_once(Contr(r, "l1", INT)) == RecordType((("l2", BOOL),))
    # record extension
    assert reduce_once(Ext(RecordType(()), "l", INT)) == RecordType((("l", INT),))
    # contraction cancelled by a later extension
    assert reduce_once(Ext(Contr(a, "l", INT), "l", INT)) == a
    # extension cancelled by a later contraction
    assert reduce_once(Contr(Ext(a, "l", INT), "l", INT)) == a


def test_reduce_once_none_on_normal_forms():
    assert reduce_once(a) is None
    assert reduce_once(Arrow(INT, INT)) is None
    assert reduce_once(Ext(a, "l", INT)) is None
    # mismatched contraction over a record is stuck
    assert reduce_once(Contr(RecordType((("l", INT),)), "l", BOOL)) is None


def test_normalize_examples():
    # reordering of distinct-label operations is invisible
    lhs = Contr(Ext(a, "l1", INT), "l2", BOOL)
    rhs = Ext(Contr(a, "l2", BOOL), "l1", INT)
    assert normalize(lhs) == normalize(rhs)
    # the doubly-contracted chain collapses to a single contraction
    lhs2 = Contr(Contr(Ext(a, "l1", INT), "l2", BOOL), "l1", INT)
    rhs2 = Contr(Contr(Ext(a, "l1", INT), "l1", INT), "l2", BOOL)
    assert normalize(lhs2) == normalize(rhs2) == Contr(a, "l2", BOOL)
    assert normalize(Arrow(INT, INT)) == Arrow(INT, INT)


def test_normalize_recurses_deep():
    inner = Contr(Ext(a, "l", INT), "l", INT)  # reduces to a
    t = Arrow(RecordType((("f", inner),)), Ext(a1, "m", inner))
    assert normalize(t) == Arrow(RecordType((("f", a),)), Ext(a1, "m", a))


def test_equiv_printed_identities():
    assert equiv(Contr(Ext(a, "l1", INT), "l2", BOOL), Ext(Contr(a, "l2", BOOL), "l1", INT))
    # same-variable variant of non-identity (3): operations differ
    assert not equiv(Contr(Ext(a1, "l1", INT), "l2", BOOL), Ext(Contr(a1, "l1", INT), "l2", BOOL))
    # non-identity (3) as printed, distinct bases
    assert not equiv(Contr(Ext(a1, "l1", INT), "l2", BOOL), Ext(Contr(a2, "l1", INT), "l2", BOOL))
    # non-identity (4) as printed: the bases must differ
    lhs = Ext(Ext(Contr(a1, "l1", INT), "l2", BOOL), "l1", INT)
    rhs = Ext(Contr(Ext(a2, "l1", INT), "l1", INT), "l2", BOOL)
    assert not equiv(lhs, rhs)


def test_cancellation_modulo_field_equivalence():
    # field types that differ only up to reduction still cancel
    messy = Contr(Ext(TyVar(9), "m", INT), "m", INT)  # == TyVar(9)
    t = Contr(Ext(a, "l", TyVar(9)), "l", messy)
    assert normalize(t) == a


def test_subst_equal():
    assert subst_equal({a: INT}, {a: INT})
    assert subst_equal({a: Contr(Ext(a1, "l", INT), "l", INT)}, {a: a1})
    assert not subst_equal({a: INT}, {a: BOOL})
    assert not subst_equal({a: INT}, {})


def test_termination_bound():
    rng = random.Random(3)
    for _ in range(200):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 8)
        steps = 0
        cur = t
        while (nxt := reduce_once(cur)) is not None:
            cur = nxt
            steps += 1
        assert steps <= 12  # each chain step removes operations


def test_convergence_random_orders():
    rng = random.Random(5)
    for _ in range(150):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 6)
        expected = normalize(t)
        for _ in range(3):
            cur = t
            while True:
                outs = one_step_reducts(cur)
                if not outs:
                    break
                cur = rng.choice(outs)
            assert normalize(cur) == expected


def test_each_step_preserves_kinds():
    rng = random.Random(9)
    checked = 0
    for _ in range(150):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 6)
        info = field_info(kenv, t)
        if info is None:
            continue
        kinds = [UKind(), RecordKind(tuple(info.present.items()), tuple(info.absent.items()))]
        if info.present:
            l, ft = next(iter(info.present.items()))
            kinds.append(RecordKind(((l, ft),), ()))
        cur = t
        while (nxt := reduce_once(cur)) is not None:
            for k in kinds:
                assert has_kind(kenv, cur, k) == has_kind(kenv, nxt, k)
            cur = nxt
            checked += 1
    assert checked > 50


def test_canonical_chain_labels_distinct():
    rng = random.Random(13)
    for _ in range(200):
        kenv = gen_kind_assignment(rng, 3)
        t = normalize(gen_kindable_chain(rng, kenv, 8))
        labels = []
        while isinstance(t, (Ext, Contr)):
            labels.append(t.label)
            t = t.base
        assert len(labels) == len(set(labels))


def test_normalize_commutes_with_substitution():
    rng = random.Random(17)
    for _ in range(150):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 5)
        _, s = gen_respecting_subst(rng, kenv)
        assert normalize(apply_type(s, normalize(t))) == normalize(apply_type(s, t))


def test_equiv_is_equivalence():
    rng = random.Random(19)
    samples = []
    for _ in range(30):
        kenv = gen_kind_assignment(rng, 2)
        samples.append(gen_kindable_chain(rng, kenv, 4))
    for t in samples:
        assert equiv(t, t)
        assert equiv(t, normalize(t))
    for t1 in samples[:10]:
        for t2 in samples[:10]:
            assert equiv(t1, t2) == equiv(t2, t1)


def test_normal_form_has_no_reducts():
    rng = random.Random(23)
    for _ in range(100):
        kenv = gen_kind_assignment(rng, 2)
        t = normalize(gen_kindable_chain(rng, kenv, 5))
        assert is_normal(t)
        assert one_step_reducts(t) == []


def _reversed_chain(t):
    """t with its top chain's operations in the opposite order."""
    if not isinstance(t, (Ext, Contr)):
        return t
    base, ops = chain_ops(t)
    return chain(base, ops[::-1])


def test_is_normal_agrees_with_reduce_once():
    # Debris, its normal form, and that form with its top chain reversed.
    # A reversed normal chain over a variable is still irreducible but no
    # longer sorted, so the sweep decides it, not the `normalize(t) is t`
    # shortcut; over a record base the reversal may let an operation fold.
    rng = random.Random(404)
    seen = Counter()
    for _ in range(3000):
        t = gen_debris(rng, rng.randint(1, 4))
        n = normalize(t)
        for u in (t, n, _reversed_chain(n)):
            want = reduce_once(u) is None
            assert is_normal(u) == want, u
            seen[want, normalize(u) is u] += 1
    assert seen[False, False] > 1000
    assert seen[True, True] > 1000
    assert seen[True, False] > 300


# ---------------------------------------------------------------------------
# The one-pass normalize against the reference reduction loop


def _reference_normal_form(t):
    """The `reduce_once` fixpoint, then every chain over a variable sorted
    by label (stable, so repeated labels keep their chain order)."""
    while (nxt := reduce_once(t)) is not None:
        t = nxt
    return _sort_variable_chains(t)


def _sort_variable_chains(t):
    if isinstance(t, Arrow):
        return Arrow(_sort_variable_chains(t.dom), _sort_variable_chains(t.cod))
    if isinstance(t, RecordType):
        return RecordType(tuple((l, _sort_variable_chains(ft)) for l, ft in t.fields))
    if isinstance(t, (Ext, Contr)):
        ops = []
        while isinstance(t, (Ext, Contr)):
            ops.append((type(t), t.label, _sort_variable_chains(t.field_type)))
            t = t.base
        ops.reverse()
        base = _sort_variable_chains(t)
        if isinstance(base, TyVar):
            ops.sort(key=lambda op: op[1])
        for cls, label, ft in ops:
            base = cls(base, label, ft)
        return base
    return t


def _debris_samples(seed, n=1500):
    rng = random.Random(seed)
    return [gen_debris(rng, rng.randint(1, 4)) for _ in range(n)]


@pytest.mark.parametrize("seed", [101, 202])
def test_normalize_equals_reference_loop_on_debris(seed):
    partial_folds = repeated_labels = 0
    for t in _debris_samples(seed):
        got = normalize(t)
        assert got == _reference_normal_form(t), t
        assert is_normal(got)
        if isinstance(got, (Ext, Contr)):
            labels = []
            walk = got
            while isinstance(walk, (Ext, Contr)):
                labels.append(walk.label)
                walk = walk.base
            partial_folds += isinstance(walk, RecordType)
            repeated_labels += len(labels) != len(set(labels))
    # the samples do reach the debris cases
    assert partial_folds > 50 and repeated_labels > 50


def test_normalize_of_normal_form_is_itself():
    for t in _debris_samples(303, 500):
        n = normalize(t)
        assert normalize(n) is n
        # the cache: a normal form is marked, never made to refer to itself
        if not isinstance(n, (BaseType, TyVar)):
            assert n._nf is IS_NORMAL
            assert t is n or t._nf is n
    rng = random.Random(29)
    for _ in range(200):
        kenv = gen_kind_assignment(rng, 3)
        n = normalize(gen_kindable_chain(rng, kenv, 8))
        assert normalize(n) is n


@pytest.mark.parametrize("n", [500, 10_000])
def test_long_equal_chains_are_equiv(n):
    # one node per chain: neither equality nor the printer recurses per
    # operation
    up, down = a, a
    for i in range(n):
        up = Ext(up, f"l{i}", INT)
        down = Ext(down, f"l{n - 1 - i}", INT)
    assert equiv(up, down) and equiv(down, up)
    text = pretty_type(normalize(up))
    assert text.startswith("'a + {l0: Int} + {l1: Int} + {l10: Int}")
    assert text.count("+") == n


def test_long_cancelling_chain_normalizes_to_its_base():
    r = TyVar(77, "r")
    t = r
    for i in range(10_001):
        label = f"k{i % 7}"
        t = Contr(Ext(t, label, INT), label, INT)
    assert normalize(t) == r


# ---------------------------------------------------------------------------
# One operation added to a normal chain: the insertion case


def _uncached(t):
    """A structurally equal copy of t that shares no node with it."""
    if isinstance(t, Arrow):
        return Arrow(_uncached(t.dom), _uncached(t.cod))
    if isinstance(t, RecordType):
        return RecordType(tuple((l, _uncached(ft)) for l, ft in t.fields))
    if isinstance(t, (Ext, Contr)):
        return type(t)(_uncached(t.base), t.label, _uncached(t.field_type))
    return t


# around and between the generators' labels l, m and n
_INSERTED_LABELS = ("k", "l", "lm", "m", "mn", "n", "o")


def _one_more_op(rng, n):
    """n, a normal type, under one random operation: a random label and
    field type, or the opposite of one of n's own operations."""
    ops = chain_ops(n)[1] if isinstance(n, (Ext, Contr)) else []
    if ops and rng.random() < 0.5:
        sign, label, fty = rng.choice(ops)
        cls = Contr if sign == EXT else Ext
        if fty == a and rng.random() < 0.5:
            fty = Contr(Ext(a, "l", INT), "l", INT)  # equivalent up to reduction
    else:
        cls, label = rng.choice((Ext, Contr)), rng.choice(_INSERTED_LABELS)
        fty = rng.choice((INT, BOOL, a, gen_debris(rng, 1)))
    return cls(n, label, fty)


def _scratch_ftv(t) -> frozenset:
    """Free variables by a fold that reads no cache."""
    if isinstance(t, TyVar):
        return frozenset((t,))
    if isinstance(t, Arrow):
        return _scratch_ftv(t.dom) | _scratch_ftv(t.cod)
    if isinstance(t, RecordType):
        return frozenset().union(*(_scratch_ftv(ft) for _, ft in t.fields))
    if isinstance(t, (Ext, Contr)):
        return _scratch_ftv(t.bottom).union(*(_scratch_ftv(ft) for _, _, ft in t.ops))
    return frozenset()


def test_one_operation_on_a_normal_chain_equals_reference():
    # One to three operations on a type whose normal form is known: the
    # normal form itself, or in every third case a reducible or unsorted
    # chain with its normal form cached.  Only the new operations are read.
    rng = random.Random(4242)
    seen = Counter()
    for i in range(9300):
        if i % 2:
            t = gen_debris(rng, rng.randint(1, 4))
        else:
            t = gen_kindable_chain(rng, gen_kind_assignment(rng, 3), 8)
        if i % 3 == 0 and isinstance(t, (TyVar, RecordType, Ext, Contr)) and normalize(t) is t:
            t = Contr(Ext(t, "z", INT), "z", INT)
        n = normalize(t)  # warms t's and n's caches
        if not isinstance(n, (TyVar, RecordType, Ext, Contr)):
            continue
        prefix = t if i % 3 == 0 else n
        k = rng.randint(1, 3)
        u = prefix
        for _ in range(k):
            u = _one_more_op(rng, u)
        if isinstance(u, (Ext, Contr)) and u._np:
            # the operations the merge takes as normal are, with the bottom
            known = chain(u.bottom, u.ops[: u._np])
            assert _reference_normal_form(_uncached(known)) == known, u
            seen["known prefix"] += 1
        want = _reference_normal_form(_uncached(u))
        got = normalize(u)
        assert got == want, u
        assert (got is u) == (u == want), u
        seen[k, "normal" if prefix is n else "cached"] += 1
        if isinstance(got, (Ext, Contr)):
            assert got._fv == _scratch_ftv(got), u
            seen["seeded"] += 1
        base, ops = chain_ops(n) if isinstance(n, (Ext, Contr)) else (n, [])
        if k == 1 and prefix is n and isinstance(base, TyVar) and ops:
            after = sum(l > u.label for _, l, _ in ops)
            seen["first" if after == len(ops) else "last" if after == 0 else "middle"] += 1
            seen["cancelled"] += len(chain_ops(got)[1]) < len(ops)
    assert seen["cancelled"] >= 300
    assert min(seen["first"], seen["middle"], seen["last"]) >= 80, seen
    assert min(seen[k, kind] for k in (1, 2, 3) for kind in ("cached", "normal")) >= 850, seen
    assert seen["seeded"] >= 300 and seen["known prefix"] >= 3000, seen


def test_operation_sorting_last_reuses_the_whole_chain():
    r = TyVar(88, "r")
    long = r
    for i in range(1000):
        long = Ext(long, f"k{i:04d}", INT) if i % 2 else Contr(long, f"k{i:04d}", BOOL)
    assert normalize(long) is long
    # a node on a normal base knows its base's operations are normal
    last = Ext(long, "z", INT)
    assert last._np == 1000
    # last: the merged tuple shares the prefix's triples
    top = normalize(last)
    assert len(top.ops) == 1001 and top.ops[-1] == (EXT, "z", INT)
    assert all(top.ops[i] is long.ops[i] for i in range(1000))
    # in the middle: the prefix's slice below it, the new operation, then
    # the prefix's slice above it
    mid = normalize(Ext(long, "k0500a", INT))
    assert len(mid.ops) == 1001 and mid.ops[501] == (EXT, "k0500a", INT)
    assert all(mid.ops[i] is long.ops[i] for i in range(501))
    assert all(mid.ops[i + 1] is long.ops[i] for i in range(501, 1000))


# ---------------------------------------------------------------------------
# equiv against the reference reducer, on monotypes, kinds and polytypes


def _reference_form(x):
    """x with every monotype in it replaced by its reference normal form:
    a kind's field types, a polytype's kinds and body."""
    if isinstance(x, UKind):
        return x
    if isinstance(x, RecordKind):
        lefts, rights = (tuple((l, _reference_normal_form(t)) for l, t in side) for side in (x.lefts, x.rights))
        return RecordKind(lefts, rights)
    if isinstance(x, PolyType):
        quants = tuple((v, _reference_form(k)) for v, k in x.quants)
        return PolyType(quants, _reference_normal_form(x.body))
    return _reference_normal_form(x)


def _gen_value(rng, what):
    """Debris as a monotype, as a kind's field types, or as a polytype's
    kinds and body, with binders among the variables the debris uses."""
    depth = rng.randint(1, 3)
    if what == "mono":
        return gen_debris(rng, depth)
    if what == "kind":
        if rng.random() < 0.15:
            return UKind()
        labels = rng.sample(("l", "m", "n", "p"), rng.randint(0, 3))
        sides = [(l, gen_debris(rng, depth - 1)) for l in labels]
        cut = rng.randint(0, len(sides))
        return RecordKind(tuple(sides[:cut]), tuple(sides[cut:]))
    binders = rng.sample(DEBRIS_VARS, rng.randint(0, 2))
    return PolyType(tuple((v, _gen_value(rng, "kind")) for v in binders), gen_debris(rng, depth))


def _mono_variant(rng, t):
    """t after one reduction step, with its top chain reversed, or under a
    cancelling pair (an arrow's codomain so changed): equal to t modulo
    reduction or label order, except where reversing moves operations on
    one label past each other."""
    reducts = one_step_reducts(t)
    roll = rng.random()
    if reducts and roll < 0.5:
        return rng.choice(reducts)
    if isinstance(t, (Ext, Contr)) and roll < 0.8:
        return _reversed_chain(t)
    if isinstance(t, (TyVar, RecordType, Ext, Contr)):
        return Contr(Ext(t, "z", INT), "z", INT)
    return Arrow(t.dom, _mono_variant(rng, t.cod)) if isinstance(t, Arrow) else t


def _variant(rng, x):
    """A node-disjoint copy of x (a polytype's binders renamed), with one of
    its monotypes replaced by a `_mono_variant` in every other case."""
    change = rng.random() < 0.5
    if isinstance(x, UKind):
        return UKind()
    if isinstance(x, RecordKind):
        sides = [[(l, _uncached(t)) for l, t in side] for side in (x.lefts, x.rights)]
        filled = [side for side in sides if side]
        if change and filled:
            side = rng.choice(filled)
            i = rng.randrange(len(side))
            side[i] = (side[i][0], _mono_variant(rng, side[i][1]))
        return RecordKind(tuple(sides[0]), tuple(sides[1]))
    if isinstance(x, PolyType):
        p = rebind(x, [TyVar(900 + i, v.name) for i, (v, _) in enumerate(x.quants)])
        quants = tuple((v, _variant(rng, k)) for v, k in p.quants)
        return PolyType(quants, _mono_variant(rng, p.body) if change else _uncached(p.body))
    return _mono_variant(rng, x) if change else _uncached(x)


def test_equiv_agrees_with_the_reference_reducer():
    # Pairs that are equal, equal only modulo reduction or label order,
    # unequal and normal, or of different classes; equiv normalizes each
    # side and compares once, and must answer as the reference forms do.
    rng = random.Random(4141)
    seen = Counter()
    for i in range(2400):
        what = ("mono", "kind", "poly")[i % 3]
        x = _gen_value(rng, what)
        roll = rng.random()
        if roll < 0.45:
            y = _variant(rng, x)
        elif roll < 0.75:
            x, y = normalize(x), normalize(_gen_value(rng, what))
        else:
            y = _gen_value(rng, rng.choice([c for c in ("mono", "kind", "poly") if c != what]))
        want = _reference_form(x) == _reference_form(y)
        assert equiv(x, y) == want and equiv(y, x) == want, (x, y)
        if roll >= 0.75:
            seen["classes", want] += 1
        elif want:
            seen["equal" if x == y else "modulo"] += 1
        elif normalize(x) is x and normalize(y) is y:
            seen["unequal normal"] += 1
    assert seen["classes", True] == 0
    assert min(seen["equal"], seen["modulo"], seen["unequal normal"], seen["classes", False]) >= 250, seen
