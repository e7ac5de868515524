import importlib
import itertools
import random
import sys
from collections import Counter

import pytest

from extrec.infer import FreshSupply, InferResult, infer
from extrec.kinding import has_kind
from extrec.normalize import equiv, is_normal, normalize
from extrec.parser import parse_env_file, parse_term
from extrec.subst import KindedSubstitution, apply_type, resolve, respects
from extrec.syntax import (
    Arrow,
    BOOL,
    BaseType,
    Contr,
    Ext,
    INT,
    RecordKind,
    RecordType,
    TyVar,
    UKind,
    chain,
    ftv,
    record_kind,
)
from extrec.unify import UnificationError, unify
from gen import (
    enumerate_ground_unifiers,
    factors_through,
    gen_closed_term,
    gen_kinded_equations,
    gen_two_chain_equation,
    mgu_universe,
    subst_equal,
)

unify_mod = importlib.import_module("extrec.unify")  # the package binds the name to the function
syntax_mod = importlib.import_module("extrec.syntax")

a, b, g = TyVar(1, "a"), TyVar(2, "b"), TyVar(3, "g")


def test_reflexive_arrow():
    resid, s = unify({}, [(Arrow(INT, INT), Arrow(INT, INT))])
    assert resid == {} and s == {}


def test_worked_unification_example():
    # K = {a :: <<||l:g>>, b :: <<l:g||>>, g :: U}
    kenv = {a: record_kind([], [("l", g)]), b: record_kind([("l", g)]), g: UKind()}
    lhs = Contr(Ext(a, "l", g), "l", g)
    rhs = Contr(b, "l", g)
    trace = []
    resid, s = unify(kenv, [(lhs, rhs)], trace=trace)
    assert trace[0] == "viii"
    assert "ix" not in trace
    assert resid == {a: record_kind([], [("l", g)]), g: UKind()}
    assert subst_equal(s, {b: Ext(a, "l", g)})


def test_variable_against_record():
    kenv = {a: record_kind([("l", INT)])}
    wide = RecordType((("l", INT), ("m", BOOL)))
    resid, s = unify(kenv, [(a, wide)])
    assert resid == {}
    assert subst_equal(s, {a: wide})


def test_variable_against_chain_rule_vii():
    kenv = {a: record_kind([("l1", INT)]), b: record_kind([], [("l1", INT)])}
    resid, s = unify(kenv, [(a, Ext(b, "l1", INT))])
    assert resid == {b: record_kind([], [("l1", INT)])}
    assert subst_equal(s, {a: Ext(b, "l1", INT)})


def _reason(kenv, eqs):
    with pytest.raises(UnificationError) as e:
        unify(kenv, eqs)
    return e.value.reason


def test_failure_reasons():
    with pytest.raises(UnificationError) as e:
        unify({a: record_kind([("l", INT)])}, [(a, RecordType((("m", BOOL),)))])
    assert e.value.reason == "kind_clash"
    with pytest.raises(UnificationError) as e2:
        unify({a: UKind()}, [(a, Arrow(a, a))])
    assert e2.value.reason == "occurs_check"
    with pytest.raises(UnificationError) as e3:
        unify({}, [(INT, BOOL)])
    assert e3.value.reason == "constructor_clash"
    with pytest.raises(UnificationError) as e4:
        unify({a: UKind()}, [(Arrow(a, a), RecordType(()))])
    assert e4.value.reason == "constructor_clash"
    # iii: two record-kinded variables
    assert _reason(
        {a: record_kind([("l", INT)]), b: record_kind([], [("l", INT)])}, [(a, b)]
    ) == "kind_clash"
    # b is eliminated into a, whose kind then mentions a
    assert _reason(
        {a: record_kind([("l", b)]), b: record_kind([("m", INT)])}, [(a, b)]
    ) == "occurs_check"
    # iv: a record-kinded variable against a record
    assert _reason(
        {a: record_kind([], [("l", INT)])}, [(a, RecordType((("l", INT),)))]
    ) == "kind_clash"
    assert _reason(
        {a: record_kind([("l", INT)])}, [(a, RecordType((("l", INT), ("m", a))))]
    ) == "occurs_check"
    # against a record, a missing field is reported before the occurrence
    assert _reason({a: record_kind([("l", INT)])}, [(a, RecordType((("m", a),)))]) == "kind_clash"
    # vii: a record-kinded variable against a chain
    assert _reason(
        {a: record_kind([("l", INT)]), b: record_kind([("l", INT)])},
        [(a, Contr(b, "l", INT))],
    ) == "kind_clash"
    assert _reason({a: record_kind([], [("m", INT)])}, [(a, Ext(a, "m", INT))]) == "occurs_check"
    # ix: two chains over distinct variables; a requires l, which b's chain
    # contracts, and then one chain's base occurs in the other's operation
    assert _reason(
        {a: record_kind([("l", INT), ("m", INT)]), b: record_kind([("l", INT)])},
        [(Contr(a, "m", INT), Contr(b, "l", INT))],
    ) == "kind_clash"
    assert _reason(
        {a: record_kind([("m", INT)]), b: record_kind([("n", a)])},
        [(Contr(a, "m", INT), Contr(b, "n", a))],
    ) == "occurs_check"
    # vii and ix: a base inside an operation type is an occurrence before
    # any kind check, though the kinds clash as well
    assert _reason(
        {a: record_kind([("l", INT), ("m", INT)]), b: record_kind([("l", a)])},
        [(Contr(a, "m", INT), Contr(b, "l", a))],
    ) == "occurs_check"
    assert _reason(
        {a: record_kind([("l", INT)]), b: record_kind([], [("l", INT), ("n", a)])},
        [(a, Ext(b, "n", a))],
    ) == "occurs_check"


def test_opposite_operations_on_shared_label_fail():
    kenv = {
        a: record_kind([], [("l", INT)]),
        b: record_kind([("l", INT)]),
    }
    with pytest.raises(UnificationError):
        unify(kenv, [(Ext(a, "l", INT), Contr(b, "l", INT))])


def test_two_chain_merge_with_kind_interplay():
    # a1 requires l present; a2's chain supplies l by extension: solvable,
    # even though a1's kind and a2's kind-right share the label.
    kenv = {
        a: record_kind([("l", INT), ("m", BOOL)]),
        b: record_kind([], [("l", INT)]),
    }
    resid, s = unify(kenv, [(Contr(a, "m", BOOL), Ext(b, "l", INT))])
    for t1, t2 in [(Contr(a, "m", BOOL), Ext(b, "l", INT))]:
        assert equiv(apply_type(s, t1), apply_type(s, t2))
    assert respects(KindedSubstitution(resid, s), kenv)


def test_two_chain_merge_keeps_the_operations_types():
    # The fresh base's kind takes each moved label's type from the
    # operation.  Meeting a with f - {m: Int} must not write a's own type
    # for l over it, or meeting b with f's other chain sees the operation
    # contradict f's kind.  The forbidden side behaves the same.
    f = TyVar(9, "f")
    cases = [
        (record_kind([("l", g)]), Contr(a, "l", INT), Contr(f, "l", INT),
         record_kind([("l", INT), ("m", INT)])),
        (record_kind([], [("l", g)]), Ext(a, "l", INT), Ext(f, "l", INT),
         record_kind([("m", INT)], [("l", INT)])),
    ]
    for kind_a, lhs, b_image, f_kind in cases:
        kenv = {g: UKind(), a: kind_a, b: record_kind([("m", INT)])}
        trace = []
        resid, s = unify(kenv, [(lhs, Contr(b, "m", INT))], fresh=lambda: f, trace=trace)
        assert trace[0] == "ix"
        assert s == {a: Contr(f, "m", INT), b: b_image, g: INT}
        assert resid == {f: f_kind}


def test_a_chain_queued_before_a_merge_meets_the_merged_kind():
    # w is merged into a first, so a's kind gives l the type g while the
    # equation g = Int is still queued; the chain a - {l: Int}, built
    # against a's old kind, must still meet b
    w = TyVar(4, "w")
    kenv = {
        g: UKind(),
        a: record_kind([("l", INT)]),
        w: record_kind([("l", g)]),
        b: record_kind([], [("l", INT)]),
    }
    trace = []
    resid, s = unify(kenv, [(w, a), (b, Contr(a, "l", INT))], trace=trace)
    assert trace[:2] == ["iii", "vii"]
    assert s == {w: a, b: Contr(a, "l", INT), g: INT}
    assert resid == {a: record_kind([("l", INT)])}


def test_two_chain_merges_are_most_general():
    # Brute force, as acceptance criterion 7: a failure has no ground
    # unifier over a finite universe, and every ground unifier factors
    # through the result, which is itself a unifier that respects the kinds.
    rng = random.Random(20261018)
    unified = failed = merged = 0
    for _ in range(400):
        kenv, eqs, label_types = gen_two_chain_equation(rng)
        universe = mgu_universe(label_types)
        grounds = enumerate_ground_unifiers(kenv, eqs, universe)
        trace = []
        try:
            resid, s = unify(dict(kenv), list(eqs), fresh=FreshSupply(900).fresh, trace=trace)
        except UnificationError:
            assert grounds == [], (kenv, eqs, grounds[:1])
            failed += 1
            continue
        unified += 1
        merged += "ix" in trace
        for t1, t2 in eqs:
            assert equiv(apply_type(s, t1), apply_type(s, t2)), (kenv, eqs, s)
        assert respects(KindedSubstitution(resid, s), kenv), (kenv, eqs, resid, s)
        for g in grounds:
            assert factors_through(g, kenv, resid, s, universe), (kenv, eqs, g)
    assert unified >= 100 and failed >= 100 and merged >= 20


def test_chain_against_record_decomposes():
    kenv = {a: record_kind([], [("l", INT)])}
    target = RecordType((("l", INT), ("m", BOOL)))
    resid, s = unify(kenv, [(Ext(a, "l", INT), target)])
    assert subst_equal(s, {a: RecordType((("m", BOOL),))})
    resid2, s2 = unify(
        {a: record_kind([("l", INT)])},
        [(Contr(a, "l", INT), RecordType((("m", BOOL),)))],
    )
    assert subst_equal(s2, {a: RecordType((("l", INT), ("m", BOOL)))})


def test_a_long_unsorted_chain_meets_its_record():
    # The normalization retry tells a changed side by identity: comparing
    # the normal forms with the sides by `==` recursed down both chains and
    # raised RecursionError at 500 operations.
    n = 500
    fields = tuple((f"l{i}", INT) for i in range(n))
    chain = a
    for label, fty in fields:
        chain = Ext(chain, label, fty)
    resid, s = unify({a: record_kind([], list(fields))}, [(chain, RecordType(fields))])
    assert resid == {} and s == {a: RecordType(())}


@pytest.mark.parametrize("n", [500, 10_000])
def test_long_equal_chains_unify(n):
    # two equal chains built in opposite orders: one node each, so neither
    # equality nor normalization recurses per operation
    up, down = a, a
    for i in range(n):
        up = Ext(up, f"l{i}", INT)
        down = Ext(down, f"l{n - 1 - i}", INT)
    trace = []
    assert unify({a: record_kind()}, [(up, down)], trace=trace) == ({a: record_kind()}, {})
    assert trace == ["i"]


def test_a_chain_that_repeats_a_label_meets_a_record_only_by_a_unifier():
    # {} + {l: Int} + {l: Bool} is normal, not {l: Bool}: a chain that
    # extends, or contracts, a label twice has no field facts to read.  One
    # that does both keeps the record's missing or present field as reason.
    chain = Ext(Ext(a, "l", INT), "l", BOOL)
    with pytest.raises(UnificationError) as e:
        unify({a: UKind()}, [(chain, RecordType((("l", BOOL),)))])
    assert e.value.reason == "kind_clash"
    assert _reason({a: UKind()}, [(Contr(Contr(a, "l", INT), "l", INT), RecordType(()))]) == "kind_clash"
    both = Contr(Ext(a, "l", INT), "l", BOOL)
    for rec, message in (
        (RecordType(()), "extended field missing from the record"),
        (RecordType((("l", BOOL),)), "contracted field still present in the record"),
    ):
        with pytest.raises(UnificationError) as e:
            unify({a: UKind()}, [(both, rec)])
        assert e.value.message == message
    # Every normal chain of two or three operations on l and m, most of
    # which repeat a label, against every record over l and m, under three
    # kinds of a: each success is a unifier.
    ops = [(cls, l, f) for cls in (Ext, Contr) for l in ("l", "m") for f in (INT, BOOL)]
    records = [
        RecordType(tuple((l, f) for l, f in zip(("l", "m"), fields) if f is not None))
        for fields in itertools.product((None, INT, BOOL), repeat=2)
    ]
    kinds = (UKind(), record_kind([], [("l", INT)]), record_kind([("m", BOOL)]))
    solved = refused = 0
    for n in (2, 3):
        for seq in itertools.product(ops, repeat=n):
            chain = a
            for cls, l, f in seq:
                chain = cls(chain, l, f)
            if not is_normal(chain):
                continue
            for k, rec in itertools.product(kinds, records):
                kenv = {a: k}
                try:
                    resid, s = unify(kenv, [(chain, rec)])
                except UnificationError:
                    refused += 1
                    continue
                solved += 1
                assert equiv(apply_type(s, chain), apply_type(s, rec)), (k, chain, rec, s)
                assert respects(KindedSubstitution(resid, s), kenv), (k, chain, rec, s)
    assert solved >= 40 and refused >= 8000, (solved, refused)


def test_substituted_record_base_chain_collapses():
    # substitution plants a record under a chain; the solver must not get stuck
    kenv = {a: UKind(), b: UKind()}
    eqs = [(a, RecordType((("m", BOOL),))), (b, Ext(a, "l", INT))]
    resid, s = unify(kenv, eqs)
    assert equiv(apply_type(s, b), RecordType((("l", INT), ("m", BOOL))))


def test_equations_from_a_merge_see_the_merge():
    # merging v1 into v2 equates their l fields, g and v1 (v2's field); that
    # equation is solved with v1 already replaced, so no solved variable is
    # left in the result (v2's kind becomes cyclic)
    g, v2, v1 = TyVar(1, "g"), TyVar(2, "v2"), TyVar(3, "v1")
    kenv = {g: UKind(), v2: record_kind([("l", v1)]), v1: record_kind([("l", g)])}
    trace = []
    resid, s = unify(kenv, [(v1, v2)], trace=trace)
    assert trace == ["iii", "ii"]
    assert s == {v1: v2, g: v2}
    assert resid == {v2: record_kind([("l", v2)])}


def test_a_merge_keeps_the_eliminated_variables_forbidden_field():
    # the right-hand side of the case above: v2's kind is written over by
    # v1's entry for l, so it does not come to mention v2 itself
    g, v2, v1 = TyVar(1, "g"), TyVar(2, "v2"), TyVar(3, "v1")
    kenv = {g: UKind(), v2: record_kind([], [("l", v1)]), v1: record_kind([], [("l", g)])}
    trace = []
    resid, s = unify(kenv, [(v1, v2)], trace=trace)
    assert trace == ["iii", "ii"]
    assert s == {v1: v2, g: v2}
    assert resid == {v2: record_kind([], [("l", v2)])}


def test_forbidden_fields_are_equated_with_the_facts():
    # a field a kind forbids carries the type it would be extended with;
    # each rule equates it with the type the image's facts give the label
    c = TyVar(3, "c")
    cases = [
        ("iii", {c: UKind(), a: record_kind([], [("l", c)]), b: record_kind([], [("l", INT)])},
         (a, b)),
        ("vii", {c: UKind(), a: record_kind([], [("l", c)]),
                 b: record_kind([("m", INT)], [("l", INT)])},
         (a, Contr(b, "m", INT))),
        ("ix", {c: UKind(), a: record_kind([("m", INT)], [("l", c)]), b: record_kind([("l", INT)])},
         (Contr(a, "m", INT), Contr(b, "l", INT))),
    ]
    for rule, kenv, eq in cases:
        trace = []
        resid, s = unify(kenv, [eq], fresh=FreshSupply(900).fresh, trace=trace)
        assert rule in trace and s[c] == INT, (rule, trace, s)


def _has_cycle(s):
    """Does some variable bound in s reach itself through the images?"""
    done, open_ = set(), set()
    for root in s:
        if root in done:
            continue
        open_.add(root)
        stack = [(root, iter(ftv(s[root])))]
        while stack:
            v, below = stack[-1]
            w = next((w for w in below if w in s and w not in done), None)
            if w is None:
                open_.discard(v)
                done.add(v)
                stack.pop()
            elif w in open_:
                return True
            else:
                open_.add(w)
                stack.append((w, iter(ftv(s[w]))))
    return False


def test_has_cycle():
    assert not _has_cycle({a: Arrow(b, b), b: g})
    assert _has_cycle({a: Arrow(b, INT), b: Ext(g, "l", a), g: INT})
    assert _has_cycle({a: b, b: a})


def test_unifier_is_sound_on_random_inputs(monkeypatch):
    # State invariant, checked after every transformation step: no variable
    # is both bound and kinded, the bindings have no cycle, and no bound
    # variable is left in a kind, an image or a pending equation once
    # resolved.  Resolution runs on a copy, so that the check leaves the
    # solver's path compression to the solver.
    solver = sys.modules["extrec.unify"]
    step = solver._step
    steps = 0

    def checked_step(st, *args, **kw):
        nonlocal steps
        step(st, *args, **kw)
        steps += 1
        bound = st.subst.keys()
        assert not (bound & st.kenv.keys())
        assert not _has_cycle(st.subst)
        view = dict(st.subst)
        assert not any(ftv(resolve(view, k)) & bound for k in st.kenv.values())
        assert not any(ftv(resolve(view, v)) & bound for v in st.subst)
        for t1, t2 in st.eqs:
            assert not (ftv(resolve(view, t1)) | ftv(resolve(view, t2))) & bound

    monkeypatch.setattr(solver, "_step", checked_step)
    rng = random.Random(73)
    successes = 0
    for i in range(400):
        kenv, eqs = gen_kinded_equations(rng, uid_base=50)
        try:
            resid, s = unify(kenv, [tuple(e) for e in eqs])
        except UnificationError:
            continue
        successes += 1
        # the result is read back resolved: kinds and images mention no
        # bound variable, so the substitution is idempotent
        assert not any(ftv(k) & s.keys() for k in resid.values())
        assert not any(ftv(t) & s.keys() for t in s.values())
        for t1, t2 in eqs:
            assert equiv(apply_type(s, t1), apply_type(s, t2)), (kenv, eqs, s)
        assert respects(KindedSubstitution(resid, s), kenv), (kenv, eqs, resid, s)
    assert successes > 100 and steps > 200


def test_symmetry():
    rng = random.Random(79)
    equal_results = 0
    for _ in range(200):
        kenv, eqs = gen_kinded_equations(rng)
        flipped = [(t2, t1) for t1, t2 in eqs]
        try:
            r1 = unify(dict(kenv), list(eqs))
        except UnificationError:
            r1 = None
        try:
            r2 = unify(dict(kenv), flipped)
        except UnificationError:
            r2 = None
        assert (r1 is None) == (r2 is None)
        if r1 is not None:
            for t1, t2 in eqs:
                assert equiv(apply_type(r2[1], t1), apply_type(r2[1], t2))
            assert set(r1[1]) == set(r2[1])
            assert subst_equal(r1[1], r2[1])
            equal_results += 1
    assert equal_results > 30


def test_termination_bulk(monkeypatch):
    # the solver's loop makes one top-level _step call per iteration; one
    # unify call may make at most 200 * (len(eqs) + 5) of them
    budget = [0]
    step = unify_mod._step

    def counting_step(st, t1, t2, retried=False):
        if not retried:
            budget[0] -= 1
            assert budget[0] >= 0, "unify: transformation did not terminate"
        return step(st, t1, t2, retried)

    monkeypatch.setattr(unify_mod, "_step", counting_step)
    rng = random.Random(83)
    for _ in range(10_000):
        kenv, eqs = gen_kinded_equations(rng)
        budget[0] = 200 * (len(eqs) + 5)
        try:
            unify(kenv, eqs)
        except UnificationError:
            pass


def _scratch_ftv(x) -> set:
    """Free variables by a walk that reads no cache."""
    if isinstance(x, TyVar):
        return {x}
    if isinstance(x, (BaseType, UKind)):
        return set()
    if isinstance(x, Arrow):
        return _scratch_ftv(x.dom) | _scratch_ftv(x.cod)
    if isinstance(x, (Ext, Contr)):
        return _scratch_ftv(x.bottom).union(*(_scratch_ftv(t) for _, _, t in x.ops))
    pairs = x.fields if isinstance(x, RecordType) else x.lefts + x.rights
    return set().union(*(_scratch_ftv(t) for _, t in pairs))


def _cache_faults(x, out: list, seen: Counter):
    """Append to out every node of the type or kind x whose caches or
    unchecked construction break an invariant; count in seen the chain
    nodes with a known normal prefix."""
    if x._fv is not None and x._fv != _scratch_ftv(x):
        out.append(("stale _fv", x))
    if isinstance(x, RecordKind):
        if x != RecordKind(x.lefts, x.rights):  # sorts, and raises on a repeat
            out.append(("unsorted kind", x))
        children = [t for _, t in x.lefts + x.rights]
    elif isinstance(x, (Ext, Contr)):
        if x._np:
            # the operations the merge takes as normal are, with the bottom:
            # a fresh node of them, with nothing cached, normalizes to itself
            known = chain(x.bottom, x.ops[: x._np])
            seen["known prefix"] += 1
            if normalize(known) is not known:
                out.append(("wrong normal prefix", x))
        children = [x.bottom, *(t for _, _, t in x.ops)]
    elif isinstance(x, Arrow):
        children = [x.dom, x.cod]
    elif isinstance(x, RecordType):
        children = [t for _, t in x.fields]
    else:
        children = []
    for child in children:
        _cache_faults(child, out, seen)


ENV_42 = "'a1 :: << || l: 'a2>>\n'a2 :: U\nx : 'a1\ny : 'a2\n"


def test_trusted_kinds_and_chain_caches_keep_their_invariants(monkeypatch):
    # Unification merges kinds without the constructor's checks and with
    # their free variables filled in; chain nodes carry their free variables
    # and the count of their operations known to be normal.  A wrong one
    # would pass silently: a stale free-variable set skips substitution and
    # occurs checks, and a wrong count makes normalization skip operations.
    # Every kind the merge builds is checked, every chain that `Ext`,
    # `Contr` and `map_type` build, and every final result.
    built = []

    def recorded(make):
        def build(*args):
            built.append(make(*args))
            return built[-1]

        return build

    monkeypatch.setattr(unify_mod, "trusted_record_kind", recorded(unify_mod.trusted_record_kind))
    monkeypatch.setattr(syntax_mod, "chain", recorded(syntax_mod.chain))
    kenv42, tenv42, venv42 = parse_env_file(ENV_42)
    rng = random.Random(20261018)
    faults, checked, seen = [], 0, Counter()

    def check(values):
        nonlocal checked
        for x in [*values, *built]:
            _cache_faults(x, faults, seen)
        checked += len(built)
        built.clear()

    for i in range(2000):
        env = i % 2 == 1
        term = gen_closed_term(rng, rng.randint(1, 6), scope=("x", "y") if env else ())
        k, g, start = (kenv42, tenv42, venv42.next_free_uid()) if env else ({}, {}, 1)
        res = infer(k, g, term, FreshSupply(start))
        ok = isinstance(res, InferResult)
        check([*res.kenv.values(), *res.subst.values(), res.type] if ok else [])
    for _ in range(300):
        # operations on one record, so that chains grow on normal chains
        body = "r"
        for _ in range(rng.randint(2, 6)):
            label = rng.choice("lmnz")
            body = f"extend({body}, {label}, 1)" if rng.random() < 0.6 else f"remove({body}, {label})"
        res = infer({}, {}, parse_term("\\r. " + body))
        ok = isinstance(res, InferResult)
        check([*res.kenv.values(), *res.subst.values(), res.type] if ok else [])
    for i in range(1500):
        if i % 3:
            kenv, eqs = gen_kinded_equations(rng)
        else:
            kenv, eqs, _ = gen_two_chain_equation(rng)
        try:
            k, s = unify(kenv, eqs, fresh=FreshSupply(900).fresh)
        except UnificationError:
            k = s = {}
        check([*k.values(), *s.values()])
    assert not faults, faults[:3]
    assert checked > 400 and seen["known prefix"] > 300, seen
