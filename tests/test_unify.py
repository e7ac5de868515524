import importlib
import itertools
import random
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

from extrec.cli import main
from extrec.infer import FreshSupply, InferResult, infer
from extrec.kinding import has_kind, wf_kind_assignment
from extrec.normalize import CON, EXT, chain_ops, equiv, is_normal, normalize
from extrec.parser import (
    Namer,
    parse_env_file,
    parse_equations,
    parse_mono,
    parse_term,
    pretty_kind_assignment,
    pretty_subst,
)
from extrec.subst import KindedSubstitution, apply_type, respects
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
from extrec.unify import UnificationError, resolve, unify
from gen import (
    bench_inputs,
    enumerate_ground_unifiers,
    factors_through,
    gen_arb_mono,
    gen_closed_term,
    gen_field_order_equations,
    gen_kind_assignment,
    gen_kinded_equations,
    gen_two_chain_equation,
    mgu_universe,
    subst_equal,
)

unify_mod = importlib.import_module("extrec.unify")  # the package binds the name to the function
syntax_mod = importlib.import_module("extrec.syntax")
normalize_mod = importlib.import_module("extrec.normalize")

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


def test_ill_formed_input_is_a_value_error():
    # a kind that mentions a variable with no kind, and an equation variable
    # with no kind, are not unification problems
    with pytest.raises(ValueError, match="^unify: kind assignment not well formed$"):
        unify({a: record_kind([("l", b)])}, [])
    with pytest.raises(ValueError, match="^unify: equation variable 'a' unkinded$"):
        unify({}, [(a, INT)])


def _entry_refusal(kenv, eqs):
    """The entry check's ValueError message by its per-variable definition,
    a loop in the order of each equation's free variables, or None."""
    if not all(w in kenv for k in kenv.values() for w in ftv(k)):
        return "unify: kind assignment not well formed"
    for lhs, rhs in eqs:
        for v in ftv(lhs) | ftv(rhs):
            if v not in kenv:
                return f"unify: equation variable '{v.name or v.uid}' unkinded"
    return None


def test_the_entry_checks_agree_with_their_per_variable_definitions(monkeypatch):
    # Kind assignments with dangling variables in their kinds, and equations
    # over kinded and unkinded variables, some unnamed: the subset tests
    # accept and refuse as the loops over variables do, and a refusal names
    # the variable the loop meets first.  Only the entry is under test, so
    # the solver does nothing: the random equations need not have a kind.
    monkeypatch.setattr(unify_mod.Solver, "solve", lambda self, equations: None)
    rng = random.Random(3131)
    dangling = tuple(TyVar(500 + i, ("d", "e", "")[i % 3]) for i in range(6))
    seen = Counter()
    for _ in range(1500):
        kenv = gen_kind_assignment(rng, rng.randint(0, 4))
        for v, k in list(kenv.items()):
            if isinstance(k, RecordKind) and k.lefts and rng.random() < 0.3:
                l, _ = k.lefts[0]
                kenv[v] = RecordKind(((l, gen_arb_mono(rng, 1, dangling)),) + k.lefts[1:], k.rights)
        wf = all(w in kenv for k in kenv.values() for w in ftv(k))
        assert wf_kind_assignment(kenv) == wf
        pool = tuple(kenv) + tuple(rng.sample(dangling, rng.randint(0, 3)))
        eqs = [(gen_arb_mono(rng, 2, pool), gen_arb_mono(rng, 2, pool)) for _ in range(rng.randint(0, 3))]
        want = _entry_refusal(kenv, eqs)
        try:
            unify(kenv, eqs)
            got = None
        except ValueError as e:
            got = str(e)
        assert got == want, (kenv, eqs)
        seen[wf, want is None] += 1
        if want and "' unkinded" in want:
            unkinded = {v for lhs, rhs in eqs for v in ftv(lhs) | ftv(rhs) if v not in kenv}
            seen["named among several"] += len(unkinded) > 1
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 150, seen
    assert seen["named among several"] >= 100, seen


def test_a_chain_over_a_variable_bound_to_a_non_record_is_a_clash():
    # Universally kinded variables may be bound to anything, so a chain over
    # one can meet an arrow or a base type as its bottom.  Building that
    # chain raises ValueError in `syntax.chain`; the solver reports it as a
    # constructor clash, whether the chain is resolved for a later equation,
    # for the result, or under a contraction.
    kenv = {a: UKind(), b: UKind()}
    cases = [
        ([(a, Arrow(INT, INT)), (Ext(a, "l", INT), b)], "extension"),
        ([(Ext(a, "l", INT), b), (a, Arrow(INT, INT))], "extension"),
        ([(b, Contr(a, "l", INT)), (a, INT)], "contraction"),
    ]
    for eqs, what in cases:
        with pytest.raises(UnificationError) as e:
            unify(kenv, eqs)
        assert (e.value.reason, e.value.message) == (
            "constructor_clash",
            f"{what} base must be an extensible type",
        ), eqs


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


def test_a_merge_refuses_a_fresh_variable_already_in_the_state():
    # Rule ix's fresh base must be new: a variable the state kinds (a), or
    # one bound earlier in the same call (g, by rule ii), is refused rather
    # than having its kind overwritten or its binding shadowed.
    kenv = {g: UKind(), a: record_kind([("l", g)]), b: record_kind([("m", INT)])}
    eqs = [(g, INT), (Contr(a, "l", INT), Contr(b, "m", INT))]
    for taken in (a, g):
        with pytest.raises(ValueError, match=f"uid {taken.uid} is already kinded or bound"):
            unify(kenv, eqs, fresh=lambda: taken)
    resid, s = unify(kenv, eqs, fresh=FreshSupply(9).fresh)
    assert s[a] == Contr(TyVar(9), "m", INT)


def test_a_chain_queued_before_a_merge_meets_the_merged_kind():
    # w is merged into a first, so a's kind gives l the type g; the merge's
    # equation g = Int goes before the queued b = a - {l: Int} and is
    # solved first, and the chain then meets b under a's kind
    w = TyVar(4, "w")
    kenv = {
        g: UKind(),
        a: record_kind([("l", INT)]),
        w: record_kind([("l", g)]),
        b: record_kind([], [("l", INT)]),
    }
    trace = []
    resid, s = unify(kenv, [(w, a), (b, Contr(a, "l", INT))], trace=trace)
    assert trace == ["iii", "ii", "vii", "i"]
    assert s == {w: a, b: Contr(a, "l", INT), g: INT}
    assert resid == {a: record_kind([("l", INT)])}


@pytest.mark.parametrize("nested", [False, True])
def test_a_field_equation_a_kind_implies_is_solved_before_later_ones(nested):
    # 'a :: <<l: F['b] || >> and 'q :: << || l: F[Bool]>>, with F the
    # identity or a one-field record: 'a - {l: F['b]} reduces only once
    # 'b = Bool, which eliminating 'a derives from its kind
    wrap = (lambda t: RecordType((("m", t),))) if nested else (lambda t: t)
    q = TyVar(5, "q")
    kenv = {b: UKind(), q: record_kind([], [("l", wrap(BOOL))]), a: record_kind([("l", wrap(b))])}
    eqs = [(a, Ext(q, "l", wrap(BOOL))), (Contr(a, "l", wrap(b)), q)]
    solved = ({a: Ext(q, "l", wrap(BOOL))}, {q: Contr(a, "l", wrap(BOOL))})
    for order, bound in zip((eqs, eqs[::-1]), solved):
        resid, s = unify(kenv, order)
        assert s == {b: BOOL, **bound}
        for t1, t2 in eqs:
            assert equiv(apply_type(s, t1), apply_type(s, t2))
        assert respects(KindedSubstitution(resid, s), kenv)


def test_field_equations_make_the_verdict_independent_of_equation_order():
    # Brute force over sets where a kind's field equation is needed by a
    # later equation: every order gives one verdict, a failure has no
    # ground unifier, and a success is a unifier that respects the kinds.
    rng = random.Random(20261019)
    verdicts = Counter()
    for _ in range(300):
        kenv, eqs, label_types = gen_field_order_equations(rng)
        grounds = enumerate_ground_unifiers(kenv, eqs, mgu_universe(label_types))
        outcomes = set()
        for order in itertools.permutations(eqs):
            try:
                resid, s = unify(kenv, list(order))
            except UnificationError:
                assert grounds == [], (kenv, order, grounds[:1])
                outcomes.add(False)
                continue
            outcomes.add(True)
            for t1, t2 in eqs:
                assert equiv(apply_type(s, t1), apply_type(s, t2)), (kenv, order, s)
            assert respects(KindedSubstitution(resid, s), kenv), (kenv, order, resid, s)
        assert len(outcomes) == 1, (kenv, eqs)
        verdicts[outcomes.pop()] += 1
    assert verdicts[True] > 100 and verdicts[False] > 30, verdicts


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
    # the solver's loop makes one top-level _step call per iteration (a
    # retry on normal forms is a nested one); one unify call may make at
    # most 200 * (len(eqs) + 5) of them
    budget, depth = [0], [0]
    step = unify_mod._step

    def counting_step(st, t1, t2):
        if not depth[0]:
            budget[0] -= 1
            assert budget[0] >= 0, "unify: transformation did not terminate"
        depth[0] += 1
        try:
            return step(st, t1, t2)
        finally:
            depth[0] -= 1

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
        k, g, start = (kenv42, tenv42, venv42.next_uid) if env else ({}, {}, 1)
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


def test_a_clash_on_several_labels_names_them_all(tmp_path):
    # `_meet` meets v's kind one label at a time, yet a failure lists every
    # label that clashes, in label order: rule iv against a record that
    # lacks both required fields, rule iii against a variable that forbids
    # both
    env = tmp_path / "k.env"
    env.write_text("'a :: <<l: Int, m: Bool || >>\n")
    r = CliRunner().invoke(main, ["unify", "--env", str(env), "-e", "'a = {}"])
    assert (r.exit_code, r.output) == (1, "FAIL: kind_clash: required field(s) ['l', 'm'] absent\n")
    env.write_text("'a :: <<l: Int, m: Bool || >>\n'b :: << || l: Int, m: Bool>>\n")
    r = CliRunner().invoke(main, ["unify", "--env", str(env), "-e", "'a = 'b"])
    assert (r.exit_code, r.output) == (1, "FAIL: kind_clash: forbidden field(s) ['l', 'm'] present\n")


MEET_LABELS = ("l", "m", "n", "o", "p", "q")


class _Levels:
    """Records the `lower` and `lose` hooks unification calls."""

    def __init__(self):
        self.calls = []

    def lower(self, v, *types):
        self.calls.append(("lower", v, types))

    def lose(self, v, *types):
        self.calls.append(("lose", v, types))


def _draw_field(rng, pool):
    r = rng.random()
    if r < 0.2:
        return rng.choice((INT, BOOL))
    return rng.choice(pool) if r < 0.85 else Arrow(rng.choice(pool), INT)


def _draw_kind(rng, pool):
    picked = rng.sample(MEET_LABELS, rng.randint(0, 4))
    cut = rng.randint(0, len(picked))
    return record_kind(
        [(l, _draw_field(rng, pool)) for l in picked[:cut]],
        [(l, _draw_field(rng, pool)) for l in picked[cut:]],
    )


def _draw_image(rng, rule, kb, base, pool):
    """A record for rule iv; base for rule iii; for rule vii a chain over
    base that mostly moves labels of its kind at the kind's own types."""
    if rule == "iv":
        labels = sorted(rng.sample(MEET_LABELS, rng.randint(0, 4)))
        return RecordType(tuple((l, _draw_field(rng, pool)) for l in labels))
    if rule == "iii":
        return base
    kl, kr = kb.left_map(), kb.right_map()
    stated = sorted(kl.keys() | kr.keys())
    labels = rng.sample(stated, rng.randint(1, min(2, len(stated)))) if stated else []
    if not labels or rng.random() < 0.1:
        labels.append(rng.choice([l for l in MEET_LABELS if l not in labels]))
    ops = []
    for l in sorted(labels):
        sign = EXT if l in kr else CON if l in kl else rng.choice((EXT, CON))
        f = (kr if sign == EXT else kl).get(l)
        ops.append((sign, l, f if f is not None and rng.random() < 0.8 else _draw_field(rng, pool)))
    return chain(base, ops)


def _reference_meet(kenv, v, image, base):
    """The step computed from dict copies of the two kinds, merged whole, as
    a reference for `_meet`'s fold over labels: (the failure's reason, its
    message), or (equations, substitution, base's new kind, levels calls)."""
    k = kenv[v]
    lefts, rights = k.left_map(), k.right_map()
    occurs = v in ftv(image)
    if occurs and base is not None:
        return ("occurs_check", "variable occurs in its own solution")
    eqs = []
    if base is None:
        present, absent = image.field_map(), {}
    else:
        kb = kenv[base]
        present, absent = kb.left_map(), kb.right_map()
        if image != base:  # the chain's facts: its labels taken across
            ops = chain_ops(image)[1]
            for sign, l, f in ops:
                side = absent if sign == EXT else present
                if l not in side:
                    return ("kind_clash", "chain's operations contradict its base's kind")
                if not equiv(side[l], f):
                    eqs.append((side[l], f))
            for sign, l, f in ops:
                del (absent if sign == EXT else present)[l]
                (present if sign == EXT else absent)[l] = f
    missing = [l for l in lefts if l in absent or base is None and l not in present]
    if missing:
        return ("kind_clash", f"required field(s) {missing} absent")
    clash = [l for l in rights if l in present]
    if clash:
        return ("kind_clash", f"forbidden field(s) {clash} present")
    if occurs:
        return ("occurs_check", "variable occurs in its own solution")
    eqs += [(t, present[l]) for l, t in lefts.items() if l in present]
    eqs += [(t, absent[l]) for l, t in rights.items() if l in absent]
    if base is None:
        return eqs, {v: image}, None, [("lose", v, tuple(rights.values())), ("lower", v, (image,))]
    if image != base:  # base keeps its entries
        lefts = {l: t for l, t in lefts.items() if l not in present}
        rights = {l: t for l, t in rights.items() if l not in absent}
    merged = RecordKind(
        tuple({**kb.left_map(), **lefts}.items()), tuple({**kb.right_map(), **rights}.items())
    )
    kind = apply_type({v: image}, merged)
    if base in ftv(kind):
        return ("occurs_check", "variable occurs in its own kind")
    written = (*lefts.values(), *rights.values())
    return eqs, {v: image}, kind, [("lower", v, (image,)), ("lower", base, written)]


def _met_over(kb, k, chain_labels):
    """The labels v's kind k and base's kind kb state on the same side with
    different types, leaving out those a chain moves."""
    return [
        l
        for theirs, ours in ((kb.left_map(), k.left_map()), (kb.right_map(), k.right_map()))
        for l, t in ours.items()
        if l in theirs and l not in chain_labels and theirs[l] != t
    ]


def test_the_field_step_meets_and_writes_as_the_whole_kind_merge_did():
    # `_meet` folds `meet_at` over v's kind and writes with `write_at`.
    # Against a reference that copies both kinds into dicts and merges them
    # whole: the same verdict and message, the same equations in order, the
    # same kind (sorted, disjoint, written over base's entries only in rule
    # iii), the same levels calls, and a free-variable cache that a scratch
    # walk confirms.
    rng = random.Random(26)
    ws = [TyVar(i, f"w{i}") for i in range(1, 4)]
    base, v = TyVar(40, "base"), TyVar(50, "v")
    pool = ws * 8 + [v, base]
    seen, faults = Counter(), []
    for _ in range(10000):
        rule = rng.choice(("iii", "iv", "vii"))
        kb, k = _draw_kind(rng, pool), _draw_kind(rng, pool)
        image = _draw_image(rng, rule, kb, base, pool)
        kenv = {**{w: UKind() for w in ws}, base: kb, v: k}
        at = None if rule == "iv" else base
        want = _reference_meet(kenv, v, image, at)
        levels = _Levels()
        st = unify_mod.Solver(dict(kenv), None)
        st.lower, st.lose = levels.lower, levels.lose
        try:
            unify_mod._meet(st, v, image, at)
        except UnificationError as e:
            got = (e.reason, e.message)
        else:
            got = (list(st.eqs), st.subst, st.kenv.get(at), levels.calls)
        assert got == want, (rule, kb, k, image)
        ok = len(got) == 4
        seen[rule, ok] += 1
        if not ok and "field(s)" in got[1]:
            seen[got[1].split()[0], "labels" if "', '" in got[1] else "label"] += 1
        if ok and at is not None:
            _cache_faults(got[2], faults, Counter())
            moved = {l for _, l, _ in chain_ops(image)[1]} if rule == "vii" else ()
            if _met_over(kb, k, moved):
                seen[rule, "same label, other type"] += 1
                if rule == "iii" and ftv(kb) - _scratch_ftv(got[2]) - {v}:
                    seen["an overwrite drops a variable"] += 1
    assert not faults, faults[:3]
    assert min(seen[rule, ok] for rule in ("iii", "iv", "vii") for ok in (True, False)) > 1000, seen
    assert seen["iii", "same label, other type"] > 250, seen
    assert seen["vii", "same label, other type"] > 100, seen
    assert seen["an overwrite drops a variable"] > 80, seen
    for what in ("required", "forbidden"):
        assert seen[what, "labels"] > 200 and seen[what, "label"] > 500, seen


DISPATCH_KINDS = """\
'u :: U
'v :: U
'p :: <<l: Int || >>
'q :: <<m: Bool || >>
's :: << || l: Int, m: Bool>>
"""
# a universally kinded variable, older and newer; a record-kinded one, older
# and newer; a record; a normal chain and a reducible one over a
# record-kinded variable; an arrow; a base type
DISPATCH_SIDES = (
    "'u", "'v", "'p", "'q", "{l: Int, m: Bool}", "'s + {l: Int}",
    "'s + {m: Bool} - {m: Bool}", "'u -> Int", "Int",
)


def _dispatch_row(lhs, rhs):
    """`lhs = rhs`, the first rule traced (or `-`), and the outcome: the
    failure, or the kinds that changed and the substitution."""
    kenv, _, env = parse_env_file(DISPATCH_KINDS)
    eq = (parse_mono(lhs, env), parse_mono(rhs, env))
    trace = []
    try:
        resid, s = unify(kenv, [eq], trace=trace)
    except UnificationError as e:
        outcome = f"FAIL {e}"
    else:
        assert resid.keys() == kenv.keys() - s.keys()
        namer = Namer()
        for v in kenv:
            namer.name(v)
        changed = {v: k for v, k in resid.items() if k != kenv[v]}
        outcome = "; ".join(
            text for text in (pretty_kind_assignment(changed, namer), pretty_subst(s, namer)) if text
        ).replace("\n", "; ")
    return f"{lhs} = {rhs} | {trace[0] if trace else '-'} | {outcome or '-'}"


DISPATCH_TABLE = """\
'u = 'u | i | -
'u = 'v | ii | 'v := 'u
'u = 'p | ii | 'u := 'p
'u = 'q | ii | 'u := 'q
'u = {l: Int, m: Bool} | ii | 'u := {l: Int, m: Bool}
'u = 's + {l: Int} | ii | 'u := 's + {l: Int}
'u = 's + {m: Bool} - {m: Bool} | ii | 'u := 's + {m: Bool} - {m: Bool}
'u = 'u -> Int | ii | FAIL occurs_check: variable occurs in its own solution
'u = Int | ii | 'u := Int
'v = 'u | ii | 'v := 'u
'v = 'v | i | -
'v = 'p | ii | 'v := 'p
'v = 'q | ii | 'v := 'q
'v = {l: Int, m: Bool} | ii | 'v := {l: Int, m: Bool}
'v = 's + {l: Int} | ii | 'v := 's + {l: Int}
'v = 's + {m: Bool} - {m: Bool} | ii | 'v := 's + {m: Bool} - {m: Bool}
'v = 'u -> Int | ii | 'v := 'u -> Int
'v = Int | ii | 'v := Int
'p = 'u | ii | 'u := 'p
'p = 'v | ii | 'v := 'p
'p = 'p | i | -
'p = 'q | iii | 'p :: <<l: Int, m: Bool || >>; 'q := 'p
'p = {l: Int, m: Bool} | iv | 'p := {l: Int, m: Bool}
'p = 's + {l: Int} | vii | 'p := 's + {l: Int}
'p = 's + {m: Bool} - {m: Bool} | iii | FAIL kind_clash: forbidden field(s) ['l'] present
'p = 'u -> Int | - | FAIL constructor_clash: incompatible type constructors
'p = Int | - | FAIL constructor_clash: incompatible type constructors
'q = 'u | ii | 'u := 'q
'q = 'v | ii | 'v := 'q
'q = 'p | iii | 'p :: <<l: Int, m: Bool || >>; 'q := 'p
'q = 'q | i | -
'q = {l: Int, m: Bool} | iv | 'q := {l: Int, m: Bool}
'q = 's + {l: Int} | vii | FAIL kind_clash: required field(s) ['m'] absent
'q = 's + {m: Bool} - {m: Bool} | iii | FAIL kind_clash: forbidden field(s) ['m'] present
'q = 'u -> Int | - | FAIL constructor_clash: incompatible type constructors
'q = Int | - | FAIL constructor_clash: incompatible type constructors
{l: Int, m: Bool} = 'u | ii | 'u := {l: Int, m: Bool}
{l: Int, m: Bool} = 'v | ii | 'v := {l: Int, m: Bool}
{l: Int, m: Bool} = 'p | iv | 'p := {l: Int, m: Bool}
{l: Int, m: Bool} = 'q | iv | 'q := {l: Int, m: Bool}
{l: Int, m: Bool} = {l: Int, m: Bool} | i | -
{l: Int, m: Bool} = 's + {l: Int} | x | FAIL kind_clash: forbidden field(s) ['m'] present
{l: Int, m: Bool} = 's + {m: Bool} - {m: Bool} | iv | FAIL kind_clash: forbidden field(s) ['l', 'm'] present
{l: Int, m: Bool} = 'u -> Int | - | FAIL constructor_clash: incompatible type constructors
{l: Int, m: Bool} = Int | - | FAIL constructor_clash: incompatible type constructors
's + {l: Int} = 'u | ii | 'u := 's + {l: Int}
's + {l: Int} = 'v | ii | 'v := 's + {l: Int}
's + {l: Int} = 'p | vii | 'p := 's + {l: Int}
's + {l: Int} = 'q | vii | FAIL kind_clash: required field(s) ['m'] absent
's + {l: Int} = {l: Int, m: Bool} | x | FAIL kind_clash: forbidden field(s) ['m'] present
's + {l: Int} = 's + {l: Int} | i | -
's + {l: Int} = 's + {m: Bool} - {m: Bool} | vii | FAIL occurs_check: variable occurs in its own solution
's + {l: Int} = 'u -> Int | - | FAIL constructor_clash: incompatible type constructors
's + {l: Int} = Int | - | FAIL constructor_clash: incompatible type constructors
's + {m: Bool} - {m: Bool} = 'u | ii | 'u := 's + {m: Bool} - {m: Bool}
's + {m: Bool} - {m: Bool} = 'v | ii | 'v := 's + {m: Bool} - {m: Bool}
's + {m: Bool} - {m: Bool} = 'p | iii | FAIL kind_clash: forbidden field(s) ['l'] present
's + {m: Bool} - {m: Bool} = 'q | iii | FAIL kind_clash: forbidden field(s) ['m'] present
's + {m: Bool} - {m: Bool} = {l: Int, m: Bool} | iv | FAIL kind_clash: forbidden field(s) ['l', 'm'] present
's + {m: Bool} - {m: Bool} = 's + {l: Int} | vii | FAIL occurs_check: variable occurs in its own solution
's + {m: Bool} - {m: Bool} = 's + {m: Bool} - {m: Bool} | i | -
's + {m: Bool} - {m: Bool} = 'u -> Int | - | FAIL constructor_clash: incompatible type constructors
's + {m: Bool} - {m: Bool} = Int | - | FAIL constructor_clash: incompatible type constructors
'u -> Int = 'u | ii | FAIL occurs_check: variable occurs in its own solution
'u -> Int = 'v | ii | 'v := 'u -> Int
'u -> Int = 'p | - | FAIL constructor_clash: incompatible type constructors
'u -> Int = 'q | - | FAIL constructor_clash: incompatible type constructors
'u -> Int = {l: Int, m: Bool} | - | FAIL constructor_clash: incompatible type constructors
'u -> Int = 's + {l: Int} | - | FAIL constructor_clash: incompatible type constructors
'u -> Int = 's + {m: Bool} - {m: Bool} | - | FAIL constructor_clash: incompatible type constructors
'u -> Int = 'u -> Int | i | -
'u -> Int = Int | - | FAIL constructor_clash: incompatible type constructors
Int = 'u | ii | 'u := Int
Int = 'v | ii | 'v := Int
Int = 'p | - | FAIL constructor_clash: incompatible type constructors
Int = 'q | - | FAIL constructor_clash: incompatible type constructors
Int = {l: Int, m: Bool} | - | FAIL constructor_clash: incompatible type constructors
Int = 's + {l: Int} | - | FAIL constructor_clash: incompatible type constructors
Int = 's + {m: Bool} - {m: Bool} | - | FAIL constructor_clash: incompatible type constructors
Int = 'u -> Int | - | FAIL constructor_clash: incompatible type constructors
Int = Int | i | -
"""


def test_each_pair_of_sides_picks_its_rule():
    # The kinds of the two sides pick one of rules ii-vii (or none), for
    # every ordered pair of sides: ii eliminates a universally kinded
    # variable, the newer of two; iii the newer of two record-kinded ones;
    # iv and vii meet a record-kinded variable with a record or a normal
    # chain; a reducible chain is normalized first.
    rows = [_dispatch_row(lhs, rhs) for lhs in DISPATCH_SIDES for rhs in DISPATCH_SIDES]
    assert rows == DISPATCH_TABLE.splitlines()


def test_the_solver_never_asks_the_reference_reducer(monkeypatch):
    # Rule vii fires only on a chain that is its own canonical form, which
    # `normalize` answers from a cache; any other chain goes to the
    # normalization retry.  The one-step reducer stays a reference: no
    # solve set of the benchmark, no generated set and no inference of the
    # benchmark's corpus asks it.
    def refuse(t):
        raise AssertionError("the solver asked the reference reducer")

    monkeypatch.setattr(normalize_mod, "reduce_once", refuse)
    bench = bench_inputs()
    rng = random.Random(20240)
    rules = Counter()
    for n in bench.UNIFY_SIZES:
        for _ in range(bench.UNIFY_SETS):
            es = bench.equation_set(rng, n)
            kenv, _, venv = parse_env_file(es.env)
            eqs, venv = parse_equations(es.equations, venv)
            trace = []
            try:
                unify(kenv, eqs, fresh=FreshSupply(venv.next_uid).fresh, trace=trace)
            except UnificationError:
                pass
            rules.update(trace)
    rng = random.Random(7)
    for _ in range(1000):
        kenv, eqs = gen_kinded_equations(rng)
        trace = []
        try:
            unify(kenv, eqs, trace=trace)
        except UnificationError:
            pass
        rules.update(trace)
    assert rules["vii"] > 50
    kenv42, tenv42, venv42 = parse_env_file(bench.ENV_42)
    accepted = 0
    for prog in bench.corpus_programs(20240):
        if prog.with_env:
            res = infer(kenv42, tenv42, parse_term(prog.text), FreshSupply(venv42.next_uid))
        else:
            res = infer({}, {}, parse_term(prog.text), FreshSupply(1))
        accepted += isinstance(res, InferResult)
    assert accepted > 300


def test_a_chain_out_of_label_order_is_bound_in_label_order():
    # 2000 extensions in descending label order: rule vii meets the chain's
    # canonical form, reached by the normalization retry
    labels = [f"l{i:05}" for i in range(2000)]
    s, v = TyVar(1, "s"), TyVar(2, "a")
    kenv = {s: RecordKind((), tuple((l, INT) for l in labels)), v: RecordKind((), ())}
    trace = []
    _, subst = unify(kenv, [(v, chain(s, [(EXT, l, INT) for l in reversed(labels)]))], trace=trace)
    assert trace == ["vii"]
    assert subst[v] == chain(s, [(EXT, l, INT) for l in labels])
