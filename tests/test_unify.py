import importlib
import random
import sys

import pytest

from extrec.kinding import has_kind
from extrec.normalize import equiv, normalize, subst_equal
from extrec.subst import KindedSubstitution, apply_kind, apply_type, resolve, respects
from extrec.syntax import (
    Arrow,
    BOOL,
    Contr,
    Ext,
    INT,
    RecordType,
    TyVar,
    UKind,
    ftv,
    record_kind,
)
from extrec.unify import UnificationError, cfields, efields, fmap_minus, fmap_plus, unify
from gen import gen_kinded_equations

unify_mod = importlib.import_module("extrec.unify")  # the package binds the name to the function

a, b, g = TyVar(1, "a"), TyVar(2, "b"), TyVar(3, "g")


def test_field_maps():
    chain = Ext(Contr(Ext(a, "l1", INT), "l2", BOOL), "l3", INT)
    assert efields(chain) == {"l1": INT, "l3": INT}
    assert cfields(chain) == {"l2": BOOL}
    assert efields(a) == {}
    with pytest.raises(ValueError):
        efields(Arrow(INT, INT))


def test_fmap_plus_minus():
    assert fmap_plus({"l": INT}, {"l": BOOL, "m": INT}) == {"l": INT, "m": INT}
    assert fmap_minus({"l": INT, "m": INT}, {"m": BOOL}) == {"l": INT}
    assert fmap_plus({}, {}) == {}


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
