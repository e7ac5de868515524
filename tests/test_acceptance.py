"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with `pytest -s tests/test_acceptance.py` to see every
line).  Expected values for the worked examples are frozen here; property
criteria run on seeded generators at the stated scale."""

import random
import time

from extrec.checker import validate
from extrec.derivation import Derivation, Judgment, KindingClaim
from extrec.infer import FreshSupply, InferFailure, infer
from extrec.interp import eval_term
from extrec.kinding import field_info, has_kind
from extrec.normalize import equiv, normalize, one_step_reducts, reduce_once
from extrec.parser import (
    parse_env_file,
    parse_kind,
    parse_mono,
    parse_term,
    parse_type,
    pretty_kind,
    pretty_poly,
    pretty_term,
    pretty_type,
)
from extrec.subst import KindedSubstitution, apply_type, respects
from extrec.syntax import (
    BOOL,
    Contr,
    Ext,
    Extend,
    INT,
    RecordKind,
    RecordType,
    Select,
    TyVar,
    UKind,
    Var,
    poly,
    record_kind,
)
from extrec.unify import UnificationError, unify
from gen import (
    canon,
    enumerate_ground_unifiers,
    factors_through,
    gen_arb_kind,
    gen_arb_mono,
    gen_arb_poly,
    gen_arb_term,
    gen_closed_term,
    gen_kind_assignment,
    gen_kindable_chain,
    gen_kinded_equations,
    gen_respecting_subst,
    mgu_universe,
    shape_matches,
    subst_equal,
)


def _report(num, desc, limit, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {num:2d} FAIL: {desc}")
        raise
    dt = time.perf_counter() - t0
    line = f"criterion {num:2d} {{}} ({dt:.2f}s, limit {limit}s): {desc}"
    if dt >= limit:
        print(line.format("FAIL"))
        raise AssertionError(f"criterion {num} exceeded its time limit")
    print(line.format("PASS"))


ENV_42 = "'a1 :: << || l: 'a2>>\n'a2 :: U\nx : 'a1\ny : 'a2\n"


def test_criterion_1_worked_inference():
    def body():
        kenv, tenv, venv = parse_env_file(ENV_42)
        a1, a2 = venv.names["a1"], venv.names["a2"]
        v3, v4, v5, v6 = (TyVar(u) for u in range(3, 7))
        fresh = lambda: FreshSupply(venv.next_uid)

        res = infer(kenv, tenv, parse_term("extend(x, l, y).l"), fresh())
        assert res.type == a2
        assert res.kenv == kenv
        assert subst_equal(res.subst, {v3: a2, v4: a1, v5: a2, v6: Ext(a1, "l", a2)})

        r_ext = infer(kenv, tenv, parse_term("extend(x, l, y)"), fresh())
        assert r_ext.type == Ext(a1, "l", a2)
        assert r_ext.kenv == kenv
        assert subst_equal(r_ext.subst, {v3: a2, v4: a1})

        r_x = infer(kenv, tenv, parse_term("x"), fresh())
        assert (r_x.kenv, r_x.subst, r_x.type) == (kenv, {}, a1)
        r_y = infer(kenv, tenv, parse_term("y"), fresh())
        assert (r_y.kenv, r_y.subst, r_y.type) == (kenv, {}, a2)

    _report(1, "worked inference example, all four printed results", 1.0, body)


def test_criterion_2_worked_unification():
    def body():
        a, b, g = TyVar(1, "a"), TyVar(2, "b"), TyVar(3, "g")
        kenv = {a: record_kind([], [("l", g)]), b: record_kind([("l", g)]), g: UKind()}
        lhs = Contr(Ext(a, "l", g), "l", g)
        rhs = Contr(b, "l", g)
        trace = []
        resid, s = unify(kenv, [(lhs, rhs)], trace=trace)
        assert trace[0] == "viii", trace
        assert "ix" not in trace
        assert resid == {a: record_kind([], [("l", g)]), g: UKind()}
        assert set(s) == {b}
        assert subst_equal(s, {b: Ext(a, "l", g)})

    _report(2, "worked unification example: rule viii first, printed final state", 1.0, body)


def test_criterion_3_type_equalities():
    def body():
        a, a1, a2 = TyVar(1), TyVar(2), TyVar(3)
        t1, t2 = INT, BOOL
        assert equiv(Contr(Ext(a, "l1", t1), "l2", t2), Ext(Contr(a, "l2", t2), "l1", t1))
        assert equiv(
            Contr(Contr(Ext(a, "l1", t1), "l2", t2), "l1", t1),
            Contr(Contr(Ext(a, "l1", t1), "l1", t1), "l2", t2),
        )
        assert not equiv(
            Contr(Ext(a1, "l1", t1), "l2", t2), Ext(Contr(a2, "l1", t1), "l2", t2)
        )
        assert not equiv(
            Ext(Ext(Contr(a1, "l1", t1), "l2", t2), "l1", t1),
            Ext(Contr(Ext(a2, "l1", t1), "l1", t1), "l2", t2),
        )

    _report(3, "printed identities (1)(2) hold, non-identities (3)(4) fail", 1.0, body)


def test_criterion_4_kinding_judgments():
    def body():
        t1, t2, t3 = INT, BOOL, INT
        r = RecordType((("l1", t1),))
        ext = Ext(r, "l2", t2)
        tau = Contr(ext, "l1", t1)
        assert has_kind({}, r, record_kind())
        assert has_kind({}, r, record_kind([("l1", t1)]))
        assert has_kind({}, ext, record_kind([("l2", t2)]))
        assert has_kind({}, ext, record_kind([], [("l3", t3)]))
        assert has_kind({}, tau, record_kind([("l2", t2)], [("l1", t1)]))
        rejected = [
            record_kind([("l1", t1)]),
            record_kind([("l1", t1), ("l2", t2)]),
            record_kind([("l1", t1)], [("l3", t3)]),
            record_kind([("l1", t1), ("l2", t2)], [("l3", t3)]),
        ]
        for k in rejected:
            assert not has_kind({}, tau, k)

    _report(4, "five printed kinding judgments hold; left-side placements rejected", 1.0, body)


def _worked_tree():
    a1, a2 = TyVar(1, "a1"), TyVar(2, "a2")
    kenv = {a1: record_kind([], [("l", a2)]), a2: UKind()}
    tenv = {"x": poly(a1), "y": poly(a2)}
    ext_term = Extend(Var("x"), "l", Var("y"))
    d_x = Derivation("Var", Judgment(kenv, tenv, Var("x"), poly(a1)))
    d_y = Derivation("Var", Judgment(kenv, tenv, Var("y"), poly(a2)))
    d_ext = Derivation(
        "Ext",
        Judgment(kenv, tenv, ext_term, poly(Ext(a1, "l", a2))),
        (d_x, d_y),
        KindingClaim(a1, record_kind([], [("l", a2)])),
    )
    d_sel = Derivation(
        "Sel",
        Judgment(kenv, tenv, Select(ext_term, "l"), poly(a2)),
        (d_ext,),
        KindingClaim(Ext(a1, "l", a2), record_kind([("l", a2)])),
    )
    return d_sel


def _replace(d, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    children = tuple(
        _replace(c, rest, new) if j == i else c for j, c in enumerate(d.children)
    )
    return Derivation(d.rule, d.judgment, children, d.claim)


def _node_at(d, path):
    for i in path:
        d = d.children[i]
    return d


def test_criterion_5_derivation_oracle():
    def body():
        tree = _worked_tree()
        assert validate(tree) is None

        other_rule = {"Var": "Const", "Ext": "Modif", "Sel": "Contr"}
        mutations = 0
        for path in [(), (0,), (0, 0), (0, 1)]:
            node = _node_at(tree, path)
            # rule name
            bad = Derivation(other_rule[node.rule], node.judgment, node.children, node.claim)
            assert validate(_replace(tree, path, bad)) is not None, (path, "rule")
            mutations += 1
            # conclusion type
            j = node.judgment
            bad2 = Derivation(node.rule, Judgment(j.kenv, j.tenv, j.term, poly(BOOL)),
                              node.children, node.claim)
            assert validate(_replace(tree, path, bad2)) is not None, (path, "type")
            mutations += 1
            # side condition
            if node.claim is not None:
                kind = node.claim.kind
                relabel = RecordKind(
                    tuple(("zz", t) for _, t in kind.lefts),
                    tuple(("zz", t) for _, t in kind.rights),
                )
                bad3 = Derivation(node.rule, node.judgment, node.children,
                                  KindingClaim(node.claim.subject, relabel))
                assert validate(_replace(tree, path, bad3)) is not None, (path, "claim")
                mutations += 1
        # retyping the extension conclusion as a contraction is caught
        a1, a2 = TyVar(1, "a1"), TyVar(2, "a2")
        ext = _node_at(tree, (0,))
        j = ext.judgment
        bad = Derivation("Ext", Judgment(j.kenv, j.tenv, j.term, poly(Contr(a1, "l", a2))),
                         ext.children, ext.claim)
        assert validate(_replace(tree, (0,), bad)) is not None
        assert mutations == 10

    _report(5, "printed derivation validates; every single-node mutation rejected", 1.0, body)


def test_criterion_6_soundness_1000():
    def body():
        # half the runs use an ambient environment so the respects check on
        # the input kind assignment is not vacuous
        kenv, tenv, venv = parse_env_file(ENV_42)
        start = venv.next_uid
        rng = random.Random(20240)
        accepted = 0
        for i in range(1000):
            if i % 2 == 0:
                amb_k, amb_t, scope = {}, {}, ()
            else:
                amb_k, amb_t, scope = kenv, tenv, ("x", "y")
            term = gen_closed_term(rng, rng.randint(1, 6), scope=scope)
            res = infer(amb_k, amb_t, term, FreshSupply(start), want_trace=True)
            if isinstance(res, InferFailure):
                continue
            accepted += 1
            issue = validate(res.trace)
            assert issue is None, (pretty_term(term), str(issue))
            assert respects(KindedSubstitution(res.kenv, res.subst), amb_k)
        assert accepted >= 200, f"only {accepted} terms type-checked"

    _report(6, "1000 random terms: accepted inferences validate and respect kinds", 60.0, body)


def test_criterion_7_most_general_unifiers():
    def body():
        rng = random.Random(20241)
        failures_without_unifier = 0
        grounds_checked = 0
        for _ in range(200):
            kenv, eqs = gen_kinded_equations(rng)
            label_types = {}
            for k in kenv.values():
                if isinstance(k, RecordKind):
                    label_types.update(dict(k.lefts + k.rights))
            for l in ("l", "m"):
                label_types.setdefault(l, INT)
            universe = mgu_universe(label_types)
            try:
                resid, s = unify(dict(kenv), list(eqs), fresh=FreshSupply(900).fresh)
                outcome = (resid, s)
            except UnificationError:
                outcome = None
            grounds = enumerate_ground_unifiers(kenv, eqs, universe)
            if outcome is None:
                assert grounds == [], (kenv, eqs, grounds[:1])
                failures_without_unifier += 1
                continue
            resid, s = outcome
            for g in grounds:
                assert factors_through(g, kenv, resid, s, universe), (kenv, eqs, g)
                grounds_checked += 1
        assert grounds_checked > 200
        assert failures_without_unifier > 10

    _report(7, "200 equation sets: every ground unifier factors; failures have none", 120.0, body)


def test_criterion_8_rewrite_properties():
    def body():
        rng = random.Random(20242)
        for _ in range(1000):
            kenv = gen_kind_assignment(rng, 3)
            t = gen_kindable_chain(rng, kenv, 8)
            expected = normalize(t)

            # convergence under a randomized reduction order
            cur = t
            while True:
                outs = one_step_reducts(cur)
                if not outs:
                    break
                cur = rng.choice(outs)
            assert normalize(cur) == expected

            # every step preserves derivable kinds
            info = field_info(kenv, t)
            kinds = [UKind()]
            if info is not None:
                kinds.append(RecordKind(tuple(info.present.items()), tuple(info.absent.items())))
            cur = t
            while (nxt := reduce_once(cur)) is not None:
                for k in kinds:
                    assert has_kind(kenv, cur, k) == has_kind(kenv, nxt, k)
                cur = nxt

            # canonical chains use each label at most once
            walk = expected
            seen = []
            while isinstance(walk, (Ext, Contr)):
                seen.append(walk.label)
                walk = walk.base
            assert len(seen) == len(set(seen))

            # normalization commutes with substitution
            _, s = gen_respecting_subst(rng, kenv)
            assert normalize(apply_type(s, expected)) == normalize(apply_type(s, t))

    _report(8, "1000 random chains: convergence, kind preservation, canonicity, subst", 30.0, body)


def test_criterion_9_negative_suite():
    def body():
        cases = {
            "extend({l=1}, l, 2)": ("extend", "kind_clash"),
            "remove({}, l)": ("remove", "kind_clash"),
            "{l=1}.m": ("select", "kind_clash"),
            "\\x. x x": ("app", "occurs_check"),
        }
        for src, (rule, reason) in cases.items():
            res = infer({}, {}, parse_term(src), FreshSupply(1))
            assert isinstance(res, InferFailure), src
            assert (res.rule, res.reason) == (rule, reason), (src, res)

    _report(9, "negative suite fails with the documented reasons", 1.0, body)


def test_criterion_10_empirical_type_soundness():
    def body():
        rng = random.Random(20243)
        accepted = 0
        attempts = 0
        while accepted < 500:
            attempts += 1
            assert attempts < 20000, "generator cannot reach 500 well-typed terms"
            term = gen_closed_term(rng, rng.randint(1, 6))
            res = infer({}, {}, term, FreshSupply(1))
            if isinstance(res, InferFailure):
                continue
            accepted += 1
            value = eval_term(term)  # EvalError here would fail the criterion
            assert shape_matches(value, res.type), (pretty_term(term), res.type, value)

    _report(10, "500 well-typed closed terms evaluate safely with matching shapes", 30.0, body)


def test_criterion_11_parser_round_trip():
    def body():
        rng = random.Random(20244)
        tyvars = tuple(TyVar(100 + i, f"v{i}") for i in range(3))
        for _ in range(400):
            t = gen_arb_term(rng, rng.randint(0, 4))
            assert parse_term(pretty_term(t)) == t
        for _ in range(300):
            ty = gen_arb_mono(rng, rng.randint(0, 3), tyvars)
            assert canon(parse_mono(pretty_type(ty))) == canon(ty)
        for _ in range(150):
            k = gen_arb_kind(rng, tyvars)
            assert canon(parse_kind(pretty_kind(k))) == canon(k)
        for _ in range(150):
            p = gen_arb_poly(rng)
            assert canon(parse_type(pretty_poly(p))) == canon(p)

    _report(11, "1000 random terms/types/kinds/polytypes round-trip", 10.0, body)
