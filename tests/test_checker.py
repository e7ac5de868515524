import random

from extrec.checker import check, validate
from extrec.derivation import Derivation, Judgment, KindingClaim, subst_derivation
from extrec.infer import FreshSupply, infer
from extrec.normalize import equiv, kind_equiv
from extrec.parser import parse_env_file, parse_term, parse_type
from extrec.subst import apply_poly, generic_instance
from extrec.syntax import (
    Arrow,
    BOOL,
    Const,
    Contr,
    Ext,
    Extend,
    INT,
    PolyType,
    RecordKind,
    RecordType,
    Select,
    TyVar,
    UKind,
    Var,
    poly,
    record_kind,
)
from gen import gen_arb_kind, gen_closed_term, gen_respecting_subst

a1, a2 = TyVar(1, "a1"), TyVar(2, "a2")
KENV = {a1: record_kind([], [("l", a2)]), a2: UKind()}
TENV = {"x": poly(a1), "y": poly(a2)}


def worked_derivation():
    """The printed derivation for extend(x, l, y).l."""
    ext_term = Extend(Var("x"), "l", Var("y"))
    d_x = Derivation("Var", Judgment(KENV, TENV, Var("x"), poly(a1)))
    d_y = Derivation("Var", Judgment(KENV, TENV, Var("y"), poly(a2)))
    d_ext = Derivation(
        "Ext",
        Judgment(KENV, TENV, ext_term, poly(Ext(a1, "l", a2))),
        (d_x, d_y),
        KindingClaim(a1, record_kind([], [("l", a2)])),
    )
    return Derivation(
        "Sel",
        Judgment(KENV, TENV, Select(ext_term, "l"), poly(a2)),
        (d_ext,),
        KindingClaim(Ext(a1, "l", a2), record_kind([("l", a2)])),
    )


def test_worked_derivation_validates():
    assert validate(worked_derivation()) is None


def test_const_leaf():
    d = Derivation("Const", Judgment({}, {}, Const(1, "Int"), poly(INT)))
    assert validate(d) is None


def test_mutated_rule_name_rejected():
    d = worked_derivation()
    ext = d.children[0]
    bad = Derivation("Modif", ext.judgment, ext.children, ext.claim)
    mutated = Derivation(d.rule, d.judgment, (bad,), d.claim)
    issue = validate(mutated)
    assert issue is not None and issue.path == (0,)


def test_mutated_conclusion_rejected():
    d = worked_derivation()
    ext = d.children[0]
    bad = Derivation(
        ext.rule,
        Judgment(KENV, TENV, ext.judgment.term, poly(Contr(a1, "l", a2))),
        ext.children,
        ext.claim,
    )
    mutated = Derivation(d.rule, d.judgment, (bad,), d.claim)
    issue = validate(mutated)
    assert issue is not None


def test_mutated_side_condition_rejected():
    d = worked_derivation()
    # claim the selection looks up a different label
    bad_claim = KindingClaim(Ext(a1, "l", a2), record_kind([("m", a2)]))
    mutated = Derivation(d.rule, d.judgment, d.children, bad_claim)
    assert validate(mutated) is not None
    # claim a kind that does not hold of the subject
    bad_claim2 = KindingClaim(Ext(a1, "l", a2), record_kind([("l", INT)]))
    mutated2 = Derivation(d.rule, d.judgment, d.children, bad_claim2)
    assert validate(mutated2) is not None
    # flip the extension's side condition to a presence requirement
    ext = d.children[0]
    bad_ext = Derivation(ext.rule, ext.judgment, ext.children,
                         KindingClaim(a1, record_kind([("l", a2)])))
    assert validate(Derivation(d.rule, d.judgment, (bad_ext,), d.claim)) is not None


def test_var_leaf_requires_instance():
    d = Derivation("Var", Judgment(KENV, TENV, Var("x"), poly(a2)))
    assert validate(d) is not None
    d2 = Derivation("Var", Judgment(KENV, TENV, Var("ghost"), poly(a1)))
    assert validate(d2) is not None


def test_check_examples():
    claim = parse_type("forall 'b :: <<l: Int || >>. 'b -> Int")
    ok, _ = check({}, {}, parse_term("\\x. x.l"), claim)
    assert ok
    ok2, reason2 = check({}, {}, parse_term("\\x. x"), parse_type("Int -> Bool"))
    assert not ok2 and "instance" in reason2
    ok3, _ = check(
        {}, {},
        parse_term("remove({l=1, m=2}, l)"),
        parse_type("{l: Int, m: Int} - {l: Int}"),
    )
    assert ok3


def test_check_reports_inference_failure():
    ok, reason = check({}, {}, parse_term("{l=1}.m"), poly(INT))
    assert not ok and "inference failed" in reason


def test_check_refuses_claim_needing_stronger_environment_kind():
    kenv, tenv, venv = parse_env_file("'a1 :: << || l: 'a2>>\n'a2 :: U\nx : 'a1\ny : 'a2\n")
    a2 = venv.names["a2"]
    # selecting m from x adds m to 'a1's kind without substituting 'a1
    ok, reason = check(kenv, tenv, parse_term("let z = x.m in y"), poly(a2))
    assert not ok and "stronger kind" in reason
    ok2, _ = check(kenv, tenv, parse_term("let z = extend(x, l, y) in y"), poly(a2))
    assert ok2


def test_oracle_agreement_sample():
    rng = random.Random(107)
    seen = 0
    for _ in range(150):
        term = gen_closed_term(rng, rng.randint(1, 5))
        res = infer({}, {}, term, FreshSupply(1), want_trace=True)
        if hasattr(res, "reason"):
            continue
        assert validate(res.trace) is None, term
        seen += 1
    assert seen > 30


def test_substitution_stability_of_derivations():
    rng = random.Random(109)
    transformed = 0
    for _ in range(200):
        # open terms over the ambient environment keep variables around
        term = gen_closed_term(rng, rng.randint(1, 4), scope=("x", "y"))
        res = infer(KENV, TENV, term, FreshSupply(100), want_trace=True)
        if hasattr(res, "reason") or not res.kenv:
            continue
        kenv1, s = gen_respecting_subst(rng, res.kenv)
        if not s:
            continue
        mapped = subst_derivation(res.trace, s, kenv1)
        assert validate(mapped) is None, (term, s)
        transformed += 1
    assert transformed > 40


def test_strengthening_var_assumption():
    # replacing an assumption with a more general one preserves validity
    sigma1 = poly(RecordType((("l", INT), ("m", BOOL))))
    b = TyVar(50, "b")
    sigma2 = PolyType(((b, UKind()),), RecordType((("l", INT), ("m", b))))
    assert generic_instance({}, sigma2, sigma1)

    tenv = {"x": sigma1}
    res = infer({}, tenv, parse_term("x.l"), FreshSupply(100), want_trace=True)
    assert validate(res.trace) is None

    def swap(d):
        j = d.judgment
        tenv2 = dict(j.tenv)
        if "x" in tenv2 and tenv2["x"] == sigma1:
            tenv2["x"] = sigma2
        return Derivation(d.rule, Judgment(j.kenv, tenv2, j.term, j.sigma),
                          tuple(swap(c) for c in d.children), d.claim)

    assert validate(swap(res.trace)) is None


def test_gen_with_independent_quantifiers_validates():
    # closure orders independent quantifiers by their position in the kind
    # assignment, and the Gen premise keeps inference's order, so the
    # conclusion is the premise's closure as it stands, with no reordering
    for src in ("let f = \\x. \\y. {a = x, b = y} in f", "let g = \\r. \\s. {p = s.m, q = r.l} in g"):
        res = infer({}, {}, parse_term(src), FreshSupply(1), want_trace=True)
        gen = res.trace.children[0]
        assert gen.rule == "Gen" and len(gen.judgment.sigma.quants) >= 2, src
        assert validate(res.trace) is None, src


def _ref_kind_equiv(k1, k2):
    """Label by label: the same labels on each side, field types equivalent."""
    if isinstance(k1, UKind) or isinstance(k2, UKind):
        return isinstance(k1, UKind) and isinstance(k2, UKind)
    return all(
        [l for l, _ in f1] == [l for l, _ in f2]
        and all(equiv(t1, t2) for (_, t1), (_, t2) in zip(f1, f2))
        for f1, f2 in ((k1.lefts, k2.lefts), (k1.rights, k2.rights))
    )


def _disguise(rng, t):
    """t, or a type equivalent to it that is not in normal form (the
    generated records never carry z)."""
    if rng.random() < 0.5 and isinstance(t, (TyVar, RecordType)):
        return Contr(Ext(t, "z", INT), "z", INT)
    return t


def test_kind_equiv_agrees_with_labelwise_reference():
    rng = random.Random(113)
    pool = tuple(TyVar(100 + i) for i in range(3))
    agree = differ = 0
    for _ in range(1000):
        k1 = gen_arb_kind(rng, pool)
        if rng.random() < 0.5 and isinstance(k1, RecordKind):
            k2 = RecordKind(
                tuple((l, _disguise(rng, t)) for l, t in k1.lefts),
                tuple((l, _disguise(rng, t)) for l, t in k1.rights),
            )
        else:
            k2 = gen_arb_kind(rng, pool)
        expected = _ref_kind_equiv(k1, k2)
        assert kind_equiv(k1, k2) == expected, (k1, k2)
        assert kind_equiv(k2, k1) == expected, (k1, k2)
        agree += expected
        differ += not expected
    assert agree > 300 and differ > 300
