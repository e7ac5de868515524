import random

from extrec.checker import check, validate
from extrec.derivation import RULES, Derivation, Judgment, KindingClaim, subst_derivation
from extrec.infer import FreshSupply, infer
from extrec.normalize import equiv
from extrec.parser import parse_env_file, parse_term, parse_type
from extrec.subst import apply_type, generic_instance
from extrec.syntax import (
    Abs,
    App,
    Arrow,
    BOOL,
    Const,
    Contr,
    Ext,
    Extend,
    INT,
    Let,
    Modify,
    PolyType,
    RecordKind,
    RecordLit,
    RecordType,
    Remove,
    STRING,
    Select,
    TyVar,
    UKind,
    Var,
    freshen,
    poly,
    record_kind,
)
from gen import gen_arb_kind, gen_closed_term, gen_respecting_subst, rebuilt

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


def test_leaves_require_a_well_formed_kind_assignment():
    # 'c is outside the assignment's domain
    c = TyVar(3, "c")
    kenv = {a1: record_kind([("l", c)])}
    const = Derivation("Const", Judgment(kenv, {}, Const(1, "Int"), poly(INT)))
    var = Derivation("Var", Judgment(kenv, {"x": poly(a1)}, Var("x"), poly(a1)))
    for leaf in (const, var):
        issue = validate(leaf)
        assert issue is not None and issue.path == (), leaf.rule


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


TERM_CLASS = {"Var": Var, "Const": Const, "Abs": Abs, "App": App, "Let": Let, "Rec": RecordLit,
              "Sel": Select, "Modif": Modify, "Contr": Remove, "Ext": Extend}


def _nodes(d, path=()):
    yield path, d
    for i, child in enumerate(d.children):
        yield from _nodes(child, path + (i,))


def _replace_at(d, path, node):
    if not path:
        return node
    children = list(d.children)
    children[path[0]] = _replace_at(children[path[0]], path[1:], node)
    return Derivation(d.rule, d.judgment, tuple(children), d.claim)


def _structural_mutants(d):
    """Mutations of node d that no valid tree can contain."""
    j = d.judgment

    def node(rule=d.rule, judgment=j, children=d.children, claim=d.claim):
        return Derivation(rule, judgment, tuple(children), claim)

    def with_premise(i, **changes):
        c = d.children[i]
        judgment = rebuilt(c.judgment, **changes)
        changed = Derivation(c.rule, judgment, c.children, c.claim)
        return node(children=d.children[:i] + (changed,) + d.children[i + 1:])

    for i, c in enumerate(d.children):
        yield "premise term", with_premise(i, term=Var("zz"))
        yield "premise dropped", node(children=d.children[:i] + d.children[i + 1:])
        yield "premise duplicated", node(children=d.children[:i + 1] + d.children[i:])
        yield "premise context", with_premise(i, tenv={**c.judgment.tenv, "zz": poly(INT)})
    for rule, cls in TERM_CLASS.items():
        if not isinstance(j.term, cls):
            yield f"renamed to {rule}", node(rule=rule)
    wrong = BOOL if equiv(j.sigma, poly(INT)) else INT
    yield "conclusion", node(judgment=rebuilt(j, sigma=poly(wrong)))
    if d.claim is not None:
        k = d.claim.kind
        swapped = KindingClaim(d.claim.subject, RecordKind(k.rights, k.lefts))
        yield "claim sides swapped", node(claim=swapped)


def test_validator_rejects_structural_mutations():
    rng = random.Random(131)
    trees, seen = [], set()
    for _ in range(100):
        term = gen_closed_term(rng, rng.randint(2, 4))
        res = infer({}, {}, term, FreshSupply(1), want_trace=True)
        if not hasattr(res, "reason"):
            trees.append(res.trace)
            seen |= {n.rule for _, n in _nodes(res.trace)}
    assert seen == set(RULES)
    mutants = 0
    for tree in trees:
        assert validate(tree) is None
        for path, n in _nodes(tree):
            for what, bad in _structural_mutants(n):
                assert validate(_replace_at(tree, path, bad)) is not None, (what, n.rule, path)
                mutants += 1
    assert mutants > 1000


def _node(rule, kenv, tenv, term, sigma, children=(), claim=None):
    sigma = sigma if isinstance(sigma, PolyType) else poly(sigma)
    return Derivation(rule, Judgment(kenv, tenv, term, sigma), tuple(children), claim)


def _single_condition_failures():
    """Trees whose children are valid and whose root breaks one condition
    of its rule, each named by the condition."""
    b, r = TyVar(500, "b"), TyVar(501, "r")
    ident, one, f_one = Abs("x", Var("x")), Const(1, "Int"), App(Var("f"), Const(1, "Int"))
    id_poly = PolyType(((b, UKind()),), Arrow(b, b))
    lm = RecordType((("l", INT), ("m", BOOL)))
    fg = {"f": poly(Arrow(INT, INT)), "g": poly(Arrow(INT, INT))}
    yield "premise term", _node("App", {}, fg, f_one, INT, (
        _node("Var", {}, fg, Var("g"), Arrow(INT, INT)), _node("Const", {}, fg, one, INT)))
    yield "premise kind assignment", _node("App", {}, fg, f_one, INT, (
        _node("Var", {}, fg, Var("f"), Arrow(INT, INT)),
        _node("Const", {b: UKind()}, fg, one, INT)))
    yield "binder present", _node("Abs", {}, {}, Abs("x", one), Arrow(INT, INT), (
        _node("Const", {}, {}, one, INT),))
    yield "monotype conclusion", _node("Var", {b: UKind()}, {"i": id_poly}, Var("i"), id_poly)
    abs_b = _node("Abs", {b: UKind()}, {}, ident, Arrow(b, b), (
        _node("Var", {b: UKind()}, {"x": poly(b)}, Var("x"), b),))
    yield "monotype premise", _node("Rec", {}, {}, RecordLit((("l", ident),)),
                                    RecordType((("l", Arrow(b, b)),)),
                                    (_node("Gen", {}, {}, ident, id_poly, (abs_b,)),))
    x_poly = _node("Var", {}, {"x": PolyType(((b, UKind()),), b)}, Var("x"), INT)
    yield "monotype binder", _node("Abs", {}, {}, ident, Arrow(b, INT), (x_poly,))
    yield "record labels", _node("Rec", {}, {}, RecordLit((("l", one),)), lm, (
        _node("Const", {}, {}, one, INT),))
    rv = {"r": poly(lm), "v": poly(STRING)}
    r_lm = _node("Var", {}, rv, Var("r"), lm)
    yield "side condition shape", _node("Sel", {}, rv, Select(Var("r"), "l"), INT, (r_lm,),
                                        KindingClaim(lm, record_kind([("l", INT)], [("n", BOOL)])))
    yield "side condition subject", _node("Sel", {}, rv, Select(Var("r"), "l"), INT, (r_lm,),
                                          KindingClaim(RecordType((("l", INT),)),
                                                       record_kind([("l", INT)])))
    yield "side condition holds", _node("Sel", {}, rv, Select(Var("r"), "l"), BOOL, (r_lm,),
                                        KindingClaim(lm, record_kind([("l", BOOL)])))
    yield "value type", _node("Modif", {}, rv, Modify(Var("r"), "l", Var("v")), lm,
                              (r_lm, _node("Var", {}, rv, Var("v"), STRING)),
                              KindingClaim(lm, record_kind([("l", INT)])))
    kr, tr = {r: record_kind([], [("l", r)])}, {"r": poly(r)}
    r_r = _node("Var", kr, tr, Var("r"), r)
    yield "base not in value", _node("Ext", kr, tr, Extend(Var("r"), "l", Var("r")), Ext(r, "l", r),
                                     (r_r, r_r), KindingClaim(r, record_kind([], [("l", r)])))


def test_validator_checks_each_condition_on_its_own():
    # each condition must be checked for itself: no other check of the
    # tree rejects these
    for what, tree in _single_condition_failures():
        issue = validate(tree)
        assert issue is not None and issue.path == (), what


def _first(d, rule):
    return next((path, n) for path, n in _nodes(d) if n.rule == rule)


def _judged(d, **changes):
    return Derivation(d.rule, rebuilt(d.judgment, **changes), d.children, d.claim)


def _with_child(d, i, child):
    return Derivation(d.rule, d.judgment, d.children[:i] + (child,) + d.children[i + 1:], d.claim)


_C = TyVar(900, "c")

# (program, rule of the first node of that rule, mutation of that node, the
# issue `validate` then prints)
_REWIRED_REASONS = [
    ("let f = \\x. x in 1", "Let",
     lambda n: _with_child(n, 1, _judged(n.children[1], tenv={"f": poly(INT)})),
     "at root: let binder is not typed at the bound term's type"),
    ("let f = \\x. x in f", "Gen",
     lambda n: _judged(n, kenv={**n.judgment.kenv, _C: UKind()}),
     "at 0: conclusion kind assignment is not the closure residue"),
    ("let f = \\x. x in f", "Gen",
     lambda n: Derivation("Gen", n.judgment, (n,)),
     "at 0: generalization premise must be a monotype"),
    # the premise's type is a record only after reduction, and mentions a
    # variable its kind assignment lacks
    ("let y = {l = 1} in y", "Gen",
     lambda n: _with_child(n, 0, _judged(n.children[0], sigma=poly(
         Contr(Ext(RecordType((("l", INT),)), "m", _C), "m", _C)))),
     "at 0: closure undefined: eftv: not well formed, unbound [900]"),
    ("let y = {l = 1, m = true} in y", "Rec",
     lambda n: _judged(n, sigma=poly(RecordType((("l", INT), ("m", INT))))),
     "at 0/0: field m typed inconsistently"),
    ("(\\r. r) {l = 1}.l", "Sel", lambda n: rebuilt(n, claim=None),
     "at 1: Sel requires a record kind side condition"),
    ("modify({l = 1}, l, 2)", "Modif", lambda n: rebuilt(n, claim=None),
     "at root: Modif requires a record kind side condition"),
    ("remove({l = 1}, l)", "Contr", lambda n: rebuilt(n, claim=None),
     "at root: Contr requires a record kind side condition"),
    ("extend({}, l, 1)", "Ext", lambda n: rebuilt(n, claim=None),
     "at root: Ext requires a record kind side condition"),
]


def test_validator_names_each_mutated_condition():
    # one node of an inferred derivation is broken; validate names the
    # condition and the node's path
    for src, rule, mutate, want in _REWIRED_REASONS:
        res = infer({}, {}, parse_term(src), FreshSupply(1), want_trace=True)
        assert validate(res.trace) is None, src
        path, n = _first(res.trace, rule)
        issue = validate(_replace_at(res.trace, path, mutate(n)))
        assert issue is not None and issue.path == path, (src, issue)
        assert str(issue) == want, src


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


def test_check_accepts_the_principal_type_under_a_renamed_environment():
    # `freshen` renames get's binders, and then the claim's, to the newest
    # variables yet; check's own must be newer still, and apart from those
    # that renaming inside the instance test draws
    kenv, tenv, venv = parse_env_file("get : forall 'c :: U. forall 'r :: <<l: 'c || >>. 'r -> 'c\n")
    term = parse_term("\\z. {l = z, m = true, n = get}.m")
    claim = parse_type("forall 'a :: U. 'a -> Bool", venv)
    assert check(kenv, tenv, term, claim) == (True, None)
    renamed = {"get": freshen(tenv["get"])}
    assert check(kenv, renamed, term, claim) == (True, None)
    assert check(kenv, renamed, term, freshen(claim)) == (True, None)


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
        assert equiv(k1, k2) == expected, (k1, k2)
        assert equiv(k2, k1) == expected, (k1, k2)
        agree += expected
        differ += not expected
    assert agree > 300 and differ > 300
