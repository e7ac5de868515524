import itertools
import random
import sys

import pytest

from extrec.checker import check, validate
from extrec.infer import FreshSupply, InferFailure, infer, instantiate
from extrec.kinding import has_kind, wf_kind_assignment
from extrec.normalize import equiv, normalize
from extrec.parser import (
    Namer,
    parse_env_file,
    parse_term,
    parse_type,
    pretty_kind_assignment,
    pretty_poly,
)
from extrec.subst import (
    KindedSubstitution,
    apply_assignment,
    closure,
    generic_instance,
    respects,
)
from extrec.syntax import (
    Abs,
    App,
    Arrow,
    BOOL,
    BaseType,
    Const,
    Contr,
    Ext,
    Extend,
    FRESH,
    INT,
    Let,
    Modify,
    PolyType,
    RecordLit,
    RecordType,
    Remove,
    Select,
    TyVar,
    UKind,
    Var,
    freshen,
    ftv,
    map_type,
    poly,
    record_kind,
)
from extrec.unify import resolve
from gen import gen_closed_term, rebuilt, reference_line_col, subst_equal

ENV_42 = """
'a1 :: << || l: 'a2>>
'a2 :: U
x : 'a1
y : 'a2
"""


def _setup_42():
    kenv, tenv, venv = parse_env_file(ENV_42)
    a1 = venv.names["a1"]
    a2 = venv.names["a2"]
    return kenv, tenv, venv, a1, a2


def test_worked_inference_example():
    kenv, tenv, venv, a1, a2 = _setup_42()
    fresh = lambda: FreshSupply(venv.next_uid)
    v3, v4, v5, v6 = (TyVar(u) for u in range(3, 7))

    res = infer(kenv, tenv, parse_term("extend(x, l, y).l"), fresh())
    assert res.type == a2
    assert subst_equal(res.subst, {v3: a2, v4: a1, v5: a2, v6: Ext(a1, "l", a2)})
    assert res.kenv == kenv

    res2 = infer(kenv, tenv, parse_term("extend(x, l, y)"), fresh())
    assert res2.type == Ext(a1, "l", a2)
    assert subst_equal(res2.subst, {v3: a2, v4: a1})

    assert infer(kenv, tenv, parse_term("x"), fresh()).type == a1
    assert infer(kenv, tenv, parse_term("x"), fresh()).subst == {}
    assert infer(kenv, tenv, parse_term("y"), fresh()).type == a2


def test_identity_function():
    res = infer({}, {}, parse_term("\\x. x"), FreshSupply(1))
    assert res.subst == {}
    a = res.type.dom
    assert res.type == Arrow(a, a)
    assert res.kenv == {a: UKind()}


def test_selector_principal_type():
    res = infer({}, {}, parse_term("\\x. x.l"), FreshSupply(1))
    _, principal = closure(res.kenv, {}, res.type)
    a, b = TyVar(-1), TyVar(-2)
    expected = PolyType(
        ((a, UKind()), (b, record_kind([("l", a)]))), Arrow(b, a)
    )
    assert principal == expected


def test_record_ops_inference():
    res = infer({}, {}, parse_term("remove({l=1, m=2}, l)"), FreshSupply(1))
    assert res.type == RecordType((("m", INT),))
    res2 = infer({}, {}, parse_term("modify({l=1}, l, 2)"), FreshSupply(1))
    assert res2.type == RecordType((("l", INT),))
    res3 = infer({}, {}, parse_term("extend({m=true}, l, 1)"), FreshSupply(1))
    assert res3.type == RecordType((("l", INT), ("m", BOOL)))
    res4 = infer({}, {}, parse_term("let f = \\r. r.l in {a = f {l=1}, b = f {l=true, m=2}}"), FreshSupply(1))
    assert res4.type == RecordType((("a", INT), ("b", BOOL)))


def test_negative_suite():
    cases = {
        "extend({l=1}, l, 2)": ("extend", "kind_clash"),
        "remove({}, l)": ("remove", "kind_clash"),
        "{l=1}.m": ("select", "kind_clash"),
        "\\x. x x": ("app", "occurs_check"),
    }
    for src, (rule, reason) in cases.items():
        res = infer({}, {}, parse_term(src), FreshSupply(1))
        assert isinstance(res, InferFailure), src
        assert res.rule == rule, (src, res)
        assert res.reason == reason, (src, res)


def test_unbound_variable_failure():
    res = infer({}, {}, Var("ghost"), FreshSupply(1))
    assert isinstance(res, InferFailure)
    assert res.reason == "unbound_variable"


def test_extend_base_occurs_failure():
    res = infer({}, {}, parse_term("\\x. extend(x, l, x)"), FreshSupply(1))
    assert isinstance(res, InferFailure)
    assert res.reason == "base_in_value"


def test_extend_base_occurs_caught_after_later_aliasing():
    # the base/value aliasing only appears once sibling applications force
    # x and y together, after the extension itself was typed
    src = "\\f. \\x. \\y. {a = extend(x, l, y), b = f x y, c = f y x}"
    for want_trace in (True, False):
        res = infer({}, {}, parse_term(src), FreshSupply(1), want_trace=want_trace)
        assert isinstance(res, InferFailure)
        assert res.reason == "base_in_value"
    control = "\\f. \\x. \\y. {a = extend(x, l, y), b = f x y}"
    assert not isinstance(infer({}, {}, parse_term(control), FreshSupply(1)), InferFailure)


def test_environment_binders_are_not_caught():
    # x's binder is the environment's own variable a; typing m binds b := a,
    # so x's type must rename its binder before b is replaced in it
    a, b = TyVar(1, "a"), TyVar(2, "b")
    kenv = {a: UKind(), b: UKind()}
    tenv = {"x": PolyType(((a, UKind()),), Arrow(a, b)), "y": poly(b), "w": poly(a)}
    res = infer(kenv, tenv, parse_term("{m = modify({l = y}, l, w), n = x}"), FreshSupply(10))
    assert res.subst[b] == a
    n = res.type.field_map()["n"]
    assert n.cod == a and n.dom not in (a, b)


def test_instantiate_examples():
    a, b = TyVar(1, "a"), TyVar(2, "b")
    fs = FreshSupply(10)
    k1 = {}
    t1 = instantiate(k1, PolyType(((a, UKind()),), Arrow(a, a)), fs)
    fresh = t1.dom
    assert fresh.uid >= 10 and t1 == Arrow(fresh, fresh)
    assert k1 == {fresh: UKind()}

    # the fresh variables' kinds are added to the given assignment in place
    sigma = PolyType(((a, UKind()), (b, record_kind([("l", a)]))), Arrow(b, a))
    t2 = instantiate(k1, sigma, fs)
    fa, fb = t2.cod, t2.dom
    assert k1 == {fresh: UKind(), fa: UKind(), fb: record_kind([("l", fa)])}

    k3 = {}
    assert instantiate(k3, poly(INT), fs) == INT and k3 == {}


def test_result_type_is_canonical():
    rng = random.Random(89)
    for _ in range(150):
        term = gen_closed_term(rng, rng.randint(1, 5))
        res = infer({}, {}, term, FreshSupply(1))
        if isinstance(res, InferFailure):
            continue
        assert normalize(res.type) == res.type


def test_deterministic_up_to_renaming():
    rng = random.Random(97)
    for _ in range(60):
        term = gen_closed_term(rng, rng.randint(1, 4))
        r1 = infer({}, {}, term, FreshSupply(1))
        r2 = infer({}, {}, term, FreshSupply(500))
        assert isinstance(r1, InferFailure) == isinstance(r2, InferFailure)
        if isinstance(r1, InferFailure):
            assert r1.reason == r2.reason
            continue
        p1 = closure(r1.kenv, {}, r1.type)[1]
        p2 = closure(r2.kenv, {}, r2.type)[1]
        assert p1 == p2  # polytype equality is alpha-invariant


POLY_ENV = ENV_42 + """
id : forall 'c :: U. 'c -> 'c
get : forall 'c :: U. forall 'r :: <<l: 'c || >>. 'r -> 'c
put : forall 'c :: U. forall 'r :: << || l: 'c>>. 'c -> 'r -> 'r + {l: 'c}
"""


def _uids(*values) -> list[int]:
    """The uids of the values' free variables and binders."""
    return [v.uid for x in values for v in ftv(x) | {w for w, _ in getattr(x, "quants", ())}]


def test_default_supply_makes_only_newer_variables(monkeypatch):
    # Without a supply, infer and check draw from `syntax.FRESH`, which
    # starts above every uid a parser hands out and only counts up.  So a
    # run's variables are newer than its inputs', also than those `freshen`
    # drew from FRESH, and the outcome is the one a supply clear of both
    # the inputs and FRESH gives, also for a claim whose binders FRESH
    # made last.
    kenv, tenv, _ = parse_env_file(POLY_ENV)
    checker = sys.modules["extrec.checker"]
    # The reference supply starts far above FRESH's next uid, so no run
    # here reaches it; infer's refusal of a supply in FRESH's range, pinned
    # by the next test, is lifted for it.
    monkeypatch.setattr(sys.modules["extrec.infer"], "FRESH_START", float("inf"))
    clear = lambda: FreshSupply(FRESH.next_uid + 1_000_000)
    rng = random.Random(2028)
    fixed = [parse_term(src) for src in ("\\z. z", "\\z. put z x", "let f = get in f")]
    accepted = verdicts = 0
    for i in range(400):
        # the fixed terms come first, with the parsed types
        g = {x: freshen(s) if i >= len(fixed) and rng.random() < 0.5 else s for x, s in tenv.items()}
        top = max(_uids(*kenv, *g.values()))
        term = fixed[i] if i < len(fixed) else gen_closed_term(rng, rng.randint(1, 5), scope=tuple(g))
        res = infer(kenv, g, term)
        assert _verdict(res, kenv, g) == _verdict(infer(kenv, g, term, clear()), kenv, g), term
        if isinstance(res, InferFailure):
            continue
        accepted += 1
        made = [*res.kenv, *res.subst, res.type, *res.kenv.values(), *res.subst.values()]
        assert all(u > top for u in _uids(*made) if TyVar(u) not in kenv), term
        principal = closure(res.kenv, apply_assignment(res.subst, g), res.type)[1]
        for sigma in (principal, freshen(principal), poly(Arrow(INT, INT))):
            got = checker.check(kenv, g, term, sigma)
            with monkeypatch.context() as m:
                m.setattr(checker, "infer", lambda k, g, t, *_: infer(k, g, t, clear()))
                assert checker.check(kenv, g, term, sigma) == got, (term, sigma)
            verdicts += got[0]
    assert accepted > 100 and verdicts > accepted


def test_a_supply_in_freshs_range_is_refused():
    # A supply started just above inputs that came from `freshen` would
    # share FRESH's uids, which renaming in the run draws on; with it,
    # check once refused the principal type of `(\x1. id) put`.  infer
    # refuses such a supply, and the default supply accepts the claim.
    kenv, tenv, _ = parse_env_file(POLY_ENV)
    g = {x: freshen(s) for x, s in tenv.items()}
    term = parse_term("(\\x1. id) put")
    with pytest.raises(ValueError, match="FRESH's range"):
        infer(kenv, g, term, FreshSupply(max(_uids(*kenv, *g.values())) + 1))
    claim = parse_type("forall 'c :: U. 'c -> 'c")
    assert check(kenv, g, term, claim) == (True, None)
    assert not isinstance(infer(kenv, g, term, FRESH), InferFailure)


def test_a_supply_that_reaches_the_env_is_refused():
    # From 1, the supply's first variable is 'r itself: as y's type it would
    # write U over 'r's kind, and x.l would lose its field.  A variable the
    # run already kinds or binds is refused, instantiation's too.
    kenv, tenv, venv = parse_env_file("'r :: <<l: Int || >>\nx : 'r\n")
    term = parse_term(r"\y. x.l")
    res = infer(kenv, tenv, term, FreshSupply(venv.next_uid))
    assert _printed_principal(res, tenv, kenv) == "forall 'a :: U. 'a -> Int | 'r :: <<l: Int || >>"
    with pytest.raises(ValueError, match="uid 1 is already kinded or bound"):
        infer(kenv, tenv, term, FreshSupply(1))
    kenv, tenv, _ = parse_env_file("'r :: U\nf : forall 'a :: U. 'a -> 'r\n")
    with pytest.raises(ValueError, match="uid 1 is already kinded or bound"):
        infer(kenv, tenv, parse_term("f"), FreshSupply(1))


def test_trace_context_matches_substituted_gamma():
    kenv, tenv, venv, a1, a2 = _setup_42()
    res = infer(kenv, tenv, parse_term("extend(x, l, y).l"),
                FreshSupply(venv.next_uid), want_trace=True)
    want = apply_assignment(res.subst, tenv)
    got = res.trace.judgment.tenv
    assert got.keys() == want.keys()
    for x in want:
        assert got[x] == want[x]


def test_trace_free_inference_agrees_with_traced():
    kenv, tenv, venv, _, _ = _setup_42()
    rng = random.Random(103)
    accepted = failed = 0
    for i in range(300):
        env = i % 2 == 0
        term = gen_closed_term(rng, rng.randint(1, 6), scope=("x", "y") if env else ())
        k, g, start = (kenv, tenv, venv.next_uid) if env else ({}, {}, 1)
        plain = infer(k, g, term, FreshSupply(start))
        traced = infer(k, g, term, FreshSupply(start), want_trace=True)
        if isinstance(traced, InferFailure):
            failed += 1
            assert isinstance(plain, InferFailure), term
            assert (plain.rule, plain.reason) == (traced.rule, traced.reason), term
            continue
        accepted += 1
        assert not isinstance(plain, InferFailure), term
        assert plain.trace is None and traced.trace is not None
        assert (plain.kenv, plain.subst, plain.type) == (traced.kenv, traced.subst, traced.type)
    assert accepted > 40 and failed > 40


def test_trace_free_inference_builds_no_derivation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("derivation built without want_trace")

    infer_mod = sys.modules["extrec.infer"]
    monkeypatch.setattr(infer_mod, "Derivation", refuse)
    monkeypatch.setattr(infer_mod, "Judgment", refuse)
    kenv, tenv, venv, _, _ = _setup_42()
    rng = random.Random(109)
    accepted = 0
    for i in range(300):
        env = i % 2 == 0
        term = gen_closed_term(rng, rng.randint(1, 6), scope=("x", "y") if env else ())
        k, g, start = (kenv, tenv, venv.next_uid) if env else ({}, {}, 1)
        accepted += not isinstance(infer(k, g, term, FreshSupply(start)), InferFailure)
    assert accepted > 40


def _nodes(term, cls) -> int:
    """The number of `cls` nodes in term."""
    own = isinstance(term, cls)
    if isinstance(term, RecordLit):
        return own + sum(_nodes(t, cls) for _, t in term.fields)
    children = [getattr(term, f, None) for f in ("body", "fn", "arg", "bound", "target", "value")]
    return own + sum(_nodes(c, cls) for c in children if c is not None)


def test_untraced_let_reads_no_more_than_its_bound_term_made(monkeypatch):
    # Generalization by levels neither closes over the whole type
    # assignment nor resolves it: untraced, the assignment is resolved one
    # entry per variable occurrence, where it is looked up.  (A let reads
    # it where unification made variables unreachable from it, as in
    # LEVEL_PROGRAMS below; no program of this sample does.)
    def refuse(*args, **kwargs):
        raise AssertionError("type assignment scanned")

    infer_mod = sys.modules["extrec.infer"]
    for module in (infer_mod, sys.modules["extrec.subst"]):
        for name in ("closure", "eftv_assignment"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    inner = infer_mod.resolve
    resolved = 0

    def counted(s, x):
        nonlocal resolved
        resolved += isinstance(x, PolyType)
        return inner(s, x)

    monkeypatch.setattr(infer_mod, "resolve", counted)
    kenv, tenv, venv, _, _ = _setup_42()
    rng = random.Random(127)
    terms = lets = 0
    while terms < 300:
        env = terms % 2 == 0
        term = gen_closed_term(rng, rng.randint(2, 6), scope=("x", "y") if env else ())
        if not _nodes(term, Let):
            continue
        terms += 1
        lets += _nodes(term, Let)
        k, g, start = (kenv, tenv, venv.next_uid) if env else ({}, {}, 1)
        resolved = 0
        infer(k, g, term, FreshSupply(start))
        assert resolved <= _nodes(term, Var), term
    assert lets > 1000


def test_record_operations_do_not_walk_the_chain(monkeypatch):
    # Normalization merges one more operation into the chain's known normal
    # form: only the new operation and the prefix's operations in its label
    # range reach the merge, and no label g<i> is in the chain when it is
    # added.  Rule vii reads a chain's field facts from
    # `label_maps(chain.ops)` and its base's kind, and a merged kind is built
    # from the two it merges: typing one more operation neither folds the
    # chain's facts with `field_info` nor walks the kind's fields in Python.
    # The terms are built directly, since the parser refuses this depth.
    def refuse(*args, **kwargs):
        raise AssertionError("chain walked")

    normalize_mod = sys.modules["extrec.normalize"]
    merged = []

    def cancel_pairs(ops):
        merged.append(len(ops))
        return cancel(ops)

    cancel = normalize_mod._cancel_pairs
    monkeypatch.setattr(sys.modules["extrec.kinding"], "field_info", refuse)
    monkeypatch.setattr(normalize_mod, "_cancel_pairs", cancel_pairs)
    n = 300
    chain = Var("r")
    for i in range(n):
        chain = Extend(chain, f"g{i}", Const(i, "Int"))
    selects = RecordLit(tuple((f"f{i}", Select(Var("r"), f"f{i}")) for i in range(n)))
    for body in (chain, selects):
        res = infer({}, {}, Abs("r", body))
        assert not isinstance(res, InferFailure), res
        (k,) = [k for k in res.kenv.values() if not isinstance(k, UKind)]
        assert len(k.lefts) + len(k.rights) == n
    assert len(merged) >= n and set(merged) == {1}, sorted(set(merged))


def test_first_failure_in_walk_order_is_reported():
    # Each program has two faults.  Record fields are typed in label order,
    # so `zz` fails before `true 3`; a let's bound term before its body.
    cases = {
        "{b = true 3, a = zz}": ((17, 19), (1, 18), "var", "unbound_variable"),
        "let g = \\r. extend(r, l, r) in (1 2)": ((12, 18), (1, 13), "extend", "base_in_value"),
    }
    for src, want in cases.items():
        for want_trace in (False, True):
            res = infer({}, {}, parse_term(src), FreshSupply(1), want_trace=want_trace)
            assert isinstance(res, InferFailure), src
            where = reference_line_col(src, res.span[0])
            assert (res.span, where, res.rule, res.reason) == want, src


def test_inference_hands_unification_well_formed_state(monkeypatch):
    # Inference calls the solver directly, which skips the public entry's
    # checks: every kind assignment it hands over is well formed once
    # resolved, and kinds every variable of the resolved equations.
    solver = sys.modules["extrec.unify"].Solver
    inner = solver.solve
    calls = 0

    def checked(self, equations):
        nonlocal calls
        calls += 1
        kenv, subst = self.kenv, self.subst
        view = dict(subst)
        resolved = {v: resolve(view, k) for v, k in kenv.items()}
        assert not (resolved.keys() & view.keys())
        assert wf_kind_assignment(resolved)
        for t1, t2 in equations:
            assert ftv(resolve(view, t1)) | ftv(resolve(view, t2)) <= resolved.keys()
        return inner(self, equations)

    monkeypatch.setattr(solver, "solve", checked)
    kenv, tenv, venv, _, _ = _setup_42()
    rng = random.Random(107)
    for i in range(700):
        env = i % 2 == 0
        term = gen_closed_term(rng, rng.randint(1, 6), scope=("x", "y") if env else ())
        k, g, start = (kenv, tenv, venv.next_uid) if env else ({}, {}, 1)
        infer(k, g, term, FreshSupply(start))
    assert calls > 600


def test_known_arrows_and_records_are_typed_directly(monkeypatch):
    # A field operation on a record reads the record's fields, and an
    # application of an arrow unifies only its domain with the argument:
    # neither makes a fresh variable, and a let-chain of record extensions
    # has nothing left to unify.  A field operation on a chain over a
    # record-kinded variable, at a label the chain leaves alone, reads and
    # writes the variable's kind: only the first extension below, of a
    # variable, makes variables (two) and a unify call.
    solver = sys.modules["extrec.unify"].Solver
    inner = solver.solve
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, "solve", counted)
    v3 = TyVar(3)  # the base of r's chain: r's variable is bound to it
    let_chain = (
        "let r0 = {} in let r1 = extend(r0, f1, 1) in let r2 = extend(r1, f2, true) in remove(r2, f1)"
    )
    cases = (
        (let_chain, RecordType((("f2", BOOL),)), 0, 0),
        ("{a = 1}.a", INT, 0, 0),
        # one variable for x; the application unifies it with Int
        ("(\\x. x) 1", INT, 1, 1),
        # one variable for x, one for each use of id
        ("let id = \\x. x in id (id {})", RecordType(()), 3, 2),
        (
            "\\r. extend(extend(extend(r, c, 1), a, true), b, {})",
            Arrow(v3, Ext(Ext(Ext(v3, "a", BOOL), "b", RecordType(())), "c", INT)),
            3,
            1,
        ),
    )
    for src, want, made, unified in cases:
        fs, calls = FreshSupply(1), 0
        res = infer({}, {}, parse_term(src), fs)
        assert not isinstance(res, InferFailure), res
        assert (res.type, fs.next_uid - 1, calls) == (want, made, unified), src
    # the value puts the chain's base into its own kind
    src = "\\r. let s = extend(r, a, 1) in modify(s, b, s)"
    res = infer({}, {}, parse_term(src))
    assert (res.rule, res.reason, res.message, res.span, reference_line_col(src, res.span[0])) == (
        "modify",
        "occurs_check",
        "variable occurs in its own kind",
        (31, 37),
        (1, 32),
    )


def _first_occurrence(roots, kinds) -> list:
    """The variables of `kinds` that the types `roots` reach, in order of
    first occurrence: the roots' own, then those their kinds name."""
    seen = []

    def visit(x):
        if isinstance(x, TyVar):
            if x not in seen:
                seen.append(x)
        else:
            map_type(lambda child: visit(child) or child, x)

    for root in roots:
        visit(root)
    for v in seen:  # grows while it is read: a kind names more variables
        if v in kinds:
            visit(kinds[v])
    return [v for v in seen if v in kinds]


def _printed_principal(res, tenv=None, kenv=()) -> str:
    """The principal type of an inference result under tenv, printed with
    its quantifiers in order of first occurrence in it, then the whole
    residual kind assignment: first the kinds that the type, tenv's types
    and the variables of kenv, the run's starting kinds, reach, in order of
    first occurrence, then the others in the order the run left them.  So
    the order in which subterms were typed does not show; "rejected" for a
    failure."""
    if isinstance(res, InferFailure):
        return "rejected"
    gamma = apply_assignment(res.subst, tenv or {})
    resid, principal = closure(res.kenv, gamma, res.type)
    kinds = dict(principal.quants)
    quants = tuple((v, kinds[v]) for v in _first_occurrence([principal.body], kinds))
    reached = _first_occurrence([principal.body, *gamma.values(), *kenv], resid)
    rest = [v for v in resid if v not in reached]
    namer = Namer()
    printed = pretty_poly(PolyType(quants, principal.body), namer)
    return f"{printed} | {pretty_kind_assignment({v: resid[v] for v in reached + rest}, namer)}"


CHAIN_LABELS = ("a", "b", "c", "l", "m")


def _field_op(rng, target, label, values, classes=(Select, Modify, Remove, Extend)):
    """A random field operation on target at label, with a value from values."""
    cls = rng.choice(classes)
    return cls(target, label) if cls in (Select, Remove) else cls(target, label, rng.choice(values))


def _chain_stack(rng, subject, values):
    """1-4 field operations stacked on the variable `subject`, over
    CHAIN_LABELS, and the labels of those that modify.  A selection, which
    leaves a variable rather than a chain, is drawn less often."""
    t, modified = Var(subject), []
    for _ in range(rng.randint(1, 4)):
        label = rng.choice(CHAIN_LABELS)
        t = _field_op(rng, t, label, values, (Select, Modify, Modify, Remove, Extend, Extend))
        if isinstance(t, Modify):
            modified.append(label)
    return t, modified


def test_known_shapes_type_as_the_unifier_does(monkeypatch):
    # `op(R, l[, V])` against `(\z. op(z, l[, V])) R`, and `F A` against
    # `(\g. g A) F`: behind the abstraction the subject is a variable, so
    # the field operation or application goes through fresh variables and
    # the unifier.  Both forms get the same verdict and the same principal
    # type.  The generator never binds z or g.
    rng = random.Random(131)
    pairs = {"field": [0, 0], "app": [0, 0]}  # [accepted, rejected]
    while min(map(sum, pairs.values())) < 300:
        term = gen_closed_term(rng, rng.randint(1, 5))
        if isinstance(term, App):
            kind, general = "app", App(Abs("g", App(Var("g"), term.arg)), term.fn)
        elif isinstance(term, (Select, Modify, Remove, Extend)):
            kind, general = "field", App(Abs("z", rebuilt(term, target=Var("z"))), term.target)
        else:
            continue
        direct = infer({}, {}, term, FreshSupply(1))
        printed = _printed_principal(direct)
        assert printed == _printed_principal(infer({}, {}, general, FreshSupply(1))), term
        pairs[kind][printed == "rejected"] += 1
    assert min(min(counts) for counts in pairs.values()) > 50, pairs

    # The same for a field operation on a chain over a record-kinded
    # variable, at a label the chain does not mention, where the kind's
    # entry decides; a failure has the unifier's message too.  The chain is
    # a stack over `\r.`'s parameter or over ENV_42's x, sometimes bound by
    # a let, and the values may mention the stack's subject.
    infer_mod = sys.modules["extrec.infer"]
    inner, typed = infer_mod._known_field, []

    def noted(run, t, base, term, *rest):
        if base is not None:
            typed.append(term)
        return inner(run, t, base, term, *rest)

    monkeypatch.setattr(infer_mod, "_known_field", noted)
    kenv_42, tenv_42, venv_42, _, _ = _setup_42()
    closed = (Const(1, "Int"), Const(True, "Bool"), RecordLit(()))
    seen = [0, 0]  # [accepted, rejected] of those whose operation was typed directly
    while min(seen) < 100:
        with_env = rng.random() < 0.5
        subject = "x" if with_env else "r"
        values = closed + ((Var("x"), Var("y")) if with_env else (Var("r"),))
        stack, modified = _chain_stack(rng, subject, values)
        # a modified label is not in the stack's type, but in its kind
        label = rng.choice(modified if modified and rng.random() < 0.5 else CHAIN_LABELS)
        op = _field_op(rng, Var("s"), label, values)
        if isinstance(op, Extend) and op.value == Var(subject):
            # typed before the operation, the subject fails the extension's
            # base check; typed after it, the unifier's occurs check
            op = rebuilt(op, value=rng.choice(closed))
        general = App(Abs("z", rebuilt(op, target=Var("z"))), Var("s"))
        if rng.random() < 0.3:
            forms = [Let("s", stack, op), Let("s", stack, general)]
        else:
            op = rebuilt(op, target=stack)
            forms = [op, rebuilt(general, arg=stack)]
        if not with_env:
            forms = [Abs("r", t) for t in forms]
        kenv, tenv, start = (kenv_42, tenv_42, venv_42.next_uid) if with_env else ({}, {}, 1)
        typed.clear()
        got = [_verdict(infer(kenv, tenv, t, FreshSupply(start)), kenv, tenv) for t in forms]
        if any(t is op for t in typed):
            assert got[0] == got[1], forms[0]
            seen[got[0][0] == "rejected"] += 1


def _verdict(res, kenv, tenv) -> tuple[str, str]:
    """(printed principal type or "rejected", failure message or "")."""
    if isinstance(res, InferFailure):
        return "rejected", f"{res.message} [{res.reason}]"
    return _printed_principal(res, tenv, kenv), ""


# Lets whose generalization depends on one part each of the level
# bookkeeping in `infer._Run` and the solver's `lower` and `lose` hooks.
LEVEL_PROGRAMS = (
    # f's parameter type stays free, pinned by the kind of the unreachable
    # z's type; it comes up to depth 0, so h's let sees f reach it
    "let f = \\y. (\\g. y) (\\z. modify(z, l, y)) in let h = f (\\u. u) in {a = h 1, b = h true}",
    # n's field type moves into x's kind (rule vii)
    "\\x. let y = remove(x, m).n in {a = y 1, b = y true}",
    # the two chains are rebased on a fresh variable (rule ix)
    "\\x. let y = \\w. (\\f. {a = f remove(x, m), b = f extend(w, n, 1)}) (\\r. r) in y",
    # binding x's type to {} drops v's type from x's kind (rule iv) ...
    "\\x. let z = \\v. {a = extend(x, l, v), b = (\\f. {c = f x, d = f {}}) (\\r. r)}"
    " in {p = z 1, q = z true}",
    # ... and, bound in turn, the variables of its image
    "\\x. let z = \\v. {a = extend(x, l, v), b = (\\f. {c = f x, d = f {}}) (\\r. r),"
    " c = v (\\u. u)} in {p = z (\\g. 1), q = z (\\g. true)}",
    # x's kind comes to hold {m: v} - {m: v}; binding x's type to a record
    # drops v by reduction in rule i ...
    "\\x. let z = \\v. \\r. {a = (\\f. {c = f x.l, d = f remove(r, m)}) (\\w. w),"
    " b = (\\g. {e = g r, h = g {m = v}}) (\\w. w), c = (\\k. {i = k x, j = k {l = {}}}) (\\w. w)}"
    " in {p = z 1 {m = 1}, q = z true {m = true}}",
    # ... and in the normalization retry
    "\\x. let z = \\v. \\s. \\r. {a = (\\f. {c = f x.l, d = f remove(r, m)}) (\\w. w),"
    " b = (\\g. {e = g r, h = g {k = s, m = v}}) (\\w. w),"
    " c = (\\k. {i = k x, j = k {l = {k = 1}}}) (\\w. w)}"
    " in {p = z 1 1 {k = 1, m = 1}, q = z true 1 {k = 1, m = true}}",
    # the drop of rule iv inside a nested let: both open lets, w's and z's,
    # must take closure's rule, not only the innermost
    "\\x. let z = \\v. let w = {a = extend(x, l, v), b = (\\f. {c = f x, d = f {}}) (\\r. r)}"
    " in w in {p = z 1, q = z true}",
)


def test_levels_generalize_as_closure_does(monkeypatch):
    # At every let, generalizing by levels gives what `closure` gives over
    # the resolved kind assignment and type assignment: the same
    # quantifiers, in the same order and with the same kinds, and the same
    # residual kind assignment, in the same order.
    run_class = sys.modules["extrec.infer"]._Run
    inner = run_class.generalize
    lets = 0

    def checked(run, tenv, t, bound):
        nonlocal lets
        lets += 1
        gamma = {x: resolve(run.subst, sigma) for x, sigma in tenv.items()}
        kenv = {v: resolve(run.subst, k) for v, k in run.kenv.items()}
        want_residual, want = closure(kenv, gamma, t)
        got = inner(run, tenv, t, bound)
        assert (got.quants, got.body) == (want.quants, want.body), bound
        residual = [(v, resolve(run.subst, k)) for v, k in run.kenv.items()]
        assert residual == list(want_residual.items()), bound
        return got

    monkeypatch.setattr(run_class, "generalize", checked)
    for src in LEVEL_PROGRAMS:
        for want_trace in (False, True):
            infer({}, {}, parse_term(src), FreshSupply(1), want_trace=want_trace)
    kenv, tenv, venv, _, _ = _setup_42()
    rng = random.Random(113)
    for i in range(2000):
        env = i % 2 == 0
        term = gen_closed_term(rng, rng.randint(3, 6), scope=("x", "y") if env else ())
        k, g, start = (kenv, tenv, venv.next_uid) if env else ({}, {}, 1)
        infer(k, g, term, FreshSupply(start), want_trace=i % 4 < 2)
    assert lets >= 1000


def _gen_nodes(d):
    if d.rule == "Gen":
        yield d
    for c in d.children:
        yield from _gen_nodes(c)


def test_no_generalized_variable_meets_the_final_substitution(monkeypatch):
    # `subst_derivation` gives a Gen node's premise the quantifiers of the
    # node's substituted polytype, and they are the premise's own variables
    # only when `apply_type` renames none: no variable a Gen node quantifies
    # is in the final substitution's domain, or free in the image of a
    # variable free in the node's polytype.  Checked on the tree as
    # inference records it, before the substitution.  (An image may mention
    # a quantified variable when its variable was bound before the let
    # generalized, as in the last of LEVEL_PROGRAMS: the polytype, resolved
    # then, does not hold it.)
    infer_mod = sys.modules["extrec.infer"]
    inner = infer_mod.subst_derivation
    quantified = 0

    def checked(d, s, k_target):
        nonlocal quantified
        for gen in _gen_nodes(d):
            sigma = gen.judgment.sigma
            images = set().union(*(ftv(s[v]) for v in ftv(sigma) if v in s))
            for v, _ in sigma.quants:
                assert v not in s and v not in images, (gen.judgment.term, v)
                quantified += 1
        out = inner(d, s, k_target)
        assert validate(out) is None, d.judgment.term
        return out

    monkeypatch.setattr(infer_mod, "subst_derivation", checked)
    for src in LEVEL_PROGRAMS:
        infer({}, {}, parse_term(src), FreshSupply(1), want_trace=True)
    kenv, tenv, venv, _, _ = _setup_42()
    rng = random.Random(137)
    for i in range(1000):
        # let f = \p. M in N, with p free in M and f in N, so that f's
        # type is often polymorphic
        scope = ("x", "y") if i % 2 == 0 else ()
        bound = Abs("p", gen_closed_term(rng, rng.randint(1, 4), scope=("p",) + scope))
        term = Let("f", bound, gen_closed_term(rng, rng.randint(1, 4), scope=("f",) + scope))
        k, g, start = (kenv, tenv, venv.next_uid) if scope else ({}, {}, 1)
        infer(k, g, term, FreshSupply(start), want_trace=True)
    assert quantified > 250


def test_soundness_sample():
    rng = random.Random(101)
    accepted = 0
    for _ in range(200):
        term = gen_closed_term(rng, rng.randint(1, 6))
        res = infer({}, {}, term, FreshSupply(1), want_trace=True)
        if isinstance(res, InferFailure):
            continue
        accepted += 1
        assert validate(res.trace) is None
        assert respects(KindedSubstitution(res.kenv, res.subst), {})
    assert accepted > 40


# ---------------------------------------------------------------------------
# Desk-scale principality: every typing found by brute-force enumeration is
# a generic instance of the inferred principal type.

_UNIVERSE = [
    INT,
    BOOL,
    RecordType(()),
    RecordType((("l", INT),)),
    RecordType((("m", BOOL),)),
    RecordType((("l", INT), ("m", BOOL))),
    Arrow(INT, INT),
    Arrow(INT, BOOL),
]


def _derivable(tenv, term, tau, depth=0):
    """Declarative typability over the finite universe (let-free terms)."""
    if depth > 8:
        return False
    if isinstance(term, Var):
        return term.name in tenv and equiv(tenv[term.name], tau)
    if isinstance(term, Const):
        return equiv(tau, BaseType(term.base))
    if isinstance(term, Abs):
        t = normalize(tau)
        if not isinstance(t, Arrow):
            return False
        return _derivable({**tenv, term.param: t.dom}, term.body, t.cod, depth + 1)
    if isinstance(term, App):
        return any(
            _derivable(tenv, term.fn, Arrow(ta, tau), depth + 1)
            and _derivable(tenv, term.arg, ta, depth + 1)
            for ta in _UNIVERSE
        )
    if isinstance(term, RecordLit):
        t = normalize(tau)
        if not isinstance(t, RecordType):
            return False
        fields = t.field_map()
        if set(fields) != {l for l, _ in term.fields}:
            return False
        return all(
            _derivable(tenv, sub, fields[l], depth + 1) for l, sub in term.fields
        )
    if isinstance(term, Select):
        return any(
            _derivable(tenv, term.target, t1, depth + 1)
            and has_kind({}, t1, record_kind([(term.label, tau)]))
            for t1 in _UNIVERSE
        )
    if isinstance(term, Modify):
        if not any(
            _derivable(tenv, term.value, t2, depth + 1)
            and has_kind({}, normalize(tau), record_kind([(term.label, t2)]))
            for t2 in _UNIVERSE
        ):
            return False
        return _derivable(tenv, term.target, tau, depth + 1)
    if isinstance(term, Remove):
        for t1, t2 in itertools.product(_UNIVERSE, _UNIVERSE):
            if not isinstance(t1, (RecordType,)):
                continue
            if not has_kind({}, t1, record_kind([(term.label, t2)])):
                continue
            if _derivable(tenv, term.target, t1, depth + 1) and equiv(
                tau, Contr(t1, term.label, t2)
            ):
                return True
        return False
    if isinstance(term, Extend):
        for t1, t2 in itertools.product(_UNIVERSE, _UNIVERSE):
            if not isinstance(t1, (RecordType,)):
                continue
            if not has_kind({}, t1, record_kind([], [(term.label, t2)])):
                continue
            if (
                _derivable(tenv, term.target, t1, depth + 1)
                and _derivable(tenv, term.value, t2, depth + 1)
                and equiv(tau, Ext(t1, term.label, t2))
            ):
                return True
        return False
    return False  # let handled by generalization; out of enumeration scope


def _letfree(term):
    if isinstance(term, Var) or isinstance(term, Const):
        return True
    if isinstance(term, Abs):
        return _letfree(term.body)
    if isinstance(term, App):
        return _letfree(term.fn) and _letfree(term.arg)
    if isinstance(term, RecordLit):
        return all(_letfree(s) for _, s in term.fields)
    if isinstance(term, (Select, Remove)):
        return _letfree(term.target)
    if isinstance(term, (Modify, Extend)):
        return _letfree(term.target) and _letfree(term.value)
    return False


def test_principality_desk_scale():
    rng = random.Random(103)
    inspected = 0
    alternatives = 0
    while inspected < 150:
        term = gen_closed_term(rng, rng.randint(1, 3), labels=("l", "m"))
        if not _letfree(term):
            continue
        res = infer({}, {}, term, FreshSupply(1))
        if isinstance(res, InferFailure):
            continue
        inspected += 1
        resid, principal = closure(res.kenv, {}, res.type)
        for tau in _UNIVERSE:
            if _derivable({}, term, tau):
                alternatives += 1
                assert generic_instance(resid, principal, poly(tau)), (term, tau, principal)
    assert alternatives > 40


def test_long_chains_infer_their_closed_forms():
    # let r0 = {} in let r1 = extend(r0, f1, 1) in ... in r160
    n = 160
    src = f"r{n}"
    for i in range(n, 0, -1):
        src = f"let r{i} = extend(r{i - 1}, f{i}, {i}) in ({src})"
    res = infer({}, {}, parse_term("let r0 = {} in " + src), FreshSupply(1))
    assert not isinstance(res, InferFailure), res
    want = poly(RecordType(tuple((f"f{i}", INT) for i in range(1, n + 1))))
    assert closure(res.kenv, {}, res.type) == ({}, want)

    # \r. extend(extend(r, g0, 0), ..., g159, 159)
    src = "r"
    for i in range(n):
        src = f"extend({src}, g{i}, {i})"
    res = infer({}, {}, parse_term("\\r. " + src), FreshSupply(1))
    assert not isinstance(res, InferFailure), res
    labels = sorted(f"g{i}" for i in range(n))
    r = TyVar(1)
    chain = r
    for l in labels:
        chain = Ext(chain, l, INT)
    lacks = record_kind([], [(l, INT) for l in labels])
    assert closure(res.kenv, {}, res.type) == ({}, PolyType(((r, lacks),), Arrow(r, chain)))

    # let id = \x. x in id (id (... (id {})))
    src = "{}"
    for _ in range(n):
        src = f"id ({src})"
    res = infer({}, {}, parse_term("let id = \\x. x in " + src), FreshSupply(1))
    assert not isinstance(res, InferFailure), res
    assert closure(res.kenv, {}, res.type) == ({}, poly(RecordType(())))

    # let e = \r. \v. extend(r, z, v) in {f0 = e {} 0, ..., f159 = e {} 159}
    src = ", ".join(f"f{i} = e {{}} {i}" for i in range(n))
    res = infer({}, {}, parse_term("let e = \\r. \\v. extend(r, z, v) in {" + src + "}"),
                FreshSupply(1))
    assert not isinstance(res, InferFailure), res
    want = RecordType(tuple((f"f{i}", RecordType((("z", INT),))) for i in range(n)))
    assert closure(res.kenv, {}, res.type) == ({}, poly(want))

    # \r. {f0 = r.f0, ..., f159 = r.f159}: one field variable per label, in
    # label order, then the record variable that has them all
    src = ", ".join(f"f{i} = r.f{i}" for i in range(n))
    res = infer({}, {}, parse_term("\\r. {" + src + "}"), FreshSupply(1))
    assert not isinstance(res, InferFailure), res
    labels = sorted(f"f{i}" for i in range(n))
    fields = tuple(zip(labels, (TyVar(-1 - i) for i in range(n))))
    r = TyVar(-1 - n)
    quants = tuple((v, UKind()) for _, v in fields) + ((r, record_kind(fields)),)
    want = PolyType(quants, Arrow(r, RecordType(fields)))
    assert closure(res.kenv, {}, res.type) == ({}, want)


def test_cancellation_below_the_top_of_a_chain():
    # removing a drops the extension under b's: the chain cancels inside
    res = infer({}, {}, parse_term("\\r. remove(remove(extend(extend(r, a, 1), b, true), a), b)"),
                FreshSupply(1))
    assert not isinstance(res, InferFailure), res
    want = parse_type("forall 'a :: << || a: Int, b: Bool>>. 'a -> 'a")
    assert closure(res.kenv, {}, res.type) == ({}, want)


def test_interleaved_extend_remove_chain_infers_and_validates():
    # 120 extensions and 80 removals of labels present at the time, drawn
    # at random so that most removals cancel below the top of the chain;
    # built directly, since the parser recurses once per nesting level
    rng = random.Random(61)
    term, present, added, removals = Var("r"), [], {}, 0
    while len(added) + removals < 200:
        if removals < 80 and present and (len(added) == 120 or rng.random() < 0.4):
            term = Remove(term, present.pop(rng.randrange(len(present))))
            removals += 1
        else:
            label = f"g{len(added)}"
            value = Const(len(added), "Int") if len(added) % 2 else Const(True, "Bool")
            term = Extend(term, label, value)
            added[label] = BaseType(value.base)
            present.append(label)
    res = infer({}, {}, Abs("r", term), FreshSupply(1), want_trace=True)
    assert not isinstance(res, InferFailure), res
    assert validate(res.trace) is None
    r = TyVar(1)
    chain = r
    for label in sorted(present):
        chain = Ext(chain, label, added[label])
    lacks = record_kind([], sorted(added.items()))
    assert closure(res.kenv, {}, res.type) == ({}, PolyType(((r, lacks),), Arrow(r, chain)))
