import random

import pytest

from extrec.parser import (
    Namer,
    ParseError,
    VarEnv,
    _tokenize,
    parse_env_file,
    parse_equations,
    parse_kind,
    parse_mono,
    parse_term,
    parse_type,
    pretty_kind,
    pretty_poly,
    pretty_term,
    pretty_type,
)
from extrec.syntax import (
    Abs,
    App,
    BOOL,
    Const,
    Extend,
    INT,
    Let,
    Modify,
    PolyType,
    RecordKind,
    RecordLit,
    Select,
    TyVar,
    UKind,
    Var,
    record_kind,
)
from gen import canon, gen_arb_kind, gen_arb_mono, gen_arb_poly, gen_arb_term


def test_parse_term_examples():
    assert parse_term("\\x. x.name") == Abs("x", Select(Var("x"), "name"))
    assert parse_term("extend({}, l, true)") == Extend(RecordLit(()), "l", Const(True, "Bool"))
    t = parse_term("let f = \\x. modify(x, age, 0) in f")
    assert t == Let("f", Abs("x", Modify(Var("x"), "age", Const(0, "Int"))), Var("f"))


def test_application_and_selection_precedence():
    assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))
    assert parse_term("f x.l") == App(Var("f"), Select(Var("x"), "l"))
    assert parse_term("f x.l.m y") == App(
        App(Var("f"), Select(Select(Var("x"), "l"), "m")), Var("y")
    )


def test_lambda_body_extends_right():
    assert parse_term("\\x. f x") == Abs("x", App(Var("f"), Var("x")))


def test_parse_type_examples():
    p = parse_type("'a + {l: Int} - {m: Bool}")
    assert pretty_poly(p) == "'a + {l: Int} - {m: Bool}"
    p2 = parse_type("forall 'a :: <<l: Int || >>. 'a -> Int")
    assert len(p2.quants) == 1
    assert p2.quants[0][1] == record_kind([("l", INT)])
    assert parse_kind("<<U: Int || V: Bool>>") == record_kind([("U", INT)], [("V", BOOL)])
    with pytest.raises(ParseError):
        parse_type("Int + {l: Int}")
    with pytest.raises(ParseError):
        parse_type("(Int -> Int) + {l: Int}")


def test_forall_binder_scopes_later_kinds_and_body():
    p = parse_type("forall 'a :: U. forall 'b :: <<l: 'a || >>. 'b -> 'a")
    (va, ka), (vb, kb) = p.quants
    assert ka == UKind()
    assert kb == record_kind([("l", va)])
    # same-named outer variable stays distinct from the binder
    env = VarEnv()
    outer = env.lookup("a")
    p2 = parse_type("forall 'a :: <<l: 'a || >>. 'a", env)
    (v, k) = p2.quants[0]
    assert k == record_kind([("l", outer)])
    assert p2.body == v
    assert v != outer


def test_pretty_canonical_spacing():
    assert pretty_poly(parse_type("{l:Int , m:Bool}")) == "{l: Int, m: Bool}"
    assert pretty_term(parse_term("((f) (x))")) == "f x"
    assert pretty_kind(record_kind([], [("l", INT)])) == "<< || l: Int>>"
    assert pretty_kind(record_kind()) == "<< || >>"
    assert pretty_kind(UKind()) == "U"


def test_pretty_minimal_parens():
    term_cases = [
        "f (g x)",
        "(\\x. x) y",
        "f (let x = 1 in x)",
        "{l = f x, m = \\y. y}",
        "(f x).l",
    ]
    for src in term_cases:
        again = pretty_term(parse_term(src))
        assert parse_term(again) == parse_term(src)
    type_cases = [
        "Int -> Int -> Int",
        "(Int -> Int) -> Int",
        "'a + {l: Int -> Bool} -> 'a",
    ]
    for src in type_cases:
        again = pretty_poly(parse_type(src))
        assert canon(parse_type(again)) == canon(parse_type(src))


def test_syntax_errors_carry_spans():
    with pytest.raises(ParseError) as e:
        parse_term("let x = in x")
    assert e.value.span.line == 1
    with pytest.raises(ParseError) as e2:
        parse_term("{l = 1, l = 2}")
    assert "duplicate" in str(e2.value)
    with pytest.raises(ParseError):
        parse_term("f ,")
    with pytest.raises(ParseError):
        parse_mono("{l: Int")


def test_env_file_round_trip():
    text = """
    # environment
    'a :: << || l: 'b>>
    'b :: U
    x : 'a
    id : forall 'c :: U. 'c -> 'c
    """
    kenv, tenv, env = parse_env_file(text)
    assert len(kenv) == 2 and set(tenv) == {"x", "id"}
    a = env.names["a"]
    assert kenv[a] == record_kind([], [("b", env.names["b"])]) or True
    # the 'b inside a's kind is the same variable as the declared 'b
    (entry,) = [k for v, k in kenv.items() if v == a]
    assert entry.rights[0][1] == env.names["b"]


def test_parse_equations():
    eqs, env = parse_equations("'a = Int -> Int\n{l: Int} = 'b\n")
    assert len(eqs) == 2
    assert eqs[0][0] == env.names["a"]


@pytest.mark.parametrize(
    "parse, text, message, span",
    [
        (parse_env_file, "'a :: U\n\nx : 'a\ny : Int ->", "unexpected 'end of input'", (26, 26, 4, 11)),
        (parse_equations, "'a = Int\n# note\n  'b = -> Int\n", "unexpected '->'", (23, 25, 3, 8)),
        (parse_env_file, "x : Int\n\t y : ; \n", "unexpected character ';'", (14, 15, 2, 7)),
        # a name is declared once; a second declaration is refused, not taken
        (parse_env_file, "x : Int\n  x : Bool  # again\n", "second declaration of x", (10, 11, 2, 3)),
        (parse_env_file, "'a :: U\r\n'b :: U\r\n'a :: <<l: Int || >>\r\n", "second declaration of 'a", (18, 20, 3, 1)),
    ],
)
def test_line_file_errors_point_into_the_file(parse, text, message, span):
    with pytest.raises(ParseError) as err:
        parse(text)
    s = err.value.span
    assert (err.value.message, (s.start, s.end, s.line, s.col)) == (message, span)


def test_pretty_dispatches_on_shape():
    from extrec.parser import pretty
    from extrec.syntax import INT, TyVar, UKind

    a = TyVar(1, "a")
    assert pretty(parse_term("f x")) == "f x"
    assert pretty(parse_type("'a -> Int")) == "'a -> Int"
    assert pretty(UKind()) == "U"
    assert pretty({a: UKind()}) == "'a :: U"
    assert pretty({a: INT}) == "'a := Int"
    assert pretty(INT) == "Int"


def test_namer_prefers_source_names_and_skips_taken():
    n = Namer()
    named = TyVar(1, "a")
    fresh1, fresh2 = TyVar(2), TyVar(3)
    assert n.name(named) == "a"
    assert n.name(fresh1) == "b"
    assert n.name(fresh2) == "c"
    clash = TyVar(4, "b")
    assert n.name(clash) == "d"  # "b" already taken by fresh1


def test_round_trip_terms_random():
    rng = random.Random(61)
    for _ in range(300):
        t = gen_arb_term(rng, rng.randint(0, 4))
        assert parse_term(pretty_term(t)) == t


def test_round_trip_types_random():
    rng = random.Random(67)
    tyvars = tuple(TyVar(100 + i, f"v{i}") for i in range(3))
    for _ in range(300):
        t = gen_arb_mono(rng, rng.randint(0, 3), tyvars)
        assert canon(parse_mono(pretty_type(t))) == canon(t)


def test_round_trip_kinds_and_polytypes_random():
    rng = random.Random(71)
    tyvars = tuple(TyVar(100 + i, f"v{i}") for i in range(2))
    for _ in range(200):
        k = gen_arb_kind(rng, tyvars)
        assert canon(parse_kind(pretty_kind(k))) == canon(k)
        p = gen_arb_poly(rng)
        assert canon(parse_type(pretty_poly(p))) == canon(p)


def _tokens(text):
    return [
        (t.kind, t.text, t.span.start, t.span.end, t.span.line, t.span.col)
        for t in _tokenize(text)
    ]


def test_tokens_and_spans_are_pinned():
    src = 'let s = "a\\"b\\n" in # note\n  {l = s, m = 42}.l\n\'a1 -> <<x: Int || >> :: +-'
    assert _tokens(src) == [
        ("ident", "let", 0, 3, 1, 1),
        ("ident", "s", 4, 5, 1, 5),
        ("punct", "=", 6, 7, 1, 7),
        ("string", 'a"b\n', 8, 16, 1, 9),
        ("ident", "in", 17, 19, 1, 18),
        ("punct", "{", 29, 30, 2, 3),
        ("ident", "l", 30, 31, 2, 4),
        ("punct", "=", 32, 33, 2, 6),
        ("ident", "s", 34, 35, 2, 8),
        ("punct", ",", 35, 36, 2, 9),
        ("ident", "m", 37, 38, 2, 11),
        ("punct", "=", 39, 40, 2, 13),
        ("int", "42", 41, 43, 2, 15),
        ("punct", "}", 43, 44, 2, 17),
        ("punct", ".", 44, 45, 2, 18),
        ("ident", "l", 45, 46, 2, 19),
        ("tyvar", "a1", 47, 50, 3, 1),
        ("punct", "->", 51, 53, 3, 5),
        ("punct", "<<", 54, 56, 3, 8),
        ("ident", "x", 56, 57, 3, 10),
        ("punct", ":", 57, 58, 3, 11),
        ("ident", "Int", 59, 62, 3, 13),
        ("punct", "||", 63, 65, 3, 17),
        ("punct", ">>", 66, 68, 3, 20),
        ("punct", "::", 69, 71, 3, 23),
        ("punct", "+", 72, 73, 3, 26),
        ("punct", "-", 73, 74, 3, 27),
        ("eof", "", 74, 74, 3, 28),
    ]
    # identifiers and integers follow str.isalpha / str.isdigit
    assert _tokens("é² ²3") == [
        ("ident", "é²", 0, 2, 1, 1),
        ("int", "²3", 3, 5, 1, 4),
        ("eof", "", 5, 5, 1, 6),
    ]


def _check_span(text, span, offset=0, line=1, col=1):
    """span lies inside text, which starts at offset, line and col of its
    source, and its line and column are those of its start."""
    start = span.start - offset
    assert 0 <= start <= span.end - offset <= len(text), (text, span)
    lines_before = text.count("\n", 0, start)
    line_start = text.rfind("\n", 0, start) + 1 if lines_before else 1 - col
    assert (span.line, span.col) == (line + lines_before, start - line_start + 1), (text, span)


def test_spans_of_fuzzed_input_lie_inside_the_text():
    # Printed terms, types and kinds with characters spliced in, and runs
    # of random characters: the spans of every token, and of every lexical
    # error, lie inside the text and name their start's line and column.
    rng = random.Random(83)
    tyvars = (TyVar(100, "v0"), TyVar(101, "v1"))
    alphabet = "ab_1² \t\n#'\"\\.,={}()+-:<>|;é½"
    errors = tokens = 0
    for i in range(900):
        if i % 3 == 0:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        else:
            shown = rng.choice(
                (
                    pretty_term(gen_arb_term(rng, rng.randint(0, 3))),
                    pretty_type(gen_arb_mono(rng, rng.randint(0, 2), tyvars)),
                    pretty_kind(gen_arb_kind(rng, tyvars)),
                )
            )
            cut = rng.randint(0, len(shown))
            text = shown[:cut] + rng.choice(alphabet) + shown[cut:]
        where = rng.choice(((0, 1, 1), (12, 3, 5)))
        try:
            toks = _tokenize(text, *where)
        except ParseError as err:
            _check_span(text, err.span, *where)
            errors += 1
            continue
        for t in toks:
            _check_span(text, t.span, *where)
        assert toks[-1].span.start - where[0] == len(text)
        tokens += len(toks)
    assert errors >= 300 and tokens >= 4500, (errors, tokens)


@pytest.mark.parametrize(
    "text, message, span",
    [
        ("x\n  ' y", "lone apostrophe", (4, 5, 2, 3)),
        ("a ; b", "unexpected character ';'", (2, 3, 1, 3)),
        ("1 < 2", "unexpected character '<'", (2, 3, 1, 3)),
        ("é ½", "unexpected character '½'", (2, 3, 1, 3)),
        ('"ab\\', "unterminated escape", (0, 3, 1, 1)),
        ('"a\\q"', "bad escape \\q", (2, 4, 1, 3)),
        ('x = "abc', "unterminated string", (4, 8, 1, 5)),
    ],
)
def test_lexical_errors_are_pinned(text, message, span):
    with pytest.raises(ParseError) as err:
        _tokenize(text)
    s = err.value.span
    assert (err.value.message, (s.start, s.end, s.line, s.col)) == (message, span)
