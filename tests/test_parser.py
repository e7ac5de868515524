import random

import pytest

from extrec.parser import (
    _TOKEN_RE,
    Namer,
    ParseError,
    VarEnv,
    _Parser,
    _tokenize,
    line_col,
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
    Remove,
    Select,
    TyVar,
    UKind,
    Var,
    record_kind,
)
from gen import (
    bench_inputs,
    canon,
    gen_arb_kind,
    gen_arb_mono,
    gen_arb_poly,
    gen_arb_term,
    reference_line_col,
    reference_tokenize,
)


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
    assert e.value.line == 1
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
        # a line ends at "\n" only: a lone CR is layout, a form feed is refused
        (parse_env_file, "x : Int\r y : ;", "unexpected character ';'", (13, 14, 1, 14)),
        (parse_env_file, "x : Int\x0c", "unexpected character '\\x0c'", (7, 8, 1, 8)),
        # a keyword names no variable
        (parse_env_file, "x : Int\n  true : Bool\n", "keyword 'true' cannot be a variable", (10, 14, 2, 3)),
    ],
)
def test_line_file_errors_point_into_the_file(parse, text, message, span):
    with pytest.raises(ParseError) as err:
        parse(text)
    e = err.value
    assert (e.message, (*e.span, e.line, e.col)) == (message, span)


@pytest.mark.parametrize(
    "parse, text, message, span, expected",
    [
        (parse_term, "let x = 1 x", "expected 'in'", (11, 11, 1, 12), ("in",)),
        (parse_term, "\\r.\n  r.in", "keyword 'in' cannot be a label", (8, 10, 2, 5), ()),
        (parse_term, "f ²", "not a decimal integer '²'", (2, 3, 1, 3), ()),
        (parse_term, "f let", "unexpected keyword 'let'", (2, 5, 1, 3), ()),
        (parse_term, "x\n y )", "trailing input ')'", (5, 6, 2, 4), ("end of input",)),
        (parse_term, "f (x, y)", "unexpected ','", (4, 5, 1, 5), (")",)),
        (parse_term, "(\n)", "unexpected ')'", (2, 3, 2, 1), ("term",)),
        (parse_mono, "Int ->", "unexpected 'end of input'", (6, 6, 1, 7), ("type",)),
        (parse_kind, "V", "unexpected 'V'", (0, 1, 1, 1), ("U", "<<")),
        (parse_term, "\\1. x", "unexpected '1'", (1, 2, 1, 2), ("identifier",)),
        (parse_type, "forall 'a :: U 'a", "unexpected \"'a\"", (15, 17, 1, 16), (".",)),
        (parse_type, "forall a :: U. a", "expected type variable", (7, 8, 1, 8), ("'a",)),
        (parse_mono, "{l: Float}", "unknown type name 'Float'", (4, 9, 1, 5), ()),
        (
            parse_mono,
            "'a -> (Int -> Int) + {l: Int}",
            "'+' needs an extensible head (a variable, record, or chain)",
            (19, 20, 1, 20),
            (),
        ),
        (parse_term, "f\n {l = 1, l = 2}", "duplicate label 'l'", (3, 4, 2, 2), ()),
        (parse_mono, "{l: Int, l: Bool}", "duplicate label 'l'", (0, 1, 1, 1), ()),
        (parse_kind, "<<l: Int, l: Int || >>", "duplicate label 'l'", (0, 2, 1, 1), ()),
        (parse_kind, "<< || l: Int, l: Int>>", "duplicate label 'l'", (0, 2, 1, 1), ()),
        (parse_kind, "<<l: Int || l: Int>>", "label on both kind sides: ['l']", (0, 2, 1, 1), ()),
        (parse_mono, '""', "unexpected '\"\"'", (0, 2, 1, 1), ("type",)),
        (parse_mono, '"Int"', "unexpected '\"Int\"'", (0, 5, 1, 1), ("type",)),
        (parse_term, "\\true. true", "keyword 'true' cannot be a variable", (1, 5, 1, 2), ()),
        (parse_term, "let in = 1 in 2", "keyword 'in' cannot be a variable", (4, 6, 1, 5), ()),
        (parse_term, "f (\\x.\n \\remove. x)", "keyword 'remove' cannot be a variable", (9, 15, 2, 3), ()),
        # a token is named by its source text: quotes and escapes as written
        (parse_type, "Int 'a", "trailing input \"'a\"", (4, 6, 1, 5), ("end of input",)),
        (parse_type, 'Int "s\\n"', "trailing input '\"s\\\\n\"'", (4, 9, 1, 5), ("end of input",)),
        # an integer literal that int() would refuse past sys.get_int_max_str_digits()
        pytest.param(
            parse_term, "f " + "1" * 5000, "integer literal of 5000 digits is too long", (2, 5002, 1, 3), (),
            id="long-integer",
        ),
    ],
)
def test_syntax_errors_are_pinned(parse, text, message, span, expected):
    # one input for each place the parser refuses a well-tokenized text
    with pytest.raises(ParseError) as err:
        parse(text)
    e = err.value
    assert (e.message, (*e.span, e.line, e.col), e.expected) == (
        message,
        span,
        expected,
    )


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


def _tokens(text, prefix=""):
    """(kind, text, start, end, line, col) of each token of text, which
    follows prefix in its source; line and col are `line_col`'s."""
    source = prefix + text
    p = _Parser(text, None, source, len(prefix))
    named = ("ident", "int", "string", "tyvar", "eof")
    return [
        (k if k in named else "punct", s, i, j, *line_col(source, i))
        for k, s, i, j in zip(p.kinds, p.texts, p.starts, p.ends)
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
    # a word led by digits is an integer, then a word of its own
    assert _tokens("12ab 3٣ 1_") == [
        ("int", "12", 0, 2, 1, 1),
        ("ident", "ab", 2, 4, 1, 3),
        ("int", "3٣", 5, 7, 1, 6),
        ("int", "1", 8, 9, 1, 9),
        ("ident", "_", 9, 10, 1, 10),
        ("eof", "", 10, 10, 1, 11),
    ]


def _check_span(source, span, where, lo=0):
    """span, a (start, end) pair, lies inside source past lo, and where is
    the line and column of its start."""
    start, end = span
    assert lo <= start <= end <= len(source), (source, span)
    assert where == reference_line_col(source, start), (source, span, where)


def test_line_col_agrees_with_the_reference_at_every_position():
    # Lines of words and tabs, ended by "\n" or "\r\n", some texts with no
    # final line end: line_col names each position's line and column as
    # the reference does, and a carriage return ends no line.
    rng = random.Random(101)
    positions = crlfs = unended = 0
    for _ in range(500):
        text = "".join(
            rng.choice(("", "\t", "x", "ab", " y\t", "é")) * rng.randint(0, 3)
            + rng.choice(("\n", "\r\n", "\r", ""))
            for _ in range(rng.randint(0, 8))
        )
        for offset in range(len(text) + 1):
            assert line_col(text, offset) == reference_line_col(text, offset), (text, offset)
        positions += len(text) + 1
        crlfs += text.count("\r\n")
        unended += not text.endswith("\n")
    assert positions >= 6000 and crlfs >= 400 and unended >= 200, (positions, crlfs, unended)


def _term_nodes(t):
    yield t
    if isinstance(t, RecordLit):
        kids = [v for _, v in t.fields]
    else:
        kids = [getattr(t, f, None) for f in ("fn", "arg", "bound", "body", "target", "value")]
    for kid in kids:
        if hasattr(kid, "span"):  # a Const's value is not a term
            yield from _term_nodes(kid)


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
        prefix = rng.choice(("", "x : Int\r\n\t y "))
        try:
            toks = _tokens(text, prefix)
        except ParseError as err:
            _check_span(prefix + text, err.span, (err.line, err.col), len(prefix))
            errors += 1
            continue
        for t in toks:
            _check_span(prefix + text, t[2:4], t[4:], len(prefix))
        assert toks[-1][2] == len(prefix + text)
        tokens += len(toks)
    assert errors >= 300 and tokens >= 4500, (errors, tokens)


def test_spans_of_parsed_terms_lie_inside_the_text():
    # Printed terms over several lines, with layout and comments spliced in
    # at token boundaries: each node's span lies inside the text, names its
    # start's line and column, and covers the token the node starts with.
    rng = random.Random(89)
    layouts = ("\n", "\n  ", " # note\n", "\r\n\t", "\n\n#\n ")
    lines = nodes = 0
    for _ in range(300):
        t = gen_arb_term(rng, rng.randint(1, 4))
        shown = pretty_term(t)
        boundaries = _Parser(shown, None).starts[1:]
        cuts = sorted(rng.sample(boundaries, min(3, len(boundaries))), reverse=True)
        text = shown
        for cut in cuts:
            text = text[:cut] + rng.choice(layouts) + text[cut:]
        parsed = parse_term(text)
        assert parsed == t
        for node in _term_nodes(parsed):
            start, end = node.span
            _check_span(text, node.span, line_col(text, start))
            head = text[start:end]
            if isinstance(node, (Var, Const)):
                assert head == pretty_term(node), (text, node)
            elif isinstance(node, (App, Select)):  # the span of the first subterm
                assert node.span == (node.fn if isinstance(node, App) else node.target).span
            else:
                first = {Abs: "\\", Let: "let", RecordLit: "{"}.get(type(node))
                assert head == (first or type(node).__name__.lower()), (text, node)
            nodes += 1
        lines += text.count("\n")
    assert nodes >= 1500 and lines >= 900, (nodes, lines)


def test_env_file_errors_lie_inside_the_text():
    # Env files of indented lines and comments, with a character spliced in:
    # the span of each error lies inside the file and names its start's
    # line and column, lines counted as the file is split into lines.
    rng = random.Random(97)
    tyvars = (TyVar(100, "v0"), TyVar(101, "v1"))
    alphabet = "a1 \t\n\r'\":;#{}()<>|+-=.,½"
    errors = 0
    for _ in range(400):
        decls = []
        for n in range(rng.randint(1, 5)):
            lead = rng.choice(("", "  ", "\t "))
            if rng.random() < 0.5:
                decl = f"'k{n} :: {pretty_kind(gen_arb_kind(rng, tyvars))}"
            else:
                decl = f"x{n} : {pretty_type(gen_arb_mono(rng, 2, tyvars))}"
            decls.append(lead + decl + rng.choice(("", "  # note")))
        text = rng.choice(("\n", "\r\n", "\n\n")).join(decls)
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(alphabet) + text[cut:]
        try:
            parse_env_file(text)
        except ParseError as err:
            _check_span(text, err.span, (err.line, err.col))
            errors += 1
    assert errors >= 150, errors


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
        # a character that does not print is named by its repr
        ('"a\\\nb"', "bad escape \\ before '\\n'", (2, 4, 1, 3)),
        ('x\n "\\\t"', "bad escape \\ before '\\t'", (4, 6, 2, 3)),
    ],
)
def test_lexical_errors_are_pinned(text, message, span):
    with pytest.raises(ParseError) as err:
        _Parser(text, None)
    e = err.value
    assert (e.message, (*e.span, e.line, e.col)) == (message, span)


def _lexed(tokenize, text):
    """The token table of text, or the message and position of its error."""
    try:
        return tokenize(text, lambda message, i, j: ParseError(message, text, (i, j)))
    except ParseError as err:
        return err.message, err.span


def test_the_token_table_matches_the_reference_tokenizer():
    # `_tokenize` splits a text at one regex, which leaves only layout
    # between its pieces.  On the benchmark's corpus and scaling programs,
    # on printed terms with comments, escaped strings and one to three
    # characters spliced in, and on short random texts, the token table and
    # the errors are those of `gen.reference_tokenize`, a loop of matches.
    bench = bench_inputs()
    texts = [p.text for p in bench.corpus_programs(20240)]
    texts += [bench.scaling_program(f, n)[0] for f in bench.SCALING_FAMILIES for n in (8, 48)]
    rng = random.Random(211)
    alphabet = "a_1²٣ \t\n\r\x0c\u2028#'\"\\.,={}()+-:<>|;é½"
    for _ in range(6000):
        shown = pretty_term(gen_arb_term(rng, rng.randint(0, 4)))
        if rng.random() < 0.25:  # a comment where a space was
            shown = shown.replace(" ", rng.choice((" # note\n", ' #"\\\n')), 1)
        if rng.random() < 0.25:  # an escaped string as a last argument
            shown = f"{shown} " + rng.choice(('"a\\nb"', '"\\"\\\\"', '"\\q"', '"\\t#"'))
        for _ in range(rng.randint(1, 3)):
            cut = rng.randint(0, len(shown))
            shown = shown[:cut] + rng.choice(alphabet) + shown[cut:]
        texts.append(shown)
    texts += ["".join(rng.choices(alphabet, k=rng.randint(0, 12))) for _ in range(20_000)]
    parsed = 0
    for text in texts:
        assert not "".join(_TOKEN_RE.split(text)[::2]).strip(" \t\r\n"), text
        assert _lexed(_tokenize, text) == _lexed(reference_tokenize, text), text
        try:
            parse_term(text)
        except ParseError:
            continue
        parsed += 1
    assert parsed >= 1500, parsed


# (kind, text) of the head token of a node of each class that has its own
_HEAD_TOKENS = {
    Abs: ("\\", "\\"),
    Let: ("ident", "let"),
    RecordLit: ("{", "{"),
    Modify: ("ident", "modify"),
    Extend: ("ident", "extend"),
    Remove: ("ident", "remove"),
}


def _check_heads(t, table, at):
    """Check that each node of t carries its head token's (start, end) from
    table, the reference tokenizer's, whose token at index k starts at
    at[k]; return the index of t's first token.  App and Select have no
    token of their own and carry their first subterm's span."""
    kinds, texts, starts, ends = table
    if isinstance(t, (App, Select)):
        first = t.fn if isinstance(t, App) else t.target
        k = _check_heads(first, table, at)
        assert t.span == first.span, t
        if isinstance(t, App):
            assert _check_heads(t.arg, table, at) > k, t
        return k
    k = at[t.span[0]]  # a KeyError: the span starts at no token
    assert t.span == (starts[k], ends[k]), t
    if isinstance(t, Var):
        assert (kinds[k], texts[k]) == ("ident", t.name), t
    elif isinstance(t, Const):
        if t.base == "Int":
            assert kinds[k] == "int" and int(texts[k]) == t.value, t
        else:
            shown = t.value if t.base == "String" else "true" if t.value else "false"
            assert (kinds[k], texts[k]) == ("string" if t.base == "String" else "ident", shown), t
    else:
        assert (kinds[k], texts[k]) == _HEAD_TOKENS[type(t)], t
        if isinstance(t, (Abs, Let)):
            assert (kinds[k + 1], texts[k + 1]) == ("ident", t.param if isinstance(t, Abs) else t.name), t
            after = k + 2
            if isinstance(t, Let):
                after = _check_heads(t.bound, table, at) + 1
            assert _check_heads(t.body, table, at) >= after, t
        elif isinstance(t, RecordLit):
            heads = [_check_heads(v, table, at) for _, v in t.fields]
            assert len(set(heads)) == len(heads) and all(h > k for h in heads), t
        else:
            target = _check_heads(t.target, table, at)
            assert target > k, t
            if not isinstance(t, Remove):
                assert _check_heads(t.value, table, at) > target, t
    return k


def test_every_node_carries_its_head_tokens_span_from_the_reference_table():
    # On the benchmark's corpus and scaling programs, and on printed terms
    # with layout, comments, strings (plain and escaped) and type variables
    # spliced in at token boundaries: each node of a parsed term carries the
    # (start, end) of its head token in `gen.reference_tokenize`'s table, a
    # token of the node's kind and text, after its parent's head; App and
    # Select carry their first subterm's.  A text the parser refuses, as a
    # term or as a type, is refused at one of the reference's tokens, or
    # with the reference's lexical error.
    bench = bench_inputs()
    texts = [p.text for p in bench.corpus_programs(20240)]
    texts += [bench.scaling_program(f, n)[0] for f in bench.SCALING_FAMILIES for n in (8, 48)]
    rng = random.Random(223)
    splices = (" ", "\n  ", " # note 'a \"s\n", '"s"', '"a\\"b\\n"', "'a", "'b1", "x", "(", ")", "{", ".")
    for _ in range(2000):
        shown = rng.choice((pretty_term(gen_arb_term(rng, rng.randint(1, 4))), pretty_poly(gen_arb_poly(rng))))
        cuts = [s for s in reference_tokenize(shown, None)[2] if rng.random() < 0.2]
        for cut in sorted(cuts, reverse=True):
            shown = shown[:cut] + rng.choice(splices) + " " + shown[cut:]
        texts.append(shown)
    nodes = strings = refused = at_tyvars = 0
    for text in texts:
        try:
            table = reference_tokenize(text, lambda message, i, j: ParseError(message, text, (i, j)))
        except ParseError as lexical:
            for parse in (parse_term, parse_type):
                with pytest.raises(ParseError) as err:
                    parse(text)
                assert (err.value.message, err.value.span) == (lexical.message, lexical.span), text
            continue
        at = {start: k for k, start in enumerate(table[2])}
        for parse in (parse_term, parse_type):
            try:
                parsed = parse(text)
            except ParseError as err:
                k = at[err.span[0]]
                assert err.span == (table[2][k], table[3][k]), (text, err)
                refused += 1
                at_tyvars += table[0][k] == "tyvar"
                continue
            if parse is parse_term:
                assert set(table[0][: _check_heads(parsed, table, at)]) <= {"("}, text
                found = list(_term_nodes(parsed))
                nodes += len(found)
                strings += sum(isinstance(n, Const) and n.base == "String" for n in found)
    assert nodes >= 30_000 and strings >= 2500, (nodes, strings)
    assert refused >= 3000 and at_tyvars >= 300, (refused, at_tyvars)
