"""Concrete syntax for terms, types, kinds, and environment files.

Grammar (terms):

    term    := "\\" var "." term | "let" var "=" term "in" term | appterm
    appterm := postfix { postfix }
    postfix := atom { "." label }
    atom    := var | int | "true" | "false" | string
             | "{" [ label "=" term { "," label "=" term } ] "}"
             | "modify" "(" term "," label "," term ")"
             | "extend" "(" term "," label "," term ")"
             | "remove" "(" term "," label ")"
             | "(" term ")"

Grammar (types and kinds):

    poly    := { "forall" tyvar "::" kind "." } mono
    mono    := extty [ "->" mono ]
    extty   := atomty { ("+"|"-") "{" label ":" mono "}" }
    atomty  := "Int" | "Bool" | "String" | tyvar
             | "{" [ label ":" mono { "," label ":" mono } ] "}" | "(" mono ")"
    kind    := "U" | "<<" [fieldlist] "||" [fieldlist] ">>"

A var or a label is an ident that is not a term keyword: let, in,
modify, extend, remove, true or false.

Environment files hold one declaration per line: `'a :: KIND` for kinds,
`x : POLYTYPE` for term variables, x a var, each name declared at most
once; their comments, `#` to the line's end, are the tokenizer's.

Every entry point reads its text as one token table; a declaration file's
lines are cut from it.  `_tokenize` splits a text at one regex, which puts
every character but layout in exactly one piece, and makes a flat token
table, parallel lists of kind, text, start and end (a punctuation token's
kind is its text), each kind read from the piece's own text; only the
type variables and strings are visited again, to cut their quotes.
The descent reads the table through local variables.  The term rules
and `_fields`, which record literals, record types and kinds share, test
the punctuation and names they expect in line, and call out only to
raise an error.  A span is a (start, end) pair of offsets, and a term
node keeps its head token's, read from the table.  `line_col` alone
works out a line and a column: `ParseError` for its message, the CLI for
a type error.  The descent builds every term node through its class's
constructor.

Pretty-printing round-trips: parse(pretty(v)) is structurally equal to v
(alpha-invariant for polytypes).
"""

from __future__ import annotations

import itertools
import re

from .syntax import (
    Abs,
    App,
    Arrow,
    BASE_BY_NAME,
    BaseType,
    Const,
    Contr,
    EXT,
    Ext,
    Extend,
    FreshSupply,
    Kind,
    KindAssignment,
    Let,
    Modify,
    MonoType,
    PolyType,
    RecordKind,
    RecordLit,
    RecordType,
    Remove,
    Select,
    Substitution,
    Term,
    TypeAssignment,
    TyVar,
    U,
    UKind,
    Var,
)

TERM_KEYWORDS = {"let", "in", "modify", "extend", "remove", "true", "false"}
_RECORD_OPS = {"modify": Modify, "extend": Extend, "remove": Remove}
# The kinds of token, besides an identifier other than `in`, that start an
# argument of an application
_ARGUMENT_HEADS = frozenset(("(", "{", "int", "string"))


def line_col(text: str, offset: int) -> tuple[int, int]:
    """The line and column of offset in text, both from 1: a line ends at
    "\\n", and a column counts characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class ParseError(Exception):
    """An error at `span`, the (start, end) offsets in text of what it
    names; `line` and `col`, which the message prints, are start's."""

    def __init__(self, message: str, text: str, span: tuple[int, int], expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = expected
        self.line, self.col = line_col(text, span[0])
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{self.line}:{self.col}: {message}{detail}")


class VarEnv(FreshSupply):
    """One session's supply of type variables: a new one for each source
    name in scope (`names`) and each binder; the CLI goes on drawing on it."""

    def __init__(self):
        super().__init__()
        self.names: dict[str, TyVar] = {}

    def lookup(self, name: str) -> TyVar:
        if name not in self.names:
            self.names[name] = self.fresh(name)
        return self.names[name]

    def next_free_uid(self) -> int:  # `next_uid`, by the name perfbench/workloads.py calls
        return self.next_uid


# One group: every piece of a text that is not layout.  `\w` is
# `str.isalnum` or "_".  A piece is punctuation, a type variable, a string
# or a comment, matched whole so that the split stays aligned past it, a
# word, or else one character that starts none of these.  The lookahead
# leaves layout, and only layout, to the gaps.
_TOKEN_RE = re.compile(
    r"(?=[^ \t\r\n])(->|::|<<|>>|\|\||[\\.,={}()+\-:]|'\w+"
    r'|"[^"\\]*(?:\\.[^"\\]*)*"|#[^\n]*|\w+|.)'
)
_PUNCTS = frozenset(("->", "::", "<<", ">>", "||", *"\\.,={}()+-:"))
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _tokenize(text: str, fail) -> tuple[list[str], list[str], list[int], list[int]]:
    """The token table of text: kinds (ident / int / string / tyvar / eof,
    or the punctuation itself), texts, starts and ends, as positions in
    text.  `fail(message, start, end)` makes each lexical error.

    The text is split at _TOKEN_RE in one call, and each piece's kind is
    read from its own text: an identifier starts with a `str.isalpha`
    character or "_", an integer is all `str.isdigit`.  A comment, an
    escaped string, any other word, a lone quote or a bad character has no
    kind, and only a text that holds one takes a pass over the pieces, in
    text order.  It drops comments, decodes escapes, splits a word into an
    integer up to its last digit and an identifier (`12ab` is `12` and
    `ab`), and raises the first error.  A type variable's apostrophe and a
    plain string's quotes are cut from the tokens of those kinds alone."""
    pieces = _TOKEN_RE.split(text)  # layout, piece, layout, ..., piece, layout
    bounds = list(itertools.accumulate(map(len, pieces)))  # each one's end
    texts, starts, ends = pieces[1::2], bounds[::2], bounds[1::2]  # the last start is eof's
    kinds = [
        s if s in _PUNCTS
        else "ident" if (c := s[0]).isalpha() or c == "_"
        else "int" if s.isdigit()
        else "tyvar" if c == "'" and s != c
        else "string" if c == '"' and s != c and "\\" not in s
        else None
        for s in texts
    ]
    if "'" in text:  # a type variable drops its apostrophe
        for i in _positions(kinds, "tyvar"):
            texts[i] = texts[i][1:]
    if '"' in text:  # a string drops its quotes
        for i in _positions(kinds, "string"):
            texts[i] = texts[i][1:-1]
    n = len(text)
    if None not in kinds:
        kinds.append("eof")
        texts.append("")
        ends.append(n)
        return kinds, texts, starts, ends
    rows = []  # (kind, text, start, end)
    for k, s, i, j in zip(kinds, texts, starts, ends):
        if k is not None:
            rows.append((k, s, i, j))
        elif (c := s[0]) == '"':  # an escaped string; a lone quote raises
            rows.append(("string", _string_literal(text, i, fail)[1], i, j))
        elif c == "'":
            raise fail("lone apostrophe", i, j)
        elif c != "#":  # a comment is dropped; a word splits after its digits
            d = i
            while d < j and text[d].isdigit():
                d += 1
            if d > i:
                rows.append(("int", text[i:d], i, d))
            if not ((c := text[d]).isalpha() or c == "_"):
                raise fail(f"unexpected character {c!r}", d, d + 1)
            rows.append(("ident", text[d:j], d, j))
    rows.append(("eof", "", n, n))
    return tuple(map(list, zip(*rows)))


def _positions(kinds: list, kind: str):
    """The positions of kind in kinds, found by `list.index`: the pass over
    them visits no other token."""
    i = -1
    for _ in range(kinds.count(kind)):
        i = kinds.index(kind, i + 1)
        yield i


def _string_literal(text: str, i: int, fail) -> tuple[int, str]:
    """The end and the value of the string literal whose quote is at i.  A
    bad escape names a character that does not print by its repr."""
    n = len(text)
    j = i + 1
    buf = []
    while j < n and text[j] != '"':
        if text[j] == "\\":
            if j + 1 >= n:
                raise fail("unterminated escape", i, j)
            esc = _ESCAPES.get(c := text[j + 1])
            if esc is None:
                what = c if c.isprintable() else f" before {c!r}"
                raise fail(f"bad escape \\{what}", j, j + 2)
            buf.append(esc)
            j += 2
        else:
            buf.append(text[j])
            j += 1
    if j >= n:
        raise fail("unterminated string", i, n)
    return j + 1, "".join(buf)


class _Parser:
    """Recursive descent over a token table of text (`source`): by default
    `_tokenize`'s, or a ready `table` of rows cut from it.  Every span is a
    pair of offsets in source.  `i` is the next token."""

    def __init__(self, text: str, env: VarEnv | None, table: tuple | None = None):
        self.source = text
        if table is None:
            table = _tokenize(text, lambda message, i, j: ParseError(message, text, (i, j)))
        self.kinds, self.texts, self.starts, self.ends = table
        self.i = 0
        self.env = env

    def fail(self, message: str, i: int, expected: tuple[str, ...] = ()) -> ParseError:
        """An error at token i."""
        return ParseError(message, self.source, (self.starts[i], self.ends[i]), expected)

    def unexpected(self, i: int, expected: tuple[str, ...]) -> ParseError:
        """A token is named by its source text."""
        what = self.source[self.starts[i] : self.ends[i]] or "end of input"
        return self.fail(f"unexpected {what!r}", i, expected)

    # -- token plumbing ----------------------------------------------------
    # The term descent inlines these tests on its hot paths, and raises
    # their errors through `unexpected` and `not_a_name`.
    def punct(self, p: str):
        i = self.i
        if self.kinds[i] != p:
            raise self.unexpected(i, (p,))
        self.i = i + 1

    def name(self, role: str) -> str:
        """An identifier that is not a term keyword; `role` says what it
        names (a label or a variable) in the error for a keyword."""
        i = self.i
        s = self.texts[i]
        if self.kinds[i] != "ident" or s in TERM_KEYWORDS:
            raise self.not_a_name(i, role)
        self.i = i + 1
        return s

    def not_a_name(self, i: int, role: str) -> ParseError:
        """The error for token i where `name` expects one."""
        if self.kinds[i] != "ident":
            return self.unexpected(i, ("identifier",))
        return self.fail(f"keyword {self.texts[i]!r} cannot be {role}", i)

    def expect_eof(self):
        i = self.i
        if self.kinds[i] != "eof":
            what = self.source[self.starts[i] : self.ends[i]]
            raise self.fail(f"trailing input {what!r}", i, ("end of input",))

    # -- terms -------------------------------------------------------------
    def term(self) -> Term:
        kinds, texts, starts, ends = self.kinds, self.texts, self.starts, self.ends
        i = self.i
        k = kinds[i]
        if k == "\\" or k == "ident" and texts[i] == "let":
            span = (starts[i], ends[i])
            i += 1
            if kinds[i] != "ident" or (name := texts[i]) in TERM_KEYWORDS:
                raise self.not_a_name(i, "a variable")
            i += 1
            sep = "." if k == "\\" else "="
            if kinds[i] != sep:
                raise self.unexpected(i, (sep,))
            self.i = i + 1
            if k == "\\":
                return Abs(name, self.term(), span)
            bound = self.term()
            i = self.i
            if kinds[i] != "ident" or texts[i] != "in":
                raise self.fail("expected 'in'", i, ("in",))
            self.i = i + 1
            return Let(name, bound, self.term(), span)
        fn = None
        while True:  # postfix terms, applied left to right
            s = texts[i]
            if k == "ident":
                if s not in TERM_KEYWORDS:
                    t = Var(s, (starts[i], ends[i]))
                    i += 1
                elif s in _RECORD_OPS:
                    t = self._record_op(i)
                    i = self.i
                elif s == "true" or s == "false":
                    t = Const(s == "true", "Bool", (starts[i], ends[i]))
                    i += 1
                else:
                    raise self.fail(f"unexpected keyword {s!r}", i)
            elif k == "(":
                self.i = i + 1
                t = self.term()
                i = self.i
                if kinds[i] != ")":
                    raise self.unexpected(i, (")",))
                i += 1
            elif k == "{":
                self.i = i + 1
                try:
                    t = RecordLit(self._fields("=", self.term, "}"), (starts[i], ends[i]))
                except ValueError as e:
                    raise self.fail(str(e), i) from None
                i = self.i
            elif k == "int":
                if not s.isdecimal():
                    # str.isdigit, which the tokenizer follows, also takes '²'
                    raise self.fail(f"not a decimal integer {s!r}", i)
                try:
                    value = int(s)
                except ValueError:  # longer than sys.get_int_max_str_digits()
                    raise self.fail(f"integer literal of {len(s)} digits is too long", i) from None
                t = Const(value, "Int", (starts[i], ends[i]))
                i += 1
            elif k == "string":
                t = Const(s, "String", (starts[i], ends[i]))
                i += 1
            else:
                raise self.unexpected(i, ("term",))
            k = kinds[i]
            while k == ".":
                i += 1
                if kinds[i] != "ident" or (s := texts[i]) in TERM_KEYWORDS:
                    raise self.not_a_name(i, "a label")
                t = Select(t, s, t.span)
                i += 1
                k = kinds[i]
            fn = t if fn is None else App(fn, t, fn.span)
            if not (k == "ident" and texts[i] != "in" or k in _ARGUMENT_HEADS):
                self.i = i
                return fn

    def _record_op(self, i: int) -> Term:
        """A record operation, from its keyword at token i."""
        kinds, texts = self.kinds, self.texts
        op = texts[i]
        span = (self.starts[i], self.ends[i])
        if kinds[i + 1] != "(":
            raise self.unexpected(i + 1, ("(",))
        self.i = i + 2
        target = self.term()
        i = self.i
        if kinds[i] != ",":
            raise self.unexpected(i, (",",))
        i += 1
        if kinds[i] != "ident" or (label := texts[i]) in TERM_KEYWORDS:
            raise self.not_a_name(i, "a label")
        i += 1
        if op == "remove":
            t = Remove(target, label, span)
        else:
            if kinds[i] != ",":
                raise self.unexpected(i, (",",))
            self.i = i + 1
            t = _RECORD_OPS[op](target, label, self.term(), span)
            i = self.i
        if kinds[i] != ")":
            raise self.unexpected(i, (")",))
        self.i = i + 1
        return t

    # -- types -------------------------------------------------------------
    def polytype(self) -> PolyType:
        kinds, texts, env = self.kinds, self.texts, self.env
        quants = []
        shadowed: list[tuple[str, TyVar | None]] = []
        while kinds[self.i] == "ident" and texts[self.i] == "forall":
            i = self.i + 1
            if kinds[i] != "tyvar":
                raise self.fail("expected type variable", i, ("'a",))
            self.i = i + 1
            self.punct("::")
            kind = self.kind()  # binder not in scope in its own kind
            self.punct(".")
            name = texts[i]
            shadowed.append((name, env.names.get(name)))
            binder = env.fresh(name)
            env.names[name] = binder
            quants.append((binder, kind))
        body = self.mono()
        for name, prev in reversed(shadowed):
            if prev is None:
                env.names.pop(name, None)
            else:
                env.names[name] = prev
        return PolyType(tuple(quants), body)

    def mono(self) -> MonoType:
        left = self.extty()
        if self.kinds[self.i] == "->":
            self.i += 1
            return Arrow(left, self.mono())
        return left

    def extty(self) -> MonoType:
        t = self.atomty()
        kinds = self.kinds
        while (op := kinds[self.i]) in ("+", "-"):
            at = self.i
            self.i += 1
            self.punct("{")
            label = self.name("a label")
            self.punct(":")
            fty = self.mono()
            self.punct("}")
            try:
                t = (Ext if op == "+" else Contr)(t, label, fty)
            except ValueError:
                what = f"{op!r} needs an extensible head (a variable, record, or chain)"
                raise self.fail(what, at) from None
        return t

    def atomty(self) -> MonoType:
        i = self.i
        k = self.kinds[i]
        if k == "tyvar":
            self.i = i + 1
            return self.env.lookup(self.texts[i])
        if k == "ident":
            t = BASE_BY_NAME.get(self.texts[i])
            if t is None:
                raise self.fail(f"unknown type name {self.texts[i]!r}", i)
            self.i = i + 1
            return t
        if k == "{":
            self.i = i + 1
            try:
                return RecordType(self._fields(":", self.mono, "}"))
            except ValueError as e:
                raise self.fail(str(e), i) from None
        if k == "(":
            self.i = i + 1
            t = self.mono()
            self.punct(")")
            return t
        raise self.unexpected(i, ("type",))

    def kind(self) -> Kind:
        i = self.i
        k = self.kinds[i]
        if k == "ident" and self.texts[i] == "U":
            self.i = i + 1
            return U
        if k == "<<":
            self.i = i + 1
            lefts = self._fields(":", self.mono, "||")
            rights = self._fields(":", self.mono, ">>")
            try:
                return RecordKind(lefts, rights)
            except ValueError as e:
                raise self.fail(str(e), i) from None
        raise self.unexpected(i, ("U", "<<"))

    def _fields(self, sep: str, value, close: str) -> tuple:
        """[label sep value {"," label sep value}] close, for record
        literals, record types and each side of a kind."""
        kinds, texts, fields = self.kinds, self.texts, []
        i = self.i
        if kinds[i] != close:
            while True:
                if kinds[i] != "ident" or (label := texts[i]) in TERM_KEYWORDS:
                    raise self.not_a_name(i, "a label")
                if kinds[i + 1] != sep:
                    raise self.unexpected(i + 1, (sep,))
                self.i = i + 2
                fields.append((label, value()))
                i = self.i
                if kinds[i] != ",":
                    break
                i += 1
        if kinds[i] != close:
            raise self.unexpected(i, (close,))
        self.i = i + 1
        return tuple(fields)


# ---------------------------------------------------------------------------
# Entry points


def _parse_whole(rule, text: str, env: VarEnv | None):
    p = _Parser(text, env if env is not None else VarEnv())
    value = rule(p)
    p.expect_eof()
    return value


def parse_term(text: str) -> Term:
    return _parse_whole(_Parser.term, text, None)


def parse_type(text: str, env: VarEnv | None = None) -> PolyType:
    return _parse_whole(_Parser.polytype, text, env)


def parse_mono(text: str, env: VarEnv | None = None) -> MonoType:
    return _parse_whole(_Parser.mono, text, env)


def parse_kind(text: str, env: VarEnv | None = None) -> Kind:
    return _parse_whole(_Parser.kind, text, env)


def _line_parsers(text: str, env: VarEnv):
    """A parser for each line of text that holds a token: the line's rows of
    the text's one token table, and an end of input where its last token
    ends.  A line ends at a gap between tokens that holds "\\n", as in a term."""
    whole = _Parser(text, env)
    kinds, texts, starts, ends = whole.kinds, whole.texts, whole.starts, whole.ends
    first, last = 0, len(kinds) - 1  # eof's row
    for i in range(1, last + 1):
        if i == last or text.find("\n", ends[i - 1], starts[i]) >= 0:
            end, rows = ends[i - 1], slice(first, i)
            table = kinds[rows] + ["eof"], texts[rows] + [""], starts[rows] + [end], ends[rows] + [end]
            yield _Parser(text, env, table)
            first = i


def parse_env_file(
    text: str, env: VarEnv | None = None
) -> tuple[KindAssignment, TypeAssignment, VarEnv]:
    """One declaration per line: `'a :: KIND` or `x : POLYTYPE`, each name
    declared at most once."""
    env = env if env is not None else VarEnv()
    kenv: KindAssignment = {}
    tenv: TypeAssignment = {}
    for p in _line_parsers(text, env):
        if p.kinds[0] == "tyvar":
            p.i = 1
            p.punct("::")
            kind = p.kind()
            p.expect_eof()
            v = env.lookup(p.texts[0])
            if v in kenv:
                raise p.fail(f"second declaration of '{p.texts[0]}", 0)
            kenv[v] = kind
        else:
            name = p.name("a variable")
            p.punct(":")
            sigma = p.polytype()
            p.expect_eof()
            if name in tenv:
                raise p.fail(f"second declaration of {name}", 0)
            tenv[name] = sigma
    return kenv, tenv, env


def parse_equations(text: str, env: VarEnv | None = None):
    """Lines of `TYPE = TYPE`, sharing one variable namespace."""
    env = env if env is not None else VarEnv()
    eqs = []
    for p in _line_parsers(text, env):
        lhs = p.mono()
        p.punct("=")
        rhs = p.mono()
        p.expect_eof()
        eqs.append((lhs, rhs))
    return eqs, env


# ---------------------------------------------------------------------------
# Pretty-printing


class Namer:
    """Stable display names: a variable keeps its source name when free,
    otherwise gets the next unused letter ('a, 'b, ... 'z, 'a1, ...)."""

    def __init__(self):
        self._names: dict[int, str] = {}
        self._taken: set[str] = set()
        self._seq = self._letters()

    @staticmethod
    def _letters():
        for round_ in itertools.count():
            for c in "abcdefghijklmnopqrstuvwxyz":
                yield c if round_ == 0 else f"{c}{round_}"

    def name(self, v: TyVar) -> str:
        if v.uid not in self._names:
            candidate = v.name if v.name and v.name not in self._taken else None
            while candidate is None:
                nxt = next(self._seq)
                if nxt not in self._taken:
                    candidate = nxt
            self._names[v.uid] = candidate
            self._taken.add(candidate)
        return self._names[v.uid]


def quote_string(s: str) -> str:
    """A string literal, in concrete syntax, whose value is s."""
    out = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


_TERM, _APPFN, _APPARG, _SELECT = 0, 1, 2, 3


def pretty_term(t: Term) -> str:
    return _pp_term(t, _TERM)


def _pp_term(t: Term, level: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        if t.base == "Int":
            return str(t.value)
        if t.base == "Bool":
            return "true" if t.value else "false"
        return quote_string(t.value)
    if isinstance(t, Abs):
        s = f"\\{t.param}. {_pp_term(t.body, _TERM)}"
        return f"({s})" if level > _TERM else s
    if isinstance(t, Let):
        s = f"let {t.name} = {_pp_term(t.bound, _TERM)} in {_pp_term(t.body, _TERM)}"
        return f"({s})" if level > _TERM else s
    if isinstance(t, App):
        s = f"{_pp_term(t.fn, _APPFN)} {_pp_term(t.arg, _APPARG)}"
        return f"({s})" if level > _APPFN else s
    if isinstance(t, Select):
        return f"{_pp_term(t.target, _SELECT)}.{t.label}"
    if isinstance(t, RecordLit):
        inner = ", ".join(f"{l} = {_pp_term(v, _TERM)}" for l, v in t.fields)
        return "{" + inner + "}"
    if isinstance(t, (Modify, Extend, Remove)):  # the keyword is the class's name
        value = "" if isinstance(t, Remove) else f", {_pp_term(t.value, _TERM)}"
        return f"{t.__class__.__name__.lower()}({_pp_term(t.target, _TERM)}, {t.label}{value})"
    raise TypeError(f"pretty_term: not a term: {t!r}")


_MONO, _EXTHEAD = 0, 1


def pretty_type(t: MonoType, namer: Namer | None = None) -> str:
    return _pp_mono(t, _MONO, namer if namer is not None else Namer())


def _pp_mono(t: MonoType, level: int, namer: Namer) -> str:
    if isinstance(t, BaseType):
        return t.name
    if isinstance(t, TyVar):
        return f"'{namer.name(t)}"
    if isinstance(t, RecordType):
        inner = ", ".join(f"{l}: {_pp_mono(ft, _MONO, namer)}" for l, ft in t.fields)
        return "{" + inner + "}"
    if isinstance(t, Arrow):
        s = f"{_pp_mono(t.dom, _EXTHEAD, namer)} -> {_pp_mono(t.cod, _MONO, namer)}"
        return f"({s})" if level > _MONO else s
    if isinstance(t, (Ext, Contr)):
        parts = [_pp_mono(t.bottom, _EXTHEAD, namer)]
        for sign, label, fty in t.ops:
            op = "+" if sign == EXT else "-"
            parts.append(f"{op} {{{label}: {_pp_mono(fty, _MONO, namer)}}}")
        return " ".join(parts)
    raise TypeError(f"pretty_type: not a monotype: {t!r}")


def pretty_kind(k: Kind, namer: Namer | None = None) -> str:
    namer = namer if namer is not None else Namer()
    if isinstance(k, UKind):
        return "U"
    lefts = ", ".join(f"{l}: {_pp_mono(t, _MONO, namer)}" for l, t in k.lefts)
    rights = ", ".join(f"{l}: {_pp_mono(t, _MONO, namer)}" for l, t in k.rights)
    return f"<<{lefts} || {rights}>>"


def pretty_poly(p: PolyType, namer: Namer | None = None) -> str:
    namer = namer if namer is not None else Namer()
    parts = []
    for v, k in p.quants:
        parts.append(f"forall '{namer.name(v)} :: {pretty_kind(k, namer)}. ")
    return "".join(parts) + _pp_mono(p.body, _MONO, namer)


def pretty_kind_assignment(kenv: KindAssignment, namer: Namer | None = None) -> str:
    namer = namer if namer is not None else Namer()
    return "\n".join(f"'{namer.name(v)} :: {pretty_kind(k, namer)}" for v, k in kenv.items())


def pretty_subst(s: Substitution, namer: Namer | None = None) -> str:
    namer = namer if namer is not None else Namer()
    items = sorted(s.items(), key=lambda kv: kv[0].uid)
    return "\n".join(f"'{namer.name(v)} := {_pp_mono(t, _MONO, namer)}" for v, t in items)


def pretty(x, namer: Namer | None = None) -> str:
    """Print any syntax value by its shape."""
    if isinstance(x, (Var, Const, Abs, App, Let, RecordLit, Select, Modify, Remove, Extend)):
        return pretty_term(x)
    if isinstance(x, PolyType):
        return pretty_poly(x, namer)
    if isinstance(x, (UKind, RecordKind)):
        return pretty_kind(x, namer)
    if isinstance(x, dict):
        if x and not isinstance(next(iter(x.values())), (UKind, RecordKind)):
            return pretty_subst(x, namer)
        return pretty_kind_assignment(x, namer)
    return _pp_mono(x, _MONO, namer if namer is not None else Namer())
