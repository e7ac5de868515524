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
`x : POLYTYPE` for term variables, x a var; `#` starts a comment.  A
name is declared at most once.

Every entry point reads its text one way.  `_tokenize` splits it at one
regex and makes a flat token table, parallel lists of kind, text, start
and end (a punctuation token's kind is its text), read off the pieces.
The descent reads the table through local variables.  Line and column
are worked out only for a span that a term keeps or a `ParseError`
reports; on the text's first line they cost one addition, and past it
they come from line starts found on the first such span.  The descent is
a trusted builder of term nodes: it writes each node's slots past
`Frozen.__init__`, all but a `Const`'s and a `RecordLit`'s, whose
constructors check their fields.

Pretty-printing round-trips: parse(pretty(v)) is structurally equal to v
(alpha-invariant for polytypes).
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from typing import NamedTuple

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
_new_span = tuple.__new__  # a SourceSpan without the Python frame of its __new__
_new, _set = object.__new__, object.__setattr__  # a trusted term node, slot by slot
_RECORD_OPS = {"modify": Modify, "extend": Extend, "remove": Remove}


class SourceSpan(NamedTuple):
    start: int  # <= end
    end: int
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = expected
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{span}: {message}{detail}")


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


# One group for every token and comment.  `\w` is `str.isalnum` or "_".
# Identifiers are led by an ASCII letter or "_", and integers are ASCII
# digits that end a word.  A string or a comment is matched whole, so the
# split stays aligned past it.  The lookahead lets the split skip layout.
_TOKEN_RE = re.compile(
    r"(?=[^ \t\r\n])(->|::|<<|>>|\|\||[\\.,={}()+\-:]|[A-Za-z_]\w*|[0-9]+(?!\w)|'\w+"
    r'|"[^"\\]*(?:\\.[^"\\]*)*"|#[^\n]*)'
)
_PUNCTS = frozenset(("->", "::", "<<", ">>", "||", *"\\.,={}()+-:"))
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _tokenize(text: str, span_at) -> tuple[list[str], list[str], list[int], list[int]]:
    """The token table of text: kinds (ident / int / string / tyvar / eof,
    or the punctuation itself), texts, starts and ends, as positions in
    text.  `span_at(start, end)` makes the span a lexical error reports.

    The text is split at _TOKEN_RE in one call.  A gap between two tokens
    is layout, or else another word, a lone quote or a bad character.  If
    there is no comment and no gap but layout, each token's kind follows
    from its first character.  Otherwise one pass reads the same pieces in
    text order: it drops comments, and reads a gap's words or raises its
    first error.  A word, which runs on into a token (`12ab` splits into
    `12` and `ab`), is an integer up to its last `str.isdigit` character,
    then an identifier led by a letter or "_"."""
    pieces = _TOKEN_RE.split(text)  # gap, token, gap, ..., token, gap
    bounds = list(itertools.accumulate(map(len, pieces)))  # each piece's end
    if "#" not in text and not "".join(pieces[::2]).strip(" \t\r\n"):
        texts = pieces[1::2]
        kinds = [
            s if s in _PUNCTS else "ident" if (c := s[0]) > "9" else "int" if c >= "0"
            else "tyvar" if c == "'" else "string"
            for s in texts
        ]
        starts, ends = bounds[::2], bounds[1::2]  # the last start is eof's
        if "'" in text or '"' in text:  # a type variable drops its quote, a string both
            texts = [
                s[1:] if k == "tyvar" else s if k != "string"
                else _string_literal(text, i, span_at)[1] if "\\" in s else s[1:-1]
                for k, s, i in zip(kinds, texts, starts)
            ]
        kinds.append("eof")
        texts.append("")
        ends.append(len(text))
        return kinds, texts, starts, ends
    rows = []  # (kind, text, start, end)
    read, n = 0, len(text)  # read: where the last word in a gap ended
    for p, s in enumerate(pieces):
        j = bounds[p]
        if j <= read:  # empty, or a token that a word ran on into
            continue
        i = j - len(s)
        if p % 2 == 0:  # a gap
            while i < j:
                c = text[i]
                e = i
                while e < n and (text[e].isalnum() or text[e] == "_"):
                    e += 1
                if e == i:
                    if c in " \t\r\n":
                        i += 1
                        continue
                    if c == '"':  # no whole string starts here, so this raises
                        _string_literal(text, i, span_at)
                    what = "lone apostrophe" if c == "'" else f"unexpected character {c!r}"
                    raise ParseError(what, span_at(i, i + 1))
                d = i
                while d < e and text[d].isdigit():
                    d += 1
                if d > i:
                    rows.append(("int", text[i:d], i, d))
                if d < e:
                    if not (text[d].isalpha() or text[d] == "_"):
                        raise ParseError(f"unexpected character {text[d]!r}", span_at(d, d + 1))
                    rows.append(("ident", text[d:e], d, e))
                i = read = e
        elif (c := s[0]) == '"':
            value = _string_literal(text, i, span_at)[1] if "\\" in s else s[1:-1]
            rows.append(("string", value, i, j))
        elif c == "'":
            rows.append(("tyvar", s[1:], i, j))
        elif c != "#":  # a comment is dropped
            rows.append((s if s in _PUNCTS else "ident" if c > "9" else "int", s, i, j))
    rows.append(("eof", "", n, n))
    return tuple(map(list, zip(*rows)))


def _string_literal(text: str, i: int, span_at) -> tuple[int, str]:
    """The end and the value of the string literal whose quote is at i."""
    n = len(text)
    j = i + 1
    buf = []
    while j < n and text[j] != '"':
        if text[j] == "\\":
            if j + 1 >= n:
                raise ParseError("unterminated escape", span_at(i, j))
            esc = _ESCAPES.get(text[j + 1])
            if esc is None:
                raise ParseError(f"bad escape \\{text[j + 1]}", span_at(j, j + 2))
            buf.append(esc)
            j += 2
        else:
            buf.append(text[j])
            j += 1
    if j >= n:
        raise ParseError("unterminated string", span_at(i, n))
    return j + 1, "".join(buf)


class _Parser:
    """Recursive descent over the token table of one text, which starts
    at `offset`, `line` and `col` of its source; spans are positions in
    that source.  `i` is the next token."""

    def __init__(self, text: str, env: VarEnv | None, at: tuple[int, int, int] = (0, 1, 1)):
        self.text = text
        self.offset, self.line, self.col = at
        nl = text.find("\n")
        self.eol = len(text) if nl < 0 else nl  # where the first line ends
        self.line_starts: list[int] | None = None
        self.kinds, self.texts, self.starts, self.ends = _tokenize(text, self.span_at)
        self.i = 0
        self.env = env

    # -- positions ---------------------------------------------------------
    def span_at(self, start: int, end: int) -> SourceSpan:
        if start <= self.eol:
            line, col = self.line, start + self.col
        else:
            if self.line_starts is None:
                # the first line starts col - 1 characters before text does
                self.line_starts = [1 - self.col] + [m.end() for m in re.finditer("\n", self.text)]
            ln = bisect_right(self.line_starts, start) - 1
            line, col = ln + self.line, start - self.line_starts[ln] + 1
        return _new_span(SourceSpan, (start + self.offset, end + self.offset, line, col))

    def span(self, i: int) -> SourceSpan:
        """Token i's span; one on the text's first line needs no line search."""
        start = self.starts[i]
        if start > self.eol:
            return self.span_at(start, self.ends[i])
        off = self.offset
        return _new_span(SourceSpan, (start + off, self.ends[i] + off, self.line, start + self.col))

    def unexpected(self, i: int, expected: tuple[str, ...]) -> ParseError:
        """A token is named by its source text."""
        what = self.text[self.starts[i] : self.ends[i]] or "end of input"
        return ParseError(f"unexpected {what!r}", self.span(i), expected)

    # -- token plumbing ----------------------------------------------------
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
        if self.kinds[i] != "ident":
            raise self.unexpected(i, ("identifier",))
        if s in TERM_KEYWORDS:
            raise ParseError(f"keyword {s!r} cannot be {role}", self.span(i))
        self.i = i + 1
        return s

    def expect_eof(self):
        i = self.i
        if self.kinds[i] != "eof":
            what = self.text[self.starts[i] : self.ends[i]]
            raise ParseError(f"trailing input {what!r}", self.span(i), ("end of input",))

    # -- terms (nodes built slot by slot: see the module docstring) ---------
    def term(self) -> Term:
        kinds, texts, span = self.kinds, self.texts, self.span
        i = self.i
        k = kinds[i]
        if k == "\\" or k == "ident" and texts[i] == "let":
            t = _new(Abs if k == "\\" else Let)
            _set(t, "span", span(i))
            self.i = i + 1
            name = self.name("a variable")
            if k == "\\":
                self.punct(".")
                _set(t, "param", name)
                _set(t, "body", self.term())
                return t
            self.punct("=")
            _set(t, "name", name)
            _set(t, "bound", self.term())
            i = self.i
            if kinds[i] != "ident" or texts[i] != "in":
                raise ParseError("expected 'in'", span(i), ("in",))
            self.i = i + 1
            _set(t, "body", self.term())
            return t
        fn = None
        while True:  # postfix terms, applied left to right
            s = texts[i]
            if k == "ident":
                if s not in TERM_KEYWORDS:
                    self.i = i + 1
                    t = _new(Var)
                    _set(t, "name", s)
                    _set(t, "span", span(i))
                elif s in _RECORD_OPS:
                    t = self._record_op()
                elif s in ("true", "false"):
                    self.i = i + 1
                    t = Const(s == "true", "Bool", span(i))
                else:
                    raise ParseError(f"unexpected keyword {s!r}", span(i))
            elif k == "(":
                self.i = i + 1
                t = self.term()
                self.punct(")")
            elif k == "{":
                at = span(i)
                self.i = i + 1
                try:
                    t = RecordLit(self._fields("=", self.term, "}"), at)
                except ValueError as e:
                    raise ParseError(str(e), at) from None
            elif k == "int":
                if not s.isdecimal():
                    # str.isdigit, which the tokenizer follows, also takes '²'
                    raise ParseError(f"not a decimal integer {s!r}", span(i))
                self.i = i + 1
                t = Const(int(s), "Int", span(i))
            elif k == "string":
                self.i = i + 1
                t = Const(s, "String", span(i))
            else:
                raise self.unexpected(i, ("term",))
            while kinds[self.i] == ".":
                self.i += 1
                sel = _new(Select)
                _set(sel, "target", t)
                _set(sel, "label", self.name("a label"))
                _set(sel, "span", t.span)
                t = sel
            if fn is None:
                fn = t
            else:
                app = _new(App)
                _set(app, "fn", fn)
                _set(app, "arg", t)
                _set(app, "span", fn.span)
                fn = app
            i = self.i
            k = kinds[i]
            if not (k == "ident" and texts[i] != "in" or k in ("(", "{", "int", "string")):
                return fn

    def _record_op(self) -> Term:
        i = self.i
        op = self.texts[i]
        t = _new(_RECORD_OPS[op])
        _set(t, "span", self.span(i))
        self.i = i + 1
        self.punct("(")
        _set(t, "target", self.term())
        self.punct(",")
        _set(t, "label", self.name("a label"))
        if op != "remove":
            self.punct(",")
            _set(t, "value", self.term())
        self.punct(")")
        return t

    # -- types -------------------------------------------------------------
    def polytype(self) -> PolyType:
        kinds, texts, env = self.kinds, self.texts, self.env
        quants = []
        shadowed: list[tuple[str, TyVar | None]] = []
        while kinds[self.i] == "ident" and texts[self.i] == "forall":
            i = self.i + 1
            if kinds[i] != "tyvar":
                raise ParseError("expected type variable", self.span(i), ("'a",))
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
                raise ParseError(what, self.span(at)) from None
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
                raise ParseError(f"unknown type name {self.texts[i]!r}", self.span(i))
            self.i = i + 1
            return t
        if k == "{":
            self.i = i + 1
            try:
                return RecordType(self._fields(":", self.mono, "}"))
            except ValueError as e:
                raise ParseError(str(e), self.span(i)) from None
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
                raise ParseError(str(e), self.span(i)) from None
        raise self.unexpected(i, ("U", "<<"))

    def _fields(self, sep: str, value, close: str) -> tuple:
        """[label sep value {"," label sep value}] close, for record
        literals, record types and each side of a kind."""
        kinds, fields = self.kinds, []
        if kinds[self.i] != close:
            while True:
                label = self.name("a label")
                self.punct(sep)
                fields.append((label, value()))
                if kinds[self.i] != ",":
                    break
                self.i += 1
        self.punct(close)
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
    """A parser for each line of text that holds more than layout and a
    comment; its spans are positions in text.  A line ends at "\\n" only,
    as in a term, and only the tokenizer's layout is stripped from it."""
    offset = 0
    for number, line in enumerate(text.split("\n"), 1):
        code = line.split("#", 1)[0]
        stripped = code.strip(" \t\r")
        if stripped:
            lead = len(code) - len(code.lstrip(" \t\r"))
            yield _Parser(stripped, env, (offset + lead, number, lead + 1))
        offset += len(line) + 1


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
                raise ParseError(f"second declaration of '{p.texts[0]}", p.span(0))
            kenv[v] = kind
        else:
            name = p.name("a variable")
            p.punct(":")
            sigma = p.polytype()
            p.expect_eof()
            if name in tenv:
                raise ParseError(f"second declaration of {name}", p.span(0))
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
