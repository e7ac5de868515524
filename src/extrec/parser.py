"""Concrete syntax for terms, types, kinds, and environment files.

Grammar (terms):

    term    := "\\" ident "." term | "let" ident "=" term "in" term | appterm
    appterm := postfix { postfix }
    postfix := atom { "." label }
    atom    := ident | int | "true" | "false" | string
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

Environment files hold one declaration per line: `'a :: KIND` for kinds,
`x : POLYTYPE` for term variables; `#` starts a comment.  A name is
declared at most once.

Every entry point reads its text one way.  `_tokenize` makes one pass to
a flat token table, parallel lists of kind, text, start and end (a
punctuation token's kind is its text), and the descent reads it through
local variables.  Line and column are worked out only for a span that a
term keeps or a `ParseError` reports, from line starts found on the
first span past the text's first line.

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
    BASE_TYPES,
    BaseType,
    Const,
    Contr,
    EXT,
    Ext,
    Extend,
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
    UKind,
    Var,
)

TERM_KEYWORDS = {"let", "in", "modify", "extend", "remove", "true", "false"}
_new_span = tuple.__new__  # a SourceSpan without the Python frame of its __new__


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


class VarEnv:
    """Maps source-level type-variable names to TyVars within one session."""

    def __init__(self, start_uid: int = 1):
        self._counter = itertools.count(start_uid)
        self._max_used = start_uid - 1
        self.names: dict[str, TyVar] = {}

    def fresh(self, name: str) -> TyVar:
        uid = next(self._counter)
        self._max_used = max(self._max_used, uid)
        return TyVar(uid, name)

    def lookup(self, name: str) -> TyVar:
        if name not in self.names:
            self.names[name] = self.fresh(name)
        return self.names[name]

    def next_free_uid(self) -> int:
        return self._max_used + 1


# Layout and comments, then one token.  `\w` is `str.isalnum` or "_".  A
# word led by an ASCII letter or "_", or of ASCII digits only, has a group
# of its own; `_tokenize` splits any other word as `str.isdigit` and
# `str.isalpha` tell.  A string literal is matched whole, or as a lone
# quote when it is not well formed.  Every part is optional, so a match
# that captures no token ends at the end of the text or at an unexpected
# character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"(?:(->|::|<<|>>|\|\||[\\.,={}()+\-:])"  # 1: punctuation
    r"|([A-Za-z_]\w*)"  # 2: identifier
    r"|([0-9]+)(?!\w)"  # 3: integer
    r"|('\w*)"  # 4: type variable
    r'|("[^"\\]*(?:\\.[^"\\]*)*"|")'  # 5: string
    r"|(\w+))?"  # 6: any other word
)
_PUNCT, _IDENT, _INT, _TYVAR, _STRING = 1, 2, 3, 4, 5
_KINDS = {_IDENT: "ident", _INT: "int"}
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _tokenize(text: str, span_at) -> tuple[list[str], list[str], list[int], list[int]]:
    """The token table of text: kinds (ident / int / string / tyvar / eof,
    or the punctuation itself), texts, starts and ends, as positions in
    text.  `span_at(start, end)` makes the span a lexical error reports."""
    kinds, texts, starts, ends = [], [], [], []
    kind, word, start, end = kinds.append, texts.append, starts.append, ends.append
    n = len(text)
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            i = m.end()
            if i < n:
                raise ParseError(f"unexpected character {text[i]!r}", span_at(i, i + 1))
            break
        i, j = m.span(group)
        s = text[i:j]
        if group == _PUNCT:
            kind(s)
        elif group == _IDENT or group == _INT:
            kind(_KINDS[group])
        elif group == _TYVAR:
            if j == i + 1:
                raise ParseError("lone apostrophe", span_at(i, j))
            kind("tyvar")
            s = s[1:]
        elif group == _STRING:
            if j == i + 1 or "\\" in s:
                j, s = _string_literal(text, i, span_at)
            else:
                s = s[1:-1]
            kind("string")
        else:
            # Any other word: an integer up to its last digit (such as '²3'),
            # then an identifier up to the word's end; a character that
            # starts neither, such as '½', is unexpected.
            k = i
            while k < j and text[k].isdigit():
                k += 1
            if k > i:
                kind("int")
                word(text[i:k])
                start(i)
                end(k)
                if k == j:
                    continue
                i, s = k, text[k:j]
            if not (s[0].isalpha() or s[0] == "_"):
                raise ParseError(f"unexpected character {s[0]!r}", span_at(i, i + 1))
            kind("ident")
        word(s)
        start(i)
        end(j)
    kind("eof")
    word("")
    start(n)
    end(n)
    return kinds, texts, starts, ends


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
        return self.span_at(self.starts[i], self.ends[i])

    def unexpected(self, i: int, expected: tuple[str, ...]) -> ParseError:
        """A string token is named by its source text, quotes included."""
        what = self.texts[i]
        if self.kinds[i] == "string":
            what = self.text[self.starts[i] : self.ends[i]]
        return ParseError(f"unexpected {what or 'end of input'!r}", self.span(i), expected)

    # -- token plumbing ----------------------------------------------------
    def punct(self, p: str):
        i = self.i
        if self.kinds[i] != p:
            raise self.unexpected(i, (p,))
        self.i = i + 1

    def ident(self) -> str:
        i = self.i
        if self.kinds[i] != "ident":
            raise self.unexpected(i, ("identifier",))
        self.i = i + 1
        return self.texts[i]

    def label(self) -> str:
        s = self.ident()
        if s in TERM_KEYWORDS:
            raise ParseError(f"keyword {s!r} cannot be a label", self.span(self.i - 1))
        return s

    def expect_eof(self):
        i = self.i
        if self.kinds[i] != "eof":
            raise ParseError(f"trailing input {self.texts[i]!r}", self.span(i), ("end of input",))

    # -- terms -------------------------------------------------------------
    def term(self) -> Term:
        kinds, texts = self.kinds, self.texts
        i = self.i
        k = kinds[i]
        if k == "\\" or k == "ident" and texts[i] == "let":
            span = self.span(i)
            self.i = i + 1
            name = self.ident()
            if k == "\\":
                self.punct(".")
                return Abs(name, self.term(), span=span)
            self.punct("=")
            bound = self.term()
            i = self.i
            if kinds[i] != "ident" or texts[i] != "in":
                raise ParseError("expected 'in'", self.span(i), ("in",))
            self.i = i + 1
            return Let(name, bound, self.term(), span=span)
        fn = None
        while True:  # postfix terms, applied left to right
            s = texts[i]
            if k == "ident":
                if s not in TERM_KEYWORDS:
                    self.i = i + 1
                    t = Var(s, span=self.span(i))
                elif s in ("modify", "extend", "remove"):
                    t = self._record_op()
                elif s in ("true", "false"):
                    self.i = i + 1
                    t = Const(s == "true", "Bool", span=self.span(i))
                else:
                    raise ParseError(f"unexpected keyword {s!r}", self.span(i))
            elif k == "(":
                self.i = i + 1
                t = self.term()
                self.punct(")")
            elif k == "{":
                span = self.span(i)
                self.i = i + 1
                try:
                    t = RecordLit(self._fields("=", self.term, "}"), span=span)
                except ValueError as e:
                    raise ParseError(str(e), span) from None
            elif k == "int":
                if not s.isdecimal():
                    # str.isdigit, which the tokenizer follows, also takes '²'
                    raise ParseError(f"not a decimal integer {s!r}", self.span(i))
                self.i = i + 1
                t = Const(int(s), "Int", span=self.span(i))
            elif k == "string":
                self.i = i + 1
                t = Const(s, "String", span=self.span(i))
            else:
                raise self.unexpected(i, ("term",))
            while kinds[self.i] == ".":
                self.i += 1
                t = Select(t, self.label(), span=t.span)
            fn = t if fn is None else App(fn, t, span=fn.span)
            i = self.i
            k = kinds[i]
            if not (k == "ident" and texts[i] != "in" or k in ("(", "{", "int", "string")):
                return fn

    def _record_op(self) -> Term:
        i = self.i
        op, span = self.texts[i], self.span(i)
        self.i = i + 1
        self.punct("(")
        target = self.term()
        self.punct(",")
        label = self.label()
        if op == "remove":
            self.punct(")")
            return Remove(target, label, span=span)
        self.punct(",")
        value = self.term()
        self.punct(")")
        return (Modify if op == "modify" else Extend)(target, label, value, span=span)

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
            label = self.label()
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
            s = self.texts[i]
            if s not in BASE_TYPES:
                raise ParseError(f"unknown type name {s!r}", self.span(i))
            self.i = i + 1
            return BaseType(s)
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
            return UKind()
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
                label = self.label()
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
    comment; its spans are positions in text."""
    offset = 0
    for number, line in enumerate(text.splitlines(keepends=True), 1):
        code = line.split("#", 1)[0]
        stripped = code.strip()
        if stripped:
            lead = len(code) - len(code.lstrip())
            yield _Parser(stripped, env, (offset + lead, number, lead + 1))
        offset += len(line)


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
            name = p.ident()
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
    if isinstance(t, Modify):
        return f"modify({_pp_term(t.target, _TERM)}, {t.label}, {_pp_term(t.value, _TERM)})"
    if isinstance(t, Extend):
        return f"extend({_pp_term(t.target, _TERM)}, {t.label}, {_pp_term(t.value, _TERM)})"
    if isinstance(t, Remove):
        return f"remove({_pp_term(t.target, _TERM)}, {t.label})"
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
