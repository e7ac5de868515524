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


class Token(NamedTuple):
    kind: str  # ident / int / string / tyvar / punct / eof
    text: str
    span: SourceSpan


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


# Layout and comments, then one token.  `\w` is `str.isalnum` or "_", the
# characters that continue an identifier, an integer or a type variable;
# `_tokenize` tells a word by its first character.  Every part is optional,
# so a match that captures no token ends at the end of the text or at an
# unexpected character.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:('\w*)"  # 1: type variable
    r"|(\w+)"  # 2: identifier or integer
    r'|(")'  # 3: string
    r"|(->|::|<<|>>|\|\||[\\.,={}()+\-:]))?"  # 4: punctuation
)
_TYVAR, _WORD, _STRING, _PUNCT = 1, 2, 3, 4
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _tokenize(text: str, offset: int = 0, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of text, which starts at `offset`, `line` and `col` of
    its source; spans are positions in that source."""
    toks: list[Token] = []
    # the first line starts col - 1 characters before text does
    line_starts = [1 - col] + [m.end() for m in re.finditer("\n", text)]

    def span_at(start, end):
        ln = bisect_right(line_starts, start) - 1
        return SourceSpan(start + offset, end + offset, ln + line, start - line_starts[ln] + 1)

    n = len(text)
    match = _TOKEN_RE.match
    m = match(text, 0)
    while (group := m.lastindex) is not None:
        i, j = m.span(group)
        if group == _PUNCT:
            toks.append(Token("punct", text[i:j], span_at(i, j)))
        elif group == _WORD:
            c = text[i]
            if c.isalpha() or c == "_":
                toks.append(Token("ident", text[i:j], span_at(i, j)))
            elif c.isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(Token("int", text[i:j], span_at(i, j)))
            else:
                break  # a numeric character that is not a digit, such as '½'
        elif group == _TYVAR:
            if j == i + 1:
                raise ParseError("lone apostrophe", span_at(i, i + 1))
            toks.append(Token("tyvar", text[i + 1 : j], span_at(i, j)))
        else:
            j, value = _string_literal(text, i, span_at)
            toks.append(Token("string", value, span_at(i, j)))
        m = match(text, j)
    i = m.end() if m.lastindex is None else m.start(m.lastindex)
    if i < n:
        raise ParseError(f"unexpected character {text[i]!r}", span_at(i, i + 1))
    toks.append(Token("eof", "", span_at(n, n)))
    return toks


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
    def __init__(self, text: str, env: VarEnv, at: tuple[int, int, int] = (0, 1, 1)):
        self.toks = _tokenize(text, *at)
        self.i = 0
        self.env = env

    # -- token plumbing ----------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_ident(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == text

    def eat_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise ParseError(
                f"unexpected {self.peek().text or 'end of input'!r}",
                self.peek().span,
                expected=(text,),
            )
        return self.advance()

    def eat_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(
                f"unexpected {t.text or 'end of input'!r}", t.span, expected=("identifier",)
            )
        return self.advance()

    def eat_label(self) -> str:
        t = self.eat_ident()
        if t.text in TERM_KEYWORDS:
            raise ParseError(f"keyword {t.text!r} cannot be a label", t.span)
        return t.text

    def expect_eof(self):
        if self.peek().kind != "eof":
            raise ParseError(
                f"trailing input {self.peek().text!r}", self.peek().span, expected=("end of input",)
            )

    # -- terms -------------------------------------------------------------
    def term(self) -> Term:
        t = self.peek()
        if self.at_punct("\\"):
            start = self.advance().span
            param = self.eat_ident()
            self.eat_punct(".")
            body = self.term()
            return Abs(param.text, body, span=start)
        if self.at_ident("let"):
            start = self.advance().span
            name = self.eat_ident()
            self.eat_punct("=")
            bound = self.term()
            if not self.at_ident("in"):
                raise ParseError("expected 'in'", self.peek().span, expected=("in",))
            self.advance()
            body = self.term()
            return Let(name.text, bound, body, span=start)
        return self.appterm()

    def appterm(self) -> Term:
        t = self.postfix()
        while self._starts_atom():
            arg = self.postfix()
            t = App(t, arg, span=_span_of(t))
        return t

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("int", "string"):
            return True
        if tok.kind == "ident":
            return tok.text not in ("in",)
        return tok.kind == "punct" and tok.text in ("{", "(")

    def postfix(self) -> Term:
        t = self.atom()
        while self.at_punct("."):
            self.advance()
            label = self.eat_label()
            t = Select(t, label, span=_span_of(t))
        return t

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            if not tok.text.isdecimal():
                # str.isdigit, which the tokenizer follows, also takes '²'
                raise ParseError(f"not a decimal integer {tok.text!r}", tok.span)
            self.advance()
            return Const(int(tok.text), "Int", span=tok.span)
        if tok.kind == "string":
            self.advance()
            return Const(tok.text, "String", span=tok.span)
        if tok.kind == "ident":
            if tok.text in ("true", "false"):
                self.advance()
                return Const(tok.text == "true", "Bool", span=tok.span)
            if tok.text in ("modify", "extend", "remove"):
                return self._record_op()
            if tok.text in TERM_KEYWORDS - {"modify", "extend", "remove"}:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.span)
            self.advance()
            return Var(tok.text, span=tok.span)
        if self.at_punct("{"):
            start = self.advance().span
            fields = self._fields("=", self.term, "}")
            try:
                return RecordLit(tuple(fields), span=start)
            except ValueError as e:
                raise ParseError(str(e), start) from None
        if self.at_punct("("):
            self.advance()
            t = self.term()
            self.eat_punct(")")
            return t
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.span, expected=("term",)
        )

    def _record_op(self) -> Term:
        op = self.advance()
        self.eat_punct("(")
        target = self.term()
        self.eat_punct(",")
        label = self.eat_label()
        if op.text == "remove":
            self.eat_punct(")")
            return Remove(target, label, span=op.span)
        self.eat_punct(",")
        value = self.term()
        self.eat_punct(")")
        cls = Modify if op.text == "modify" else Extend
        return cls(target, label, value, span=op.span)

    # -- types -------------------------------------------------------------
    def polytype(self) -> PolyType:
        quants = []
        shadowed: list[tuple[str, TyVar | None]] = []
        while self.at_ident("forall"):
            self.advance()
            tok = self.peek()
            if tok.kind != "tyvar":
                raise ParseError("expected type variable", tok.span, expected=("'a",))
            self.advance()
            self.eat_punct("::")
            kind = self.kind()  # binder not in scope in its own kind
            self.eat_punct(".")
            shadowed.append((tok.text, self.env.names.get(tok.text)))
            binder = self.env.fresh(tok.text)
            self.env.names[tok.text] = binder
            quants.append((binder, kind))
        body = self.mono()
        for name, prev in reversed(shadowed):
            if prev is None:
                self.env.names.pop(name, None)
            else:
                self.env.names[name] = prev
        return PolyType(tuple(quants), body)

    def mono(self) -> MonoType:
        left = self.extty()
        if self.at_punct("->"):
            self.advance()
            return Arrow(left, self.mono())
        return left

    def extty(self) -> MonoType:
        t = self.atomty()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance()
            self.eat_punct("{")
            label = self.eat_label()
            self.eat_punct(":")
            fty = self.mono()
            self.eat_punct("}")
            cls = Ext if op.text == "+" else Contr
            try:
                t = cls(t, label, fty)
            except ValueError:
                raise ParseError(
                    f"{op.text!r} needs an extensible head (a variable, record, or chain)",
                    op.span,
                ) from None
        return t

    def atomty(self) -> MonoType:
        tok = self.peek()
        if tok.kind == "tyvar":
            self.advance()
            return self.env.lookup(tok.text)
        if tok.kind == "ident":
            if tok.text in BASE_TYPES:
                self.advance()
                return BaseType(tok.text)
            raise ParseError(f"unknown type name {tok.text!r}", tok.span)
        if self.at_punct("{"):
            start = self.advance().span
            fields = self._fields(":", self.mono, "}")
            try:
                return RecordType(tuple(fields))
            except ValueError as e:
                raise ParseError(str(e), start) from None
        if self.at_punct("("):
            self.advance()
            t = self.mono()
            self.eat_punct(")")
            return t
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.span, expected=("type",)
        )

    def kind(self) -> Kind:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "U":
            self.advance()
            return UKind()
        if self.at_punct("<<"):
            start = self.advance().span
            lefts = self._fields(":", self.mono, "||")
            rights = self._fields(":", self.mono, ">>")
            try:
                return RecordKind(tuple(lefts), tuple(rights))
            except ValueError as e:
                raise ParseError(str(e), start) from None
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.span, expected=("U", "<<")
        )

    def _fields(self, sep: str, value, close: str) -> list:
        """[label sep value {"," label sep value}] close, for record
        literals, record types and each side of a kind."""
        fields = []
        if not self.at_punct(close):
            while True:
                label = self.eat_label()
                self.eat_punct(sep)
                fields.append((label, value()))
                if not self.at_punct(","):
                    break
                self.advance()
        self.eat_punct(close)
        return fields


def _span_of(t: Term):
    return getattr(t, "span", None)


# ---------------------------------------------------------------------------
# Entry points


def parse_term(text: str) -> Term:
    p = _Parser(text, VarEnv())
    t = p.term()
    p.expect_eof()
    return t


def parse_type(text: str, env: VarEnv | None = None) -> PolyType:
    p = _Parser(text, env if env is not None else VarEnv())
    t = p.polytype()
    p.expect_eof()
    return t


def parse_mono(text: str, env: VarEnv | None = None) -> MonoType:
    p = _Parser(text, env if env is not None else VarEnv())
    t = p.mono()
    p.expect_eof()
    return t


def parse_kind(text: str, env: VarEnv | None = None) -> Kind:
    p = _Parser(text, env if env is not None else VarEnv())
    k = p.kind()
    p.expect_eof()
    return k


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
        tok = p.peek()
        if tok.kind == "tyvar":
            p.advance()
            p.eat_punct("::")
            kind = p.kind()
            p.expect_eof()
            v = env.lookup(tok.text)
            if v in kenv:
                raise ParseError(f"second declaration of '{tok.text}", tok.span)
            kenv[v] = kind
        else:
            name = p.eat_ident()
            p.eat_punct(":")
            sigma = p.polytype()
            p.expect_eof()
            if name.text in tenv:
                raise ParseError(f"second declaration of {name.text}", name.span)
            tenv[name.text] = sigma
    return kenv, tenv, env


def parse_equations(text: str, env: VarEnv | None = None):
    """Lines of `TYPE = TYPE`, sharing one variable namespace."""
    env = env if env is not None else VarEnv()
    eqs = []
    for p in _line_parsers(text, env):
        lhs = p.mono()
        p.eat_punct("=")
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
