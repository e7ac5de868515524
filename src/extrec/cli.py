"""Command-line front end.

Exit status: 0 on success, 1 on an analysis failure (type error,
unification failure, runtime error), 2 on usage or syntax errors.
Fresh type variables are renamed to a stable 'a, 'b, ... sequence on
output, so results are deterministic.
"""

from __future__ import annotations

import json
import sys

import click

from .checker import check
from .infer import FreshSupply, InferFailure, infer
from .interp import EvalError, eval_term, show_value
from .kinding import wf_kind_assignment, wf_type_assignment
from .normalize import equiv, normalize
from .parser import (
    Namer,
    ParseError,
    VarEnv,
    parse_env_file,
    parse_equations,
    parse_mono,
    parse_term,
    parse_type,
    pretty_kind,
    pretty_kind_assignment,
    pretty_poly,
    pretty_subst,
    pretty_term,
    pretty_type,
)
from .subst import apply_assignment, closure
from .syntax import ftv
from .unify import UnificationError, unify

USAGE_ERROR = 2
ANALYSIS_ERROR = 1


def _die_usage(message: str):
    click.echo(message, err=True)
    sys.exit(USAGE_ERROR)


def _die_analysis(message: str):
    click.echo(message, err=True)
    sys.exit(ANALYSIS_ERROR)


def _read_source(file, expr, what="term"):
    if (file is None) == (expr is None):
        _die_usage(f"provide exactly one {what}: a FILE argument or -e/--expr")
    return expr if expr is not None else _read_file(file)


def _read_file(path):
    """A file's text; a file that cannot be read as UTF-8 is a usage error."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as e:
        _die_usage(str(e))
    except UnicodeDecodeError as e:
        _die_usage(f"{path}: not valid UTF-8: {e.reason} at byte {e.start}")


def _parse(parser, *args, where=""):
    """Run a parser; a syntax error is a usage error."""
    try:
        return parser(*args)
    except ParseError as e:
        _die_usage(f"{where}{e}")


class _Cli(click.Group):
    """Input nested too deeply for any stage's recursion (parser, inference,
    evaluation, printing) is a usage error, whichever command meets it."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RecursionError:
            _die_usage("input is nested too deeply")


def _load_env(env_path):
    venv = VarEnv()
    if env_path is None:
        return {}, {}, venv
    text = _read_file(env_path)
    kenv, tenv, venv = _parse(parse_env_file, text, venv, where=f"{env_path}: ")
    if not wf_kind_assignment(kenv):
        _die_analysis("environment kind assignment is not well formed")
    if not wf_type_assignment(kenv, tenv):
        _die_analysis("environment types mention unkinded variables")
    return kenv, tenv, venv


def _env_namer(kenv) -> Namer:
    """A namer that has named the environment's variables first, so that
    they keep their source names and no fresh variable takes one."""
    namer = Namer()
    for v in kenv:
        namer.name(v)
    return namer


@click.group(cls=_Cli)
def main():
    """Extensible-record calculus: parse, infer, check, unify, normalize, eval."""


@main.command("parse")
@click.argument("file", required=False)
@click.option("-e", "--expr", default=None, help="term given inline")
def parse_cmd(file, expr):
    """Parse a term and echo it in canonical concrete syntax."""
    term = _parse(parse_term, _read_source(file, expr))
    click.echo(pretty_term(term))


@main.command("normalize")
@click.option("-t", "--type", "type_text", required=True, help="monotype to normalize")
def normalize_cmd(type_text):
    """Reduce a type to canonical form."""
    t = _parse(parse_mono, type_text)
    click.echo(pretty_type(normalize(t)))


@main.command("infer")
@click.argument("file", required=False)
@click.option("-e", "--expr", default=None, help="term given inline")
@click.option("--env", "env_path", default=None, help="environment file")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def infer_cmd(file, expr, env_path, as_json):
    """Infer the principal type of a term."""
    kenv, tenv, venv = _load_env(env_path)
    term = _parse(parse_term, _read_source(file, expr))
    res = infer(kenv, tenv, term, FreshSupply(venv.next_free_uid()))
    if isinstance(res, InferFailure):
        where = f" at {res.span}" if res.span else ""
        _die_analysis(f"type error{where}: {res.message} [{res.rule}/{res.reason}]")
    resid, principal = closure(res.kenv, apply_assignment(res.subst, tenv), res.type)
    namer = _env_namer(kenv)
    if as_json:
        payload = {
            "kind_assignment": {
                f"'{namer.name(v)}": pretty_kind(k, namer) for v, k in res.kenv.items()
            },
            "substitution": {
                f"'{namer.name(v)}": pretty_type(t, namer)
                for v, t in sorted(res.subst.items(), key=lambda kv: kv[0].uid)
            },
            "type": pretty_type(res.type, namer),
            "poly_type": pretty_poly(principal, namer),
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        # Typing may strengthen or add kinds beyond the environment's; those
        # entries are printed first, in env-file syntax, so that the type's
        # free variables are all accounted for.
        for v, k in resid.items():
            if v not in kenv or not equiv(k, kenv[v]):
                click.echo(f"'{namer.name(v)} :: {pretty_kind(k, namer)}")
        click.echo(pretty_poly(principal, namer))


@main.command("check")
@click.option("-e", "--expr", required=True, help="term to check")
@click.option("-t", "--type", "type_text", required=True, help="claimed polytype")
@click.option("--env", "env_path", default=None, help="environment file")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def check_cmd(expr, type_text, env_path, as_json):
    """Check a claimed typing against the inferred principal type."""
    kenv, tenv, venv = _load_env(env_path)
    term = _parse(parse_term, expr)
    sigma = _parse(parse_type, type_text, venv)
    for v in ftv(sigma):
        if v not in kenv:
            _die_analysis(f"claimed type mentions unkinded variable '{v.name or v.uid}")
    ok, reason = check(kenv, tenv, term, sigma)
    if as_json:
        click.echo(json.dumps({"ok": ok, "reason": reason}))
    else:
        click.echo("OK" if ok else f"FAIL: {reason}")
    if not ok:
        sys.exit(ANALYSIS_ERROR)


@main.command("unify")
@click.argument("file", required=False)
@click.option("-e", "--expr", default=None, help="equations given inline")
@click.option("--env", "env_path", default=None, help="kind assignment file")
def unify_cmd(file, expr, env_path):
    """Unify equations (`TYPE = TYPE`, one per line) under a kind assignment."""
    kenv, tenv, venv = _load_env(env_path)
    if tenv:
        _die_usage("unify takes a kind assignment; term variables are not used")
    eqs, venv = _parse(parse_equations, _read_source(file, expr, what="equation set"), venv)
    for a, b in eqs:
        for v in ftv(a) | ftv(b):
            if v not in kenv:
                _die_analysis(f"equation variable '{v.name or v.uid} has no kind")
    try:
        resid, subst = unify(kenv, eqs, fresh=FreshSupply(venv.next_free_uid()).fresh)
    except UnificationError as e:
        click.echo(f"FAIL: {e}")
        sys.exit(ANALYSIS_ERROR)
    namer = _env_namer(kenv)
    kind_text = pretty_kind_assignment(resid, namer)
    subst_text = pretty_subst(subst, namer)
    if kind_text:
        click.echo(kind_text)
    click.echo("---")
    if subst_text:
        click.echo(subst_text)


@main.command("eval")
@click.argument("file", required=False)
@click.option("-e", "--expr", default=None, help="term given inline")
def eval_cmd(file, expr):
    """Evaluate a closed term."""
    term = _parse(parse_term, _read_source(file, expr))
    try:
        value = eval_term(term)
    except EvalError as e:
        _die_analysis(f"runtime error: {e}")
    click.echo(show_value(value))


if __name__ == "__main__":
    main()
