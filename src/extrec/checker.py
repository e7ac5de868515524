"""Validator for derivation trees of the declarative type system, plus a
claim checker that reduces "does M have type sigma" to an instance test
against the inferred principal type.

The validator and the inference algorithm are independent code paths over
the same judgments, so each serves as an oracle for the other: `validate`
and its node rules call nothing in `infer` or `unify`.
"""

from __future__ import annotations

from dataclasses import dataclass

# Judgment, KindingClaim and subst_derivation are bound here for callers that
# name them as checker's: the acceptance suite and the benchmark's tracer.
from .derivation import Derivation, Judgment, KindingClaim, subst_derivation
from .infer import InferFailure, infer, supply_for
from .kinding import has_kind, wf_kind_assignment, wf_type_assignment
from .normalize import equiv, kind_equiv, normalize, poly_equiv
from .subst import apply_assignment, apply_kind, closure, generic_instance
from .syntax import (
    Abs,
    App,
    Arrow,
    BaseType,
    Const,
    Contr,
    Ext,
    Extend,
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
    Term,
    TypeAssignment,
    TyVar,
    Var,
    base_of,
    ftv,
    ftv_assignment,
    is_extensible,
    poly,
)


@dataclass(frozen=True)
class ValidationIssue:
    path: tuple[int, ...]
    reason: str

    def __str__(self):
        where = "/".join(map(str, self.path)) or "root"
        return f"at {where}: {self.reason}"


def kenv_equiv(k1: KindAssignment, k2: KindAssignment) -> bool:
    return k1.keys() == k2.keys() and all(kind_equiv(k1[v], k2[v]) for v in k1)


def tenv_equiv(g1: TypeAssignment, g2: TypeAssignment) -> bool:
    return g1.keys() == g2.keys() and all(poly_equiv(g1[x], g2[x]) for x in g1)


# ---------------------------------------------------------------------------
# Validation


def validate(d: Derivation) -> ValidationIssue | None:
    """Check every node of a derivation tree; None means the tree is valid."""
    return _validate(d, ())


def _validate(d: Derivation, path) -> ValidationIssue | None:
    for i, child in enumerate(d.children):
        issue = _validate(child, path + (i,))
        if issue is not None:
            return issue
    bad = _check_node(d)
    if bad is not None:
        return ValidationIssue(path, bad)
    return None


def _mono(d: Derivation) -> MonoType | None:
    return d.judgment.sigma.body if d.judgment.sigma.is_mono else None


def _same_context(d: Derivation, child: Derivation) -> str | None:
    if not kenv_equiv(d.judgment.kenv, child.judgment.kenv):
        return "child kind assignment differs"
    if not tenv_equiv(d.judgment.tenv, child.judgment.tenv):
        return "child type assignment differs"
    return None


def _check_node(d: Derivation) -> str | None:
    j = d.judgment
    kenv, tenv, term = j.kenv, j.tenv, j.term
    rule = d.rule
    arity = {"Var": 0, "Const": 0, "Abs": 1, "App": 2, "Let": 2, "Sel": 1,
             "Modif": 2, "Gen": 1, "Contr": 1, "Ext": 2}
    if rule != "Rec" and len(d.children) != arity[rule]:
        return f"{rule} expects {arity[rule]} premises"

    if rule == "Var":
        if not isinstance(term, Var):
            return "term is not a variable"
        t = _mono(d)
        if t is None:
            return "conclusion must be a monotype"
        if not wf_kind_assignment(kenv) or not wf_type_assignment(kenv, tenv):
            return "assignments not well formed"
        if term.name not in tenv:
            return f"unbound variable {term.name}"
        if not generic_instance(kenv, tenv[term.name], poly(t)):
            return "conclusion is not a generic instance of the assumption"
        return None

    if rule == "Const":
        if not isinstance(term, Const):
            return "term is not a constant"
        t = _mono(d)
        if t is None or not equiv(t, BaseType(term.base)):
            return "constant typed at the wrong base type"
        if not wf_type_assignment(kenv, tenv):
            return "type assignment not well formed"
        return None

    if rule == "Abs":
        if not isinstance(term, Abs):
            return "term is not an abstraction"
        (body,) = d.children
        if body.judgment.term != term.body:
            return "premise types the wrong term"
        if not kenv_equiv(kenv, body.judgment.kenv):
            return "child kind assignment differs"
        child_tenv = body.judgment.tenv
        if term.param not in child_tenv or not child_tenv[term.param].is_mono:
            return "binder missing or polymorphic in the premise"
        outer = {x: s for x, s in child_tenv.items() if x != term.param}
        expect = {x: s for x, s in tenv.items() if x != term.param}
        if not tenv_equiv(outer, expect):
            return "premise context differs outside the binder"
        t = _mono(d)
        body_t = _mono(body)
        if t is None or body_t is None:
            return "abstraction premises must be monotypes"
        if not equiv(t, Arrow(child_tenv[term.param].body, body_t)):
            return "conclusion is not the matching arrow type"
        return None

    if rule == "App":
        if not isinstance(term, App):
            return "term is not an application"
        fn, arg = d.children
        if fn.judgment.term != term.fn or arg.judgment.term != term.arg:
            return "premises type the wrong terms"
        for child in d.children:
            bad = _same_context(d, child)
            if bad:
                return bad
        t, tf, ta = _mono(d), _mono(fn), _mono(arg)
        if t is None or tf is None or ta is None:
            return "application premises must be monotypes"
        if not equiv(tf, Arrow(ta, t)):
            return "operator type does not match operand and result"
        return None

    if rule == "Let":
        if not isinstance(term, Let):
            return "term is not a let"
        bound, body = d.children
        if bound.judgment.term != term.bound or body.judgment.term != term.body:
            return "premises type the wrong terms"
        bad = _same_context(d, bound)
        if bad:
            return bad
        if not kenv_equiv(kenv, body.judgment.kenv):
            return "body kind assignment differs"
        binder = body.judgment.tenv.get(term.name)
        if binder is None or not poly_equiv(binder, bound.judgment.sigma):
            return "let binder is not typed at the bound term's type"
        outer = {x: s for x, s in body.judgment.tenv.items() if x != term.name}
        expect = {x: s for x, s in tenv.items() if x != term.name}
        if not tenv_equiv(outer, expect):
            return "body context differs outside the binder"
        t, tb = _mono(d), _mono(body)
        if t is None or tb is None or not equiv(t, tb):
            return "conclusion differs from the body's type"
        return None

    if rule == "Rec":
        if not isinstance(term, RecordLit):
            return "term is not a record literal"
        if len(d.children) != len(term.fields):
            return "one premise per field required"
        t = _mono(d)
        if t is None or not isinstance(nt := normalize(t), RecordType):
            return "conclusion is not a record type"
        got = nt.field_map()
        if set(got) != {l for l, _ in term.fields}:
            return "conclusion fields differ from the literal's labels"
        for child, (label, sub) in zip(d.children, term.fields):
            if child.judgment.term != sub:
                return f"premise for {label} types the wrong term"
            bad = _same_context(d, child)
            if bad:
                return bad
            ct = _mono(child)
            if ct is None or not equiv(ct, got[label]):
                return f"field {label} typed inconsistently"
        return None

    if rule in ("Sel", "Modif", "Contr", "Ext"):
        return _check_field_rule(d)

    if rule == "Gen":
        (child,) = d.children
        if child.judgment.term != term:
            return "premise types a different term"
        if not tenv_equiv(tenv, child.judgment.tenv):
            return "premise context differs"
        t = _mono(child)
        if t is None:
            return "generalization premise must be a monotype"
        try:
            resid, sigma = closure(child.judgment.kenv, child.judgment.tenv, t)
        except ValueError as e:
            return f"closure undefined: {e}"
        if not kenv_equiv(kenv, resid):
            return "conclusion kind assignment is not the closure residue"
        if not poly_equiv(j.sigma, sigma):
            return "conclusion is not the closure of the premise"
        return None

    return f"unknown rule {rule!r}"


def _check_field_rule(d: Derivation) -> str | None:
    j = d.judgment
    kenv, term, rule = j.kenv, j.term, d.rule
    claim = d.claim
    if claim is None:
        return f"{rule} requires a kinding side condition"
    shapes = {"Sel": Select, "Modif": Modify, "Contr": Remove, "Ext": Extend}
    if not isinstance(term, shapes[rule]):
        return f"term does not match rule {rule}"
    for child in d.children:
        bad = _same_context(d, child)
        if bad:
            return bad
    target = d.children[0]
    if target.judgment.term != term.target:
        return "first premise types the wrong term"
    t_target = _mono(target)
    t = _mono(d)
    if t_target is None or t is None:
        return "premises must be monotypes"
    if not equiv(claim.subject, t_target):
        return "side condition constrains a different type"
    if not isinstance(claim.kind, RecordKind):
        return "side condition kind must be a record kind"

    label = term.label
    if rule in ("Sel", "Modif", "Contr"):
        expected_shape = len(claim.kind.lefts) == 1 and not claim.kind.rights
        if not expected_shape or claim.kind.lefts[0][0] != label:
            return "side condition must require exactly the selected field"
        field_t = claim.kind.lefts[0][1]
    else:
        expected_shape = len(claim.kind.rights) == 1 and not claim.kind.lefts
        if not expected_shape or claim.kind.rights[0][0] != label:
            return "side condition must forbid exactly the added field"
        field_t = claim.kind.rights[0][1]

    if not has_kind(kenv, claim.subject, claim.kind):
        return "kinding side condition does not hold"

    if rule == "Sel":
        if not equiv(t, field_t):
            return "selection result differs from the field's type"
        return None

    if rule == "Modif":
        value = d.children[1]
        if value.judgment.term != term.value:
            return "second premise types the wrong term"
        tv = _mono(value)
        if tv is None or not equiv(tv, field_t):
            return "replacement value's type differs from the field's"
        if not equiv(t, t_target):
            return "modify must preserve the record's type"
        return None

    if rule == "Contr":
        if not is_extensible(claim.subject):
            return "contraction of a non-extensible type"
        if not equiv(t, Contr(claim.subject, label, field_t)):
            return "conclusion is not the contracted type"
        return None

    # Ext
    value = d.children[1]
    if value.judgment.term != term.value:
        return "second premise types the wrong term"
    tv = _mono(value)
    if tv is None or not equiv(tv, field_t):
        return "added value's type differs from the field's"
    if not is_extensible(claim.subject):
        return "extension of a non-extensible type"
    base = base_of(normalize(claim.subject))
    if isinstance(base, TyVar) and base in ftv(normalize(tv)):
        return "extended record's base occurs in the added value's type"
    if not equiv(t, Ext(claim.subject, label, field_t)):
        return "conclusion is not the extended type"
    return None


# ---------------------------------------------------------------------------
# Claim checking against the principal type


def check(
    kenv: KindAssignment, tenv: TypeAssignment, term: Term, sigma: PolyType
) -> tuple[bool, str | None]:
    """Does term have type sigma under (kenv, tenv)?

    Decided by inferring the principal type and testing sigma as a generic
    instance of its closure.  Returns (ok, reason-when-not-ok).
    """
    fs = supply_for(kenv, tenv, sigma)
    res = infer(kenv, tenv, term, fs)
    if isinstance(res, InferFailure):
        return False, f"inference failed: {res.message}"
    for v in ftv_assignment(tenv) | kenv.keys():
        if v in res.subst:
            return False, "the claim's context would have to be specialized"
    for v, k in kenv.items():
        if not kind_equiv(res.kenv[v], apply_kind(res.subst, k)):
            return False, f"the claim needs a stronger kind for '{v.name or v.uid}"
    resid, principal = closure(res.kenv, apply_assignment(res.subst, tenv), res.type)
    if not generic_instance(resid, principal, sigma):
        return False, "not an instance of the principal type"
    return True, None
