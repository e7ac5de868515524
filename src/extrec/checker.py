"""Validator for derivation trees of the declarative type system, plus a
claim checker that reduces "does M have type sigma" to an instance test
against the inferred principal type.

Every rule but Gen has one form: its term is of one class, and each premise
types a given subterm of it in the node's context, which Abs and Let extend
by one binder.  The premise table `_PREMISES` states that form per rule, and
`_check_premises` checks every such node against it, with the monotype
conditions (only Let's bound premise may be polymorphic).  Sel, Modif, Contr
and Ext share a second form, stated in the field-rule table `_FIELD_RULES`:
a side condition K |- record :: kind that states the rule's one field on one
side of the kind, and a conclusion built from (record, label, field type).
What is left per rule is its own typing condition; Gen has its own check.

The validator and the inference algorithm are independent code paths over
the same judgments, so each serves as an oracle for the other: `validate`
and its node rules call nothing in `infer` or `unify`.
"""

from __future__ import annotations

from dataclasses import dataclass

# subst_derivation is bound here for the benchmark's tracer, which names it
# as checker's.
from .derivation import Derivation, subst_derivation
from .infer import InferFailure, infer, supply_for
from .kinding import has_kind, wf_kind_assignment, wf_type_assignment
from .normalize import equiv, normalize
from .subst import apply_assignment, apply_type, closure, generic_instance
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
    poly,
)


@dataclass(frozen=True)
class ValidationIssue:
    path: tuple[int, ...]
    reason: str

    def __str__(self):
        where = "/".join(map(str, self.path)) or "root"
        return f"at {where}: {self.reason}"


def assignments_equiv(a1: dict, a2: dict) -> bool:
    """Two kind assignments, or two type assignments, with one domain and
    equivalent entries."""
    return a1.keys() == a2.keys() and all(equiv(a1[x], a2[x]) for x in a1)


# ---------------------------------------------------------------------------
# Validation

# Each rule but Gen: the class of its term, and for a term of that class
# the (subterm, binder or None) that each premise types, in order.
_PREMISES = {
    "Var": (Var, lambda m: ()),
    "Const": (Const, lambda m: ()),
    "Abs": (Abs, lambda m: ((m.body, m.param),)),
    "App": (App, lambda m: ((m.fn, None), (m.arg, None))),
    "Let": (Let, lambda m: ((m.bound, None), (m.body, m.name))),
    "Rec": (RecordLit, lambda m: tuple((sub, None) for _, sub in m.fields)),
    "Sel": (Select, lambda m: ((m.target, None),)),
    "Modif": (Modify, lambda m: ((m.target, None), (m.value, None))),
    "Contr": (Remove, lambda m: ((m.target, None),)),
    "Ext": (Extend, lambda m: ((m.target, None), (m.value, None))),
}

# Each field rule: the kind side that states its field (0: lefts, present;
# 1: rights, absent), and its conclusion from (record, label, field type).
_FIELD_RULES = {
    "Sel": (0, lambda rec, l, f: f),
    "Modif": (0, lambda rec, l, f: rec),
    "Contr": (0, Contr),
    "Ext": (1, Ext),
}


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


def _check_node(d: Derivation) -> str | None:
    if d.rule == "Gen":
        return _check_gen(d)
    bad = _check_premises(d)
    if bad is not None:
        return bad
    j, rule = d.judgment, d.rule
    kenv, tenv, term, t = j.kenv, j.tenv, j.term, j.sigma.body
    ts = [c.judgment.sigma.body for c in d.children]
    if rule in ("Var", "Const"):
        if not wf_kind_assignment(kenv) or not wf_type_assignment(kenv, tenv):
            return "assignments not well formed"
    if rule == "Var":
        if term.name not in tenv:
            return f"unbound variable {term.name}"
        if not generic_instance(kenv, tenv[term.name], poly(t)):
            return "conclusion is not a generic instance of the assumption"
    elif rule == "Const":
        if not equiv(t, BaseType(term.base)):
            return "constant typed at the wrong base type"
    elif rule == "Abs":
        binder = d.children[0].judgment.tenv[term.param]
        if not binder.is_mono:
            return "binder is polymorphic in the premise"
        if not equiv(t, Arrow(binder.body, ts[0])):
            return "conclusion is not the matching arrow type"
    elif rule == "App":
        if not equiv(ts[0], Arrow(ts[1], t)):
            return "operator type does not match operand and result"
    elif rule == "Let":
        bound, body = d.children
        if not equiv(body.judgment.tenv[term.name], bound.judgment.sigma):
            return "let binder is not typed at the bound term's type"
        if not equiv(t, ts[1]):
            return "conclusion differs from the body's type"
    elif rule == "Rec":
        nt = normalize(t)
        labels = [l for l, _ in term.fields]
        if not isinstance(nt, RecordType) or [l for l, _ in nt.fields] != labels:
            return "conclusion is not a record type with the literal's labels"
        for (label, ft), ct in zip(nt.fields, ts):
            if not equiv(ct, ft):
                return f"field {label} typed inconsistently"
    else:
        return _check_field_rule(d, ts)
    return None


def _check_premises(d: Derivation) -> str | None:
    """The node's row of _PREMISES: term class, premise count, the subterm
    each premise types, equivalent kind assignments, equivalent type
    assignments outside a premise's binder (which is present), and
    monotypes everywhere but in Let's bound premise."""
    j = d.judgment
    shape, premises_of = _PREMISES[d.rule]
    if not isinstance(j.term, shape):
        return f"term does not match rule {d.rule}"
    premises = premises_of(j.term)
    if len(d.children) != len(premises):
        return f"{d.rule} expects {len(premises)} premises"
    if not j.sigma.is_mono:
        return "conclusion must be a monotype"
    for i, (child, (sub, binder)) in enumerate(zip(d.children, premises)):
        cj = child.judgment
        if cj.term != sub:
            return f"premise {i} types the wrong term"
        if not assignments_equiv(j.kenv, cj.kenv):
            return f"premise {i} kind assignment differs"
        if binder is not None and binder not in cj.tenv:
            return f"premise {i} lacks the binder {binder}"
        if not assignments_equiv(_outside(j.tenv, binder), _outside(cj.tenv, binder)):
            return f"premise {i} type assignment differs"
        if not cj.sigma.is_mono and (d.rule, i) != ("Let", 0):
            return f"premise {i} must be a monotype"
    return None


def _outside(tenv: TypeAssignment, binder: str | None) -> TypeAssignment:
    return tenv if binder is None else {x: s for x, s in tenv.items() if x != binder}


def _check_field_rule(d: Derivation, ts: list[MonoType]) -> str | None:
    j, claim = d.judgment, d.claim
    if claim is None or not isinstance(claim.kind, RecordKind):
        return f"{d.rule} requires a record kind side condition"
    side, conclusion = _FIELD_RULES[d.rule]
    sides = (claim.kind.lefts, claim.kind.rights)
    if sides[1 - side] or [l for l, _ in sides[side]] != [j.term.label]:
        return f"side condition must state exactly the field {d.rule} acts on"
    ((label, field_t),) = sides[side]
    if not equiv(claim.subject, ts[0]):
        return "side condition constrains a different type"
    if not has_kind(j.kenv, claim.subject, claim.kind):
        return "kinding side condition does not hold"
    if len(ts) == 2 and not equiv(ts[1], field_t):
        return "value's type differs from the field's"
    if d.rule == "Ext":
        base = base_of(normalize(claim.subject))
        if isinstance(base, TyVar) and base in ftv(normalize(ts[1])):
            return "extended record's base occurs in the added value's type"
    if not equiv(j.sigma.body, conclusion(claim.subject, label, field_t)):
        return f"conclusion is not the {d.rule} rule's type"
    return None


def _check_gen(d: Derivation) -> str | None:
    j = d.judgment
    if len(d.children) != 1:
        return "Gen expects 1 premise"
    cj = d.children[0].judgment
    if cj.term != j.term:
        return "premise types a different term"
    if not assignments_equiv(j.tenv, cj.tenv):
        return "premise context differs"
    if not cj.sigma.is_mono:
        return "generalization premise must be a monotype"
    try:
        resid, sigma = closure(cj.kenv, cj.tenv, cj.sigma.body)
    except ValueError as e:
        return f"closure undefined: {e}"
    if not assignments_equiv(j.kenv, resid):
        return "conclusion kind assignment is not the closure residue"
    if not equiv(j.sigma, sigma):
        return "conclusion is not the closure of the premise"
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
        if not equiv(res.kenv[v], apply_type(res.subst, k)):
            return False, f"the claim needs a stronger kind for '{v.name or v.uid}"
    resid, principal = closure(res.kenv, apply_assignment(res.subst, tenv), res.type)
    if not generic_instance(resid, principal, sigma):
        return False, "not an instance of the principal type"
    return True, None
