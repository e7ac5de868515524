"""Derivation trees of the declarative type system: the data that inference
produces on request and that the checker validates.

Inference records each node as its subterm is typed, with the judgment
unsubstituted and an empty kind assignment (a Gen node's premise holds the
kinds it quantifies); `subst_derivation` then completes the whole tree."""

from __future__ import annotations

from dataclasses import dataclass

from .subst import apply_assignment, apply_type
from .syntax import (
    KindAssignment,
    MonoType,
    PolyType,
    RecordKind,
    Substitution,
    Term,
    TypeAssignment,
)

RULES = ("Var", "Const", "Abs", "App", "Let", "Rec", "Sel", "Modif", "Gen", "Contr", "Ext")


@dataclass(frozen=True)
class Judgment:
    kenv: KindAssignment
    tenv: TypeAssignment
    term: Term
    sigma: PolyType


@dataclass(frozen=True)
class KindingClaim:
    """A K |- subject :: kind side condition carried by a node."""

    subject: MonoType
    kind: RecordKind


@dataclass(frozen=True)
class Derivation:
    rule: str
    judgment: Judgment
    children: tuple["Derivation", ...] = ()
    claim: KindingClaim | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")


def subst_derivation(d: Derivation, s: Substitution, k_target: KindAssignment) -> Derivation:
    """Map a kind-respecting substitution over every judgment of a tree,
    giving each node the kind assignment k_target, extended under a Gen node
    by the kinds its premise quantifies.

    The substitution's domain must avoid variables generalized anywhere in
    the tree (inference's fresh-variable discipline guarantees this)."""
    j = d.judgment
    new_j = Judgment(k_target, apply_assignment(s, j.tenv), j.term, apply_type(s, j.sigma))
    if d.rule == "Gen":
        (child,) = d.children
        quantified = {
            v: k for v, k in child.judgment.kenv.items() if v not in j.kenv
        }
        child_target = dict(k_target)
        for v, k in quantified.items():
            child_target[v] = apply_type(s, k)
        children = (subst_derivation(child, s, child_target),)
    else:
        children = tuple(subst_derivation(c, s, k_target) for c in d.children)
    claim = None
    if d.claim is not None:
        claim = KindingClaim(apply_type(s, d.claim.subject), apply_type(s, d.claim.kind))
    return Derivation(d.rule, new_j, children, claim)
