"""Derivation trees of the declarative type system: the data that inference
produces on request and that the checker validates.

Inference records each node as its subterm is typed, with the judgment
unsubstituted and an empty kind assignment; a Gen node's kinds are those
its polytype quantifies.  `subst_derivation` then completes the whole tree,
applying the substitution through `syntax.apply_type`."""

from __future__ import annotations

from .subst import apply_assignment, apply_type
from .syntax import Frozen, KindAssignment, Substitution

RULES = ("Var", "Const", "Abs", "App", "Let", "Rec", "Sel", "Modif", "Gen", "Contr", "Ext")


class Judgment(Frozen):
    """kenv, tenv |- term : sigma."""

    __slots__ = _fields = ("kenv", "tenv", "term", "sigma")


class KindingClaim(Frozen):
    """A K |- subject :: kind side condition carried by a node."""

    __slots__ = _fields = ("subject", "kind")


class Derivation(Frozen):
    __slots__ = _fields = ("rule", "judgment", "children", "claim")

    def __init__(self, rule: str, judgment: Judgment, children: tuple = (), claim=None):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        Frozen.__init__(self, rule, judgment, children, claim)


def subst_derivation(d: Derivation, s: Substitution, k_target: KindAssignment) -> Derivation:
    """Map a kind-respecting substitution over every judgment of a tree,
    giving each node the kind assignment k_target, extended under a Gen node
    by the quantifiers of its substituted polytype.

    No variable a Gen node quantifies may be in the substitution's domain,
    or free in the image of a variable free in the node's polytype (as
    inference guarantees), so `apply_type` keeps the binders its premise
    mentions."""
    j = d.judgment
    sigma = apply_type(s, j.sigma)
    new_j = Judgment(k_target, apply_assignment(s, j.tenv), j.term, sigma)
    if d.rule == "Gen":
        k_target = {**k_target, **dict(sigma.quants)}
    children = tuple(subst_derivation(c, s, k_target) for c in d.children)
    claim = None
    if d.claim is not None:
        claim = KindingClaim(apply_type(s, d.claim.subject), apply_type(s, d.claim.kind))
    return Derivation(d.rule, new_j, children, claim)
