"""Kinded substitutions: composition, the respects relation, type closure
(generalization), and the generic-instance check.

Application is `syntax.apply_type`, the one substitution walk, bound here
too, where the benchmark and the tests import it.  It takes a monotype, a
kind or a polytype, renames a polytype's binders where the substitution
would catch them, and never normalizes; callers normalize at the points
where the inference algorithm demands it.  Resolution through a triangular
substitution (`unify.resolve`) hands its resolved images to the same walk.

The generic-instance check asks `unify` for a witness and decides by its
own final checks, `equiv` and `respects`, alone.
"""

from __future__ import annotations

from .kinding import has_kind, unkinded_chain
from .normalize import chain_ops, equiv
from .syntax import (
    FRESH,
    Frozen,
    INT,
    KindAssignment,
    MonoType,
    PolyType,
    RecordType,
    Substitution,
    TypeAssignment,
    TyVar,
    UKind,
    apply_type,
    chain,
    eftv,
    eftv_assignment,
    freshen,
    ftv,
    poly,
)
from .unify import Solver, UnificationError, resolve


def apply_assignment(s: Substitution, gamma: TypeAssignment) -> TypeAssignment:
    return {x: apply_type(s, sigma) for x, sigma in gamma.items()}


def compose(s2: Substitution, s1: Substitution) -> Substitution:
    """Substitution with apply(compose(s2, s1), t) == apply(s2, apply(s1, t))."""
    out = {v: apply_type(s2, t) for v, t in s1.items()}
    for v, t in s2.items():
        if v not in s1:
            out[v] = t
    return out


class KindedSubstitution(Frozen):
    """A substitution whose range is well formed under the paired assignment."""

    __slots__ = _fields = ("kenv", "subst")


def respects(ks: KindedSubstitution, kenv2: KindAssignment) -> bool:
    """Every substituted variable's image carries the substituted kind."""
    return all(
        has_kind(ks.kenv, ks.subst.get(v, v), apply_type(ks.subst, k))
        for v, k in kenv2.items()
    )


# ---------------------------------------------------------------------------
# Closure (generalization)


def closure(
    kenv: KindAssignment, gamma: TypeAssignment, t: MonoType
) -> tuple[KindAssignment, PolyType]:
    """Quantify the variables essentially free in t but not in gamma.

    Quantifiers come out in kind-dependency order (a variable whose kind
    mentions another is quantified after it), ties broken by the variable's
    position in kenv.  A variable stays in the assignment, unquantified,
    when the split would break it: either a residual kind still mentions it,
    or it sits in a kind-dependency cycle (quantifier prefixes must be
    orderable, and cyclic kinds have no ground instances anyway).
    """
    quantify = eftv(kenv, t) - eftv_assignment(kenv, gamma)
    position = {v: i for i, v in enumerate(kenv)}
    ordered = quantifier_prefix(quantify, kenv, kenv, lambda v: (position[v], v.uid))
    residual = {v: k for v, k in kenv.items() if v not in quantify}
    return residual, poly(t, tuple((v, kenv[v]) for v in ordered))


def quantifier_prefix(quantify: set, others, kinds, rank) -> list:
    """The quantifiers of `closure` among the candidates `quantify`, which is
    updated in place to them.  A candidate stays free when the kind of a
    variable in `others` that stays free mentions it, or when it sits in a
    kind-dependency cycle; the rest come out in dependency order, ties
    broken by `rank`.  `kinds` gives the kind of every variable involved."""
    while True:
        pinned: set[TyVar] = set()
        for w in others:
            if w not in quantify:
                pinned |= ftv(kinds[w]) & quantify
        if pinned:
            quantify -= pinned
            continue
        pending = sorted(quantify, key=rank)
        ordered: list[TyVar] = []
        placed: set[TyVar] = set()
        while pending:
            ready = [
                v
                for v in pending
                if all(w not in quantify or w in placed for w in ftv(kinds[v]))
            ]
            if not ready:
                quantify -= set(pending)  # cyclic tail: pin it
                break
            ordered.extend(ready)
            placed.update(ready)
            pending = [v for v in pending if v not in placed]
        else:
            return ordered


# ---------------------------------------------------------------------------
# Generic instance


def generic_instance(kenv: KindAssignment, s1: PolyType, s2: PolyType) -> bool:
    """Is s2 obtainable from s1 by a kind-respecting instantiation?

    `unify` proposes the witness: s1's body against s2's, with kenv's
    variables and s2's quantifiers fixed (Odersky and Läufer's subsumption
    by unification).  s2's binders are renamed before s1's, so s1's are the
    newest variables and the ones rules ii and iii eliminate.  A fixed v
    that the unifier bound to a chain w·ops over a variable w that is not
    fixed and occurs in no type of ops becomes fixed again, by w := v·ops⁻¹.
    Every other variable left over takes a default from its kind, in
    dependency order: Int for U, the record of its required fields for a
    record kind.

    The witness decides nothing: s2 is an instance iff it maps s1's body to
    one equivalent to s2's and respects s1's kinds.  A unification failure,
    a cyclic remainder, or a witness that builds a chain over a
    non-extensible type (`syntax.chain` raises ValueError) yields False, and
    so does an s2 that holds a chain with no kind
    (`kinding.unkinded_chain`), whatever reduction would make of it."""
    if unkinded_chain(kenv, s2) is not None:
        return False
    s2 = freshen(s2)
    s1 = freshen(s1)
    fixed = {**kenv, **dict(s2.quants)}
    kinds = {**fixed, **dict(s1.quants)}
    st = Solver(kinds, FRESH.fresh)
    s = st.subst
    try:
        st.solve([(s1.body, s2.body)])
        for v in [v for v in fixed if v in s]:
            w, ops = chain_ops(resolve(s, v))
            if isinstance(w, TyVar) and w not in fixed and not any(w in ftv(f) for *_, f in ops):
                del s[v]
                s[w] = chain(v, [(-sign, l, f) for sign, l, f in reversed(ops)])
        rest = {v: resolve(s, k) for v, k in kinds.items() if v not in fixed and v not in s}
        order = quantifier_prefix(set(rest), (), rest, lambda v: v.uid)
        if len(order) < len(rest):
            return False  # a kind-dependency cycle
        for v in order:
            s[v] = INT if isinstance(rest[v], UKind) else RecordType(rest[v].lefts)
        witness = {v: resolve(s, v) for v, _ in s1.quants}
        return equiv(apply_type(witness, s1.body), s2.body) and respects(
            KindedSubstitution(fixed, witness), {**kenv, **dict(s1.quants)}
        )
    except (UnificationError, ValueError):
        return False
