"""Kinded substitutions: application, composition, resolution through a
triangular substitution, the respects relation, type closure
(generalization), and the generic-instance check.

Application and resolution each take a monotype, a kind or a polytype,
and walk it through `syntax.map_type`; each renames a polytype's binders
(`syntax.rebind`) where the substitution would catch them, by its own
rule.  Application is purely structural and never normalizes; callers
normalize at the points where the inference algorithm demands it.
"""

from __future__ import annotations

from functools import partial

from .kinding import field_info, has_kind, unkinded_chain
from .normalize import EXT, chain_ops, equiv, normalize
from .syntax import (
    Arrow,
    Contr,
    Ext,
    Frozen,
    INT,
    KindAssignment,
    MonoType,
    PolyType,
    RecordKind,
    RecordType,
    Substitution,
    TypeAssignment,
    TyVar,
    UKind,
    chain,
    eftv,
    eftv_assignment,
    ftv,
    internal_fresh,
    is_extensible,
    map_type,
    poly,
    rebind,
)


def apply_type(s: Substitution, t):
    """Apply s to a monotype, a kind or a polytype.  A polytype's binders
    are renamed first when s maps one or an image of s mentions one."""
    if isinstance(t, TyVar):  # a lookup is cheaper than the test below
        return s.get(t, t)
    if misses(s, ftv(t)):
        return t
    if t.__class__ is PolyType and t.quants:
        clash = set(s)
        for image in s.values():
            clash |= ftv(image)
        if any(v in clash for v, _ in t.quants):
            t = _freshen(t)
    return map_type(partial(apply_type, s), t)


def misses(s: Substitution, fv: frozenset) -> bool:
    """No variable of fv is in the domain of s.  Set difference looks fv's
    members up in s with the hashes the set has stored, where
    `s.keys().isdisjoint(fv)` would call `TyVar.__hash__` for each."""
    return len(fv.difference(s)) == len(fv)


def apply_assignment(s: Substitution, gamma: TypeAssignment) -> TypeAssignment:
    return {x: apply_type(s, sigma) for x, sigma in gamma.items()}


def resolve(s: Substitution, t):
    """Apply the triangular substitution s to a monotype, a kind or a
    polytype: replace each bound variable by its image, resolved in turn,
    until none is left.  A polytype's binders are renamed first when s maps
    one or the resolved image of one of its free variables mentions one.

    A triangular substitution maps each variable to the image it was bound
    to, which may mention variables bound after it.  Resolution compresses
    paths: every binding it follows is overwritten with its resolved image.
    Variable-to-variable links are followed in a loop, not by recursion."""
    if isinstance(t, TyVar):
        image = s.get(t)
        if image is None:
            return t
        path = [t]
        while isinstance(image, TyVar) and image in s:
            path.append(image)
            image = s[image]
        if not isinstance(image, TyVar):
            image = resolve(s, image)
        for v in path:
            s[v] = image
        return image
    free = ftv(t)
    if misses(s, free):
        return t
    if t.__class__ is PolyType and t.quants:
        images = {w for v in free if v in s for w in ftv(resolve(s, v))}
        if any(v in s or v in images for v, _ in t.quants):
            t = _freshen(t)
    return map_type(partial(resolve, s), t)


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

    def __init__(self, kenv: KindAssignment, subst: Substitution):
        object.__setattr__(self, "kenv", kenv)
        object.__setattr__(self, "subst", subst)


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
    if not ordered:
        return residual, poly(t)
    return residual, PolyType(tuple((v, kenv[v]) for v in ordered), t)


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

    `_Matcher` proposes a witness substitution; s2 is an instance iff the
    witness maps s1's body to one equivalent to s2's and respects s1's
    kinds.  Those two checks alone decide, so a witness the matcher cannot
    reconstruct yields False, never a wrong True.  A witness that builds a
    chain over a non-extensible type (`syntax.chain` raises ValueError) is
    not a type: False as well, and so is an s2 that holds a chain with no
    kind (`kinding.unkinded_chain`), whatever reduction would make of it."""
    if unkinded_chain(kenv, s2) is not None:
        return False
    s1 = _freshen(s1)
    s2 = _freshen(s2)
    k_target = {**kenv, **dict(s2.quants)}
    m = _Matcher(dict(s1.quants), k_target)
    try:
        m.match(normalize(s1.body), normalize(s2.body))
        m.refine()
        m.bind_heads()
        m.refine()
        for v, _ in s1.quants:
            m.bind_default(v)
        return equiv(apply_type(m.binds, s1.body), s2.body) and respects(
            KindedSubstitution(k_target, m.binds), {**kenv, **m.qkinds}
        )
    except ValueError:
        return False


def _freshen(p: PolyType) -> PolyType:
    """p with every binder renamed to a fresh variable."""
    return rebind(p, [internal_fresh(v.name) for v, _ in p.quants])


class _Matcher:
    """Proposes a witness for `generic_instance` by first-order matching of
    a quantified pattern against a subject type.  No method returns a
    verdict: where the two disagree the matcher binds nothing.

    A pattern variable keeps the first binding it gets, and a record-kinded
    one takes only an extensible image.  A pattern chain over a pattern
    variable binds that variable to a head whose field types may still hold
    pattern variables; `heads` keeps each such (variable, head) until the
    whole body and the kinds have been matched (`bind_heads`).  Variables
    that no subject position determines get a kind-derived default.  As
    `_freshen` renames binders one at a time, a quantifier's kind mentions
    only earlier quantifiers, so defaulting meets no cycle."""

    def __init__(self, qkinds, kenv):
        self.qkinds = qkinds
        self.binds: Substitution = {}
        self.kenv = kenv
        self.heads: list[tuple[TyVar, MonoType]] = []

    def refine(self):
        """The kind of a matched variable pins variables the body never
        mentions: refine with the kind of every bound record-kinded pattern
        variable until no binding is added."""
        before = -1
        while len(self.binds) != before:
            before = len(self.binds)
            for v, k in self.qkinds.items():
                if v in self.binds and isinstance(k, RecordKind):
                    self.refine_with_kind(self.binds[v], k)

    def bind_heads(self):
        """Match each postponed head against its variable's binding, those
        whose variable is bound first; a variable still unbound is bound to
        its head, with the stragglers defaulted."""
        for v, head in sorted(self.heads, key=lambda vh: vh[0] not in self.binds):
            if v in self.binds:
                self.match(normalize(head), normalize(self.binds[v]))
            else:  # a head is extensible
                self.binds[v] = self.resolve(head)

    def refine_with_kind(self, image: MonoType, k: RecordKind):
        """Match a bound variable's kind against the field facts its image states."""
        info = field_info(self.kenv, apply_type(self.binds, image))
        if info is None:
            return
        for side, facts in ((k.lefts, info.present), (k.rights, info.absent)):
            for l, pt in side:
                if l in facts:
                    self.match(pt, normalize(facts[l]))

    def bind_default(self, v: TyVar):
        if v not in self.binds:
            k = self.qkinds[v]
            if isinstance(k, UKind):
                self.binds[v] = INT
            else:
                self.binds[v] = RecordType(tuple((l, self.resolve(t)) for l, t in k.lefts))

    def resolve(self, t: MonoType) -> MonoType:
        """Fully instantiate t under the bindings, defaulting stragglers."""
        for w in ftv(t) & self.qkinds.keys():
            self.bind_default(w)
        return apply_type(self.binds, t)

    def match(self, p: MonoType, s: MonoType):
        if isinstance(p, TyVar) and p in self.qkinds:
            if p not in self.binds and (is_extensible(s) or isinstance(self.qkinds[p], UKind)):
                self.binds[p] = s
        elif isinstance(p, Arrow):
            if isinstance(s, Arrow):
                self.match(p.dom, s.dom)
                self.match(p.cod, s.cod)
        elif isinstance(p, RecordType):
            if isinstance(s, RecordType) and [l for l, _ in p.fields] == [l for l, _ in s.fields]:
                for (_, pf), (_, sf) in zip(p.fields, s.fields):
                    self.match(pf, sf)
        elif isinstance(p, (Ext, Contr)):
            self.match_chain(p, s)

    def match_chain(self, p, s):
        base_p, ops_p = chain_ops(p)
        if not (isinstance(base_p, TyVar) and base_p in self.qkinds):
            # Rigid head: the subject must have the very same chain shape.
            if isinstance(s, (Ext, Contr)):
                base_s, ops_s = chain_ops(s)
                if len(ops_p) == len(ops_s):
                    self.match(base_p, base_s)
                    for (sg_p, l_p, f_p), (sg_s, l_s, f_s) in zip(ops_p, ops_s):
                        if (sg_p, l_p) == (sg_s, l_s):
                            self.match(f_p, f_s)
            return

        # Flexible head: absorb whatever the pattern's operations do not cover.
        base_s, ops_s = chain_ops(s)
        remaining = {l: (sg, f) for sg, l, f in ops_s}
        leftover_p = []
        for sg, l, f in ops_p:
            if l in remaining:
                sg_s, f_s = remaining.pop(l)
                if sg == sg_s:
                    self.match(f, f_s)
            else:
                leftover_p.append((sg, l, f))
        rest = [(sg, l, f) for l, (sg, f) in sorted(remaining.items())]
        if not leftover_p:
            head = chain(base_s, rest)
        elif isinstance(base_s, TyVar):
            # Undo the unmatched pattern operations on the subject, outermost
            # first: + {l: t} becomes - {l: t}.
            head = chain(base_s, rest + [(-sg, l, f) for sg, l, f in reversed(leftover_p)])
        elif not isinstance(base_s, RecordType) or rest:
            return
        else:  # against a record, they are inverted on its fields
            fields = base_s.field_map()
            for sg, l, f in leftover_p:
                if (sg == EXT) != (l in fields):
                    return  # extends a field the record lacks, or removes one it has
                if sg == EXT:
                    self.match(f, fields.pop(l))
                else:
                    fields[l] = f
            head = RecordType(tuple(fields.items()))
        self.heads.append((base_p, head))
