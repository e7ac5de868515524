"""Kinded substitutions: application, composition, resolution through a
triangular substitution, the respects relation, type closure
(generalization), and the generic-instance check.

Application is purely structural and never normalizes; callers normalize at
the points where the inference algorithm demands it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .kinding import field_info, has_kind
from .normalize import chain_ops, equiv, normalize, rebuild_chain
from .syntax import (
    Arrow,
    BaseType,
    Contr,
    Ext,
    INT,
    Kind,
    KindAssignment,
    MonoType,
    PolyType,
    RecordKind,
    RecordType,
    Substitution,
    TypeAssignment,
    TyVar,
    UKind,
    eftv,
    eftv_assignment,
    ftv,
    internal_fresh,
    is_extensible,
    map_type,
    poly,
    rename_vars,
)


def apply_type(s: Substitution, t: MonoType | Kind) -> MonoType | Kind:
    """Apply s to a monotype or a kind."""
    if isinstance(t, TyVar):  # a lookup is cheaper than the test below
        return s.get(t, t)
    if s.keys().isdisjoint(ftv(t)):
        return t
    return map_type(partial(apply_type, s), t)


apply_kind = apply_type  # kinds take the same walk


def apply_poly(s: Substitution, p: PolyType) -> PolyType:
    if s.keys().isdisjoint(ftv(p)):
        return p
    if not p.quants:
        return poly(apply_type(s, p.body))
    bound = {v for v, _ in p.quants}
    clash = set(s)
    for t in s.values():
        clash |= ftv(t)
    if bound & clash:
        p = _freshen(p)  # alpha-rename binders away from the substitution
    return PolyType(
        tuple((v, apply_kind(s, k)) for v, k in p.quants),
        apply_type(s, p.body),
    )


def apply_assignment(s: Substitution, gamma: TypeAssignment) -> TypeAssignment:
    return {x: apply_poly(s, sigma) for x, sigma in gamma.items()}


def resolve(s: Substitution, t: MonoType | Kind) -> MonoType | Kind:
    """Apply the triangular substitution s to a monotype or a kind: replace
    each bound variable by its image, resolved in turn, until none is left.

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
    if s.keys().isdisjoint(ftv(t)):
        return t
    return map_type(partial(resolve, s), t)


def resolve_poly(s: Substitution, p: PolyType) -> PolyType:
    """Apply the triangular substitution s to a polytype's free variables,
    renaming its binders first when they would be caught."""
    free = ftv(p)
    if s.keys().isdisjoint(free):
        return p
    if p.quants:
        images = {w for v in free if v in s for w in ftv(resolve(s, v))}
        if any(v in s or v in images for v, _ in p.quants):
            p = _freshen(p)  # alpha-rename binders away from the substitution
    return PolyType(
        tuple((v, resolve(s, k)) for v, k in p.quants), resolve(s, p.body)
    )


def compose(s2: Substitution, s1: Substitution) -> Substitution:
    """Substitution with apply(compose(s2, s1), t) == apply(s2, apply(s1, t))."""
    out = {v: apply_type(s2, t) for v, t in s1.items()}
    for v, t in s2.items():
        if v not in s1:
            out[v] = t
    return out


@dataclass(frozen=True)
class KindedSubstitution:
    """A substitution whose range is well formed under the paired assignment."""

    kenv: KindAssignment
    subst: Substitution


def respects(ks: KindedSubstitution, kenv2: KindAssignment) -> bool:
    """Every substituted variable's image carries the substituted kind."""
    return all(
        has_kind(ks.kenv, ks.subst.get(v, v), apply_kind(ks.subst, k))
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
    while True:
        pinned: set[TyVar] = set()
        for w, k in kenv.items():
            if w not in quantify:
                pinned |= ftv(k) & quantify
        if pinned:
            quantify -= pinned
            continue
        pending = sorted(quantify, key=lambda v: (position[v], v.uid))
        ordered: list[TyVar] = []
        placed: set[TyVar] = set()
        stuck = False
        while pending:
            ready = [
                v
                for v in pending
                if all(w not in quantify or w in placed for w in ftv(kenv[v]))
            ]
            if not ready:
                quantify -= set(pending)  # cyclic tail: pin it
                stuck = True
                break
            ordered.extend(ready)
            placed.update(ready)
            pending = [v for v in pending if v not in placed]
        if stuck:
            continue
        residual = {v: k for v, k in kenv.items() if v not in quantify}
        if not quantify:
            return residual, poly(t)
        return residual, PolyType(tuple((v, kenv[v]) for v in ordered), t)


# ---------------------------------------------------------------------------
# Generic instance


def generic_instance(kenv: KindAssignment, s1: PolyType, s2: PolyType) -> bool:
    """Is s2 obtainable from s1 by a kind-respecting instantiation?

    The witness substitution is found by first-order matching of canonical
    forms, decomposing extension/contraction chains by label.  Matching is
    conservative: exotic instances it cannot reconstruct yield False.
    """
    s1 = _freshen(s1)
    s2 = _freshen(s2)
    k_target = dict(kenv)
    k_target.update(s2.quants)
    k_source = dict(kenv)
    k_source.update(s1.quants)

    pattern_vars = {v for v, _ in s1.quants}
    qkinds = dict(s1.quants)
    binds: Substitution = {}
    m = _Matcher(pattern_vars, qkinds, binds, k_target)
    if not m.match(normalize(s1.body), normalize(s2.body)):
        return False
    # The kind of a matched variable pins variables the body never mentions.
    changed = True
    while changed:
        changed = False
        for v, k in s1.quants:
            if v in binds and isinstance(k, RecordKind):
                before = len(binds)
                if not m.refine_with_kind(binds[v], k):
                    return False
                changed = changed or len(binds) != before
    for v, _ in s1.quants:
        if not m.bind_default(v):
            return False
    if not equiv(apply_type(binds, s1.body), s2.body):
        return False
    return respects(KindedSubstitution(k_target, binds), k_source)


def _freshen(p: PolyType) -> PolyType:
    """Rename every binder to a fresh variable.  A binder is not in scope
    in its own kind, so the renaming grows incrementally."""
    if not p.quants:
        return p
    ren: dict[int, TyVar] = {}
    quants = []
    for v, k in p.quants:
        fresh = internal_fresh(v.name)
        quants.append((fresh, rename_vars(k, ren)))
        ren[v.uid] = fresh
    return PolyType(tuple(quants), rename_vars(p.body, ren))


class _Matcher:
    """First-order matching of a quantified pattern against a subject type.

    Pattern variables a subject position never determines are filled with a
    kind-derived default; the caller re-verifies the full instantiation, so
    defaults can only make the check more conservative, never unsound.
    """

    def __init__(self, pvars, qkinds, binds, kenv):
        self.pvars = pvars
        self.qkinds = qkinds
        self.binds = binds
        self.kenv = kenv
        self._defaulting: set[TyVar] = set()

    def refine_with_kind(self, image: MonoType, k: "RecordKind") -> bool:
        """Match a bound variable's kind against the field facts of its
        image; presence requirements the image cannot meet fail here (the
        final respects check would reject them anyway)."""
        if not is_extensible(image):
            return False
        info = field_info(self.kenv, apply_type(self.binds, image))
        if info is None:
            return True  # nothing to learn; left to the final check
        for l, pt in k.lefts:
            if l not in info.present:
                return False
            if not self.match(pt, normalize(info.present[l])):
                return False
        for l, pt in k.rights:
            if l in info.absent:
                if not self.match(pt, normalize(info.absent[l])):
                    return False
            elif not (info.record_base and l not in info.present):
                return False
        return True

    def bind_default(self, v: TyVar) -> bool:
        if v in self.binds:
            return True
        if v in self._defaulting:
            return False  # cyclic kind; give up
        k = self.qkinds.get(v)
        if k is None:
            return False
        if isinstance(k, UKind):
            self.binds[v] = INT
            return True
        self._defaulting.add(v)
        try:
            fields = []
            for l, t in k.lefts:
                r = self.resolve(t)
                if r is None:
                    return False
                fields.append((l, r))
            self.binds[v] = RecordType(tuple(fields))
            return True
        finally:
            self._defaulting.discard(v)

    def resolve(self, t: MonoType) -> MonoType | None:
        """Fully instantiate t under the bindings, defaulting stragglers."""
        for w in ftv(t):
            if w in self.pvars and not self.bind_default(w):
                return None
        return apply_type(self.binds, t)

    def match(self, p: MonoType, s: MonoType) -> bool:
        if isinstance(p, TyVar) and p in self.pvars:
            if p in self.binds:
                return equiv(self.binds[p], s)
            self.binds[p] = s
            return True
        if isinstance(p, (TyVar, BaseType)):
            return p == s
        if isinstance(p, Arrow):
            return (
                isinstance(s, Arrow)
                and self.match(p.dom, s.dom)
                and self.match(p.cod, s.cod)
            )
        if isinstance(p, RecordType):
            if not isinstance(s, RecordType):
                return False
            if [l for l, _ in p.fields] != [l for l, _ in s.fields]:
                return False
            return all(
                self.match(pf, sf) for (_, pf), (_, sf) in zip(p.fields, s.fields)
            )
        if isinstance(p, (Ext, Contr)):
            return self.match_chain(p, s)
        raise TypeError(f"match: not a monotype: {p!r}")

    def match_chain(self, p, s) -> bool:
        base_p, ops_p = chain_ops(p)
        if not (isinstance(base_p, TyVar) and base_p in self.pvars):
            # Rigid head: the subject must have the very same chain shape.
            if not isinstance(s, (Ext, Contr)):
                return False
            base_s, ops_s = chain_ops(s)
            if len(ops_p) != len(ops_s):
                return False
            if not self.match(base_p, base_s):
                return False
            for (sg_p, l_p, f_p), (sg_s, l_s, f_s) in zip(ops_p, ops_s):
                if sg_p != sg_s or l_p != l_s or not self.match(f_p, f_s):
                    return False
            return True

        # Flexible head: absorb whatever the pattern's operations do not cover.
        if isinstance(s, (Ext, Contr)):
            base_s, ops_s = chain_ops(s)
        else:
            base_s, ops_s = s, []
        remaining = {l: (sg, f) for sg, l, f in ops_s}
        leftover_p = []
        for sg, l, f in ops_p:
            if l in remaining:
                sg_s, f_s = remaining.pop(l)
                if sg != sg_s or not self.match(f, f_s):
                    return False
            else:
                leftover_p.append((sg, l, f))
        rest = [(sg, l, f) for l, (sg, f) in sorted(remaining.items())]
        if not leftover_p:
            head = rebuild_chain(base_s, rest)
            if base_p in self.binds:
                return equiv(self.binds[base_p], head)
            self.binds[base_p] = head
            return True
        # Unmatched pattern operations can only be inverted against a record.
        if not isinstance(base_s, RecordType) or rest:
            return False
        fields = base_s.field_map()
        for sg, l, f in leftover_p:
            if sg == 1:  # pattern extends: the record must carry the field
                if l not in fields or not self.match(f, fields[l]):
                    return False
                del fields[l]
            else:  # pattern contracts: the record must lack it
                if l in fields:
                    return False
                r = self.resolve(f)
                if r is None:
                    return False
                fields[l] = r
        head = RecordType(tuple(fields.items()))
        if base_p in self.binds:
            return equiv(self.binds[base_p], head)
        self.binds[base_p] = head
        return True
