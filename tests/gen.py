"""Random generators and small oracles shared by the test modules."""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from pathlib import Path

from extrec.kinding import field_info, has_kind
from extrec.normalize import equiv, normalize
from extrec.parser import ParseError, _string_literal
from extrec.subst import apply_type
from extrec.syntax import (
    Abs,
    App,
    Arrow,
    BOOL,
    BaseType,
    Const,
    Contr,
    Ext,
    Extend,
    INT,
    Let,
    Modify,
    MonoType,
    PolyType,
    RecordKind,
    RecordLit,
    RecordType,
    Remove,
    STRING,
    Select,
    TyVar,
    UKind,
    Var,
    ftv,
    map_type,
    rename_vars,
)

LABELS = ("l", "m", "n")
GROUND = (INT, BOOL, STRING)


def bench_inputs():
    """The benchmark's input generators, perfbench/inputs.py, which build
    their texts without calling into extrec."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def rebuilt(value, /, **changes):
    """value built anew through its class's constructor, with `changes` in
    place of some of its arguments.  The library's values are not
    dataclasses, so `dataclasses.replace` does not apply to them."""
    args = {name: getattr(value, name) for name in type(value).__slots__ if name[0] != "_"}
    return type(value)(**{**args, **changes})


def canon(x):
    """Rename type variables by first occurrence so values that differ only
    in variable identity compare equal."""
    order: list[int] = []

    def walk(y):
        if isinstance(y, TyVar):
            if y.uid not in order:
                order.append(y.uid)
        elif isinstance(y, PolyType):
            for v, k in y.quants:
                walk(k)
                walk(v)
            walk(y.body)
        else:
            map_type(walk, y)  # visits the children in order
        return y

    walk(x)
    mapping = {uid: TyVar(i + 1) for i, uid in enumerate(order)}
    return rename_vars(x, mapping)


def naive_apply(s, x):
    """s applied to a monotype, a kind or a polytype by a plain walk with no
    short cut.  A polytype's binders are first all renamed apart, to
    variables from uid 5000 up that nothing else holds, and then s is
    substituted, so nothing is ever captured."""
    if not isinstance(x, PolyType):
        return _substituted(s, x)
    apart = {}
    quants = []
    for i, (v, k) in enumerate(x.quants):
        quants.append((TyVar(5000 + i, v.name), _substituted(apart, k)))
        apart[v] = quants[-1][0]
    body = _substituted(apart, x.body)
    return PolyType(tuple((w, _substituted(s, k)) for w, k in quants), _substituted(s, body))


def _substituted(s, x):
    if isinstance(x, TyVar):
        return s.get(x, x)
    if isinstance(x, (BaseType, UKind)):
        return x
    if isinstance(x, Arrow):
        return Arrow(_substituted(s, x.dom), _substituted(s, x.cod))
    if isinstance(x, RecordType):
        return RecordType(tuple((l, _substituted(s, t)) for l, t in x.fields))
    if isinstance(x, (Ext, Contr)):
        return type(x)(_substituted(s, x.base), x.label, _substituted(s, x.field_type))
    assert isinstance(x, RecordKind), x
    return RecordKind(
        tuple((l, _substituted(s, t)) for l, t in x.lefts),
        tuple((l, _substituted(s, t)) for l, t in x.rights),
    )


def subst_equal(s1, s2) -> bool:
    """Substitution equality: images agree up to equiv on every variable."""
    return all(equiv(s1.get(v, v), s2.get(v, v)) for v in s1.keys() | s2.keys())


# ---------------------------------------------------------------------------
# Arbitrary (not necessarily kindable) syntax, for parser round-trips


def gen_label(rng: random.Random) -> str:
    return rng.choice(("l", "m", "n", "name", "age", "p"))


def gen_arb_mono(rng: random.Random, depth: int, tyvars: tuple[TyVar, ...]) -> MonoType:
    if depth <= 0:
        pool = [INT, BOOL, STRING, RecordType(())]
        pool.extend(tyvars)
        return rng.choice(pool)
    pick = rng.random()
    if pick < 0.2:
        return rng.choice((INT, BOOL, STRING) + tyvars) if tyvars else rng.choice(GROUND)
    if pick < 0.4:
        n = rng.randint(0, 2)
        labels = rng.sample(("l", "m", "n", "p"), n)
        return RecordType(tuple((l, gen_arb_mono(rng, depth - 1, tyvars)) for l in labels))
    if pick < 0.6:
        return Arrow(gen_arb_mono(rng, depth - 1, tyvars), gen_arb_mono(rng, depth - 1, tyvars))
    # extension/contraction chain over a variable or record head
    if tyvars and rng.random() < 0.7:
        head: MonoType = rng.choice(tyvars)
    else:
        head = RecordType(tuple((l, gen_arb_mono(rng, 0, tyvars)) for l in rng.sample(("l", "m"), rng.randint(0, 2))))
    for _ in range(rng.randint(1, 3)):
        label = gen_label(rng)
        fty = gen_arb_mono(rng, depth - 1, tyvars)
        head = Ext(head, label, fty) if rng.random() < 0.5 else Contr(head, label, fty)
    return head


def gen_arb_kind(rng: random.Random, tyvars: tuple[TyVar, ...]):
    if rng.random() < 0.3:
        return UKind()
    labels = rng.sample(("l", "m", "n", "p"), rng.randint(0, 3))
    cut = rng.randint(0, len(labels))
    lefts = tuple((l, gen_arb_mono(rng, 1, tyvars)) for l in labels[:cut])
    rights = tuple((l, gen_arb_mono(rng, 1, tyvars)) for l in labels[cut:])
    return RecordKind(lefts, rights)


def gen_arb_poly(rng: random.Random) -> PolyType:
    outer = tuple(TyVar(100 + i, f"v{i}") for i in range(rng.randint(0, 2)))
    quants = []
    scope = outer
    for i in range(rng.randint(0, 3)):
        v = TyVar(200 + i, f"q{i}")
        quants.append((v, gen_arb_kind(rng, scope)))
        scope = scope + (v,)
    return PolyType(tuple(quants), gen_arb_mono(rng, 2, scope))


def gen_arb_term(rng: random.Random, depth: int, scope: tuple[str, ...] = ()) -> object:
    if depth <= 0:
        pool = [Const(rng.randint(0, 99), "Int"), Const(rng.random() < 0.5, "Bool"),
                Const(rng.choice(("hi", "a b", 'say "x"', "tab\tnl\n")), "String")]
        if scope:
            pool.append(Var(rng.choice(scope)))
        return rng.choice(pool)
    pick = rng.random()
    if pick < 0.15:
        x = rng.choice(("x", "y", "z", "f"))
        return Abs(x, gen_arb_term(rng, depth - 1, scope + (x,)))
    if pick < 0.3:
        return App(gen_arb_term(rng, depth - 1, scope), gen_arb_term(rng, depth - 1, scope))
    if pick < 0.4:
        x = rng.choice(("x", "y", "g"))
        return Let(x, gen_arb_term(rng, depth - 1, scope), gen_arb_term(rng, depth - 1, scope + (x,)))
    if pick < 0.55:
        labels = rng.sample(("l", "m", "n"), rng.randint(0, 2))
        return RecordLit(tuple((l, gen_arb_term(rng, depth - 1, scope)) for l in labels))
    if pick < 0.7:
        return Select(gen_arb_term(rng, depth - 1, scope), gen_label(rng))
    if pick < 0.8:
        return Modify(gen_arb_term(rng, depth - 1, scope), gen_label(rng), gen_arb_term(rng, depth - 1, scope))
    if pick < 0.9:
        return Remove(gen_arb_term(rng, depth - 1, scope), gen_label(rng))
    return Extend(gen_arb_term(rng, depth - 1, scope), gen_label(rng), gen_arb_term(rng, depth - 1, scope))


# ---------------------------------------------------------------------------
# Reducible and unkindable types, for normalization and field synthesis

DEBRIS_VARS = (TyVar(1, "a"), TyVar(2, "a1"), TyVar(3, "a2"))


def gen_debris(rng: random.Random, depth: int) -> MonoType:
    """A random type, kindable or not: chains repeat labels with differing
    field types, fold into record bases only part-way, nest in field types,
    and sit beside arrows and base types.  (A chain cannot sit on an arrow
    or a base type: `Ext`/`Contr` refuse such a base.)"""
    pick = rng.random()
    if depth <= 0 or pick < 0.15:
        return rng.choice((INT, BOOL) + DEBRIS_VARS)
    if pick < 0.25:
        return Arrow(gen_debris(rng, depth - 1), gen_debris(rng, depth - 1))
    if pick < 0.35:
        labels = rng.sample(("l", "m", "n"), rng.randint(0, 2))
        return RecordType(tuple((l, gen_debris(rng, depth - 1)) for l in labels))
    if rng.random() < 0.6:
        t = rng.choice(DEBRIS_VARS)
    else:
        labels = rng.sample(("l", "m"), rng.randint(0, 2))
        t = RecordType(tuple((l, _debris_field(rng, depth)) for l in labels))
    # Few labels and field types, so that pairs cancel, and cancel across
    # other operations on the same label with a different field type.
    for _ in range(rng.randint(1, 8)):
        label = rng.choice(("l", "m", "n"))
        fty = _debris_field(rng, depth)
        t = Ext(t, label, fty) if rng.random() < 0.5 else Contr(t, label, fty)
    return t


def _debris_field(rng, depth):
    a = DEBRIS_VARS[0]
    roll = rng.random()
    if roll < 0.45:
        return rng.choice((INT, BOOL))
    if roll < 0.6:
        # equivalent to `a` only up to reduction
        return Contr(Ext(a, "l", INT), "l", INT)
    if roll < 0.7:
        return a
    return gen_debris(rng, depth - 1)


# ---------------------------------------------------------------------------
# Kinded generation


def gen_kind_assignment(rng: random.Random, n_vars: int, labels=LABELS, uid_base=10):
    """Well-formed assignment; field types are ground or earlier variables,
    so insertion order is dependency order."""
    kenv = {}
    earlier: list[TyVar] = []
    for i in range(n_vars):
        v = TyVar(uid_base + i, f"a{i}")
        if rng.random() < 0.35:
            kenv[v] = UKind()
        else:
            pool = list(labels)
            rng.shuffle(pool)
            n_left = rng.randint(0, min(2, len(pool)))
            n_right = rng.randint(0, min(1, len(pool) - n_left))
            def fty():
                if earlier and rng.random() < 0.3:
                    return rng.choice(earlier)
                return rng.choice(GROUND)
            lefts = tuple((l, fty()) for l in sorted(pool[:n_left]))
            rights = tuple((l, fty()) for l in sorted(pool[n_left : n_left + n_right]))
            kenv[v] = RecordKind(lefts, rights)
        earlier.append(v)
    return kenv


def gen_kindable_chain(rng: random.Random, kenv, max_ops: int, labels=LABELS):
    """An extension/contraction chain every step of which is kind-derivable
    under kenv.  Returns None when kenv offers no usable base."""
    bases = [v for v, k in kenv.items() if isinstance(k, RecordKind)]
    use_record = rng.random() < 0.4 or not bases
    if use_record:
        picked = rng.sample(labels, rng.randint(0, len(labels) - 1))
        t: MonoType = RecordType(tuple((l, rng.choice(GROUND)) for l in picked))
    else:
        t = rng.choice(bases)
    for _ in range(rng.randint(0, max_ops)):
        info = field_info(kenv, t)
        if info is None:
            break
        exts = [(l, ft) for l, ft in info.absent.items()]
        if info.record_base:
            exts += [
                (l, rng.choice(GROUND))
                for l in labels
                if l not in info.present and l not in info.absent
            ]
        cons = list(info.present.items())
        moves = [("+", l, ft) for l, ft in exts] + [("-", l, ft) for l, ft in cons]
        if not moves:
            break
        op, label, fty = rng.choice(moves)
        t = Ext(t, label, fty) if op == "+" else Contr(t, label, fty)
    return t


def gen_respecting_subst(rng: random.Random, kenv, labels=LABELS):
    """A kinded substitution (kenv1, s) respecting kenv: variables are kept
    (with substituted kinds) or grounded consistently with their kinds."""
    s = {}
    kept = []
    for v, k in kenv.items():
        if rng.random() < 0.5:
            kept.append(v)
            continue
        if isinstance(k, UKind):
            s[v] = rng.choice(GROUND + (RecordType((("l", INT),)), Arrow(INT, BOOL)))
        else:
            fields = dict(k.lefts)
            forbidden = {l for l, _ in k.rights} | set(fields)
            for l in labels:
                if l not in forbidden and rng.random() < 0.3:
                    fields[l] = rng.choice(GROUND)
            s[v] = RecordType(tuple(fields.items()))
    # Kind field types may mention later-grounded variables: close s
    # over itself (assignments are acyclic by construction).
    for _ in range(len(kenv)):
        s = {v: apply_type(s, t) for v, t in s.items()}
    kenv1 = {v: apply_type(s, kenv[v]) for v in kept}
    return kenv1, s


# ---------------------------------------------------------------------------
# Closed terms for soundness fuzzing


def gen_closed_term(rng: random.Random, depth: int, labels=LABELS, scope=()):
    return _term(rng, depth, tuple(scope), labels)


def _atom(rng, scope):
    pool = [Const(rng.randint(0, 9), "Int"), Const(True, "Bool"), Const("s", "String")]
    if scope:
        pool += [Var(x) for x in scope]
    return rng.choice(pool)


def _record_of(rng, depth, scope, labels):
    picked = rng.sample(labels, rng.randint(0, len(labels)))
    return RecordLit(tuple((l, _term(rng, depth - 1, scope, labels)) for l in picked))


def _term(rng, depth, scope, labels):
    if depth <= 0:
        return _atom(rng, scope)
    pick = rng.random()
    if pick < 0.12:
        x = f"x{rng.randint(0, 2)}"
        return Abs(x, _term(rng, depth - 1, scope + (x,), labels))
    if pick < 0.24:
        x = f"x{rng.randint(0, 2)}"
        return Let(x, _term(rng, depth - 1, scope, labels), _term(rng, depth - 1, scope + (x,), labels))
    if pick < 0.36:
        # mostly redex applications so a useful share of terms type-check
        if rng.random() < 0.7:
            x = f"x{rng.randint(0, 2)}"
            fn = Abs(x, _term(rng, depth - 1, scope + (x,), labels))
            return App(fn, _term(rng, depth - 1, scope, labels))
        return App(_term(rng, depth - 1, scope, labels), _term(rng, depth - 1, scope, labels))
    if pick < 0.52:
        return _record_of(rng, depth, scope, labels)
    label = rng.choice(labels)

    def target(with_label):
        # mostly aim at records that make the operation well typed
        if rng.random() < 0.7:
            others = [l for l in labels if l != label]
            picked = rng.sample(others, rng.randint(0, len(others)))
            if with_label:
                picked.append(label)
            return RecordLit(
                tuple((l, _term(rng, depth - 1, scope, labels)) for l in picked)
            )
        return _term(rng, depth - 1, scope, labels)

    if pick < 0.68:
        return Select(target(True), label)
    if pick < 0.79:
        return Modify(target(True), label, _term(rng, depth - 1, scope, labels))
    if pick < 0.9:
        return Remove(target(True), label)
    return Extend(target(False), label, _term(rng, depth - 1, scope, labels))


# ---------------------------------------------------------------------------
# Finite universe for the most-general-unifier check


def mgu_universe(label_types: dict) -> list[MonoType]:
    labels = sorted(label_types)
    records = []
    for mask in range(2 ** len(labels)):
        chosen = [l for i, l in enumerate(labels) if mask >> i & 1]
        records.append(RecordType(tuple((l, label_types[l]) for l in chosen)))
    arrows = [Arrow(a, b) for a in (INT, BOOL) for b in (INT, BOOL)]
    return [INT, BOOL] + records + arrows


def gen_kinded_equations(rng: random.Random, uid_base=50):
    """A random kinded equation set over two labels whose field types are
    fixed per run (a label carries one type throughout its existence)."""
    labels = ("l", "m")
    label_types = {l: rng.choice((INT, BOOL)) for l in labels}
    kenv = {}
    variables = []
    for i in range(rng.randint(1, 3)):
        v = TyVar(uid_base + i, f"u{i}")
        if rng.random() < 0.3:
            kenv[v] = UKind()
        else:
            pool = list(labels)
            rng.shuffle(pool)
            n_left = rng.randint(0, 2)
            n_right = rng.randint(0, 2 - n_left)
            lefts = tuple(sorted((l, label_types[l]) for l in pool[:n_left]))
            rights = tuple(sorted((l, label_types[l]) for l in pool[n_left : n_left + n_right]))
            kenv[v] = RecordKind(lefts, rights)
        variables.append(v)

    def gen_side(depth=2):
        pick = rng.random()
        if pick < 0.35:
            return rng.choice(variables)
        if pick < 0.55:
            chosen = rng.sample(labels, rng.randint(0, 2))
            return RecordType(tuple((l, label_types[l]) for l in sorted(chosen)))
        if pick < 0.7 and depth > 0:
            return Arrow(gen_side(0), gen_side(0))
        if pick < 0.8:
            return rng.choice((INT, BOOL))
        # kindable chain over one of the variables, depth <= 2
        chain_bases = [v for v in variables if isinstance(kenv[v], RecordKind)]
        if not chain_bases:
            return rng.choice(variables)
        t = rng.choice(chain_bases)
        for _ in range(rng.randint(1, 2)):
            info = field_info(kenv, t)
            if info is None:
                break
            moves = [("+", l, ft) for l, ft in info.absent.items()]
            moves += [("-", l, ft) for l, ft in info.present.items()]
            if not moves:
                break
            op, label, fty = rng.choice(moves)
            t = Ext(t, label, fty) if op == "+" else Contr(t, label, fty)
        return t

    eqs = [(gen_side(), gen_side()) for _ in range(rng.randint(1, 2))]
    return kenv, eqs


def gen_two_chain_equation(rng: random.Random, uid_base=50):
    """An equation between two chains, of 1-2 operations each, over two
    distinct record-kinded variables: the input of the two-chain merge.
    Labels l, m, n carry one type each per set.  In some sets a third
    variable, whose kind gives a universally kinded variable as the type of
    some of the first variable's required fields, is first equated with the
    first variable; the merge then writes that type over the one the first
    chain's operations carry, and the two are equated only later.  (On a
    forbidden field, `has_kind` leaves the type free on a record while the
    solver equates it, so the brute-force check would not hold there.)
    Returns (kenv, eqs, label types)."""
    labels = ("l", "m", "n")
    label_types = {l: rng.choice((INT, BOOL)) for l in labels}
    kenv = {}
    for i in range(2):
        pool = list(labels)
        rng.shuffle(pool)
        # every kind states a label, so that a chain has a first move
        n_left = rng.randint(0, 2)
        n_right = rng.randint(0 if n_left else 1, 3 - n_left)
        lefts = tuple(sorted((l, label_types[l]) for l in pool[:n_left]))
        rights = tuple(sorted((l, label_types[l]) for l in pool[n_left : n_left + n_right]))
        kenv[TyVar(uid_base + i, f"u{i}")] = RecordKind(lefts, rights)
    sides = []
    for v in kenv:
        t = v
        for _ in range(rng.randint(1, 2)):
            info = field_info(kenv, t)
            moves = [(Ext, l, ft) for l, ft in info.absent.items()]
            moves += [(Contr, l, ft) for l, ft in info.present.items()]
            op, label, fty = rng.choice(moves)
            t = op(t, label, fty)
        sides.append(t)
    eqs = [tuple(sides)]
    if rng.random() < 0.3:
        u0, u2, g = TyVar(uid_base, "u0"), TyVar(uid_base + 2, "u2"), TyVar(uid_base + 3, "g")
        k0 = kenv[u0]
        lefts = tuple((l, g if rng.random() < 0.5 else t) for l, t in k0.lefts)
        kenv[g] = UKind()
        kenv[u2] = RecordKind(lefts, k0.rights)
        eqs.insert(0, (u2, u0))
    return kenv, eqs, label_types


def gen_field_order_equations(rng: random.Random, uid_base=50):
    """A set where a kind's field equation is needed by a later equation:
    'a :: <<l: F['b] || >> and 'q :: << || l: F[G]>>, with 'b :: U and G
    ground, under 'a = 'q + {l: F[G]} and 'a - {l: F['b]} = 'q.  F wraps
    its argument in 0-2 one-field records.  The contraction reduces only
    once 'b = G, the equation the first elimination derives from 'a's
    kind.  A third equation, in some sets, fixes 'b, 'q or 'a, at times
    unsatisfiably.  Returns (kenv, eqs, label types)."""
    ground, other = rng.sample((INT, BOOL), 2)
    inner = [rng.choice(("m", "n")) for _ in range(rng.randint(0, 2))]

    def wrap(t):
        for label in inner:
            t = RecordType(((label, t),))
        return t

    b, q, a = (TyVar(uid_base + i, name) for i, name in enumerate(("b", "q", "a")))
    kenv = {
        b: UKind(),
        q: RecordKind((), (("l", wrap(ground)),)),
        a: RecordKind((("l", wrap(b)),), ()),
    }
    eqs = [(a, Ext(q, "l", wrap(ground))), (Contr(a, "l", wrap(b)), q)]
    third = rng.choice((None, (b, ground), (b, other), (q, RecordType(())), (a, RecordType(()))))
    if third is not None:
        eqs.append(third)
    eqs = [(t2, t1) if rng.random() < 0.5 else (t1, t2) for t1, t2 in eqs]
    return kenv, eqs, {"l": wrap(ground)}


def enumerate_ground_unifiers(kenv, eqs, universe):
    """Brute-force: every assignment of universe types to kenv's variables
    that respects kenv and satisfies the equations.  Each kind and each
    equation is checked as soon as the variables it mentions have values."""
    variables = list(kenv)
    position = {v: i for i, v in enumerate(variables)}
    due = [[] for _ in variables]
    pre = []

    def schedule(vs, check):
        i = max((position[v] for v in vs), default=-1)
        (due[i] if i >= 0 else pre).append(check)

    for v in variables:
        schedule(ftv(kenv[v]) | {v}, lambda g, v=v: has_kind({}, g[v], apply_type(g, kenv[v])))
    for a, b in eqs:
        schedule(ftv(a) | ftv(b), lambda g, a=a, b=b: equiv(apply_type(g, a), apply_type(g, b)))
    if not all(check({}) for check in pre):
        return []
    out = []

    def rec(i, g):
        if i == len(variables):
            out.append(dict(g))
            return
        v = variables[i]
        for t in universe:
            g[v] = t
            if all(check(g) for check in due[i]):
                rec(i + 1, g)
        del g[v]

    rec(0, {})
    return out


def factors_through(ground, kenv_in, kenv_out, subst, universe):
    """Does the ground unifier factor through (kenv_out, subst)?  Searches a
    ground s3 over kenv_out's variables with (empty, s3) respecting kenv_out
    and ground == s3 after subst on every original variable."""
    residual_vars = list(kenv_out)

    def valid(s3):
        for v in residual_vars:
            if not has_kind({}, s3[v], apply_type(s3, kenv_out[v])):
                return False
        for v in kenv_in:
            image = apply_type(s3, subst.get(v, v))
            if not equiv(ground[v], image):
                return False
        return True

    # The residual variables usually survive from the input, where the
    # ground unifier already names their values; try that before searching.
    if all(v in ground for v in residual_vars):
        if valid({v: ground[v] for v in residual_vars}):
            return True

    def rec(i, s3):
        if i == len(residual_vars):
            return valid(s3)
        v = residual_vars[i]
        for t in universe:
            s3[v] = t
            if rec(i + 1, s3):
                return True
        del s3[v]
        return False

    return rec(0, {})


def shape_matches(value, t: MonoType) -> bool:
    """Does a runtime value have the shape its normalized type promises?"""
    from extrec.interp import BoolV, ClosureV, IntV, RecordV, StringV

    t = normalize(t)
    if isinstance(t, BaseType):
        return isinstance(value, {"Int": IntV, "Bool": BoolV, "String": StringV}[t.name])
    if isinstance(t, Arrow):
        return isinstance(value, ClosureV)
    if isinstance(t, RecordType):
        if not isinstance(value, RecordV):
            return False
        fields = value.field_map()
        if set(fields) != {l for l, _ in t.fields}:
            return False
        return all(shape_matches(fields[l], ft) for l, ft in t.fields)
    return True  # residual variables and open chains promise nothing


# The parser's tokenizer as a loop of matches, kept as an independent
# reference for its token table (kinds, texts, starts, ends) and errors.
# Layout and comments, then one token.  `\w` is `str.isalnum` or "_".  A
# word led by an ASCII letter or "_", or of ASCII digits only, has a group
# of its own; `reference_tokenize` splits any other word as `str.isdigit`
# and `str.isalpha` tell.  A string literal is matched whole, or as a lone
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


def reference_tokenize(text: str, span_at) -> tuple[list[str], list[str], list[int], list[int]]:
    """The parser's `_tokenize` of any text, one match of _TOKEN_RE at a time."""
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
