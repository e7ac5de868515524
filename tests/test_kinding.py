import importlib
import itertools
import random
from collections import Counter

from extrec.kinding import (
    FieldInfo,
    field_info,
    has_kind,
    wf_kind_assignment,
    wf_type,
)
from extrec.normalize import EXT, chain_ops, equiv, is_normal, normalize
from extrec.syntax import (
    Arrow,
    BOOL,
    Contr,
    Ext,
    INT,
    RecordKind,
    RecordType,
    STRING,
    TyVar,
    UKind,
    base_of,
    ftv,
    record_kind,
)
from extrec.unify import UnificationError
from gen import DEBRIS_VARS, GROUND, LABELS, gen_debris, gen_kind_assignment, gen_kindable_chain

unify_mod = importlib.import_module("extrec.unify")  # the package binds the name to the function

a, b = TyVar(1, "a"), TyVar(2, "b")
t1, t2, t3 = INT, BOOL, STRING


def test_wf_kind_assignment():
    assert wf_kind_assignment({a: UKind()})
    assert not wf_kind_assignment({a: record_kind([("l", b)])})
    assert wf_kind_assignment({a: record_kind([("l", b)]), b: UKind()})


def test_wf_type():
    assert wf_type({a: UKind()}, Arrow(a, INT))
    assert not wf_type({}, a)
    assert wf_type({}, RecordType((("l", INT),)))


def test_kinding_worked_example():
    # tau = ({l1: t1} + {l2: t2}) - {l1: t1} under the empty assignment
    r = RecordType((("l1", t1),))
    ext = Ext(r, "l2", t2)
    tau = Contr(ext, "l1", t1)
    assert has_kind({}, r, record_kind())
    assert has_kind({}, r, record_kind([("l1", t1)]))
    assert has_kind({}, ext, record_kind([("l2", t2)]))
    assert has_kind({}, ext, record_kind([], [("l3", t3)]))
    assert has_kind({}, tau, record_kind([("l2", t2)], [("l1", t1)]))


def test_contracted_field_never_on_the_left():
    r = RecordType((("l1", t1),))
    tau = Contr(Ext(r, "l2", t2), "l1", t1)
    rejected = [
        record_kind([("l1", t1)]),
        record_kind([("l1", t1), ("l2", t2)]),
        record_kind([("l1", t1)], [("l3", t3)]),
        record_kind([("l1", t1), ("l2", t2)], [("l3", t3)]),
    ]
    for k in rejected:
        assert not has_kind({}, tau, k)


def test_variable_extension_kind():
    kenv = {a: record_kind([], [("l", INT)])}
    assert has_kind(kenv, Ext(a, "l", INT), record_kind([("l", INT)]))
    assert has_kind(kenv, Ext(a, "l", INT), record_kind())
    assert not has_kind(kenv, Ext(a, "l", INT), record_kind([], [("l", INT)]))
    # extending with a label the kind does not promise absent: nothing derivable
    assert not has_kind(kenv, Ext(a, "m", INT), record_kind())
    assert has_kind(kenv, Ext(a, "m", INT), UKind())


def test_universal_kind_is_well_formedness():
    kenv = {a: UKind()}
    for t in (a, INT, Arrow(a, a), RecordType((("l", a),)), Ext(a, "l", INT)):
        assert has_kind(kenv, t, UKind()) == wf_type(kenv, t)
    assert not has_kind(kenv, b, UKind())
    # a universally kinded variable admits no record kind
    assert not has_kind(kenv, a, record_kind())


def test_kind_must_be_well_formed():
    assert not has_kind({}, RecordType(()), record_kind([], [("l", a)]))


def test_records_satisfy_any_absent_type():
    r = RecordType((("l1", t1),))
    for ty in (t1, t2, Arrow(t1, t2)):
        assert has_kind({}, r, record_kind([], [("x", ty)]))
    # but a pinned contraction fixes the absent field's type
    tau = Contr(r, "l1", t1)
    assert has_kind({}, tau, record_kind([], [("l1", t1)]))
    assert not has_kind({}, tau, record_kind([], [("l1", t2)]))


def test_mutual_exclusion_property():
    rng = random.Random(31)
    labels = ("l", "m", "n")
    tried = 0
    for _ in range(300):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 5)
        info = field_info(kenv, t)
        if info is None:
            continue
        for label, ty in itertools.product(labels, (INT, BOOL)):
            left = has_kind(kenv, t, record_kind([(label, ty)]))
            right = has_kind(kenv, t, record_kind([], [(label, ty)]))
            assert not (left and right)
            tried += 1
    assert tried > 200


def test_derivable_kind_implies_well_formed():
    rng = random.Random(37)
    for _ in range(200):
        kenv = gen_kind_assignment(rng, 3)
        t = gen_kindable_chain(rng, kenv, 4)
        info = field_info(kenv, t)
        if info is None:
            continue
        k = RecordKind(tuple(info.present.items()), tuple(info.absent.items()))
        if has_kind(kenv, t, k):
            assert wf_type(kenv, t)
            assert all(v in kenv for v in ftv(k))


def _reference_field_info(kenv, t):
    """The recursive fold that `field_info` replaced: the facts of the
    chain below each operation, copied and updated for that operation."""
    if isinstance(t, TyVar):
        k = kenv.get(t)
        if not isinstance(k, RecordKind):
            return None
        return FieldInfo(k.left_map(), k.right_map(), False)
    if isinstance(t, RecordType):
        return FieldInfo(t.field_map(), {}, True)
    if isinstance(t, (Ext, Contr)):
        info = _reference_field_info(kenv, t.base)
        if info is None:
            return None
        present = dict(info.present)
        absent = dict(info.absent)
        label, fty = t.label, t.field_type
        if isinstance(t, Ext):
            if label in present:
                return None
            if label in absent:
                if not equiv(absent[label], fty):
                    return None
                del absent[label]
            elif not info.record_base:
                return None
            present[label] = fty
        else:
            if label not in present or not equiv(present[label], fty):
                return None
            del present[label]
            absent[label] = fty
        return FieldInfo(present, absent, info.record_base)
    return None


def _debris_kind(rng):
    if rng.random() < 0.2:
        return UKind()
    labels = rng.sample(("l", "m", "n"), rng.randint(0, 3))
    cut = rng.randint(0, len(labels))
    field = lambda: rng.choice((INT, BOOL, DEBRIS_VARS[0]))
    return RecordKind(
        tuple((l, field()) for l in labels[:cut]), tuple((l, field()) for l in labels[cut:])
    )


def test_field_info_agrees_with_the_recursive_fold():
    # Debris (repeated labels, record bases, nested chains, mostly
    # unkindable) under random kinds for its variables, and chains that are
    # kindable by construction.
    rng = random.Random(505)
    seen = Counter()
    for i in range(3000):
        if i % 2:
            kenv = {v: _debris_kind(rng) for v in DEBRIS_VARS}
            t = gen_debris(rng, rng.randint(1, 4))
        else:
            kenv = gen_kind_assignment(rng, 3)
            t = gen_kindable_chain(rng, kenv, 6)
        for u in (t, normalize(t)):
            got = field_info(kenv, u)
            assert got == _reference_field_info(kenv, u), (kenv, u)
            seen[got is None, got is not None and got.record_base] += 1
    assert seen[True, False] > 1000
    assert seen[False, False] > 500 and seen[False, True] > 500


def _read_facts(kenv, base, t):
    """The facts unification reads for t, a chain over base, from base's
    kind and t's label maps: (present, absent, equations), or None when it
    refuses t."""
    k, eqs = kenv[base], []
    try:
        facts = unify_mod._moved(k.left_map(), k.right_map(), t, eqs)
    except UnificationError as e:
        assert e.reason == "kind_clash", e
        return None
    return facts.left_map(), facts.right_map(), eqs


def _check_facts(kenv, base, t):
    """Where `field_info` gives facts, the reader gives the same and no
    equation.  Where it refuses, the reader refuses too, or equates the
    kind's entries with the operations' types, in chain order, and gives
    the facts of the kind with the operations' types written over them."""
    got, want = _read_facts(kenv, base, t), field_info(kenv, t)
    if want is not None:
        assert got == (want.present, want.absent, []), (kenv, t)
        return "agree"
    if got is None:
        return "refused"
    present, absent, eqs = got
    kl, kr = kenv[base].left_map(), kenv[base].right_map()
    want_eqs = []
    for sign, label, fty in chain_ops(t)[1]:
        side = kr if sign == EXT else kl
        if not equiv(side[label], fty):
            want_eqs.append((side[label], fty))
        side[label] = fty
    assert eqs and eqs == want_eqs, (kenv, t, eqs)
    repaired = field_info({**kenv, base: RecordKind(tuple(kl.items()), tuple(kr.items()))}, t)
    assert (repaired.present, repaired.absent) == (present, absent), (kenv, t)
    return "equations"


def _repeats(t):
    """'one sign' when a label of t's chain repeats with one sign, 'both
    signs' when it repeats only with both, else None."""
    ops = chain_ops(t)[1]
    signed = Counter((sign, label) for sign, label, _ in ops)
    if max(signed.values(), default=0) > 1:
        return "one sign"
    if len({label for _, label, _ in ops}) < len(ops):
        return "both signs"
    return None


def _next_op(rng, kenv, t):
    """One more operation on t: mostly one that keeps it kindable, else one
    that repeats a label, cancels or contradicts the kind."""
    info = field_info(kenv, t)
    if info is not None and rng.random() < 0.8:
        moves = [(Ext, l, f) for l, f in info.absent.items()]
        moves += [(Contr, l, f) for l, f in info.present.items()]
        if moves:
            return rng.choice(moves)
    return rng.choice((Ext, Contr)), rng.choice(LABELS), rng.choice(GROUND)


def test_chain_facts_agree_with_field_info():
    # Chains over a variable grown one operation at a time through
    # `normalize`, as inference grows them.  Beside each, the same
    # operations unsorted, as typed by hand, while no pair cancels.
    # Some kinds state a field's type in a reducible form, {z: Int} as
    # {} + {z: Int}, which the reader must match by equivalence.
    rng = random.Random(1318)
    seen = Counter()
    for _ in range(1200):
        kenv = gen_kind_assignment(rng, 3)
        bases = [v for v, k in kenv.items() if isinstance(k, RecordKind)]
        if not bases:
            continue
        base = rng.choice(bases)
        if rng.random() < 0.3:
            z = RecordType((("z", INT),))
            spelled = Ext(RecordType(()), "z", INT)
            k = kenv[base]
            lefts = tuple((l, spelled) for l, _ in k.lefts)
            kenv[base] = RecordKind(lefts, tuple((l, z) for l, _ in k.rights))
        top = raw = base
        for _ in range(rng.randint(1, 8)):
            cls, label, fty = _next_op(rng, kenv, top)
            top, raw = normalize(cls(top, label, fty)), cls(raw, label, fty)
            if isinstance(top, TyVar):
                break
            how = _check_facts(kenv, base, top)
            seen["top", how] += 1
            seen[_repeats(top), how] += 1
            if raw != top and is_normal(raw):
                seen["unsorted", _check_facts(kenv, base, raw)] += 1
    assert seen["top", "agree"] >= 800 and seen["top", "equations"] >= 50, seen
    assert seen["unsorted", "agree"] >= 50 and seen["unsorted", "equations"] >= 8, seen
    assert seen["one sign", "refused"] >= 700 and seen["both signs", "refused"] >= 250, seen
    assert seen["one sign", "agree"] == seen["both signs", "agree"] == 0, seen


def test_a_label_repeated_with_one_sign_has_no_kind():
    # Unification refuses a normal chain over a variable that extends, or
    # contracts, a label twice without reading the base's kind: no kind of
    # the base gives such a chain field facts.
    c = TyVar(3, "c")
    types = (INT, BOOL, c)
    ops = [(cls, l, f) for cls in (Ext, Contr) for l in ("l", "m") for f in types]
    per_label = [None] + [(side, f) for side in (0, 1) for f in types]
    kinds = []
    for kl, km in itertools.product(per_label, repeat=2):
        sides = ([], [])
        for label, entry in (("l", kl), ("m", km)):
            if entry is not None:
                sides[entry[0]].append((label, entry[1]))
        kinds.append(RecordKind(tuple(sides[0]), tuple(sides[1])))
    chains = 0
    for n in (2, 3):
        for seq in itertools.product(ops, repeat=n):
            t = a
            for cls, label, fty in seq:
                t = cls(t, label, fty)
            if _repeats(t) != "one sign" or not is_normal(t):
                continue
            chains += 1
            for k in kinds:
                assert field_info({a: k, c: UKind()}, t) is None, (k, t)
    assert chains > 500 and len(kinds) == 49


def test_base_of_reads_the_bottom_of_the_chain():
    rng = random.Random(77)
    for _ in range(2000):
        t = gen_debris(rng, rng.randint(1, 4))
        if not isinstance(t, (TyVar, RecordType, Ext, Contr)):
            continue
        walked = t
        while isinstance(walked, (Ext, Contr)):
            walked = walked.base
        assert base_of(t) is walked
