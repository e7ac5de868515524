import itertools
import random
from collections import Counter

from extrec.kinding import (
    FieldInfo,
    cached_facts,
    field_info,
    has_kind,
    wf_kind_assignment,
    wf_type,
)
from extrec.normalize import equiv, normalize
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
from gen import DEBRIS_VARS, GROUND, LABELS, gen_debris, gen_kind_assignment, gen_kindable_chain

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
    """The facts unification's rule vii reads for t, a normal chain over
    base: from t's label maps when they apply, else from `field_info`."""
    got = cached_facts(kenv[base], t)
    return ("cache", got) if got is not None else ("fallback", field_info(kenv, t))


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


def test_cached_chain_facts_agree_with_field_info():
    # Chains over a variable grown one operation at a time through
    # `normalize`, as inference grows them: each new top takes the label
    # maps of the chain below it.  Some kinds state a field's type in a
    # reducible form, {z: Int} as {} + {z: Int}, which equality cannot
    # match with the chain's normal field type: field_info decides those.
    rng = random.Random(1318)
    seen = Counter()
    for _ in range(800):
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
        top = base
        for _ in range(rng.randint(1, 8)):
            cls, label, fty = _next_op(rng, kenv, top)
            maps = getattr(top, "_facts", None)
            old, top = top, normalize(cls(top, label, fty))
            how, got = _read_facts(kenv, base, top)
            assert got == _reference_field_info(kenv, top), (kenv, top)
            seen[how] += 1
            seen[how, got is None] += 1
            if maps is not None:
                # the old top's maps went up, unless the operation made
                # debris; either way its facts stay its own
                how, got = _read_facts(kenv, base, old)
                assert got == _reference_field_info(kenv, old), (kenv, old)
                seen["old top", how] += 1
            if isinstance(top, TyVar):
                break
    assert seen["cache"] >= 500 and seen["fallback"] >= 200, seen
    assert seen["fallback", False] >= 50 and seen["old top", "fallback"] >= 300, seen


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
