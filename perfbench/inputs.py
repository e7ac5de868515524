"""Seeded input generators for the three workloads.

Every input is produced as concrete-syntax text, without calling into
extrec, so a change to the program (or to its test generators) cannot
change what the benchmark feeds it.  `digest` hashes the texts, so two
runs can be shown to have used identical inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

LABELS = ("l", "m", "n")

# The ambient environment of the acceptance suite's criterion 6.
ENV_42 = "'a1 :: << || l: 'a2>>\n'a2 :: U\nx : 'a1\ny : 'a2\n"

# Input shapes.  The scaling sizes stay well below the parser's recursion
# limit (about 200 nested `extend(`).
CORPUS_PROGRAMS = 1000
SCALING_SIZES = (8, 16, 24, 32, 40, 48)
SCALING_FAMILIES = ("let_chain", "extend_chain", "app_chain", "wide_record", "select_many")
UNIFY_SIZES = (4, 8, 16, 32)  # variables and equations per set
UNIFY_SETS = 80  # per size
CANCEL_PAIRS = (50, 100, 200, 400)  # extension/contraction pairs per chain
CANCEL_CHAINS = 2  # per size
EQUIV_PAIRS = (25, 50, 100)  # operations per chain
EQUIV_CHAINS = 10  # per size
SMALL_CHAINS = 1000


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# corpus: random programs shaped like the acceptance suite's criterion 6


@dataclass(frozen=True)
class CorpusProgram:
    index: int
    text: str
    depth: int
    with_env: bool  # runs under ENV_42
    closed: bool  # mentions none of ENV_42's variables


def corpus_programs(seed: int) -> list[CorpusProgram]:
    """Programs of depth 1-6; odd-numbered ones run under ENV_42 and may
    mention its variables x and y."""
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_PROGRAMS):
        with_env = i % 2 == 1
        gen = _TermText(rng, ("x", "y") if with_env else ())
        depth = rng.randint(1, 6)
        text = gen.term(depth, gen.ambient)
        out.append(CorpusProgram(i, text, depth, with_env, not gen.used_ambient))
    return out


class _TermText:
    """Text form of the criterion-6 closed-term generator: mostly redex
    applications and record operations aimed at records that make them
    well typed, so a useful share of the programs type-check."""

    def __init__(self, rng: random.Random, ambient: tuple[str, ...]):
        self.rng = rng
        self.ambient = ambient
        self.used_ambient = False

    def atom(self, scope):
        rng = self.rng
        pool = [str(rng.randint(0, 9)), "true", '"s"'] + list(scope)
        pick = rng.choice(pool)
        # local binders are named x0-x2, so x and y are always ambient
        self.used_ambient |= pick in self.ambient
        return pick

    def record(self, depth, scope, labels):
        parts = [f"{l} = {self.term(depth - 1, scope)}" for l in labels]
        return "{" + ", ".join(parts) + "}"

    def term(self, depth, scope):
        rng = self.rng
        if depth <= 0:
            return self.atom(scope)
        pick = rng.random()
        if pick < 0.12:
            x = f"x{rng.randint(0, 2)}"
            return f"(\\{x}. {self.term(depth - 1, scope + (x,))})"
        if pick < 0.24:
            x = f"x{rng.randint(0, 2)}"
            bound = self.term(depth - 1, scope)
            return f"(let {x} = {bound} in {self.term(depth - 1, scope + (x,))})"
        if pick < 0.36:
            if rng.random() < 0.7:
                x = f"x{rng.randint(0, 2)}"
                fn = f"(\\{x}. {self.term(depth - 1, scope + (x,))})"
                return f"({fn} ({self.term(depth - 1, scope)}))"
            fn = self.term(depth - 1, scope)
            return f"(({fn}) ({self.term(depth - 1, scope)}))"
        if pick < 0.52:
            return self.record(depth, scope, rng.sample(LABELS, rng.randint(0, len(LABELS))))
        label = rng.choice(LABELS)

        def target(with_label):
            if rng.random() < 0.7:
                others = [l for l in LABELS if l != label]
                picked = rng.sample(others, rng.randint(0, len(others)))
                if with_label:
                    picked.append(label)
                return self.record(depth, scope, picked)
            return self.term(depth - 1, scope)

        if pick < 0.68:
            return f"({target(True)}).{label}"
        if pick < 0.79:
            t = target(True)
            return f"modify({t}, {label}, {self.term(depth - 1, scope)})"
        if pick < 0.9:
            return f"remove({target(True)}, {label})"
        t = target(False)
        return f"extend({t}, {label}, {self.term(depth - 1, scope)})"


# ---------------------------------------------------------------------------
# scaling: the ROADMAP's program families, with the principal type each one
# must print, written out per family and n


def _letters():
    for round_ in range(100):
        for c in "abcdefghijklmnopqrstuvwxyz":
            yield c if round_ == 0 else f"{c}{round_}"


def _names(n):
    gen = _letters()
    return [next(gen) for _ in range(n)]


def scaling_program(family: str, n: int) -> tuple[str, str]:
    """(source text, expected printed principal type)."""
    if family == "let_chain":
        body = f"r{n}"
        for i in range(n, 0, -1):
            body = f"let r{i} = extend(r{i - 1}, f{i}, {i}) in ({body})"
        fields = sorted(f"f{i}" for i in range(1, n + 1))
        return "let r0 = {} in " + body, "{" + ", ".join(f"{l}: Int" for l in fields) + "}"
    if family == "extend_chain":
        body = "r"
        for i in range(n):
            body = f"extend({body}, g{i}, {i})"
        labels = sorted(f"g{i}" for i in range(n))
        lacks = ", ".join(f"{l}: Int" for l in labels)
        chain = "".join(f" + {{{l}: Int}}" for l in labels)
        return "\\r. " + body, f"forall 'a :: << || {lacks}>>. 'a -> 'a{chain}"
    if family == "app_chain":
        body = "{}"
        for _ in range(n):
            body = f"id ({body})"
        return "let id = \\x. x in " + body, "{}"
    if family == "wide_record":
        fields = ", ".join(f"f{i} = e {{}} {i}" for i in range(n))
        want = ", ".join(f"{l}: {{z: Int}}" for l in sorted(f"f{i}" for i in range(n)))
        return "let e = \\r. \\v. extend(r, z, v) in {" + fields + "}", "{" + want + "}"
    if family == "select_many":
        src = "\\r. {" + ", ".join(f"f{i} = r.f{i}" for i in range(n)) + "}"
        names = _names(n + 1)  # the field variables, in label order
        quants = "".join(f"forall '{names[i]} :: U. " for i in range(n))
        labels = sorted(f"f{i}" for i in range(n))
        has = ", ".join(f"{l}: '{name}" for l, name in zip(labels, names))
        rec = "'" + names[n]
        return src, f"{quants}forall {rec} :: <<{has} || >>. {rec} -> {{{has}}}"
    raise ValueError(f"unknown scaling family {family!r}")


# ---------------------------------------------------------------------------
# solve: kinded equation sets for unify, chains for normalize and equiv

GROUND = ("Int", "Bool", "String")
SOLVE_LABELS = ("l", "m", "n", "p", "q")


@dataclass(frozen=True)
class EquationSet:
    env: str  # environment-file text: one `'u :: KIND` per line
    equations: str  # equation-file text: one `T = T` per line


def equation_set(rng: random.Random, n: int) -> EquationSet:
    """n equations over n kinded variables and five labels (each label with
    one field type per set).  Each equation pairs a random side of arrow
    depth up to three with a copy in which random subterms are replaced by
    variables: mostly new ones kinded to fit, sometimes one of the set's
    own variables, so that a share of the sets have no unifier."""
    label_types = {l: rng.choice(GROUND + ("Int -> Bool",)) for l in SOLVE_LABELS}
    kinds = {}
    for i in range(n):
        if rng.random() < 0.3:
            kinds[f"u{i}"] = None
        else:
            pool = list(SOLVE_LABELS)
            rng.shuffle(pool)
            n_left = rng.randint(0, 2)
            n_right = rng.randint(0, 2)
            kinds[f"u{i}"] = (sorted(pool[:n_left]), sorted(pool[n_left : n_left + n_right]))
    gen = _Sides(rng, list(kinds), kinds, label_types)
    lines = []
    for _ in range(n):
        side = gen.side(3)
        lines.append(f"{_render(side)} = {_render(gen.generalize(side))}")
    env = []
    for v, k in kinds.items():
        if k is None:
            env.append(f"'{v} :: U")
        else:
            has = ", ".join(f"{l}: {_paren(label_types[l])}" for l in k[0])
            lacks = ", ".join(f"{l}: {_paren(label_types[l])}" for l in k[1])
            env.append(f"'{v} :: <<{has} || {lacks}>>")
    return EquationSet("\n".join(env) + "\n", "\n".join(lines) + "\n")


def _paren(t: str) -> str:
    return f"({t})" if "->" in t or " + " in t or " - " in t else t


def _render(node) -> str:
    tag = node[0]
    if tag in ("var", "base", "chain"):
        return node[1]
    if tag == "rec":
        return "{" + ", ".join(f"{l}: {_paren(ft)}" for l, ft in node[1]) + "}"
    return f"({_render(node[1])}) -> ({_render(node[2])})"


class _Sides:
    def __init__(self, rng, names, kinds, label_types):
        self.rng = rng
        self.names = names  # grows as generalize adds variables
        self.kinds = kinds  # name -> None (U) or (has labels, lacks labels)
        self.label_types = label_types

    def chain(self):
        """A kindable extension/contraction chain of up to four operations
        over a record-kinded variable."""
        rng = self.rng
        bases = [v for v in self.names if self.kinds[v] is not None]
        if not bases:
            return ("var", "'" + rng.choice(self.names))
        v = rng.choice(bases)
        present, absent = set(self.kinds[v][0]), set(self.kinds[v][1])
        text = "'" + v
        for _ in range(rng.randint(1, 4)):
            moves = [("+", l) for l in sorted(absent)] + [("-", l) for l in sorted(present)]
            if not moves:
                break
            op, l = rng.choice(moves)
            text += f" {op} {{{l}: {_paren(self.label_types[l])}}}"
            if op == "+":
                absent.discard(l)
                present.add(l)
            else:
                present.discard(l)
                absent.add(l)
        return ("chain", text)

    def side(self, depth):
        rng = self.rng
        pick = rng.random()
        if pick < 0.15:
            return ("var", "'" + rng.choice(self.names))
        if pick < 0.35:
            chosen = sorted(rng.sample(SOLVE_LABELS, rng.randint(0, 3)))
            return ("rec", [(l, self.label_types[l]) for l in chosen])
        if pick < 0.75 and depth > 0:
            return ("arrow", self.side(depth - 1), self.side(depth - 1))
        if pick < 0.85:
            return ("base", rng.choice(GROUND))
        return self.chain()

    def generalize(self, node):
        rng = self.rng
        pick = rng.random()
        if pick < 0.01:
            return ("var", "'" + rng.choice(self.names))
        if pick < 0.3:
            v = f"w{len(self.kinds)}"
            if node[0] == "rec" and rng.random() < 0.7:
                labels = [l for l, _ in node[1]]
                has = sorted(rng.sample(labels, rng.randint(0, len(labels))))
                others = [l for l in SOLVE_LABELS if l not in labels]
                lacks = sorted(rng.sample(others, rng.randint(0, len(others))))
                self.kinds[v] = (has, lacks)
            else:
                self.kinds[v] = None
            self.names.append(v)
            return ("var", "'" + v)
        if node[0] == "arrow":
            return ("arrow", self.generalize(node[1]), self.generalize(node[2]))
        return node


def cancelling_chain(rng: random.Random, pairs: int) -> str:
    """A chain over 'r of `pairs` extensions, each later cancelled by a
    contraction of the same field, interleaved at random; normal form 'r."""
    field_types = {}
    open_labels = []
    ops = []
    pending = pairs
    while pending or open_labels:
        if pending and (not open_labels or rng.random() < 0.55):
            l = f"k{pairs - pending}"
            pending -= 1
            field_types[l] = rng.choice(GROUND)
            open_labels.append(l)
            ops.append(f" + {{{l}: {field_types[l]}}}")
        else:
            l = open_labels.pop(rng.randrange(len(open_labels)))
            ops.append(f" - {{{l}: {field_types[l]}}}")
    return "'r" + "".join(ops)


def small_chain(rng: random.Random) -> str:
    """A chain of up to eight operations over a record literal or over 'r,
    with cancelling pairs and nested chains in field types."""
    present: dict[str, str] = {}
    if rng.random() < 0.4:
        present = {l: rng.choice(GROUND) for l in sorted(rng.sample(SOLVE_LABELS, rng.randint(0, 3)))}
        text = "{" + ", ".join(f"{l}: {ft}" for l, ft in present.items()) + "}"
    else:
        text = "'r"
    for _ in range(rng.randint(0, 8)):
        l = rng.choice(SOLVE_LABELS)
        if l in present:
            text += f" - {{{l}: {_paren(present.pop(l))}}}"
        else:
            present[l] = rng.choice(GROUND + ("'s + {l: Int} - {l: Int}",))
            text += f" + {{{l}: {_paren(present[l])}}}"
    return text


def shuffled_equal(rng: random.Random, pairs: int) -> tuple[str, str, bool]:
    """Two chains over 'r with the same operations on distinct labels in
    different orders (equal), or with one field type changed (not equal)."""
    labels = [f"h{i}" for i in range(pairs)]
    ops = [(rng.choice("+-"), l, rng.choice(GROUND)) for l in labels]
    other = list(ops)
    rng.shuffle(other)
    equal = rng.random() < 0.5
    if not equal:
        i = rng.randrange(len(other))
        sign, l, ft = other[i]
        other[i] = (sign, l, next(g for g in GROUND if g != ft))

    def text(seq):
        return "'r" + "".join(f" {s} {{{l}: {ft}}}" for s, l, ft in seq)

    return text(ops), text(other), equal
