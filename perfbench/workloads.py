"""The three workloads.  Each builds its operations from the seed, runs one
pass of them as a closed loop with one caller (an operation starts when
the previous one has returned), and checks every output of a pass
against a reference that does not come from `infer`.

Operations call extrec through this module's own bindings (`cli_request`,
`unify`, `normalize`, `equiv`), which is where the tracer puts the spans
that the benchmark records itself.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import inputs
from extrec.checker import validate
from extrec.cli import main as cli_main
from extrec.infer import FreshSupply, InferFailure, infer
from extrec.interp import BoolV, ClosureV, IntV, RecordV, StringV, eval_term, show_value
from extrec.normalize import equiv, is_normal, normalize, reduce_once
from extrec.parser import parse_env_file, parse_equations, parse_mono, parse_term, parse_type
from extrec.subst import KindedSubstitution, apply_type, closure, generic_instance, respects
from extrec.syntax import (
    Arrow, BaseType, Contr, Ext, PolyType, RecordKind, RecordType, TyVar, ftv, rename_vars,
)
from extrec.unify import UnificationError, unify

VERDICTS = Path(__file__).resolve().parent / "corpus_verdicts.txt"


class Op:
    """One timed operation and what it returned or raised."""

    __slots__ = ("family", "size", "item", "seconds", "outcome", "error", "problem")

    def __init__(self, family, size, item):
        self.family = family
        self.size = size
        self.item = item
        self.seconds = 0.0
        self.outcome = None
        self.error = None  # set when the operation raised
        self.problem = None  # set by the reference check when it fails


class Recorder:
    """Times the operations of one pass, one after another.  `between`, if
    given, runs before each operation, outside its timing."""

    def __init__(self, between=None):
        self.ops: list[Op] = []
        self.between = between

    def time(self, family, size, item, fn, *args) -> Op:
        if self.between is not None:
            self.between()
        op = Op(family, size, item)
        start = perf_counter()
        try:
            op.outcome = fn(*args)
        except Exception as e:  # counted as a failed operation; the run goes on
            op.error = f"{type(e).__name__}: {e}"
        op.seconds = perf_counter() - start
        self.ops.append(op)
        return op


def cli_request(argv):
    """`extrec ARGV` in-process, as from a shell: (exit status, stdout, stderr).
    Exceptions other than the exit escape, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli_main.main(args=argv, prog_name="extrec", standalone_mode=True)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return code, out.getvalue(), err.getvalue()


TRACEBACK = "printed a traceback"


def _cli_problem(op):
    if op.error is not None:
        return op.error
    code, out, err = op.outcome
    if "Traceback" in out or "Traceback" in err:
        return TRACEBACK
    return None


class Workload:
    name = ""
    tail_percentile = 99.0

    def inputs_digest(self) -> str:
        return inputs.digest(self.texts)

    def run_pass(self, rec: Recorder) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> str | None:
        """Reference check of one operation; a reason when it fails."""
        raise NotImplementedError

    def check_pass(self, ops) -> list[str | None]:
        return [self.check(op) for op in ops]


# ---------------------------------------------------------------------------


class Corpus(Workload):
    """Many small programs through the cli: `infer --json` for each, `check`
    of the printed principal type for each accepted one, `eval` for each
    accepted closed one."""

    name = "corpus"
    tail_percentile = 99.0

    def __init__(self, seed, work_dir: Path):
        self.seed = seed
        self.programs = inputs.corpus_programs(seed)
        self.texts = [inputs.ENV_42] + [p.text for p in self.programs]
        self.env_path = str(work_dir / "env42.env")
        Path(self.env_path).write_text(inputs.ENV_42)
        self._refs = {}

    def run_pass(self, rec):
        for prog in self.programs:
            env = ["--env", self.env_path] if prog.with_env else []
            # depths 1-2 and 3-6 form sizes 2 and 6, so that each size
            # holds enough accepted programs for a steady time
            size = 2 if prog.depth <= 2 else 6
            op = rec.time("infer", size, prog, cli_request, ["infer", "--json", *env, "-e", prog.text])
            if op.error is not None or op.outcome[0] != 0:
                continue
            try:
                printed = json.loads(op.outcome[1])["poly_type"]
            except (ValueError, KeyError):
                continue  # the reference check reports it
            rec.time("check", size, prog, cli_request, ["check", *env, "-e", prog.text, "-t", printed])
            if prog.closed:
                rec.time("eval", size, prog, cli_request, ["eval", "-e", prog.text])
        return rec.ops

    def _env(self, prog):
        if prog.with_env:
            return parse_env_file(inputs.ENV_42)
        return {}, {}, None

    def reference(self, prog):
        """The program's typing with its derivation, or None when rejected;
        raises ValueError when the derivation does not validate."""
        if prog.index not in self._refs:
            kenv, tenv, venv = self._env(prog)
            start = venv.next_free_uid() if venv is not None else 1
            res = infer(kenv, tenv, parse_term(prog.text), FreshSupply(start), want_trace=True)
            if isinstance(res, InferFailure):
                self._refs[prog.index] = None
            else:
                issue = validate(res.trace)
                if issue is not None:
                    raise ValueError(f"derivation rejected: {issue}")
                self._refs[prog.index] = res
        return self._refs[prog.index]

    def check(self, op):
        problem = _cli_problem(op)
        if problem is not None:
            return problem
        code, out, err = op.outcome
        prog = op.item
        try:
            ref = self.reference(prog)
        except ValueError as e:
            return str(e)
        if op.family == "infer":
            if code == 1:
                if ref is not None:
                    return "cli rejected a program the library accepts"
                return None if err.startswith("type error") else f"exit 1 with {err.strip()!r}"
            if code != 0:
                return f"exit {code}: {err.strip()}"
            if ref is None:
                return "cli accepted a program the library rejects"
            return self._check_printed(prog, ref, json.loads(out)["poly_type"])
        if op.family == "check":
            if not self._closed_under_env(prog, ref):
                # the claim cannot hold under the environment as given
                return None if code == 1 else f"check exit {code}, want 1: {(out + err).strip()}"
            return None if code == 0 and out.strip() == "OK" else f"check exit {code}: {(out + err).strip()}"
        if code != 0:
            return f"eval exit {code}: {err.strip()}"
        value = eval_term(parse_term(prog.text))
        if show_value(value) != out.strip():
            return f"eval printed {out.strip()!r}"
        if not shape_matches(value, ref.type):
            return f"value {out.strip()} does not have the shape of its type"
        return None

    def _closed_under_env(self, prog, ref):
        """Is the validated typing one the environment can state as given:
        it keeps the environment's types and kinds, and its principal type
        needs no kinded variables beyond the environment's (closure leaves
        a variable free when its kind is cyclic or a residual kind
        mentions it)?"""
        kenv, tenv, _ = self._env(prog)
        root = ref.trace.judgment
        _, principal = closure(root.kenv, root.tenv, root.sigma.body)
        return (root.tenv == tenv
                and all(root.kenv.get(v) == k for v, k in kenv.items())
                and ftv(principal) <= kenv.keys())

    def _check_printed(self, prog, ref, printed):
        """The printed principal type is the closure of the validated
        derivation's conclusion, up to renaming of its variables or else
        as a mutual generic instance."""
        root = ref.trace.judgment
        _, _, venv = self._env(prog)
        claimed = parse_type(printed, venv)
        resid, principal = closure(root.kenv, root.tenv, root.sigma.body)
        if canon(claimed) == canon(principal):
            return None
        if (generic_instance(resid, principal, claimed)
                and generic_instance(resid, claimed, principal)):
            return None
        return f"printed type {printed!r} is not the validated principal type"

    def verdicts(self, ops) -> str:
        marks = ["?"] * len(self.programs)
        for op in ops:
            if op.family == "infer" and op.error is None:
                marks[op.item.index] = {0: "A", 1: "R"}.get(op.outcome[0], "?")
        return "".join(marks)

    def check_pass(self, ops):
        """Also compares the accept/reject verdicts with the committed list
        when the seed is the one it was recorded for."""
        problems = super().check_pass(ops)
        header, want = VERDICTS.read_text().split("\n")[:2]
        if header == f"seed {self.seed}":
            got = self.verdicts(ops)
            for i, op in enumerate(ops):
                if op.family == "infer" and problems[i] is None and want[op.item.index] != got[op.item.index]:
                    problems[i] = f"verdict {got[op.item.index]} differs from the committed list"
        return problems


def canon(x):
    """Rename type variables by first occurrence, so values that differ only
    in variable identity compare equal."""
    order: list[int] = []

    def walk(y):
        if isinstance(y, TyVar):
            if y.uid not in order:
                order.append(y.uid)
        elif isinstance(y, Arrow):
            walk(y.dom)
            walk(y.cod)
        elif isinstance(y, RecordType):
            for _, t in y.fields:
                walk(t)
        elif isinstance(y, (Ext, Contr)):
            walk(y.base)
            walk(y.field_type)
        elif isinstance(y, RecordKind):
            for _, t in y.lefts + y.rights:
                walk(t)
        elif isinstance(y, PolyType):
            for v, k in y.quants:
                walk(k)
                walk(v)
            walk(y.body)

    walk(x)
    return rename_vars(x, {uid: TyVar(i + 1) for i, uid in enumerate(order)})


def shape_matches(value, t) -> bool:
    """Does a runtime value have the shape its normalized type promises?"""
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


# ---------------------------------------------------------------------------


class Scaling(Workload):
    """The ROADMAP's program families at several sizes, each through
    `extrec infer`; the seed fixes the order of the operations in a pass."""

    name = "scaling"
    tail_percentile = 75.0

    def __init__(self, seed, families=None, sizes=None):
        families = families or inputs.SCALING_FAMILIES
        sizes = sizes or inputs.SCALING_SIZES
        self.programs = [
            (family, n, *inputs.scaling_program(family, n)) for family in families for n in sizes
        ]
        random.Random(seed).shuffle(self.programs)
        self.texts = [text for _, _, text, _ in self.programs]

    def run_pass(self, rec):
        for item in self.programs:
            family, n, text, _ = item
            rec.time(family, n, item, cli_request, ["infer", "-e", text])
        return rec.ops

    def check(self, op):
        problem = _cli_problem(op)
        if problem is not None:
            return problem
        code, out, err = op.outcome
        want = op.item[3]
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if out.strip() != want:
            return f"printed {out.strip()[:80]!r}..., want {want[:80]!r}..."
        return None


# ---------------------------------------------------------------------------


class Solve(Workload):
    """`unify` on kinded equation sets and `normalize`/`equiv` on chains,
    called directly: few large calls, against the many tiny ones that
    inference makes."""

    name = "solve"
    tail_percentile = 97.0

    def __init__(self, seed):
        rng = random.Random(seed)
        items = []
        self.texts = []
        for n in inputs.UNIFY_SIZES:
            for _ in range(inputs.UNIFY_SETS):
                es = inputs.equation_set(rng, n)
                self.texts += [es.env, es.equations]
                kenv, _, venv = parse_env_file(es.env)
                eqs, venv = parse_equations(es.equations, venv)
                items.append(("unify", n, (kenv, eqs, venv.next_free_uid())))
        for pairs in inputs.CANCEL_PAIRS:
            for _ in range(inputs.CANCEL_CHAINS):
                text = inputs.cancelling_chain(rng, pairs)
                self.texts.append(text)
                items.append(("normalize", pairs, parse_mono(text)))
        for pairs in inputs.EQUIV_PAIRS:
            for _ in range(inputs.EQUIV_CHAINS):
                a, b, equal = inputs.shuffled_equal(rng, pairs)
                self.texts += [a, b]
                items.append(("equiv", pairs, (parse_mono(a), parse_mono(b), equal)))
        for _ in range(inputs.SMALL_CHAINS):
            text = inputs.small_chain(rng)
            self.texts.append(text)
            items.append(("chain", 8, parse_mono(text)))
        rng.shuffle(items)
        self.items = items
        self._refs = {}

    def run_pass(self, rec):
        for item in self.items:
            family, size, arg = item
            if family == "unify":
                rec.time(family, size, item, solve_unify, *arg)
            elif family == "equiv":
                rec.time(family, size, item, equiv, arg[0], arg[1])
            else:
                rec.time(family, size, item, normalize, arg)
        return rec.ops

    def check(self, op):
        if op.error is not None:
            return op.error
        family, _, arg = op.item
        if family == "unify":
            if op.outcome is None:
                return None  # no unifier; only a brute-force search could confirm it
            kenv, eqs, _ = arg
            resid, s = op.outcome
            for a, b in eqs:
                if not equiv(apply_type(s, a), apply_type(s, b)):
                    return "the unifier leaves an equation unsolved"
            if not respects(KindedSubstitution(resid, s), kenv):
                return "the unifier does not respect the input kinds"
            return None
        if family == "equiv":
            a, b, equal = arg
            want = self._reduced(a) == self._reduced(b)
            if want != equal or op.outcome != equal:
                return f"equiv said {op.outcome}, want {equal}"
            return None
        if not is_normal(op.outcome):
            return "normalize returned a reducible type"
        if op.outcome != self._reduced(arg):
            return "normalize disagrees with the reduce_once loop"
        return None

    def _reduced(self, t):
        """Normal form by the reference reduction loop, chains sorted."""
        key = id(t)
        if key not in self._refs:
            cur = t
            while (nxt := reduce_once(cur)) is not None:
                cur = nxt
            self._refs[key] = (t, sort_chains(cur))
        return self._refs[key][1]


def solve_unify(kenv, eqs, start):
    """The most general unifier, or None when there is none."""
    try:
        return unify(kenv, eqs, fresh=FreshSupply(start).fresh)
    except UnificationError:
        return None


def sort_chains(t):
    """Sort the operations of every chain over a variable by label (stable),
    the canonical order of normal forms."""
    if isinstance(t, Arrow):
        return Arrow(sort_chains(t.dom), sort_chains(t.cod))
    if isinstance(t, RecordType):
        return RecordType(tuple((l, sort_chains(ft)) for l, ft in t.fields))
    if isinstance(t, (Ext, Contr)):
        ops = []
        while isinstance(t, (Ext, Contr)):
            ops.append((type(t), t.label, sort_chains(t.field_type)))
            t = t.base
        ops.reverse()
        base = sort_chains(t)
        if isinstance(base, TyVar):
            ops.sort(key=lambda op: op[1])
        for cls, label, ft in ops:
            base = cls(base, label, ft)
        return base
    return t


WORKLOADS = {"corpus": Corpus, "scaling": Scaling, "solve": Solve}
