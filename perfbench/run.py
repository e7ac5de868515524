"""extrec benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload corpus|scaling|solve --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source tree; extrec is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it say
what was measured, on which inputs (a digest of their text), and why
operations failed.

An operation fails when it raises, prints a traceback, or gives output
that fails its reference check; error_share is failed / attempted and is
printed on its own line.  `correct` is false when some operation returned
an output its reference rejects: a crash is a failure, not a wrong answer.

--trace 0 runs passes over the workload's operations and prints the
end-to-end metrics.  The number of passes is S divided by the workload's
nominal pass time (PASS_S, at least one): a fixed number for given
arguments, so that two runs with the same seed attempt, and fail, the
same operations however fast the machine runs that day.  Times are scaled
to the reference machine speed of calibrate.py, whose kernel runs
between operations.  Every workload prints every metric:

  setup_s        median over rounds of importing extrec afresh and
                 building the ambient environment
  peak_rss_mb    peak resident memory of the process
  ops_per_s      successful operations per second of operation time
  op_p50_ms      median time of a successful operation, as the mean of
                 the times from p45 to p55
  op_tail_ms     the workload's tail percentile p of that time, one with
                 at least ten operation times beyond it (printed): p99
                 on corpus, p75 on scaling, p97 on solve; as the mean of
                 the times within (100 - p) / 4 of p
  geomean_s      geometric mean over the workload's families of the
                 central operation time (the mean of the middle 80
                 percent) at the family's largest size
  growth_exp     largest over families of the least-squares slope of
                 log(central time) against log(size)
  let_chain_s    central `extrec infer` time of the let-chain and
  extend_chain_s extend-chain programs at the largest scaling size; on
                 corpus and solve, from probe passes over those two
                 programs that follow each pass of the workload, after
                 a collection of the pass's garbage

A family is one of scaling's program families; one of corpus's request
kinds (infer, check, eval), sized by program depth (2 for depths 1-2, 6
for 3-6); one of solve's calls
(unify, normalize, equiv, chain), sized by its input.

--trace 1 alternates untraced and traced passes, as many pairs as S over
the nominal pair time (TRACED_PAIR_S, at least one), and prints
the per-layer metrics: calls, work counts and self times recorded around
calls into each extrec module (see tracing.py), unscaled, as medians
over the traced passes; trace.overhead_s is the median traced pass time
minus the median untraced one.  checker.validate is timed in the
reference checks, the only place it runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "out"

PROBE_FAMILIES = ("let_chain", "extend_chain")
PROBE_PASSES = 2  # after each pass of the workload
# Nominal seconds of one untraced pass with its probe passes and kernel
# runs, and of one untraced and one traced pass, on a 2-vCPU 2.1 GHz
# virtual machine; a run of S seconds makes S / these passes.
PASS_S = {"corpus": 3.3, "scaling": 1.6, "solve": 3.2}
TRACED_PAIR_S = {"corpus": 4.3, "scaling": 3.6, "solve": 4.4}
SETUP_ROUNDS = 31

PER_LAYER = (
    "parser.parse_term.calls", "parser.parse_term.self_s", "parser.chars_per_s",
    "parser.pretty.self_s",
    "cli.requests", "cli.self_s",
    "infer.infer.calls", "infer.walk.self_s", "infer.fail_share",
    "subst.apply_assignment.calls", "subst.apply_assignment.entries",
    "subst.apply_assignment.self_s", "subst.apply_type.calls", "subst.apply_type.self_s",
    "subst.compose.calls", "subst.compose.out_size", "subst.compose.self_s",
    "subst.closure.calls", "subst.closure.self_s", "subst.generic_instance.self_s",
    "checker.subst_derivation.calls", "checker.subst_derivation.self_s",
    "checker.check.self_s", "checker.validate.calls", "checker.validate.self_s",
    "unify.unify.calls", "unify.unify.eqs_in", "unify.unify.subst_out",
    "unify.unify.self_s", "unify.unify.fail_share",
    "normalize.normalize.calls", "normalize.normalize.self_s",
    "normalize.equiv.calls", "normalize.equiv.self_s",
    "kinding.field_info.calls", "kinding.field_info.self_s",
    "kinding.wf_kind_assignment.calls", "kinding.wf_kind_assignment.self_s",
    "kinding.has_kind.self_s",
    "syntax.ftv.calls", "syntax.ftv.self_s", "syntax.eftv.calls", "syntax.eftv.self_s",
    "interp.eval_term.calls", "interp.eval_term.self_s",
    "trace.overhead_s",
)
# per-layer names whose span is named otherwise
SPAN_ALIASES = {"cli.requests": "cli.calls", "infer.walk.self_s": "infer.infer.self_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "scaling", "solve"))
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-verdicts", action="store_true",
                   help="corpus only: record the seed's accept/reject list and exit")
    return p.parse_args(argv)


def measure_setup(calibrator, rounds=SETUP_ROUNDS) -> float:
    """Median time, in reference seconds, to import extrec from scratch and
    build the ambient environment the way the cli does."""
    import inputs

    times = []
    for _ in range(rounds):
        # `workloads` binds extrec's functions, so it must bind the fresh ones
        for name in [n for n in sys.modules if n in ("extrec", "workloads") or n.startswith("extrec.")]:
            del sys.modules[name]
        calibrator.between_ops(always=True)
        start = perf_counter()
        importlib.import_module("extrec.cli")
        parser = sys.modules["extrec.parser"]
        kinding = sys.modules["extrec.kinding"]
        kenv, tenv, _ = parser.parse_env_file(inputs.ENV_42)
        if not (kinding.wf_kind_assignment(kenv) and kinding.wf_type_assignment(kenv, tenv)):
            raise RuntimeError("the ambient environment is not well formed")
        times.append(perf_counter() - start)
    return statistics.median(times) * calibrator.scale(tracking=1.0)


def band(sorted_values, lo, hi):
    """Mean of a sorted list from its percentile lo to its percentile hi
    (nearest rank).  A single rank jumps between two programs' times when
    it falls where the times of one end and the next begin, as scaling's
    p50 and p75 do; a band's mean moves smoothly."""
    n = len(sorted_values)
    i = max(0, math.ceil(lo / 100 * n) - 1)
    j = max(i + 1, math.ceil(hi / 100 * n))
    return statistics.fmean(sorted_values[i:j])


def slope(points):
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def samples(passes, scale):
    """(family, size, seconds) of every successful operation, scaled."""
    return [(op.family, op.size, op.seconds * scale)
            for ps in passes for op in ps if op.problem is None]


def central(values):
    """Mean of the middle 80 percent: steady where a median would jump,
    as for a size that mixes quick refusals with slow answers."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def family_times(ops):
    """{family: {size: central seconds}}."""
    by = {}
    for family, size, seconds in ops:
        by.setdefault(family, {}).setdefault(size, []).append(seconds)
    return {f: {n: central(ts) for n, ts in sizes.items()} for f, sizes in by.items()}


def end_to_end(wl, passes, probe, probe_passes, scale, lines):
    """End-to-end metrics of the untraced passes; the two target-family
    times come from the probe's passes when the workload has a probe."""
    ops = samples(passes, scale)
    if not ops:
        raise RuntimeError("no operation succeeded")
    times = sorted(seconds for _, _, seconds in ops)
    p = wl.tail_percentile
    lo, hi = p - (100 - p) / 4, p + (100 - p) / 4
    lines.append(f"op_tail_ms is p{p:g}, the mean from p{lo:g} to p{hi:g}, of {len(times)} "
                 f"operation times ({len(times) - math.ceil(hi / 100 * len(times))} beyond it)")
    fams = family_times(ops)
    for family, sizes in fams.items():
        lines.append(f"  {family}: " + ", ".join(f"n={n} {t * 1e3:.2f}ms" for n, t in sorted(sizes.items())))
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (band(times, 45, 55) * 1e3, "ms"),
        "op_tail_ms": (band(times, lo, hi) * 1e3, "ms"),
        "geomean_s": (math.exp(statistics.fmean(math.log(m[max(m)]) for m in fams.values())), "s"),
        "growth_exp": (max(slope(sorted(m.items())) for m in fams.values() if len(m) > 1), "1"),
    }
    if probe is not None:
        for op in (op for ps in probe_passes for op in ps):
            op.problem = probe.check(op)
        fams = family_times(samples(probe_passes, scale))
        lines.append("probe: " + ", ".join(f"{f} n={max(m)} {m[max(m)]:.4f}s" for f, m in fams.items()))
    for family in PROBE_FAMILIES:
        sizes = fams[family]
        metrics[f"{family}_s"] = (sizes[max(sizes)], "s")
    return metrics


REPEATED = object()  # outcome of a repeat that matched the first pass


def compare_to_first(passes):
    """Mark the last pass's outcomes that repeat the first pass's, and drop
    them, so that memory does not grow with the number of passes."""
    if len(passes) < 2:
        return
    first, last = passes[0], passes[-1]
    for i, op in enumerate(last):
        if i < len(first) and (op.outcome, op.error) == (first[i].outcome, first[i].error):
            op.outcome = REPEATED


def verify(wl, passes):
    """Reference-check the first pass; later passes must repeat its outputs."""
    first = passes[0]
    for op, problem in zip(first, wl.check_pass(first)):
        op.problem = problem
    for ps in passes[1:]:
        for i, op in enumerate(ps):
            op.problem = first[i].problem if op.outcome is REPEATED else "output differs from the first pass"


def layer_metrics(tracers, untraced, traced, validate_tracer):
    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    def value(name):
        span, _, what = SPAN_ALIASES.get(name, name).rpartition(".")
        if what == "calls":
            return med(lambda t: t.calls[span])
        if what == "self_s":
            return med(lambda t: t.self_s[span])
        if what == "fail_share":
            calls = med(lambda t: t.calls[span])
            return med(lambda t: t.extra[span + ".fails"]) / calls if calls else 0.0
        return med(lambda t: t.extra[name])

    units = {"self_s": "s", "fail_share": "ratio"}
    m = {}
    for name in PER_LAYER:
        if name in ("parser.chars_per_s", "parser.pretty.self_s", "trace.overhead_s") \
                or name.startswith("checker.validate."):
            continue
        m[name] = (value(name), units.get(name.rpartition(".")[2], "count"))
    parse_s = m["parser.parse_term.self_s"][0]
    chars = med(lambda t: t.extra["parser.parse_term.chars"])
    m["parser.chars_per_s"] = (chars / parse_s if parse_s else 0.0, "1/s")
    pretty = [n for n in tracers[0].names if n.startswith("parser.pretty_")]
    m["parser.pretty.self_s"] = (med(lambda t: sum(t.self_s[n] for n in pretty)), "s")
    m["checker.validate.calls"] = (validate_tracer.calls["checker.validate"], "count")
    m["checker.validate.self_s"] = (validate_tracer.self_s["checker.validate"], "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return {name: m[name] for name in PER_LAYER}


def pass_count(seconds, nominal_s) -> int:
    """Passes that take about `seconds` at the nominal pass time."""
    return max(1, round(seconds / nominal_s))


def measure(wl, seconds, trace, calibrator, lines):
    """Time about `seconds` of passes over the workload (at least one),
    check them, and return the result object without the set-up metrics.  Each
    pass of a workload other than scaling is followed by probe passes
    over the two target families at the largest scaling size."""
    import inputs
    import workloads
    from tracing import Tracer

    between = None if trace else calibrator.between_ops
    probe = None
    if not trace and not isinstance(wl, workloads.Scaling):
        probe = workloads.Scaling(0, families=PROBE_FAMILIES, sizes=(max(inputs.SCALING_SIZES),))
    passes, probe_passes, untraced, traced, tracers = [], [], [], [], []
    # The inputs live for the whole run: keep the cyclic collector from
    # rescanning them, so their number does not slow the program's own
    # collections.
    gc.collect()
    gc.freeze()
    start = perf_counter()
    for _ in range(pass_count(seconds, (TRACED_PAIR_S if trace else PASS_S)[wl.name])):
        t0 = perf_counter()
        passes.append(wl.run_pass(workloads.Recorder(between)))
        untraced.append(perf_counter() - t0)
        compare_to_first(passes)
        if probe is not None:
            gc.collect()  # the pass's garbage is not the probe's to collect
            for _ in range(PROBE_PASSES):
                probe_passes.append(probe.run_pass(workloads.Recorder(between)))
        if trace:
            tracer = Tracer([workloads])
            tracer.add_global("cli", workloads, "cli_request")
            with tracer:
                t0 = perf_counter()
                passes.append(wl.run_pass(workloads.Recorder()))
                traced.append(perf_counter() - t0)
            compare_to_first(passes)
            tracers.append(tracer)
    lines.append(f"{len(passes)} passes of {len(passes[0])} operations in {perf_counter() - start:.2f}s")

    validate_tracer = Tracer([workloads], only={"checker.validate"})
    with validate_tracer:
        verify(wl, passes)

    if trace:
        metrics = layer_metrics(tracers, untraced, traced, validate_tracer)
        spans = WORK / f"spans-{wl.name}.bin"
        tracers[0].write_spans(spans)
        lines.append(f"{tracers[0].span_count} spans of the first traced pass in {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(wl, passes, probe, probe_passes, calibrator.scale(), lines)
        lines.append(f"time scale {calibrator.scale():.4f} from {len(calibrator.samples)} kernel runs")

    all_ops = [op for ps in passes + probe_passes for op in ps]
    bad = [op for op in all_ops if op.problem is not None]
    wrong = [op for op in bad if op.error is None and op.problem != workloads.TRACEBACK]
    lines.append(f"error_share {len(bad) / len(all_ops):.4f} ({len(bad)} of {len(all_ops)} "
                 f"operations failed, {len(wrong)} with wrong output)")
    reasons = Counter(f"{op.family}: {op.problem}"[:160] for op in bad)
    for text, n in reasons.most_common(8):
        lines.append(f"  {n} x {text}")
    return {
        "correct": not wrong,
        "attempted": len(all_ops),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(args, lines):
    from calibrate import Calibrator

    calibrator = Calibrator()
    setup_s = measure_setup(calibrator)
    import workloads

    if args.workload == "corpus":
        wl = workloads.Corpus(args.seed, WORK)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    lines.append(f"workload {wl.name} seed {args.seed} inputs {wl.inputs_digest()}")

    if args.write_verdicts:
        if wl.name != "corpus":
            raise SystemExit("--write-verdicts applies to the corpus workload")
        workloads.VERDICTS.write_text(f"seed {args.seed}\n{wl.verdicts(wl.run_pass(workloads.Recorder()))}\n")
        lines.append(f"wrote {workloads.VERDICTS}")
        return None

    result = measure(wl, args.seconds, args.trace, calibrator, lines)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "extrec" / "__init__.py").is_file():
        print(f"no extrec source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(BENCH), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    WORK.mkdir(exist_ok=True)
    lines: list[str] = []
    result = run(args, lines)
    for line in lines:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
