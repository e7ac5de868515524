"""Self-test of the benchmark at tiny input sizes:

    python3 perfbench/selftest.py

It runs every workload in both modes through `run.main`, as the
benchmark's caller does, and checks that the last line is a result object
naming every metric of BENCHMARK.json with its unit.  It then runs the
scaling workload with one deliberately wrong closed-form type and checks
that the operations it covers fail, rather than pass silently.
Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def expect(cond, message):
    if not cond:
        FAILURES.append(message)


def shrink_inputs():
    inputs.CORPUS_PROGRAMS = 24
    inputs.SCALING_SIZES = (2, 4)
    inputs.UNIFY_SIZES = (2, 4)
    inputs.UNIFY_SETS = 2
    inputs.CANCEL_PAIRS = (3, 6)
    inputs.CANCEL_CHAINS = 1
    inputs.EQUIV_PAIRS = (3,)
    inputs.EQUIV_CHAINS = 2
    inputs.SMALL_CHAINS = 5


def bench(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "20240", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    expect(code == 0, f"{workload} trace={trace}: exit {code}")
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload} trace={trace}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{workload} trace={trace}: nothing attempted")
    return result, lines


def check_metrics(workload, trace, result):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    expect(set(got) == set(want), f"{workload} trace={trace}: metrics differ: "
           f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if name in got:
            entry = got[name]
            expect(entry.get("unit") == unit, f"{workload}: {name} unit {entry.get('unit')!r}, want {unit!r}")
            expect(isinstance(entry.get("value"), (int, float)), f"{workload}: {name} is not a number")


def main():
    shrink_inputs()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            result, _ = bench(workload, trace)
            check_metrics(workload, trace, result)
            expect(result["correct"], f"{workload} trace={trace}: wrong output at tiny sizes")

    right = inputs.scaling_program

    def wrong_app_chain(family, n):
        text, want = right(family, n)
        return (text, "{wrong: Int}") if family == "app_chain" else (text, want)

    inputs.scaling_program = wrong_app_chain
    try:
        result, lines = bench("scaling", 0)
    finally:
        inputs.scaling_program = right
    share = next(float(l.split()[1]) for l in lines if l.startswith("error_share"))
    expect(result["failed"] > 0 and share > 0, "a wrong closed form did not raise error_share")
    expect(not result["correct"], "a wrong closed form still reads correct")

    for failure in FAILURES:
        print("FAIL:", failure)
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
