import json
import os
import random
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import extrec
from extrec.cli import main
from extrec.parser import (
    Namer,
    parse_kind,
    parse_mono,
    parse_type,
    pretty_kind_assignment,
    pretty_term,
    pretty_type,
)
from gen import gen_closed_term, gen_two_chain_equation

ENV_42 = "'a :: << || l: 'b>>\n'b :: U\nx : 'a\ny : 'b\n"


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_infer_selector():
    r = run("infer", "-e", "\\x. x.l")
    assert r.exit_code == 0
    assert r.output.strip() == "forall 'a :: U. forall 'b :: <<l: 'a || >>. 'b -> 'a"


def test_infer_with_env(tmp_path):
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    r = run("infer", "--env", str(env), "-e", "extend(x, l, y).l")
    assert r.exit_code == 0
    assert r.output.strip() == "'b"


def test_infer_json_round_trips(tmp_path):
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    r = run("infer", "--env", str(env), "-e", "extend(x, l, y)", "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert set(payload) == {"kind_assignment", "substitution", "type", "poly_type"}
    parse_mono(payload["type"])
    parse_type(payload["poly_type"])
    for k in payload["kind_assignment"].values():
        parse_kind(k)
    for t in payload["substitution"].values():
        parse_mono(t)
    assert payload["type"] == "'a + {l: 'b}"


def test_normalize_command():
    r = run("normalize", "-t", "('a + {l: Int}) - {l: Int}")
    assert r.exit_code == 0
    assert r.output.strip() == "'a"


def test_normalize_command_long_cancelling_chain():
    pairs = 1500
    chain = "'r" + "".join(f" + {{k{i}: Int}}" for i in range(pairs))
    chain += "".join(f" - {{k{i}: Int}}" for i in range(pairs))
    r = run("normalize", "-t", chain)
    assert r.exit_code == 0
    assert r.output.strip() == "'r"


def test_check_ok_and_fail():
    good = run("check", "-e", "\\x. x.l", "-t", "forall 'b :: <<l: Int || >>. 'b -> Int")
    assert good.exit_code == 0
    assert good.output.strip() == "OK"
    bad = run("check", "-e", "\\x. x", "-t", "Int -> Bool")
    assert bad.exit_code == 1
    assert bad.output.startswith("FAIL:")
    as_json = run("check", "-e", "\\x. x", "-t", "Int -> Bool", "--json")
    assert as_json.exit_code == 1
    payload = json.loads(as_json.output)
    assert payload["ok"] is False and payload["reason"]


def test_check_accepts_instances_that_undo_an_operation():
    # the principal type's base variable becomes a chain over the claim's
    # variable that undoes the operation: 'a := 'q - {l: Int}
    ext = run("check", "-e", "\\x. extend(x, l, 1)",
              "-t", "forall 'q :: <<l: Int || >>. 'q - {l: Int} -> 'q")
    assert (ext.exit_code, ext.output) == (0, "OK\n")
    rem = run("check", "-e", "\\x. remove(x, l)",
              "-t", "forall 'q :: << || l: Int>>. 'q + {l: Int} -> 'q")
    assert (rem.exit_code, rem.output) == (0, "OK\n")
    # the undone field's type comes from the claim, not from a default
    # for the principal type's unbound 'a
    rem_bool = run("check", "-e", "\\x. remove(x, l)",
                   "-t", "forall 'q :: << || l: Bool>>. 'q + {l: Bool} -> 'q")
    assert (rem_bool.exit_code, rem_bool.output) == (0, "OK\n")
    # the same shape whose kind forbids l at another type stays refused
    bad = run("check", "-e", "\\x. remove(x, l)",
              "-t", "forall 'q :: << || l: Bool>>. 'q + {l: Int} -> 'q")
    assert bad.exit_code == 1 and bad.output.startswith("FAIL:")


def test_check_binds_an_undone_field_where_the_claim_fixes_it():
    # the field type that matching undoes or inverts is bound where the
    # claim fixes it, also when that position comes later; before any was
    # taken from a default (Int), these were refused in this argument order
    claims = [
        ("\\f. \\x. f (remove(x, l))",
         "forall 'b :: U. forall 'q :: << || l: Bool>>. ('q -> 'b) -> 'q + {l: Bool} -> 'b"),
        ("\\f. \\x. \\y. f (extend(x, l, y))",
         "forall 'c :: U. forall 'q :: <<l: Bool || >>. ('q -> 'c) -> 'q - {l: Bool} -> Bool -> 'c"),
        ("\\x. \\f. f (remove(x, l))",
         "forall 'b :: U. {l: Bool, m: Int} -> ({m: Int} -> 'b) -> 'b"),
        ("\\f. \\x. f (remove(x, l))",
         "forall 'b :: U. ({m: Int} -> 'b) -> {l: Bool, m: Int} -> 'b"),
        ("\\x. \\f. f (remove(x, l))",
         "forall 'b :: U. forall 'q :: << || l: Bool>>. 'q + {l: Bool} -> ('q -> 'b) -> 'b"),
    ]
    for src, claim in claims:
        r = run("check", "-e", src, "-t", claim)
        assert (r.exit_code, r.output) == (0, "OK\n"), (src, claim)
    # the kind forbids l at Bool, the claim adds it at Int
    bad = run("check", "-e", "\\f. \\x. f (remove(x, l))",
              "-t", "forall 'b :: U. forall 'q :: << || l: Bool>>. ('q -> 'b) -> 'q + {l: Int} -> 'b")
    assert bad.exit_code == 1 and bad.output.startswith("FAIL:")


def test_check_refuses_a_claim_that_specializes_the_context(tmp_path):
    env = tmp_path / "ctx.env"
    env.write_text("'a :: U\ny : 'a\n")
    r = run("check", "--env", str(env), "-e", "y 1", "-t", "forall 'b :: U. 'b")
    assert (r.exit_code, r.output) == (1, "FAIL: the claim's context would have to be specialized\n")


def test_check_env_accepts_printed_principal_type(tmp_path):
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    # a field labelled U is read back inside a kind
    for src in ("extend(x, l, y)", "y", "{a = x, b = remove(extend(x, l, y), l)}", "\\z. x",
                "\\r. r.U"):
        printed = run("infer", "--env", str(env), "-e", src)
        assert printed.exit_code == 0, src
        r = run("check", "--env", str(env), "-e", src, "-t", printed.output.strip())
        assert (r.exit_code, r.output.strip()) == (0, "OK"), (src, r.output)


def test_infer_env_prints_strengthened_kinds_first(tmp_path):
    # typing x.m adds m to the kind of x's type, with a new variable for the
    # field; both entries come before the type, and the environment's
    # variables keep their source names
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    r = run("infer", "--env", str(env), "-e", "x.m")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["'a :: <<m: 'c || l: 'b>>", "'c :: U", "'c"]
    # the printed entries, in place of the environment's line for 'a, make
    # the type checkable; added below it, they declare 'a a second time
    entries = "\n".join(r.output.splitlines()[:-1]) + "\n"
    merged = tmp_path / "merged.env"
    merged.write_text(ENV_42.replace("'a :: << || l: 'b>>\n", entries))
    ok = run("check", "--env", str(merged), "-e", "x.m", "-t", "'c")
    assert (ok.exit_code, ok.output.strip()) == (0, "OK")
    merged.write_text(ENV_42 + entries)
    twice = run("check", "--env", str(merged), "-e", "x.m", "-t", "'c")
    assert twice.exit_code == 2
    assert twice.output.strip() == f"{merged}: 5:1: second declaration of 'a"


def test_check_env_refuses_claim_needing_stronger_kind(tmp_path):
    # typing x.m adds m to the kind of x's type, which the environment fixes
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    src = "let z = x.m in y"
    printed = run("infer", "--env", str(env), "-e", src).output.splitlines()
    assert printed == ["'a :: <<m: 'c || l: 'b>>", "'c :: U", "'b"]
    r = run("check", "--env", str(env), "-e", src, "-t", "'b")
    assert r.exit_code == 1
    assert r.output.startswith("FAIL:") and "stronger kind" in r.output


def test_unify_command(tmp_path):
    env = tmp_path / "k.env"
    env.write_text("'a :: << || l: 'c>>\n'b :: <<l: 'c || >>\n'c :: U\n")
    r = run("unify", "--env", str(env), "-e", "'a + {l: 'c} - {l: 'c} = 'b - {l: 'c}")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert "---" in lines
    assert "'b := 'a + {l: 'c}" in lines
    bad = run("unify", "-e", "Int = Bool")
    assert bad.exit_code == 1
    assert bad.output.startswith("FAIL:")


def test_unify_names_the_environment_first(tmp_path):
    # the two-chain merge's fresh base takes the next free letter; the
    # environment's variables keep their source names
    env = tmp_path / "k.env"
    env.write_text("'a :: <<l: Int, m: Bool || >>\n'b :: << || l: Int>>\n")
    r = run("unify", "--env", str(env), "-e", "'a - {m: Bool} = 'b + {l: Int}")
    assert r.exit_code == 0
    assert r.output.splitlines() == [
        "'c :: <<m: Bool || l: Int>>",
        "---",
        "'a := 'c + {l: Int}",
        "'b := 'c - {m: Bool}",
    ]


def test_eval_command():
    r = run("eval", "-e", "extend({}, l, true).l")
    assert r.exit_code == 0 and r.output.strip() == "true"
    err = run("eval", "-e", "{l=1}.m")
    assert err.exit_code == 1


def test_parse_command_echoes_canonically():
    r = run("parse", "-e", "((f) (x))")
    assert r.exit_code == 0 and r.output.strip() == "f x"


def test_exit_codes(tmp_path):
    assert run("infer", "-e", "\\x. x x").exit_code == 1  # type error
    assert run("infer", "-e", "\\x. (").exit_code == 2  # syntax error
    assert run("infer").exit_code == 2  # no input source
    assert run("infer", "-e", "x", "nope.rec").exit_code == 2  # two sources
    # a digit that is not decimal lexes as an integer but does not parse as one
    r = run("parse", "-e", "²")
    assert r.exit_code == 2
    assert "Traceback" not in r.output and "not a decimal integer '²'" in r.output
    # a FILE or --env file that is not UTF-8 is a usage error, not a traceback
    bad = tmp_path / "bad.rec"
    bad.write_bytes(b"\xff")
    for args in (["infer", str(bad)], ["unify", str(bad)], ["eval", str(bad)],
                 ["parse", str(bad)], ["infer", "--env", str(bad), "-e", "1"],
                 ["check", "--env", str(bad), "-e", "1", "-t", "Int"]):
        r = run(*args)
        assert r.exit_code == 2, args
        assert r.output == f"{bad}: not valid UTF-8: invalid start byte at byte 0\n", args
    assert run("infer", str(tmp_path / "absent.rec")).exit_code == 2


def test_deep_nesting_is_a_usage_error():
    deep = "(" * 1000 + "x" + ")" * 1000
    # long inputs that parse but nest too deeply for a later stage
    spine = "f" + " x" * 3000
    self_apps = "let f = \\x. x in " + " ".join(["f"] * 3000)
    eval_spine = "(\\x. x)" + " 1" * 3000
    for args in (["parse", "-e", deep], ["infer", "-e", deep],
                 ["check", "-e", deep, "-t", "Int"], ["eval", "-e", deep],
                 ["infer", "-e", self_apps], ["eval", "-e", eval_spine],
                 ["parse", "-e", spine], ["check", "-e", spine, "-t", "Int"]):
        r = run(*args)
        assert r.exit_code == 2, args
        assert "Traceback" not in r.output and "nested too deeply" in r.output, args
    # a chain is one node, so its length costs no stack
    labels = [f"k{i}" for i in range(3000)]
    r = run("normalize", "-t", "'r" + "".join(f" + {{{l}: Int}}" for l in labels))
    assert r.exit_code == 0
    assert r.output == "'r" + "".join(f" + {{{l}: Int}}" for l in sorted(labels)) + "\n"


def test_deterministic_output():
    a = run("infer", "-e", "\\r. {p = r.l, q = remove(r, m)}")
    b = run("infer", "-e", "\\r. {p = r.l, q = remove(r, m)}")
    assert a.exit_code == 0
    assert a.output == b.output


def test_term_file_input(tmp_path):
    f = tmp_path / "prog.rec"
    f.write_text("let pair = \\x. {fst = x, snd = x} in pair 3\n")
    r = run("infer", str(f))
    assert r.exit_code == 0
    assert r.output.strip() == "{fst: Int, snd: Int}"
    assert run("eval", str(f)).output.strip() == "{fst = 3, snd = 3}"
    # a file's carriage returns are read as they stand, as with -e
    cr = tmp_path / "cr.rec"
    cr.write_bytes(b'"a\rb"')
    r = run("eval", str(cr))
    assert r.exit_code == 0 and r.stdout_bytes == run("eval", "-e", '"a\rb"').stdout_bytes
    assert r.stdout_bytes == b'"a\rb"\n'
    # and a CRLF env file's errors keep their line:col
    env = tmp_path / "crlf.env"
    env.write_bytes(b"'a :: U\r\nx : 'a\r\ny : Int ->\r\n")
    r = run("infer", "--env", str(env), "-e", "1")
    assert r.exit_code == 2
    assert r.output == f"{env}: 3:11: unexpected 'end of input' (expected type)\n"


def test_unify_follows_long_variable_links(tmp_path):
    # each equation links a variable to the one below it, newest first, so
    # the last binding's image is reached through 3000 variable links
    n = 3000
    env = tmp_path / "links.env"
    env.write_text("".join(f"'a{i} :: U\n" for i in range(n + 1)))
    eqs = tmp_path / "links.eqs"
    eqs.write_text("".join(f"'a{i + 1} = 'a{i}\n" for i in range(n - 1, -1, -1)))
    r = run("unify", "--env", str(env), str(eqs))
    assert r.exit_code == 0, r.output[-200:]
    assert r.output.splitlines()[-1] == f"'a{n} := 'a0"


def test_wide_records_unify_without_a_step_limit(tmp_path):
    # one equation between two 1300-field records takes more solver steps
    # than a bound proportional to the number of equations allows
    n = 1300
    r1 = "{" + ", ".join(f"l{i} = 1" for i in range(n)) + "}"
    r2 = "{" + ", ".join(f"l{i} = v" for i in range(n)) + "}"
    term = f"\\g. \\v. (\\u. g {r1}) (g {r2})"
    fields = sorted(f"l{i}" for i in range(n))
    record = "{" + ", ".join(f"{l}: Int" for l in fields) + "}"
    expected = f"forall 'a :: U. ({record} -> 'a) -> Int -> 'a"
    r = run("infer", "-e", term)
    assert r.exit_code == 0 and r.output.strip() == expected, r.output[-200:]
    r = run("check", "-e", term, "-t", expected)
    assert r.exit_code == 0 and r.output.strip() == "OK", r.output[-200:]
    env = tmp_path / "k.env"
    env.write_text("'a :: U\n")
    eq = record + " = {" + ", ".join(f"l{i}: 'a" for i in range(n)) + "}"
    r = run("unify", "--env", str(env), "-e", eq)
    assert r.exit_code == 0 and r.output.splitlines()[-1] == "'a := Int", r.output[-200:]


# Printed types that depend on which variables a let generalizes.
LET_TYPES = {
    # y's type reaches the type assignment only through x's kind
    "\\x. let y = x.l in let w = y in w": "forall 'a :: U. forall 'b :: <<l: 'a || >>. 'b -> 'a",
    "\\x. let y = x.l in x.m": "forall 'a :: U. forall 'b :: U. forall 'c :: <<l: 'a, m: 'b || >>. 'c -> 'b",
    "\\r. let g = \\s. extend(s, m, r.l) in g": (
        "forall 'a :: U. forall 'b :: <<l: 'a || >>. forall 'c :: << || m: 'a>>. 'b -> 'c -> 'c + {m: 'a}"
    ),
    "let f = \\x. let g = \\y. x in g in f": "forall 'a :: U. forall 'b :: U. 'a -> 'b -> 'a",
    "let f = \\x. x in {a = f 1, b = f true}": "{a: Int, b: Bool}",
}


def test_let_generalization_outputs(tmp_path):
    for src, want in LET_TYPES.items():
        r = run("infer", "-e", src)
        assert r.exit_code == 0, src
        assert r.output.strip() == want, src
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    r = run("infer", "--env", str(env), "-e", "let z = x.m in z")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["'a :: <<m: 'c || l: 'b>>", "'c :: U", "'c"]


def test_let_generalizes_what_binding_a_record_made_unreachable(tmp_path):
    # Inside z's bound term x's type is bound to {}, which drops its kind's
    # `l: <v's type>`.  v's type was ranked with x's, but no entry of the
    # type assignment reaches it any more, so z is polymorphic in it.
    bound = "\\v. {a = extend(x, l, v), b = (\\f. {c = f x, d = f {}}) (\\r. r)}"
    uses = "{p = z 1, q = z true}"
    fields = "a: {l: %s}, b: {c: {}, d: {}}"
    want = "{p: {%s}, q: {%s}}" % (fields % "Int", fields % "Bool")
    r = run("infer", "-e", f"\\x. let z = {bound} in {uses}")
    assert r.exit_code == 0
    assert r.output.strip() == "{} -> " + want
    # The same with x's type, and the type that x's kind alone mentions,
    # from the environment.
    env = tmp_path / "ex.env"
    env.write_text("'a :: << || l: 'b>>\n'b :: U\nx : 'a\n")
    r = run("infer", "--env", str(env), "-e", f"let z = {bound} in {uses}")
    assert r.exit_code == 0
    assert r.output.strip() == want


def test_infer_json_names_the_environment_first(tmp_path):
    # As on the plain path: the environment's variables keep their names,
    # and the fresh field variable takes the next free one.
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    r = run("infer", "--env", str(env), "-e", "x.m", "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["kind_assignment"] == {"'a": "<<m: 'c || l: 'b>>", "'b": "U", "'c": "U"}
    assert payload["type"] == "'c"


# Runs each request of a JSON list of argument lists through the CLI's entry
# point and prints a JSON list of [exit status, output].
_DRIVER = """
import json, sys
from click.testing import CliRunner
from extrec.cli import main
results = [CliRunner().invoke(main, a) for a in json.load(sys.stdin)]
print(json.dumps([[r.exit_code, r.output] for r in results]))
"""

KINDS_ENV = "'a :: << || l: 'c>>\n'b :: <<l: 'c || >>\n'c :: U\n"


def _hash_seed_requests(work: Path):
    """The README's infer and unify examples, and seeded programs and
    two-chain equation sets, each as CLI arguments."""
    (work / "ex.env").write_text(ENV_42, encoding="utf-8")
    (work / "kinds.env").write_text(KINDS_ENV, encoding="utf-8")
    requests = [
        ["infer", "--json", "-e", "\\x. x.l"],
        ["infer", "--json", "-e", "let f = \\x. x in {a = f 1, b = f true}"],
        ["infer", "--env", "ex.env", "-e", "x.m"],
        ["infer", "--json", "--env", "ex.env", "-e", "extend(x, l, y).l"],
        ["infer", "-e", "\\r. {a = r.a, b = r.b}"],
        ["infer", "--json", "-e", "\\r. remove(extend(r, m, 1), l)"],
        ["unify", "--env", "kinds.env", "-e", "'a + {l: 'c} - {l: 'c} = 'b - {l: 'c}"],
    ]
    rng = random.Random(2718)
    for i in range(30):
        term = pretty_term(gen_closed_term(rng, 1 + i % 5, scope=("x", "y") if i % 2 else ()))
        requests.append(["infer", "--json", *(["--env", "ex.env"] if i % 2 else []), "-e", term])
    for i in range(10):
        kenv, eqs, _ = gen_two_chain_equation(rng)
        namer = Namer()
        (work / f"eq{i}.env").write_text(pretty_kind_assignment(kenv, namer), encoding="utf-8")
        text = "\n".join(f"{pretty_type(a, namer)} = {pretty_type(b, namer)}" for a, b in eqs)
        requests.append(["unify", "--env", f"eq{i}.env", "-e", text])
    return requests


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Set iteration follows the hash seed for labels; printed results must
    # not.  Two README examples run as `python -m extrec.cli`, and every
    # request runs through the CLI's entry point in one process per seed.
    requests = _hash_seed_requests(tmp_path)
    src = str(Path(extrec.__file__).resolve().parent.parent)
    procs = {}
    for seed in ("0", "1"):
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = dict(cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True)
        cli = [sys.executable, "-m", "extrec.cli"]
        procs[seed] = [
            subprocess.Popen(cli + requests[5], **run),
            subprocess.Popen(cli + requests[6], **run),
            subprocess.Popen([sys.executable, "-c", _DRIVER], stdin=subprocess.PIPE, **run),
        ]
        procs[seed][2].stdin.write(json.dumps(requests))
        procs[seed][2].stdin.close()
    outputs = {seed: [p.stdout.read() for p in ps] for seed, ps in procs.items()}
    for ps in procs.values():
        for p in ps:
            p.wait()
    assert outputs["0"] == outputs["1"]
    results = json.loads(outputs["0"][2])
    assert [status for status, _ in results[:7]] == [0] * 7
    assert outputs["0"][:2] == [results[5][1], results[6][1]]
    assert sum(status == 0 for status, _ in results) >= 20
