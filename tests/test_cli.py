import json

from click.testing import CliRunner

from extrec.cli import main
from extrec.parser import parse_kind, parse_mono, parse_type

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


def test_check_env_accepts_printed_principal_type(tmp_path):
    env = tmp_path / "ex.env"
    env.write_text(ENV_42)
    for src in ("extend(x, l, y)", "y", "{a = x, b = remove(extend(x, l, y), l)}", "\\z. x"):
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


def test_eval_command():
    r = run("eval", "-e", "extend({}, l, true).l")
    assert r.exit_code == 0 and r.output.strip() == "true"
    err = run("eval", "-e", "{l=1}.m")
    assert err.exit_code == 1


def test_parse_command_echoes_canonically():
    r = run("parse", "-e", "((f) (x))")
    assert r.exit_code == 0 and r.output.strip() == "f x"


def test_exit_codes():
    assert run("infer", "-e", "\\x. x x").exit_code == 1  # type error
    assert run("infer", "-e", "\\x. (").exit_code == 2  # syntax error
    assert run("infer").exit_code == 2  # no input source
    assert run("infer", "-e", "x", "nope.rec").exit_code == 2  # two sources
    # a digit that is not decimal lexes as an integer but does not parse as one
    r = run("parse", "-e", "²")
    assert r.exit_code == 2
    assert "Traceback" not in r.output and "not a decimal integer '²'" in r.output


def test_deep_nesting_is_a_usage_error():
    deep = "(" * 1000 + "x" + ")" * 1000
    # long inputs that parse but nest too deeply for a later stage
    spine = "f" + " x" * 3000
    self_apps = "let f = \\x. x in " + " ".join(["f"] * 3000)
    eval_spine = "(\\x. x)" + " 1" * 3000
    chain = "'r" + "".join(f" + {{k{i}: Int}}" for i in range(3000))
    for args in (["parse", "-e", deep], ["infer", "-e", deep],
                 ["check", "-e", deep, "-t", "Int"], ["eval", "-e", deep],
                 ["infer", "-e", self_apps], ["eval", "-e", eval_spine],
                 ["parse", "-e", spine], ["normalize", "-t", chain],
                 ["check", "-e", spine, "-t", "Int"]):
        r = run(*args)
        assert r.exit_code == 2, args
        assert "Traceback" not in r.output and "nested too deeply" in r.output, args


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
