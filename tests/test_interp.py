import random

import pytest

from extrec.infer import FreshSupply, InferFailure, infer
from extrec.interp import (
    BoolV,
    ClosureV,
    EvalError,
    IntV,
    RecordV,
    StringV,
    eval_term,
    show_value,
)
from extrec.parser import parse_term
from extrec.syntax import Const
from gen import gen_closed_term, shape_matches


def run(src):
    return eval_term(parse_term(src))


def test_record_operations():
    assert run("extend({}, l, true).l") == BoolV(True)
    assert run("remove({l=1, m=2}, l)") == RecordV((("m", IntV(2)),))
    assert run("modify({l=1}, l, 2)") == RecordV((("l", IntV(2)),))
    assert run('{s = "hi"}.s') == StringV("hi")


def test_functions_and_let():
    assert run("(\\x. x) 5") == IntV(5)
    assert run("let f = \\x. x.l in f {l = 7}") == IntV(7)
    assert isinstance(run("\\x. x"), ClosureV)
    # let is non-recursive: the bound name refers to the outer scope
    assert run("let x = 1 in let x = {l = x} in x.l") == IntV(1)


def test_closures_capture_by_value():
    assert run("let x = 1 in let f = \\y. x in let x = 2 in f 0") == IntV(1)


def test_runtime_errors():
    with pytest.raises(EvalError):
        run("{l=1}.m")
    with pytest.raises(EvalError):
        run("modify({}, l, 1)")
    with pytest.raises(EvalError):
        run("remove({m=2}, l)")
    with pytest.raises(EvalError):
        run("extend({l=1}, l, 2)")
    with pytest.raises(EvalError):
        run("1 2")
    with pytest.raises(EvalError):
        eval_term(parse_term("ghost"))


def test_each_record_operation_names_its_runtime_error():
    cases = [
        ("{}.l", "selecting absent field l"),
        ("modify({}, l, 1)", "modifying absent field l"),
        ("remove({}, l)", "removing absent field l"),
        ("extend({l = 1}, l, 2)", "extending with present field l"),
    ]
    for src, message in cases:
        with pytest.raises(EvalError) as e:
            run(src)
        assert str(e.value) == message, src


def test_show_value():
    assert show_value(run("{l = 1, m = true}")) == "{l = 1, m = true}"
    assert show_value(run('"a\\"b"')) == '"a\\"b"'


def test_printed_strings_parse_back():
    # the evaluator prints a string value as the parser's literal for it
    for text in ("", "s", 'a"b', "a\\b", "a\nb", "tab\there", "\\n", "end\\"):
        printed = show_value(StringV(text))
        assert "\n" not in printed and "\t" not in printed, printed
        assert parse_term(printed) == Const(text, "String"), printed
        assert show_value(run(printed)) == printed


def test_well_typed_terms_do_not_go_wrong_sample():
    rng = random.Random(113)
    accepted = 0
    for _ in range(300):
        term = gen_closed_term(rng, rng.randint(1, 5))
        res = infer({}, {}, term, FreshSupply(1))
        if isinstance(res, InferFailure):
            continue
        accepted += 1
        value = eval_term(term)  # must not raise
        assert shape_matches(value, res.type)
    assert accepted > 60
