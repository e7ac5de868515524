"""A registry of mutants that the tests must kill, and its runner.

    python tests/mutants.py            # every mutant
    python tests/mutants.py fifo-push  # the named ones

Each entry names a module of `src/extrec`, an exact source snippet that
occurs once in it, its replacement, and the tests that kill it.  The runner
copies `src` to a temporary directory, applies one mutant to the copy, and
runs the entry's tests against the copy with `pytest -x`; it never edits
`src` itself.  A mutant is killed when pytest reports a failed test.
The run fails if a mutant survives, if pytest stops for any other reason (a
replacement that does not import kills nothing), or if a snippet no longer
occurs exactly once: the registry follows the code.
`tests/test_mutant_registry.py` checks the snippets in tier-1.

To add a mutant, append a `Mutant` whose snippet is copied from the module,
long enough to occur once, with the fewest tests that kill it, and run
`python tests/mutants.py NAME`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/extrec
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


def _t(*ids):
    return tuple(f"tests/{i}" for i in ids)


MUTANTS = (
    Mutant(
        "bind-no-lower",
        "unify.py",
        "        self.lower(v, image)\n",
        "",
        _t("test_infer.py::test_levels_generalize_as_closure_does"),
    ),
    Mutant(
        "merge-no-lower-iii",
        "unify.py",
        "        st.lower(base, *written)\n",
        "        if image != base:\n            st.lower(base, *written)\n",
        _t("test_infer.py::test_levels_generalize_as_closure_does"),
    ),
    Mutant(
        "iv-no-lose",
        "unify.py",
        "        st.lose(v, *(t for _, t in k.rights))\n",
        "",
        _t("test_infer.py::test_levels_generalize_as_closure_does"),
    ),
    Mutant(
        "i-no-lose",
        "unify.py",
        "            st.lose(None, *(ftv(t1) ^ ftv(t2)))\n",
        "            pass\n",
        _t("test_infer.py::test_levels_generalize_as_closure_does"),
    ),
    Mutant(
        "retry-no-lose",
        "unify.py",
        "        st.lose(None, *(ftv(t1) - ftv(n1)), *(ftv(t2) - ftv(n2)))\n",
        "",
        _t("test_infer.py::test_levels_generalize_as_closure_does"),
    ),
    Mutant(
        "resolve-lets-a-chain-error-escape",
        "unify.py",
        "    except ValueError as e:  # `chain`",
        "    except TypeError as e:  # `chain`",
        _t("test_unify.py::test_a_chain_over_a_variable_bound_to_a_non_record_is_a_clash"),
    ),
    Mutant(
        "fifo-push",
        "unify.py",
        "self.eqs.extendleft(reversed(pairs))",
        "self.eqs.extend(pairs)",
        _t(
            "test_unify.py::test_a_chain_queued_before_a_merge_meets_the_merged_kind",
            "test_unify.py::test_field_equations_make_the_verdict_independent_of_equation_order",
        ),
    ),
    Mutant(
        "fresh-unchecked",
        "unify.py",
        "if v in self.kenv or v in self.subst:",
        "if False:",
        _t(
            "test_unify.py::test_a_merge_refuses_a_fresh_variable_already_in_the_state",
            "test_infer.py::test_a_supply_that_reaches_the_env_is_refused",
        ),
    ),
    Mutant(
        "ii-no-occurs",
        "unify.py",
        "        if a in ftv(b):\n",
        "        if False:\n",
        _t("test_unify.py::test_failure_reasons", "test_infer.py::test_negative_suite"),
    ),
    Mutant(
        "no-closure-fallback",
        "infer.py",
        "exact = self.level in self.forgot",
        "exact = False",
        _t(
            "test_infer.py::test_levels_generalize_as_closure_does",
            "test_cli.py::test_let_generalizes_what_binding_a_record_made_unreachable",
        ),
    ),
    Mutant(
        "known-field-no-lower",
        "infer.py",
        "        run.lower(base, field)\n",
        "        pass\n",
        _t("test_infer.py::test_levels_generalize_as_closure_does"),
    ),
    Mutant(
        "no-final-base-check",
        "infer.py",
        "            _check_base(run.current(subject), run.current(value), ext)\n",
        "            pass\n",
        _t("test_infer.py::test_extend_base_occurs_caught_after_later_aliasing"),
    ),
    Mutant(
        "find-reads-a-fields-label-in-an-operation",
        "syntax.py",
        "key(items[i]) == label",
        "items[i][0] == label",
        _t("test_syntax.py::test_find_agrees_with_a_linear_scan"),
    ),
    Mutant(
        "capture-misses-a-mapped-binder",
        "syntax.py",
        "if any(v in s or any(v in fv for fv in images) for v, _ in x.quants):",
        "if any(any(v in fv for fv in images) for v, _ in x.quants):",
        _t(
            "test_subst.py::test_one_walk_substitutes_resolves_and_avoids_capture",
            "test_subst.py::test_apply_agrees_with_structural_reference",
        ),
    ),
    Mutant(
        "capture-misses-an-image",
        "syntax.py",
        "if any(v in s or any(v in fv for fv in images) for v, _ in x.quants):",
        "if any(v in s for v, _ in x.quants):",
        _t(
            "test_subst.py::test_one_walk_substitutes_resolves_and_avoids_capture",
            "test_subst.py::test_apply_poly_avoids_capture",
        ),
    ),
    Mutant(
        "capture-skipped-below-a-resolve",
        "syntax.py",
        "    if x.__class__ is PolyType and x.quants:\n",
        "    if not met and x.__class__ is PolyType and x.quants:\n",
        _t("test_subst.py::test_one_walk_substitutes_resolves_and_avoids_capture"),
    ),
    Mutant(
        "walk-skips-the-variable-lookup",
        "syntax.py",
        "        if y.__class__ is TyVar:\n            return s.get(y, y)\n",
        "",
        _t(
            "test_subst.py::test_apply_agrees_with_structural_reference",
            "test_subst.py::test_one_walk_substitutes_resolves_and_avoids_capture",
        ),
    ),
    Mutant(
        "walk-calls-an-uncached-child-closed",
        "syntax.py",
        "        free = y._fv\n        if free is None:\n            free = ftv(y)\n",
        "        free = y._fv or _NO_VARS\n",
        _t("test_subst.py::test_the_walk_reads_a_child_whose_free_variables_no_builder_cached"),
    ),
    Mutant(
        "map-fields-hands-back-the-old-tuple",
        "syntax.py",
        "            pair, same = (pair[0], t), False\n",
        "            pair = (pair[0], t)\n",
        _t(
            "test_syntax.py::test_map_type_rebuilds_one_level",
            "test_subst.py::test_apply_agrees_with_structural_reference",
        ),
    ),
    Mutant(
        "map-ops-hands-back-the-old-tuple",
        "syntax.py",
        "            op, same = (op[0], op[1], t), False\n",
        "            op = (op[0], op[1], t)\n",
        _t(
            "test_syntax.py::test_map_type_rebuilds_one_level",
            "test_subst.py::test_apply_agrees_with_structural_reference",
        ),
    ),
    Mutant(
        "rebind-leaves-later-kinds",
        "syntax.py",
        "        quants.append((w, _walk(s, k) if s else k))\n",
        "        quants.append((w, k))\n",
        _t(
            "test_syntax.py::test_polytype_alpha_equality",
            "test_subst.py::test_one_walk_substitutes_resolves_and_avoids_capture",
        ),
    ),
    Mutant(
        "equiv-by-identity",
        "normalize.py",
        "    return t1 is t2 or normalize(t1) == normalize(t2)\n",
        "    return t1 is t2\n",
        _t("test_normalize.py::test_equiv_agrees_with_the_reference_reducer"),
    ),
    Mutant(
        "unify-entry-checks-one-side",
        "unify.py",
        "        if not (ftv(a) <= kinded and ftv(b) <= kinded):\n",
        "        if not ftv(a) <= kinded:\n",
        _t("test_unify.py::test_the_entry_checks_agree_with_their_per_variable_definitions"),
    ),
    Mutant(
        "tokenizer-splits-any-text",
        "parser.py",
        "    if None not in kinds:\n",
        "    if True:\n",
        _t(
            "test_parser.py::test_lexical_errors_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "tokenizer-keeps-comments",
        "parser.py",
        '        elif c != "#":  # a comment is dropped; a word splits after its digits\n',
        '        elif c == "#":\n            rows.append(("#", s, i, j))\n        else:\n',
        _t(
            "test_parser.py::test_tokens_and_spans_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "tokenizer-leaves-escapes",
        "parser.py",
        '            rows.append(("string", _string_literal(text, i, fail)[1], i, j))\n',
        '            rows.append(("string", s[1:-1], i, j))\n',
        _t(
            "test_parser.py::test_lexical_errors_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "tokenizer-calls-an-escaped-string-plain",
        "parser.py",
        """        else "string" if c == '"' and s != c and "\\\\" not in s\n""",
        """        else "string" if c == '"' and s != c\n""",
        _t(
            "test_parser.py::test_tokens_and_spans_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "tokenizer-reads-a-word-as-one-identifier",
        "parser.py",
        "            d = i\n"
        "            while d < j and text[d].isdigit():\n"
        "                d += 1\n"
        "            if d > i:\n"
        '                rows.append(("int", text[i:d], i, d))\n'
        '            if not ((c := text[d]).isalpha() or c == "_"):\n'
        '                raise fail(f"unexpected character {c!r}", d, d + 1)\n'
        '            rows.append(("ident", text[d:j], d, j))\n',
        '            rows.append(("ident", s, i, j))\n',
        _t(
            "test_parser.py::test_tokens_and_spans_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "tokenizer-calls-a-piece-above-9-an-identifier",
        "parser.py",
        '        else "ident" if (c := s[0]).isalpha() or c == "_"\n',
        '        else "ident" if (c := s[0]) > "9"\n',
        _t(
            "test_parser.py::test_lexical_errors_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "tokenizer-keeps-a-strings-quotes",
        "parser.py",
        "            texts[i] = texts[i][1:-1]\n",
        "            texts[i] = texts[i]\n",
        _t(
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
            "test_parser.py::test_every_node_carries_its_head_tokens_span_from_the_reference_table",
        ),
    ),
    Mutant(
        "tokenizer-keeps-a-type-variables-apostrophe",
        "parser.py",
        "            texts[i] = texts[i][1:]\n",
        "            texts[i] = texts[i]\n",
        _t(
            "test_parser.py::test_tokens_and_spans_are_pinned",
            "test_parser.py::test_the_token_table_matches_the_reference_tokenizer",
        ),
    ),
    Mutant(
        "term-closes-a-parenthesis-at-a-comma",
        "parser.py",
        '                if kinds[i] != ")":\n                    raise self.unexpected(i, (")",))\n                i += 1\n',
        '                if kinds[i] not in (")", ","):\n                    raise self.unexpected(i, (")",))\n                i += 1\n',
        _t("test_parser.py::test_syntax_errors_are_pinned"),
    ),
    Mutant(
        "let-swaps-bound-and-body",
        "parser.py",
        "            return Let(name, bound, self.term(), span)\n",
        "            return Let(name, self.term(), bound, span)\n",
        _t("test_parser.py::test_parse_term_examples", "test_parser.py::test_round_trip_terms_random"),
    ),
    Mutant(
        "line-col-counts-columns-from-0",
        "parser.py",
        'offset - text.rfind("\\n", 0, offset)\n',
        'offset - text.rfind("\\n", 0, offset) - 1\n',
        _t("test_parser.py::test_line_col_agrees_with_the_reference_at_every_position"),
    ),
    Mutant(
        "line-col-ends-a-line-at-cr",
        "parser.py",
        "    return text.count(",
        '    text = text.replace("\\r", "\\n")\n    return text.count(',
        _t("test_parser.py::test_line_col_agrees_with_the_reference_at_every_position"),
    ),
    Mutant(
        "term-span-ends-where-it-starts",
        "parser.py",
        "                    t = Var(s, (starts[i], ends[i]))\n",
        "                    t = Var(s, (starts[i], starts[i]))\n",
        _t(
            "test_parser.py::test_spans_of_parsed_terms_lie_inside_the_text",
            "test_parser.py::test_every_node_carries_its_head_tokens_span_from_the_reference_table",
        ),
    ),
    Mutant(
        "generalize-early-on-forgot",
        "infer.py",
        "        if exact:\n            gamma = ",
        "        if exact and deep:\n            gamma = ",
        _t(
            "test_infer.py::test_levels_generalize_as_closure_does",
            "test_cli.py::test_let_generalizes_what_binding_a_record_made_unreachable",
        ),
    ),
    Mutant(
        "instance-of-any-body-unnormalized",
        "infer.py",
        "    return p.body if normalize(body) is body else normalize(p.body)\n",
        "    return p.body\n",
        _t("test_cli.py::test_an_instance_of_a_body_that_is_not_normal_is_normalized"),
    ),
    Mutant(
        "let-keeps-its-binding",
        "infer.py",
        "            tenv[name] = shadowed\n        if run.nodes is not None:\n"
        '            run.record("Let"',
        "            pass\n        if run.nodes is not None:\n"
        '            run.record("Let"',
        _t("test_cli.py::test_a_binder_puts_back_the_entry_it_shadows"),
    ),
    Mutant(
        "lambda-keeps-its-binding",
        "infer.py",
        "            tenv[name] = shadowed\n        t = Arrow(",
        "            pass\n        t = Arrow(",
        _t("test_cli.py::test_a_binder_puts_back_the_entry_it_shadows"),
    ),
    Mutant(
        "ftv-no-cache-write",
        "syntax.py",
        '    _set(x, "_fv", fv)\n    return fv\n',
        "    return fv\n",
        _t("test_syntax.py::test_ftv_agrees_with_reference_walk_and_is_cached"),
    ),
    Mutant(
        "constructor-swaps-two-slots",
        "syntax.py",
        "            arg, arg1 = args\n",
        "            arg1, arg = args\n",
        _t("test_syntax.py::test_plain_value_classes_share_one_constructor"),
    ),
    Mutant(
        "cancel-across-field-types",
        "normalize.py",
        "        partners = open_ops.get((label, -sign, fty))\n",
        "        partners = next((q for (l, s, _), q in open_ops.items()"
        " if (l, s) == (label, -sign) and q), None)\n",
        _t(
            "test_normalize.py::test_one_operation_on_a_normal_chain_equals_reference",
            "test_normalize.py::test_normalize_equals_reference_loop_on_debris",
        ),
    ),
    Mutant(
        "contraction-folds-any-field-type",
        "normalize.py",
        "            if here is None or here != fty:\n",
        "            if here is None:\n",
        _t(
            "test_normalize.py::test_one_operation_on_a_normal_chain_equals_reference",
            "test_normalize.py::test_normalize_equals_reference_loop_on_debris",
        ),
    ),
    Mutant(
        "compose-drops-the-outer-bindings",
        "subst.py",
        "        if v not in s1:\n            out[v] = t\n",
        "        pass\n",
        _t("test_subst.py::test_compose_examples"),
    ),
    Mutant(
        "closure-quantifies-the-context",
        "subst.py",
        "    quantify = eftv(kenv, t) - eftv_assignment(kenv, gamma)\n",
        "    quantify = eftv(kenv, t)\n",
        _t("test_subst.py::test_closure_keeps_gamma_essential_variables"),
    ),
    Mutant(
        "closure-pins-nothing",
        "subst.py",
        "                pinned |= ftv(kinds[w]) & quantify\n",
        "                pass\n",
        _t("test_subst.py::test_closure_pins_residually_referenced_and_cyclic_variables"),
    ),
    Mutant(
        "instance-ignores-kinds",
        "subst.py",
        "        has_kind(ks.kenv, ks.subst.get(v, v), apply_type(ks.subst, k))\n",
        "        True\n",
        _t("test_subst.py::test_respects_examples"),
    ),
    Mutant(
        "validate-skips-the-kinding-side-condition",
        "checker.py",
        "    if not has_kind(j.kenv, claim.subject, claim.kind):\n",
        "    if False:\n",
        _t("test_checker.py::test_validator_checks_each_condition_on_its_own"),
    ),
    Mutant(
        "validate-skips-the-ext-base-check",
        "checker.py",
        "        if isinstance(base, TyVar) and base in ftv(normalize(ts[1])):\n",
        "        if False:\n",
        _t("test_checker.py::test_validator_checks_each_condition_on_its_own"),
    ),
    Mutant(
        "check-specializes-the-context",
        "checker.py",
        "        if v in res.subst:\n",
        "        if False:\n",
        _t("test_cli.py::test_check_refuses_a_claim_that_specializes_the_context"),
    ),
)


def occurrences(m: Mutant) -> int:
    return (SRC / "extrec" / m.module).read_text(encoding="utf-8").count(m.snippet)


def run(m: Mutant) -> str | None:
    """None when m is killed, else what went wrong."""
    n = occurrences(m)
    if n != 1:
        return f"snippet occurs {n} times in {m.module}"
    with tempfile.TemporaryDirectory(prefix="extrec-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "extrec" / m.module
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        # pyproject.toml's pythonpath would put the real src first
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        argv += ["-o", f"pythonpath={src}", *m.tests]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        r = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if r.returncode == 1:
        return None
    if r.returncode == 0:
        return "survived"
    return f"pytest exited {r.returncode}:\n{r.stdout[-2000:]}{r.stderr[-2000:]}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for m in chosen:
        problem = run(m)
        print(f"{m.name}: {'killed' if problem is None else problem}", flush=True)
        failed += problem is not None
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
