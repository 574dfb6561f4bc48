"""Golden tests for the hammer-pattern DSL: parser, resolver, compiler.

The textual grammar and the Python builders must produce identical
ASTs; the compile pipeline (resolve → unroll → coalesce → chunk) must
produce the documented plan shapes; and every authoring mistake —
unbound placeholders, over-nested repeats, malformed syntax — must be
a :class:`PatternError` with a usable message, never a silent
mis-compile.
"""

import pytest

from repro.errors import PatternError
from repro.patterns import (
    P,
    act,
    compile_pattern,
    parse_pattern,
    parse_patterns,
    pattern,
    repeat,
    round_robin,
    sided_pattern,
    sync,
    wait,
)
from repro.patterns.compile import (
    CompiledPlan,
    MAX_REPEAT_DEPTH,
    PlanStep,
    resolve_bindings,
)
from repro.patterns.lang import Act, Repeat, Sync, Wait
from repro.patterns.program import _sided_offsets

DOUBLE_SIDED = """\
# classic double-sided: one timer dispatch per round
pattern double_sided(victim, rounds, acts=60)
  repeat rounds
    act 0, victim - 1, acts
    act 0, victim + 1, acts
    sync
  end
end
"""


class TestParser:
    def test_parses_the_reference_pattern(self):
        pat = parse_pattern(DOUBLE_SIDED)
        assert pat.name == "double_sided"
        assert pat.param_names() == ("victim", "rounds", "acts")
        assert pat.params[2].default == 60
        [rep] = pat.body
        assert isinstance(rep, Repeat)
        kinds = [type(op) for op in rep.body]
        assert kinds == [Act, Act, Sync]

    def test_parser_and_builders_agree(self):
        built = pattern(
            "double_sided", ("victim", "rounds", ("acts", 60)),
            repeat(P("rounds"),
                   act(0, P("victim") - 1, P("acts")),
                   act(0, P("victim") + 1, P("acts")),
                   sync()))
        assert parse_pattern(DOUBLE_SIDED) == built

    def test_precedence_and_parentheses(self):
        plan = compile_pattern(parse_pattern(
            "pattern p()\n  act 0, 1 + 2 * 3, (1 + 1) * 2\nend\n"))
        assert plan.steps == (PlanStep(((0, 7, 4),)),)

    def test_unary_minus(self):
        plan = compile_pattern(parse_pattern(
            "pattern p()\n  act 0, -(1 - 3), 1\nend\n"))
        assert plan.steps == (PlanStep(((0, 2, 1),)),)

    def test_comments_and_blank_lines_ignored(self):
        plan = compile_pattern(parse_pattern(
            "# header\n\npattern p()  # trailing\n  act 0, 5  # act\nend\n"))
        assert plan.steps == (PlanStep(((0, 5, 1),)),)

    def test_parse_patterns_returns_every_block_in_order(self):
        two = ("pattern a()\n  act 0, 1\nend\n"
               "pattern b()\n  act 0, 2\nend\n")
        assert [p.name for p in parse_patterns(two)] == ["a", "b"]
        with pytest.raises(PatternError, match="exactly one pattern"):
            parse_pattern(two)

    @pytest.mark.parametrize("source, message", [
        ("act 0, 1\n", "outside a pattern"),
        ("pattern p(\n  act 0, 1\nend\n", "bad pattern header"),
        ("pattern p()\n  act 0\nend\n", "bank, row"),
        ("pattern p()\n  act 0, 1, 2, 3\nend\n", "bank, row"),
        ("pattern p()\n  sync 4\nend\n", "'sync' takes no operands"),
        ("pattern p()\n  act 0, 1\nend extra\nend\n", "takes no operands"),
        ("pattern p()\n  act 0, 1\nend\nend\n", "unmatched 'end'"),
        ("pattern p()\n  act 0, 1\n", "unterminated"),
        ("pattern p()\n  repeat 3\n  end\nend\n", "empty repeat body"),
        ("pattern p()\nend\n", "empty body"),
        ("pattern p()\n  hammer 0, 1\nend\n", "unknown statement"),
        ("pattern p()\n  act 0, 1 +\nend\n", "unexpected end"),
        ("pattern p()\n  act 0, 1)\nend\n", "unbalanced"),
        ("pattern p()\n  act 0, (1\nend\n", "unexpected end"),
        ("pattern p()\n  act 0, 1 2\nend\n", "trailing tokens"),
        ("pattern p()\n  wait\nend\n", "missing operand"),
        ("pattern p(x=oops)\n  act 0, 1\nend\n", "not an integer"),
        ("pattern p(1bad)\n  act 0, 1\nend\n", "bad parameter name"),
        ("", "defines no pattern"),
    ])
    def test_syntax_errors(self, source, message):
        with pytest.raises(PatternError, match=message):
            parse_pattern(source)

    def test_errors_carry_the_offending_line_number(self):
        with pytest.raises(PatternError, match="line 3"):
            parse_pattern("pattern p()\n  act 0, 1\n  act 0\nend\n")

    @pytest.mark.parametrize("row", [
        "(" * 2_000 + "1" + ")" * 2_000,
        "-" * 3_000 + "1",
        "+".join(["1"] * 5_000),
    ], ids=["nested-parentheses", "unary-minus-chain", "sum-chain"])
    def test_deep_expressions_raise_typed_errors(self, row):
        # Each shape once overflowed the recursive parser or eval_expr
        # with a bare RecursionError.
        source = f"pattern p()\n  sync\n  act 0, {row}, 1\nend\n"
        with pytest.raises(PatternError, match="line 3: expression "
                           "nested deeper than 64 levels"):
            compile_pattern(parse_pattern(source))

    def test_expressions_up_to_the_depth_cap_compile(self):
        row = "(" * 64 + "+".join(["1"] * 65) + ")" * 64
        plan = compile_pattern(parse_pattern(
            f"pattern p()\n  act 0, {row}, 1\nend\n"))
        assert plan.steps == (PlanStep(((0, 65, 1),)),)


class TestResolver:
    def test_bindings_override_defaults(self):
        pat = parse_pattern(DOUBLE_SIDED)
        env = resolve_bindings(pat, {"victim": 9, "rounds": 2})
        assert env == {"victim": 9, "rounds": 2, "acts": 60}
        env = resolve_bindings(pat, {"victim": 9, "rounds": 2, "acts": 5})
        assert env["acts"] == 5

    def test_unbound_placeholder_is_an_error(self):
        pat = parse_pattern(DOUBLE_SIDED)
        with pytest.raises(PatternError,
                           match="unbound placeholder 'rounds'"):
            compile_pattern(pat, {"victim": 9})

    def test_undeclared_placeholder_in_body_is_an_error(self):
        ghost = "pattern p()\n  act 0, ghost\nend\n"
        with pytest.raises(PatternError,
                           match="unbound placeholder 'ghost'"):
            compile_pattern(parse_pattern(ghost))

    def test_unknown_binding_name_is_an_error(self):
        pat = parse_pattern(DOUBLE_SIDED)
        with pytest.raises(PatternError, match="no parameter 'vctim'"):
            compile_pattern(pat, {"vctim": 9, "rounds": 1})

    def test_non_integer_binding_is_an_error(self):
        pat = parse_pattern(DOUBLE_SIDED)
        for bad in (True, 1.5, "9"):
            with pytest.raises(PatternError, match="must be an integer"):
                compile_pattern(pat, {"victim": bad, "rounds": 1})

    def test_duplicate_parameter_declaration_rejected(self):
        with pytest.raises(PatternError, match="twice"):
            parse_pattern("pattern p(a, a)\n  act 0, 1\nend\n")


class TestCompile:
    def test_consecutive_same_target_acts_coalesce(self):
        plan = compile_pattern(pattern(
            "p", (), act(0, 5, 3), act(0, 5, 2), act(0, 6, 1)))
        assert plan.steps == (PlanStep(((0, 5, 5), (0, 6, 1)),),)

    def test_wait_and_sync_close_steps(self):
        plan = compile_pattern(pattern(
            "p", (), act(0, 1, 2), wait(40), act(0, 2), sync(),
            act(0, 3)))
        assert plan.steps == (
            PlanStep(((0, 1, 2),), wait_ns=40),
            PlanStep(((0, 2, 1),)),
            PlanStep(((0, 3, 1),)),
        )
        assert plan.total_acts == 4
        assert plan.total_wait_ns == 40

    def test_zero_count_act_and_zero_wait_drop_out(self):
        plan = compile_pattern(pattern(
            "p", (), act(0, 1, 0), act(0, 2), wait(0)))
        assert plan.steps == (PlanStep(((0, 2, 1),)),)

    def test_repeat_unrolls(self):
        plan = compile_pattern(pattern(
            "p", (), repeat(3, act(0, 1), sync())))
        assert plan.steps == (PlanStep(((0, 1, 1),)),) * 3

    def test_repeat_nesting_bounded(self):
        ops = act(0, 1)
        for _ in range(MAX_REPEAT_DEPTH + 1):
            ops = repeat(2, ops)
        with pytest.raises(PatternError, match="nested deeper"):
            compile_pattern(pattern("p", (), ops))

    def test_unroll_budget_bounded(self, monkeypatch):
        monkeypatch.setattr(
            "repro.patterns.compile.MAX_UNROLLED_OPS", 10)
        with pytest.raises(PatternError, match="unrolls past"):
            compile_pattern(pattern("p", (), repeat(11, act(0, 1))))

    @pytest.mark.parametrize("bad, message", [
        (act(0, 1, -2), "negative act count"),
        (wait(P("g")), "negative wait"),
        (act(P("b"), 1), "negative bank"),
        (repeat(P("n"), act(0, 1)), "negative repeat count"),
    ])
    def test_negative_operands_rejected(self, bad, message):
        pat = pattern("p", (("g", -5), ("b", -1), ("n", -2)), bad)
        with pytest.raises(PatternError, match=message):
            compile_pattern(pat)

    def test_empty_plan_is_an_error(self):
        with pytest.raises(PatternError, match="empty plan"):
            compile_pattern(pattern("p", (), act(0, 1, 0)))

    def test_targets_in_first_use_order(self):
        plan = compile_pattern(pattern(
            "p", (), act(0, 7), act(1, 2), sync(), act(0, 7), act(0, 3)))
        assert plan.targets() == ((0, 7), (1, 2), (0, 3))

    def test_remap_targets(self):
        plan = compile_pattern(pattern("p", (), act(0, -1), act(0, 1)))
        remapped = plan.remap_targets({(0, -1): (2, 99), (0, 1): (2, 101)})
        assert remapped.steps == (PlanStep(((2, 99, 1), (2, 101, 1)),),)
        with pytest.raises(PatternError, match="no remapping"):
            plan.remap_targets({(0, -1): (2, 99)})

    def test_act_ns_travels_on_the_plan(self):
        plan = compile_pattern(pattern("p", (), act(0, 1)), act_ns=15)
        assert plan.act_ns == 15
        with pytest.raises(PatternError, match="act_ns"):
            compile_pattern(pattern("p", (), act(0, 1)), act_ns=-1)


class TestCannedPatterns:
    def test_round_robin_structure(self):
        plan = compile_pattern(round_robin(2, 250, batch=100))
        assert plan.steps == (
            PlanStep(((0, 0, 100), (0, 1, 100)),),
            PlanStep(((0, 0, 100), (0, 1, 100)),),
            PlanStep(((0, 0, 50), (0, 1, 50)),),
        )
        assert plan.total_acts == 2 * 250

    def test_round_robin_per_iter_delay(self):
        plan = compile_pattern(round_robin(1, 10, batch=10,
                                           per_iter_delay_ns=7))
        assert plan.steps == (PlanStep(((0, 0, 10),), wait_ns=70),)

    def test_sided_offsets_alternate_outward(self):
        assert _sided_offsets(1) == (-1,)
        assert _sided_offsets(2) == (-1, 1)
        assert _sided_offsets(5) == (-1, 1, -2, 2, -3)

    def test_sided_pattern_compiles_relative(self):
        plan = compile_pattern(
            sided_pattern(2), {"victim": 0, "rounds": 2, "acts": 3})
        assert plan.steps == (
            PlanStep(((0, -1, 3), (0, 1, 3)),),) * 2
