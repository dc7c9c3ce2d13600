import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import BROKEN_PRESET
from skewseries import (ExprError, SeriesScalars, SkewPoly, TruncatedSeries,
                        TruncPolyRing, ZmodRing, eval_expression, parse_expression,
                        parse_ring_preset, render_expression)
from skewseries.cli import main
from skewseries.exprparse import (MAX_DEGREE, MAX_DEPTH, Add, Const, Mul, Pow, Var,
                                  degree_bound)
from skewseries.suites import NILBOUND_WORD_LIMIT

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# (golden file, argv, expected exit code)
GOLDEN_CASES = [
    ("normalize_poly.txt",
     ["normalize", "x*t", "--ring", "truncpoly:3:3:c=2"], 0),
    ("normalize_series.txt",
     ["normalize", "4 + 2*x + x^2", "--ring", "zmod:2^3", "--prec", "3"], 0),
    ("mul_series.txt",
     ["mul", "x + t", "x + t", "--ring", "truncpoly:3:3:c=2", "--prec", "4"], 0),
    # powers by repeated squaring, with and without direct S/G_N evaluation
    ("normalize_power.txt",
     ["normalize", "(x + t)^40 * (t*x + 2)", "--ring", "truncpoly:3:3:c=2"], 0),
    ("normalize_power_series.txt",
     ["normalize", "(x + t)^40 * (t*x + 2)", "--ring", "truncpoly:3:3:c=2",
      "--prec", "6"], 0),
    ("mul_power_series.txt",
     ["mul", "(1 + x + t)^7 + 2*t", "(2 + t*x)^5 * (x + 1)",
      "--ring", "truncpoly:3:3:c=2", "--prec", "5"], 0),
    ("degree.txt",
     ["degree", "4 + 2*x + x^2", "--ring", "zmod:2^3", "--prec", "4"], 0),
    ("symbol.txt",
     ["symbol", "4 + 2*x + x^2", "--ring", "zmod:2^3", "--prec", "4"], 0),
    ("symbol_json.txt",
     ["symbol", "x*t", "--ring", "truncpoly:3:3:c=2", "--prec", "4",
      "--format", "json"], 0),
    ("nilbound.txt",
     ["nilbound", "--n", "3", "--ring", "truncpoly:3:3:c=2"], 0),
    # sigma^3 has no zero word of length <= 2 on delta=broken
    ("nilbound_not_found.txt",
     ["nilbound", "--n", "3", "--word-limit", "2", "--ring", BROKEN_PRESET], 0),
    ("rank_base.txt",
     ["rank", "1,2;0,0", "--ring", "zmod:2^3"], 0),
    ("rank_series.txt",
     ["rank", "1, 2*x; 0, 0", "--ring", "zmod:2^3", "--prec", "3"], 0),
    ("rank_json.txt",
     ["rank", "1,2;0,0", "--ring", "zmod:2^3", "--format", "json"], 0),
    ("rank_not_idempotent.txt",
     ["rank", "1,1;1,1", "--ring", "zmod:2^3"], 1),
    # an off-diagonal unit dragged onto a radical diagonal
    ("rank_drag.txt",
     ["rank", "6,5,5;5,6,5;5,5,6", "--ring", "zmod:2^3"], 0),
    # a swap and a column normalization over noncommutative S/G_3
    ("rank_series_swap.txt",
     ["rank", "0,0;t + x,1", "--ring", "truncpoly:3:3:c=2", "--prec", "3"], 0),
    ("stable_iso.txt",
     ["stable-iso", "1,2;0,0", "1,0;0,0", "--ring", "zmod:2^3"], 0),
    ("stable_iso_series.txt",
     ["stable-iso", "0,0;t + x,1", "1,t*x;0,0", "--ring", "truncpoly:3:3:c=2",
      "--prec", "3"], 0),
    ("stable_iso_none.txt",
     ["stable-iso", "1", "0", "--ring", "zmod:2^3"], 0),
    # the verdict rank gives, not a usage error
    ("stable_iso_not_idempotent.txt",
     ["stable-iso", "1,1;1,1", "1,0;0,0", "--ring", "zmod:2^3"], 1),
    ("complete_row.txt",
     ["complete-row", "3,2", "--ring", "zmod:2^3"], 0),
    ("complete_row_bad.txt",
     ["complete-row", "2,4", "--ring", "zmod:2^3"], 1),
    ("check_ideal_closure.txt",
     ["check", "ideal-closure", "--ring", "zmod:2^3", "--prec", "4",
      "--samples", "200", "--seed", "42"], 0),
    ("check_sigma_derivation_fail.txt",
     ["check", "sigma-derivation", "--ring", BROKEN_PRESET,
      "--samples", "100", "--seed", "7"], 1),
    ("check_graded_iso_json.txt",
     ["check", "graded-iso", "--ring", "truncpoly:3:3:c=2", "--prec", "4",
      "--samples", "50", "--seed", "3", "--format", "json"], 0),
]


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _count_ring_calls(monkeypatch):
    """A list that gets an entry at each call of a ring operation of either
    preset family."""
    calls = []
    for cls in (ZmodRing, TruncPolyRing):
        for name in ("add", "mul", "neg", "sigma", "delta", "elements"):
            monkeypatch.setattr(cls, name,
                                lambda *args, _plain=getattr(cls, name):
                                calls.append(None) or _plain(*args))
    return calls


# each input rule that the command line leaves to the library function it
# calls: the input, as a command line or a call, and that function's message
LIBRARY_RULES = [
    pytest.param(["check", "ring-axioms", "--samples", "0",
                  "--ring", "truncpoly:3:3:c=2"], "samples must be >= 1",
                 id="check-samples"),
    pytest.param(["nilbound", "--n", "0", "--ring", "truncpoly:3:3:c=2"],
                 "target power must be >= 1", id="nilbound-n"),
    pytest.param(["nilbound", "--n", "1", "--word-limit", "0",
                  "--ring", "truncpoly:3:3:c=2"], "word limit must be >= 1",
                 id="nilbound-word-limit"),
    pytest.param(["rank", "1,0;0"], "matrix is not square", id="rank"),
    pytest.param(["stable-iso", "1,0;0", "1"], "matrix is not square",
                 id="stable-iso"),
    pytest.param(["mul", "x^300", "x^300", "--ring", "zmod:2^3"],
                 f"x-degree bound 600 exceeds the budget of {MAX_DEGREE} for "
                 f"R[x]; evaluate in S/G_N (--prec) instead", id="mul"),
    pytest.param(lambda: SeriesScalars(parse_ring_preset("truncpoly:3:3:c=2"), 0),
                 "precision must be >= 1", id="SeriesScalars"),
]


class TestParser:
    def test_mixed_coefficient_placement(self, z8):
        ast = parse_expression("x*3 + 2*x^2", z8)
        assert ast == Add(Mul(Var(), Const(3)), Mul(Const(2), Pow(Var(), 2)))

    def test_commutation_through_eval(self, f27):
        t = f27.named_literals()["t"]
        value = eval_expression(parse_expression("x*t", f27), f27)
        assert value.render() == "t^2 + 2*t*x"
        two_t = f27.mul(f27.from_int(2), t)
        assert value == SkewPoly(f27, (f27.mul(t, t), two_t))

    def test_double_caret_is_column_3(self, z8):
        with pytest.raises(ExprError) as err:
            parse_expression("x^^2", z8)
        assert err.value.column == 3
        assert "column 3" in str(err.value)

    def test_unknown_literal(self, z8):
        with pytest.raises(ExprError, match="unknown literal 't'"):
            parse_expression("x*t", z8)

    def test_exponent_overflow(self, z8):
        with pytest.raises(ExprError, match="exponent overflow"):
            parse_expression("x^100000", z8)

    def test_superscript_digit_is_not_a_number(self, z8):
        # '²'.isdigit() holds but int() rejects it; numbers are isdecimal runs
        with pytest.raises(ExprError) as err:
            parse_expression("x^²", z8)
        assert err.value.message == "unexpected character '²'"
        assert err.value.column == 3
        # other decimal digits are numbers, as int() reads them
        assert parse_expression("x^\u0663", z8) == Pow(Var(), 3)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    def test_number_past_the_int_conversion_limit(self, z8):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        for text, column in ((digits, 1), (f"x^{digits}", 3)):
            with pytest.raises(ExprError, match="number too long") as err:
                parse_expression(text, z8)
            assert err.value.column == column

    @pytest.mark.parametrize("text, bound", [
        ("3", 0), ("x^0", 0), ("-x^4", 4), ("3 - x^2*(x + 1)", 3),
        ("(t + x)^500", 500), ("(1+x)^512*(1+x)^512*(1+x)^512", 1536)])
    def test_degree_bound(self, f27, text, bound):
        node = parse_expression(text, f27)
        assert degree_bound(node) == bound
        if bound <= 8:
            assert eval_expression(node, f27).degree <= bound

    def test_degree_budget_rejects_before_evaluating(self, z8):
        node = parse_expression(f"x^{MAX_DEGREE} * x", z8)
        with pytest.raises(ValueError, match="exceeds the budget of 512"):
            eval_expression(node, z8)
        # S/G_N evaluation is bounded by N, not by the degree
        assert eval_expression(node, z8, 4).is_zero()

    def test_empty_and_trailing_junk(self, z8):
        with pytest.raises(ExprError):
            parse_expression("   ", z8)
        with pytest.raises(ExprError):
            parse_expression("x )", z8)
        with pytest.raises(ExprError):
            parse_expression("x^2^3", z8)

    def test_unit_literal(self, z8):
        assert eval_expression(parse_expression("1", z8), z8) == SkewPoly.one(z8)

    def test_square_matches_api_product(self, f27):
        ast = parse_expression("(x + t)*(x + t)", f27)
        t = SkewPoly.from_scalar(f27, f27.named_literals()["t"])
        x = SkewPoly.var(f27)
        assert eval_expression(ast, f27) == (x + t) * (x + t)

    def test_x_cubed_dies_at_prec_3(self, f27):
        value = eval_expression(parse_expression("x^3", f27), f27, 3)
        assert value.is_zero()

    @pytest.mark.parametrize("text", [
        "x*3 + 2*x^2", "x*t", "(x + t)*(x + t)", "-x + t*x^2", "1 + 2*t",
        "x - (t + 1)", "-(x + t)*x", "2*t^2*x - x*t", "(x^2)^3", "-(x^2)^3",
        "((x + t)^2)^2", "-(x^2)", "--x^2",
    ])
    def test_render_reparse_round_trip(self, f27, text):
        ast = parse_expression(text, f27)
        rendered = render_expression(ast, f27)
        assert parse_expression(rendered, f27) == ast

    def test_poly_render_reparses_to_same_value(self, f27):
        import random

        from skewseries.suites import random_poly
        rng = random.Random(71)
        for _ in range(25):
            f = random_poly(f27, 3, rng)
            reparsed = eval_expression(parse_expression(f.render(), f27), f27)
            assert reparsed == f


def _deepest_trees():
    """Trees of exactly MAX_DEPTH levels, one per kind of nesting."""
    powers = "x"
    for _ in range((MAX_DEPTH - 2) // 2):
        powers = f"({powers})^1"  # a parenthesis and a power: two levels
    return {
        "parentheses": "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "minus": "-" * (MAX_DEPTH - 1) + "x",
        "sum": "+".join(["x"] * MAX_DEPTH),
        "product": "*".join(["x"] * MAX_DEPTH),
        "powers": f"{powers}*2",
    }


class TestDepthBudget:
    @pytest.mark.parametrize("kind", sorted(_deepest_trees()))
    def test_deepest_tree_runs_everywhere(self, f27, kind):
        assert sys.getrecursionlimit() <= 1000
        node = parse_expression(_deepest_trees()[kind], f27)
        assert degree_bound(node) <= MAX_DEPTH
        poly = eval_expression(node, f27)
        assert eval_expression(node, f27, 4) == TruncatedSeries.from_poly(poly, 4)
        assert parse_expression(render_expression(node, f27), f27) == node

    @pytest.mark.parametrize("kind, column", [
        # the '(' that opens the 101st level, and the 100th operator of a chain
        ("parentheses", MAX_DEPTH), ("minus", MAX_DEPTH),
        ("sum", 2 * MAX_DEPTH), ("product", 2 * MAX_DEPTH)])
    def test_one_level_deeper_exits_2(self, kind, column):
        text = {"parentheses": "(" + _deepest_trees()["parentheses"] + ")",
                "minus": "-" + _deepest_trees()["minus"],
                "sum": _deepest_trees()["sum"] + "+x",
                "product": _deepest_trees()["product"] + "*x"}[kind]
        # '--' keeps a leading '-' from reading as an option
        code, out, err = run_cli(["normalize", "--ring", "truncpoly:3:3:c=2", "--", text])
        assert (code, out) == (2, "")
        assert err == (f"error: syntax error: expression deeper than {MAX_DEPTH} "
                       f"levels at column {column}\n")

    @pytest.mark.parametrize("argv", [
        ["normalize", "(" * 250 + "x" + ")" * 250, "--ring", "zmod:2^3"],
        ["normalize", "+".join(["x"] * 1000), "--ring", "zmod:2^3"],
        ["rank", "+".join(["1"] * 2000), "--ring", "zmod:2^3"]])
    def test_deep_inputs_exit_2_without_a_traceback(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert "deeper than" in err and "at column" in err

    def test_towers_of_powers_stay_cheap_in_series(self, z8):
        # x^(512^3) is the zero class of S/G_4, built without its coefficients
        node = parse_expression("((x^512)^512)^512 + 1", z8)
        assert eval_expression(node, z8, 4) == TruncatedSeries.one(z8, 4)


class TestCliContract:
    def test_exit_code_2_on_unknown_suite(self):
        code, _, _ = run_cli(["check", "foo", "--ring", "zmod:2^3"])
        assert code == 2

    def test_exit_code_2_on_syntax_error(self):
        code, out, err = run_cli(["normalize", "x^^2", "--ring", "zmod:2^3"])
        assert code == 2
        assert "column 3" in err

    def test_a_characteristic_past_251_exits_2_with_one_error_line(self):
        # an element holds one coefficient per byte; the refusal is a plain
        # error line from a real process, with no traceback
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "skewseries", "normalize", "(t+x)^3",
             "--ring", "truncpoly:257:2:c=3"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: truncpoly characteristic 257 exceeds 251: an "
                   "element holds one coefficient per byte\n")

    def test_nilbound_not_found_in_json(self):
        code, out, err = run_cli(["nilbound", "--n", "3", "--word-limit", "2",
                                  "--ring", BROKEN_PRESET, "--format", "json"])
        assert (code, out, err) == \
            (0, '{"m": null, "verdict": "not-found"}\n', "")

    @pytest.mark.parametrize("text,name,preset",
                             [("tt", "tt", "truncpoly:3:3:c=2"),
                              ("x2+1", "x2", "zmod:2^3")])
    def test_a_multi_character_name_is_one_unknown_literal(self, text, name,
                                                           preset):
        assert run_cli(["normalize", text, "--ring", preset]) == \
            (2, "", f"error: syntax error: unknown literal '{name}' at column 1\n")

    def test_leading_minus_goes_after_double_dash(self):
        # argparse reads -1-x as an unknown option; the usage error says so
        # and names '--', after which the expression is read as it stands
        code, out, err = run_cli(["normalize", "-1-x", "--ring", "zmod:2^3"])
        assert (code, out) == (2, "")
        assert "required: expr; '-1-x' was read as an option" in err
        assert "after '--'" in err
        assert run_cli(["normalize", "--ring", "zmod:2^3", "--", "-1-x"])[:2] == \
            (0, "7 + 7*x\n")
        code, _, err = run_cli(["rank", "-7,0;0,0", "--ring", "zmod:2^3"])
        assert code == 2 and "'-7,0;0,0' was read as an option" in err
        code, out, _ = run_cli(["rank", "--ring", "zmod:2^3", "--", "-7,0;0,0"])
        assert code == 0 and out.endswith("RANK 1 VERIFIED\n")
        # a negative number is read as an argument, and a usage error with
        # no word that starts with one '-' names no '--'
        assert run_cli(["normalize", "-1", "--ring", "zmod:2^3"])[:2] == (0, "7\n")
        code, _, err = run_cli(["check", "foo", "--seed", "-1"])
        assert code == 2 and "read as an option" not in err

    def test_exit_code_2_on_bad_ring(self):
        code, _, err = run_cli(["normalize", "x", "--ring", "zmod:6^2"])
        assert code == 2

    def test_exit_code_2_when_degree_lacks_prec(self):
        code, _, err = run_cli(["degree", "x", "--ring", "zmod:2^3"])
        assert code == 2
        assert "--prec" in err

    def test_exit_code_2_over_degree_budget(self):
        dense = "(1+x)^512*(1+x)^512*(1+x)^512"
        code, out, err = run_cli(["normalize", dense, "--ring", "zmod:2^10"])
        assert (code, out) == (2, "")
        assert "x-degree bound 1536 exceeds the budget of 512" in err
        # mul bounds the degree of the product, not of each operand
        code, _, err = run_cli(["mul", "x^300", "x^300", "--ring", "zmod:2^3"])
        assert code == 2 and "x-degree bound 600" in err
        assert run_cli(["mul", "x^300", "x^212", "--ring", "zmod:2^3"])[:2] == \
            (0, "x^512\n")
        assert run_cli(["normalize", dense, "--ring", "zmod:2^10",
                        "--prec", "8"])[:2] == (0, "1 (mod 256) [N=8]\n")

    def test_exit_code_2_over_word_limit_budget(self, monkeypatch):
        # the budget is checked before the search makes any ring call
        calls = _count_ring_calls(monkeypatch)
        argv = ["nilbound", "--n", "1", "--ring", "truncpoly:3:3:c=2",
                "--word-limit"]
        code, out, err = run_cli(argv + [str(NILBOUND_WORD_LIMIT + 1)])
        assert (code, out, calls) == (2, "", [])
        assert f"--word-limit must be at most {NILBOUND_WORD_LIMIT}" in err
        assert run_cli(argv + [str(NILBOUND_WORD_LIMIT)])[:2] == (0, "m = 1\n")
        assert calls

    @pytest.mark.parametrize("case, message", LIBRARY_RULES)
    def test_usage_errors_carry_the_library_message(self, monkeypatch, case,
                                                    message):
        # each rule is checked before any ring operation
        calls = _count_ring_calls(monkeypatch)
        if isinstance(case, list):
            assert run_cli(case) == (2, "", f"error: {message}\n")
        else:
            with pytest.raises(ValueError) as info:
                case()
            assert str(info.value) == message
        assert calls == []

    def test_degree_budget_admits_high_powers(self):
        assert run_cli(["normalize", "x^500", "--ring", "zmod:2^10"])[:2] == \
            (0, "x^500\n")
        code, out, _ = run_cli(["normalize", "(x+t)^500", "--ring", "truncpoly:3:3:c=2"])
        assert (code, out) == (0, "2*t^2*x^498 + x^500\n")

    def test_exit_code_1_on_zero_symbol(self):
        code, out, _ = run_cli(
            ["symbol", "x^3", "--ring", "zmod:2^3", "--prec", "3"])
        assert code == 1
        assert "zero has no principal symbol" in out

    def test_matrix_entry_over_base_must_be_constant(self):
        code, _, err = run_cli(["rank", "x,0;0,0", "--ring", "zmod:2^3"])
        assert code == 2
        assert "constant" in err

    def test_check_seeded_runs_are_stable(self):
        argv = ["check", "serre-transfer", "--ring", "truncpoly:3:3:c=2",
                "--prec", "3", "--samples", "5", "--seed", "11"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second and first[0] == 0

    def test_json_mode_is_valid_json(self):
        code, out, _ = run_cli(
            ["check", "ring-axioms", "--ring", "zmod:2^3", "--samples", "50",
             "--seed", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "PASS"
        assert payload["counterexample"] is None


    @pytest.mark.parametrize("argv", [
        ["stable-iso", "1,1;1,1", "1,0;0,0"],
        ["stable-iso", "1,0;0,0", "1,1;1,1"],
        ["stable-iso", "0,0;t + x,1", "x", "--ring", "truncpoly:3:3:c=2",
         "--prec", "3"]])
    def test_stable_iso_not_idempotent_is_a_verdict(self, argv):
        # either matrix failing e*e = e gives rank's verdict: exit 1, and
        # JSON with no witness
        code, out, err = run_cli(argv + ["--format", "json"])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"verdict": "NOT IDEMPOTENT", "t": None,
                                   "certificate": None}


class TestGoldenTranscripts:
    @pytest.mark.parametrize("fname,argv,expected_code", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_transcript(self, fname, argv, expected_code):
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == expected_code
        assert out1 == out2, "CLI output is not deterministic"
        golden = (GOLDEN_DIR / fname).read_text()
        assert out1 == golden, f"transcript drift for {' '.join(argv)}"
