import contextlib
import io
import json
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqe.cli import main
from hqe.decomp import Piece
from hqe.field import Field
from hqe.formula import _print_fterm, print_formula
from test_parser import _FIELDS, _element, _formulas, _fterms, _mutated, _rv_class


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "t * t^-1")
    assert code == 0
    assert out.strip() == "1 (v=0)"


def test_eval_json_reparses(capsys):
    code, out, _ = run_cli(capsys, "--json", "eval", "(1 + t)^2")
    data = json.loads(out)
    field = Field.laurent()
    assert field.parse(data["value"]) == field.parse("1 + 2*t + t^2")


def test_rv_command(capsys):
    code, out, _ = run_cli(capsys, "rv", "3*t^2 + t^3", "--order", "1")
    assert code == 0
    assert out.strip() == "rv[1]{v=2; unit=3,1}"


def test_lift_command(capsys):
    code, out, _ = run_cli(capsys, "lift", "--poly", "x^2 - (1 + t)", "--from", "1", "--sep", "0")
    assert code == 0
    assert "iterations" in out and "root" in out


def test_decompose_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--json", "decompose", "--poly", "x^2 - t^2")
    assert code == 0
    data = json.loads(out)
    field = Field.laurent()
    pieces = [Piece.from_json(field, p) for p in data["pieces"]]
    assert len(pieces) == 5
    t = field.uniformizer()
    assert sum(1 for p in pieces if p.contains(t)) == 1


def test_decide_commands(capsys):
    code, out, _ = run_cli(capsys, "decide", "EX y:K. y^2 - t^2 = 0")
    assert (code, out.strip()) == (0, "TRUE")
    code, out, _ = run_cli(capsys, "decide", "EX y:K. y^2 - 2*t^2 = 0")
    assert (code, out.strip()) == (0, "FALSE")
    code, out, _ = run_cli(capsys, "--field", "padic", "--p", "2", "decide", "EX y:K. y^2 = 17")
    assert (code, out.strip()) == (0, "TRUE")


def test_atom_at_an_approximated_root_does_not_sink_the_verdict(capsys):
    """The first disjunct alone is TRUE; the region of rv[0](x^2 - y) at the
    approximated root of x^2 = 2 is built from coefficients known to 64
    digits only, and must not turn TRUE into precision exhausted."""
    sentence = "EX x:K. EX y:K. (rv[0](x - 1) = rv[0](1)) | ((x^2 = 2) & (rv[0](x^2 - y) = rv[0](1)))"
    code, out, err = run_cli(capsys, "--field", "padic", "--p", "7", "decide", sentence)
    assert (code, out, err) == (0, "TRUE\n", "")


def test_qe_command(capsys):
    code, out, _ = run_cli(capsys, "qe", "EX y:K. y^2 = t^2")
    assert code == 0
    assert out.strip() == "true"


def test_normal_form_command(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "x^2 = t^2", "--var", "x")
    assert code == 0
    assert "D:" in out and "rv[0]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        # an atom outside the region calculus is printed as a formula
        (["decide", "ALL x:K. EX w:RV[0]. rv[0](x) = w"], "unsupported atom EX w:RV[0]. rv[0](x) = w"),
        # the quantified leading term is not polynomial in x
        (["normal-form", "x = 1 & (EX w:RV[0]. rv[0](x - 1) = w)", "--var", "x"], "leading-term term not polynomial in the variable"),
        # normal-form reads an atom as decide does
        (["normal-form", "rv[0](x) = rv[1](x)", "--var", "x"], "comparing leading terms of orders 0 and 1"),
        (["decide", "EX x:K. rv[0](x) = rv[1](x)"], "comparing leading terms of orders 0 and 1"),
    ],
)
def test_unreadable_atom_is_one_non_effective_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"non-effective quantifier: {message}\n")
    assert "ExistsRV(" not in err


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "decide", "EX y:K. y^2 = ")
    assert code == 1
    code, _, err = run_cli(capsys, "qe", "EX y:K. y^2 = c")
    assert code == 3
    code, _, err = run_cli(capsys, "lift", "--poly", "x^2 - t", "--from", "1")
    assert code == 4
    code, _, err = run_cli(capsys, "eval", "O(t^5)^-1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eval", "1", "--field", "padic", "--p", "4"), "padic backend needs a prime, got 4"),
        (("eval", "1", "--prec", "4"), "precision must be at least 8"),
    ],
)
def test_bad_field_is_a_precondition_violation(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err == f"precondition violated: {message}\n"
    assert "Traceback" not in err


def test_root_search_over_a_huge_prime_is_a_precondition_violation(capsys):
    p = (1 << 61) - 1
    code, out, err = run_cli(capsys, "--field", "padic", "--p", str(p), "decide", "EX y:K. y^2 = 3")
    assert code == 4 and out == ""
    assert err == f"precondition violated: root search over F_p scans every residue; p = {p} exceeds 65536\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "t^-50000000 + t^50000000"], "laurent-q digit span 100000001 exceeds MAX_DIGIT_SPAN = 2048"),
        (["eval", "t^-50000000 + O(t^50000000) + 1"], "laurent-q digit span 100000000 exceeds MAX_DIGIT_SPAN = 2048"),
        (["eval", "(1 + t)^100000"], "laurent-q digit span 100001 exceeds MAX_DIGIT_SPAN = 2048"),
        (["decide", "EX y:K. y^100000 = t"], "polynomial degree 100000 exceeds MAX_DEGREE = 128"),
        (["decide", "EX y:K. (y + 1)^100 * y^29 = t"], "polynomial degree 129 exceeds MAX_DEGREE = 128"),
        (["decompose", "--poly", "x^200 - t"], "polynomial degree 200 exceeds MAX_DEGREE = 128"),
        (
            ["--field", "padic", "--p", "7", "eval", "1 + 7^30000000"],
            "exact padic sum needs 7^30000000, longer than MAX_EXACT_BITS = 16777216",
        ),
        # the length of 7^30000000 is read off its valuation, before 7^30000000 is built
        (["--field", "padic", "--p", "7", "eval", "7^30000000"], "a number of 84220648 bits is too long to print"),
        # the normal form prints classes of order v(q) = 2^m v(m!) on a slack piece
        (
            ["--field", "padic", "--p", "2", "normal-form", "--var", "x", "v(rv[0](x^16 - 17)) > v(rv[0](2))"],
            "order 983040 is outside 0 <= d < MAX_DIGIT_SPAN = 2048",
        ),
        (
            ["--field", "padic", "--p", "3", "normal-form", "--var", "x", "v(rv[0](x^27 - 10)) > v(rv[0](3))"],
            "order 1744830464 is outside 0 <= d < MAX_DIGIT_SPAN = 2048",
        ),
    ],
)
def test_hostile_input_breaks_a_named_bound(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == f"precondition violated: {message}\n"


@pytest.mark.parametrize(
    "argv, answer",
    [
        # 7^30000000 starts past the sum's cap, so its power of 7 is not computed
        (["--field", "padic", "--p", "7", "eval", "1 + O(7^5) + 7^30000000"], "1 + O(7^5) (v=0)"),
        # the rational root search factors no integer, so coefficients with
        # huge or many prime factors cost it no trial division
        (["decide", "EX x:K. x = 100000000000000000000"], "TRUE"),
        (["decide", "EX x:K. x^2 = 100000000000000000000"], "TRUE"),
        (["decide", "EX x:K. 3*x = 100000000000000000000"], "TRUE"),
        # a linear equation is solved by one division, with no factoring
        (["decide", f"EX x:K. x = {1048583 * 1048589}"], "TRUE"),
        # 1048583 and 1048589 are primes above 2^20, and their product is
        # not a square
        (["decide", f"EX x:K. x^2 = {1048583 * 1048589}"], "FALSE"),
        # 1099532599387 is a 41-bit prime
        (["decide", "EX x:K. (x - 1/1099532599387)*(x - 2) = 0"], "TRUE"),
        (["decide", "EX x:K. x^2 = 1099532599387^2"], "TRUE"),
        (["decide", "EX x:K. 963761198400*x^2 = 182568275710689562381"], "FALSE"),
        (["decide", "EX x:K. x^2 = 2^200*3^100*5^50*7^30*11^20"], "TRUE"),
        # None: any stdout, with exit code 0 and nothing on stderr
        (["decompose", "--poly", "x^2 - 1099532599387"], None),
        # a Horner chain at a root of high degree carries den^k unless its
        # products are reduced
        (["decide", "EX x:K. x^128 = 1 + t"], "TRUE"),
        (["decompose", "--poly", "x^40 - 1 - t"], None),
        # a slack piece of index m keeps v(q) = 2^m v(m!), never q = m!^(2^m)
        (["--field", "padic", "--p", "2", "decompose", "--poly", "x^16 - 17"], None),
        (["--field", "padic", "--p", "2", "decompose", "--poly", "x^16 - 3"], None),
        (["--field", "padic", "--p", "2", "decompose", "--poly", "x^24 - 17"], None),
        (["--field", "padic", "--p", "2", "decompose", "--poly", "x^32 - 17"], None),
        (["--field", "padic", "--p", "2", "decompose", "--poly", "x^128 - 17"], None),
        (["--field", "padic", "--p", "3", "decompose", "--poly", "x^27 - 10"], None),
        # each rv literal is read in time independent of where it starts
        (
            ["decide", "EX x:K. x = 1 & (" + " | ".join(["rv[0]{v=0; unit=1} = rv[0]{v=1; unit=1}"] * 5000) + ")"],
            "FALSE",
        ),
    ],
)
def test_hostile_input_is_answered_in_bounded_time(capsys, argv, answer):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert answer is None or out == answer + "\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("decompose_x2_minus_t2.json", ["decompose", "--poly", "x^2 - t^2"]),
        ("decompose_x2_minus_t2_rv0.json", ["decompose", "--poly", "x^2 - t^2", "--rv-order", "0"]),
        (
            "decompose_padic7_cluster_rv1.json",
            ["--field", "padic", "--p", "7", "decompose", "--poly", "(x - 1)*(x - 8)*(x - 50)", "--rv-order", "1"],
        ),
    ],
)
def test_decompose_output_is_byte_identical_to_golden(capsys, name, argv):
    code, out, _ = run_cli(capsys, "--prec", "64", *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("depth", [250, 3000])
def test_deep_nesting_is_a_syntax_error(capsys, depth):
    text = "EX x:K. " + "(" * depth + "x = 1" + ")" * depth
    code, out, err = run_cli(capsys, "decide", text)
    assert code == 1 and out == ""
    assert err == "syntax error: formula nested too deeply\n"


@pytest.mark.parametrize("op", ["+", "*"])
@pytest.mark.parametrize("terms", [300, 3000])
@pytest.mark.parametrize("command", ["eval", "decide"])
def test_flat_chain_counts_toward_the_nesting_bound(capsys, command, terms, op):
    """A flat sum or product builds a left-nested tree, so its links count
    toward the nesting bound: 300 terms are answered, 3000 are the syntax
    error of deep parentheses, not a RecursionError."""
    if command == "eval":
        text, answer, what = op.join(["1"] * terms), "300 (v=0)" if op == "+" else "1 (v=0)", "term"
    else:
        text, answer, what = f"EX x:K. x{op}" + op.join(["1"] * (terms - 1)) + " = 2", "TRUE", "formula"
    code, out, err = run_cli(capsys, command, text)
    if terms == 300:
        assert code == 0 and out.strip() == answer and err == ""
    else:
        assert code == 1 and out == ""
        assert err == f"syntax error: {what} nested too deeply\n"


def test_deterministic_output(capsys):
    a = run_cli(capsys, "--json", "decompose", "--poly", "x^3 - t*x")
    b = run_cli(capsys, "--json", "decompose", "--poly", "x^3 - t*x")
    assert a == b


def test_selftest_single_suite(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--suite", "linear-elimination", "--seed", "1")
    assert code == 0
    assert out.startswith("PASS linear-elimination")


def test_rv_decompose_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--json", "decompose", "--poly", "x^2 - t^2", "--rv-order", "0")
    assert code == 0
    from hqe.decomp import RVDecomposition

    field = Field.laurent()
    dec = RVDecomposition.from_json(field, json.loads(out))
    t = field.uniformizer()
    cell = dec.cell_of(t + t**3)
    from hqe.rv import rv
    from hqe.poly import Poly

    f = Poly(field, [-(t * t), field.zero(), field.one()])
    assert cell.pieces[0].eval_rv(t + t**3, 0) == rv(f(t + t**3), 0)


def test_selftest_stdout_deterministic(capsys):
    a = run_cli(capsys, "selftest", "--suite", "rv-equivalence", "--seed", "5")
    b = run_cli(capsys, "selftest", "--suite", "rv-equivalence", "--seed", "5")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def test_suite_line_states_budget_overrun():
    from hqe.selftest import SuiteResult

    slow = SuiteResult("collision-roots", 362, duration=19.9, limit=10)
    assert slow.ok and slow.over_budget
    assert slow.line() == "PASS collision-roots (362 cases, 19.90s >= 10s budget)"
    fast = SuiteResult("collision-roots", 362, duration=4.5, limit=10)
    assert not fast.over_budget
    assert fast.line() == "PASS collision-roots (362 cases, 4.50s < 10s budget)"
    # the CLI's timing-free line does not depend on the clock
    assert slow.line(with_timing=False) == fast.line(with_timing=False) == "PASS collision-roots (362 cases)"


def _one_line_error(code, out, err, want_code):
    assert code == want_code and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "rv[1]{v=0; unit=1} = rv[1](1)"],
        ["decide", "rv[0]{v=0; unit=0} = rv[0](1)"],
        ["--field", "padic", "decide", "rv[0]{v=0; unit=1/2} = rv[0](1)"],
    ],
)
def test_malformed_rv_literal_is_a_syntax_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _one_line_error(code, out, err, 1)
    assert err.startswith("syntax error: ")


@pytest.mark.parametrize(
    "argv, order",
    [
        (["rv", "t", "--order", "-1"], -1),
        (["rv", "t", "--order", "100000000"], 100000000),
        (["rv", "t", "--order", "2048"], 2048),
        (["decompose", "--poly", "x^2 - t", "--rv-order", "-1"], -1),
        (["decide", "rv[-1](t) = rv[0](t)"], -1),
        (["decide", "EX x:RV[-2]. true"], -2),
        (["decide", "proj[-1](rv[0](t)) = rv[0](t)"], -1),
        (["decide", "sum[-1](rv[0](t)) = rv[0](t)"], -1),
        (["decide", "oplus[-1](rv[0](t), rv[0](t), rv[0](t))"], -1),
        (["decide", "rv[100000000]{inf} = rv[0](t)"], 100000000),
    ],
)
def test_order_outside_the_digit_bound_is_a_precondition_violation(capsys, argv, order):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    _one_line_error(code, out, err, 4)
    assert err == f"precondition violated: order {order} is outside 0 <= d < MAX_DIGIT_SPAN = 2048\n"


def test_largest_order_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "rv", "1 + t", "--order", "2047")
    assert code == 0 and out.startswith("rv[2047]{v=0; unit=1,1,0,")


def test_unparsable_precision_variable_is_a_precondition_violation(capsys, monkeypatch):
    monkeypatch.setenv("HQE_PREC", "abc")
    code, out, err = run_cli(capsys, "eval", "t")
    _one_line_error(code, out, err, 4)
    assert err == "precondition violated: HQE_PREC must be an integer, got 'abc'\n"


@pytest.mark.parametrize("how", ["flag", "env"])
def test_precision_above_the_digit_bound_is_a_precondition_violation(capsys, monkeypatch, how):
    if how == "env":
        monkeypatch.setenv("HQE_PREC", "100000000")
        argv = ["eval", "(1 + t)^-1"]
    else:
        argv = ["--prec", "100000000", "eval", "(1 + t)^-1"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    _one_line_error(code, out, err, 4)
    assert err == "precondition violated: precision 100000000 exceeds MAX_DIGIT_SPAN = 2048\n"


def test_retry_never_doubles_past_the_digit_bound(capsys):
    code, out, err = run_cli(capsys, "--retry-precision", "--prec", "1024", "eval", "O(t^5)^-1")
    assert code == 2 and out == ""
    assert err == (
        "precision exhausted, retrying at 2048\n"
        "precision exhausted: divisor is zero to its known precision\n"
    )


def test_other_toolkit_errors_exit_4_on_one_line(capsys):
    code, out, err = run_cli(capsys, "eval", "(t - t)^-1")
    _one_line_error(code, out, err, 4)
    assert err == "DivisionByZero: division by exact zero\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["decide", "rv[0](0)^-1 = rv[0](t)"], 4, "DivisionByZero: inf has no inverse\n"),
        (["decide", "rv[0](0)^0 = rv[0](t)"], 4, "DivisionByZero: inf has no inverse\n"),
        (["eval", "t^\u00b2"], 1, "syntax error: expected integer (at position 2)\n"),
        (["eval", "1" + "0" * 5000], 4, "precondition violated: integer literal of 5001 characters is too long\n"),
        (["decompose", "--poly=--"], 1, "syntax error: expected identifier (at position 1)\n"),
        (["lift", "--poly=x", "--from=--"], 1, "syntax error: expected identifier (at position 1)\n"),
        (["eval", "2^20000"], 4, "precondition violated: a number of 20001 bits is too long to print\n"),
        (["--field", "padic", "eval", "2^20000"], 4, "precondition violated: a number of 20001 bits is too long to print\n"),
        (
            ["--field", "padic", "--p", "7", "eval", "1 + 7^1000000"],
            4,
            "precondition violated: a number of 2807355 bits is too long to print\n",
        ),
        (["rv", "2^20000 + t"], 4, "precondition violated: a number of 20001 bits is too long to print\n"),
    ],
)
def test_input_that_raised_a_builtin_error_exits_on_one_line(capsys, argv, code, err):
    got, out, stderr = run_cli(capsys, *argv)
    _one_line_error(got, out, stderr, code)
    assert stderr == err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["eval", "-t"], "the following arguments are required: expr"),
        (["eval", "-1*t^2"], "the following arguments are required: expr"),
        (["rv", "t", "--order", "x"], "argument --order: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["--field", "bogus", "eval", "1"], "argument --field: invalid choice: 'bogus' (choose from 'laurent-q', 'padic')"),
        (["eval", "1", "2"], "unrecognized arguments: 2"),
        (["decompose", "--poly"], "argument --poly: expected one argument"),
    ],
)
def test_malformed_command_line_is_a_syntax_error(capsys, argv, err):
    code, out, stderr = run_cli(capsys, *argv)
    _one_line_error(code, out, stderr, 1)
    assert stderr == f"syntax error: {err}\n"


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hqe ") and "decide a sentence" in out


# ---- fuzzing: argv from the grammar, with character mutations ---------------


@st.composite
def _text(draw, field, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "formula":
        text = print_formula(draw(_formulas(field)))
    elif kind == "term":
        text = _print_fterm(draw(_fterms(field)))
    elif kind == "element":
        text = str(draw(_element(field)))
    else:
        text = str(draw(_rv_class(field)))
    return draw(_mutated(text))


_ORDERS = st.one_of(st.integers(-2, 4), st.integers(-(10**9), 10**9))


@st.composite
def _argv(draw):
    """One command line.  An option value is drawn as --name=value or as a
    separate item, a text argument after -- or not, so that a text starting
    with "-" is a usage error or an argument."""

    def option(name, value):
        return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", str(value)]

    field = draw(st.sampled_from(_FIELDS))
    argv = [] if field.backend == "laurent-q" else option("field", "padic") + option("p", field.p)
    argv += option("prec", draw(st.one_of(st.sampled_from([8, 16, 64]), st.integers(-4, 4096))))
    command = draw(st.sampled_from(["eval", "rv", "lift", "decompose", "qe", "decide", "normal-form"]))
    argv.append(command)
    terms, formulas = ["term", "element"], ["formula", "formula", "term", "class"]
    if command == "rv":
        argv += option("order", draw(_ORDERS))
    elif command == "lift":
        argv += option("poly", draw(_text(field, terms))) + option("from", draw(_text(field, terms)))
        argv += option("sep", draw(st.integers(-2, 3)))
    elif command == "decompose":
        argv += option("poly", draw(_text(field, terms)))
        if draw(st.booleans()):
            argv += option("rv-order", draw(_ORDERS))
    elif command == "normal-form":
        argv += option("var", "x")
    if command in ("eval", "rv", "qe", "decide", "normal-form"):
        text = draw(_text(field, terms if command in ("eval", "rv") else formulas))
        argv += ["--", text] if draw(st.booleans()) else [text]
    return argv


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(argv=_argv())
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # any exception here is a traceback at the command line
    assert code in (0, 1, 2, 3, 4), argv
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
