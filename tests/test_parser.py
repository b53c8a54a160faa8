"""The token-stream parsers against the frozen character-at-a-time ones in
``parser_reference.py``: the same trees, elements, classes and errors."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parser_reference as ref
from hqe.errors import FormulaSyntaxError, HQEError, PrecisionExhausted, PreconditionViolated
from hqe.field import Field
from hqe.formula import (
    FALSE,
    TRUE,
    And,
    ExistsF,
    ExistsRV,
    FAdd,
    FLit,
    FMul,
    FNeg,
    ForallF,
    ForallRV,
    FPow,
    FVar,
    Implies,
    Not,
    OplusA,
    Or,
    PolyZero,
    RVEq,
    RVLitT,
    RVMulT,
    RVOf,
    RVPowT,
    RVProjT,
    RVSumT,
    RVVarT,
    VComp,
    _print_fterm,
    parse_field_term,
    parse_formula,
    print_formula,
    free_vars,
)
from hqe.rv import RVElem, parse_rv, rv
from hqe.semantics import eval_field_term

_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]
_FIELD_NAMES = ["x", "y", "c"]
_RV_NAMES = ["w", "u"]
_RV_VARS = {"w": 0, "u": 1}

# the literal forms only the old literal grammar read: a "+" sign on a
# number that starts a term, and a "-t" term after "+"
_OLD_ONLY = re.compile(r"^\s*\+\d|\+\s*\+\d|\+\s*-\s*t")

# what mutations insert: the grammar's characters, whitespace, a decimal
# digit outside ASCII, and a digit that str.isdigit accepts but int() does
# not read
_ALPHABET = " \t0123456789+-*/^()[]{}=<>!&|.,:;_tvxwOKEXALRinfu\u0663\u00b2"


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except HQEError as e:  # the same error at the same position
        return type(e), str(e)
    except ValueError as e:  # the reference only: int() of a digit it cannot read
        return ValueError, str(e)


@st.composite
def _element(draw, field):
    kind = draw(st.sampled_from(["exact", "exact", "truncated", "order-bound", "zero"]))
    if kind == "zero":
        return field.zero()
    if kind == "order-bound":
        return field.small(draw(st.integers(-4, 8)))
    coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    x = field.from_terms(draw(st.lists(st.tuples(st.integers(-3, 6), coeff), min_size=1, max_size=4)))
    if kind == "truncated" and not x.is_zero:
        x = x.truncate_rel(draw(st.integers(1, 7)))
    return x


@st.composite
def _rv_class(draw, field):
    d = draw(st.integers(0, 3))
    try:
        return rv(draw(_element(field)), d)
    except PrecisionExhausted:
        return RVElem.inf(field, d)


def _fterms(field):
    leaves = [st.sampled_from(_FIELD_NAMES).map(FVar), _element(field).map(FLit)]
    if field.backend == "laurent-q":
        leaves.append(st.just(FLit(field.uniformizer())))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            st.builds(FAdd, sub, sub),
            st.builds(FMul, sub, sub),
            st.builds(FNeg, sub),
            st.builds(FPow, sub, st.integers(-2, 3)),
        ),
        max_leaves=5,
    )


def _rvterms(field):
    orders = st.integers(0, 3)
    leaves = st.one_of(
        st.builds(RVOf, orders, _fterms(field)),
        st.builds(RVLitT, _rv_class(field)),
        st.builds(RVVarT, st.sampled_from(_RV_NAMES), orders),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(RVMulT, sub, sub),
            st.builds(RVPowT, sub, st.integers(-2, 3)),
            st.builds(RVProjT, orders, sub),
            st.builds(RVSumT, orders, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        ),
        max_leaves=4,
    )


def _formulas(field):
    orders = st.integers(0, 3)
    rvt = _rvterms(field)
    atoms = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.builds(PolyZero, _fterms(field)),
        st.builds(RVEq, rvt, rvt),
        st.builds(OplusA, orders, rvt, rvt, rvt),
        st.builds(VComp, st.sampled_from(["<", "<=", "=", "!="]), rvt, rvt),
    )
    field_var, rv_var = st.sampled_from(_FIELD_NAMES), st.sampled_from(_RV_NAMES)
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, st.lists(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Or, st.lists(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Implies, sub, sub),
            st.builds(ExistsF, field_var, sub),
            st.builds(ForallF, field_var, sub),
            st.builds(ExistsRV, rv_var, orders, sub),
            st.builds(ForallRV, rv_var, orders, sub),
        ),
        max_leaves=4,
    )


@st.composite
def _mutated(draw, text):
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        c = draw(st.sampled_from(_ALPHABET))
        if op == "insert":
            text = text[:i] + c + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + c + text[i + 1 :]
    return text


@st.composite
def _case(draw):
    field = draw(st.sampled_from(_FIELDS))
    kind = draw(st.sampled_from(["formula", "term", "element", "class"]))
    if kind == "formula":
        text = print_formula(draw(_formulas(field)))
    elif kind == "term":
        text = _print_fterm(draw(_fterms(field)))
    elif kind == "element":
        text = str(draw(_element(field)))
    else:
        text = str(draw(_rv_class(field)))
    return field, draw(_mutated(text))


def _same(new, old):
    """New outcome against the reference's; where the reference crashed on
    a digit that int() cannot read, the new parser must not crash."""
    if old[0] is ValueError:
        assert new[0] == "ok" or issubclass(new[0], HQEError), new
    else:
        assert new == old


@settings(max_examples=500, deadline=None)
@given(case=_case())
def test_parsers_match_the_character_scanner_reference(case):
    field, text = case
    for rv_vars in (None, _RV_VARS):
        _same(_outcome(parse_formula, field, text, rv_vars), _outcome(ref.parse_formula, field, text, rv_vars))
    _same(_outcome(parse_field_term, field, text), _outcome(ref.parse_field_term, field, text))
    _same(_outcome(parse_rv, field, text), _outcome(ref.parse_rv, field, text))

    # Field.parse is a field term with no variables, evaluated
    new, term = _outcome(field.parse, text), _outcome(parse_field_term, field, text)
    if term[0] != "ok":
        assert new == term
    elif free_vars(term[1]):
        assert new[0] is FormulaSyntaxError
    else:
        assert new == _outcome(eval_field_term, term[1], {}, field)
    old = _outcome(ref.parse_elem, field, text)
    if old[0] == "ok" and new[0] == "ok":
        assert new == old, text
    elif old[0] == "ok":
        assert new[0] is FormulaSyntaxError and _OLD_ONLY.search(text), (text, new)
    elif old[0] not in (FormulaSyntaxError, ValueError) and not _OLD_ONLY.search(text):
        # the old grammar read it and its arithmetic failed: so does the new
        assert new[0] is old[0], (text, new, old)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1 + -1*t^2 + O(t^8)", "1 + -1*t^2 + O(t^8)"),
        ("-t + t^-2", "1*t^-2 + -1*t^1"),
        ("(1 + t)^2", "1 + 2*t^1 + 1*t^2"),
        ("1 - -2", "3"),
        ("O(t^3) + 1", "1 + O(t^3)"),
    ],
)
def test_field_literals_are_field_terms(laurent, text, value):
    assert str(laurent.parse(text)) == value


@pytest.mark.parametrize("text", ["+3", "1 + +2*t", "1 + -t", "x + 1", "1 +", "t^2x"])
def test_field_literal_outside_the_term_grammar_is_a_syntax_error(laurent, text):
    with pytest.raises(FormulaSyntaxError):
        laurent.parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "EX x:K. x = -588",
        "x - 1 = 0",
        "x - -1 = 0",
        "x = - 1",
        "x = +1",
        "x^+2 = x^ -2",
        "rv[0](x^-2) = rv[0]{v=-1; unit=-3/2}",
        "EX x2:K. x2*(-588) = t",
        "EX 2x:K. true",
        "EX 2:RV[0]. rv[0](1) = 2",
        "EXx:K. true",
        "truex",
        "v (rv[0](t)) < v(rv[0](1))",
        "rv [0](t) = rv[0](t)",
        "x = 1 -> y = 2",
        "x = 1 - > y = 2",
        "!=x",
        "x = \u0663/2",
    ],
)
def test_tokens_split_and_join_as_the_characters_did(laurent, text):
    assert _outcome(parse_formula, laurent, text) == _outcome(ref.parse_formula, laurent, text)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_field_term, "O(tx^3)"), (parse_rv, "rv[0]{infx}"), (parse_rv, "rv[0]{inf}x")],
)
def test_a_match_ending_inside_a_word_fails_as_before(laurent, parse, text):
    # "t" of "tx" and "inf" of "infx" match, then the next expected string fails
    old = {parse_field_term: ref.parse_field_term, parse_rv: ref.parse_rv}[parse]
    assert _outcome(parse, laurent, text) == _outcome(old, laurent, text)
    assert _outcome(parse, laurent, text)[0] is FormulaSyntaxError


def test_an_integer_too_long_to_convert_is_a_precondition_violation(laurent):
    with pytest.raises(PreconditionViolated, match="integer literal of 5001 characters is too long"):
        parse_field_term(laurent, "1" + "0" * 5000)


# ---- sentences shaped as the decide workload's ------------------------------


def _centre(field):
    """The text of a centre or a radius, as the decide workload writes one."""
    if field.backend == "laurent-q":
        monomial = st.builds("{}*t^{}".format, st.integers(-3, 3).filter(bool), st.integers(-3, 4))
        return st.lists(monomial, min_size=1, max_size=3).map(" + ".join)
    den = st.sampled_from([1, 2, 4, 7, 49])
    return st.builds(lambda n, d: f"{n}/{d}" if d > 1 else str(n), st.integers(-700, 700).filter(bool), den)


@st.composite
def _bench_sentence(draw):
    field = draw(st.sampled_from(_FIELDS))
    value = _centre(field)
    if draw(st.booleans()):
        # k = 2..10 disjunctions of valuation atoms around a few shared centres
        centres = draw(st.lists(value, min_size=1, max_size=4))

        def atom():
            op = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
            return f"v(rv[0](x - ({draw(st.sampled_from(centres))}))) {op} v(rv[0](({draw(value)})))"

        groups = [f"({atom()} | {atom()})" for _ in range(draw(st.integers(2, 10)))]
        text = "EX x:K. " + " & ".join([atom(), atom(), *groups])
    else:
        # a product of planted factors, with a leading-term side condition
        factors = [f"(y - ({draw(value)}))" for _ in range(draw(st.integers(1, 3)))]
        side = draw(st.sampled_from(["", " & rv[0](y) = rv[0](({}))", " & v(rv[0](y)) = v(rv[0](({})))"]))
        text = "EX y:K. " + "*".join(factors) + "*(y^2 - 2) = 0" + side.format(draw(value))
    return field, draw(_mutated(text))


@settings(max_examples=300, deadline=None)
@given(case=_bench_sentence())
def test_parsers_match_the_reference_on_bench_shaped_sentences(case):
    """Long sentences, whole or with one or two characters changed: the
    same tree, or the same error."""
    field, text = case
    _same(_outcome(parse_formula, field, text), _outcome(ref.parse_formula, field, text))


@pytest.mark.parametrize(
    "text",
    ["(x - 1)*(x + 1) = 0", "(" * 200 + "x" + ")" * 200 + " = 0", "(v(rv[0](x)) > v(rv[0](t)) | x = 1) & x^2 = 2"],
)
def test_a_parenthesis_that_starts_an_atom_is_settled_without_backtracking(laurent, monkeypatch, text):
    """A valid input raises no syntax error inside the parser: an atom's
    "(" is read as a formula or as a field term at once."""
    raised = []
    init = FormulaSyntaxError.__init__

    def counted(self, *args):
        raised.append(args)
        init(self, *args)

    monkeypatch.setattr(FormulaSyntaxError, "__init__", counted)
    parse_formula(laurent, text)
    assert raised == []


@pytest.mark.parametrize(
    "text", ["(rv[0](x)) = rv[0](t)", "((x)) = 0", "(x = 1", "(true)*2 = 0", "(x = 1)*2 = 0", "(x + true)*2 = 0"]
)
def test_a_parenthesis_that_starts_an_atom_ends_as_in_the_reference(laurent, text):
    """The same tree, or the same error at the same position."""

    def outcome(parse):
        try:
            return parse(laurent, text)
        except FormulaSyntaxError as e:
            return str(e)

    assert outcome(parse_formula) == outcome(ref.parse_formula)



@pytest.mark.parametrize(
    "field, text, message",
    [
        (
            _FIELDS[0],
            "x = 1 & rv[1]{v=0; unit=1,0} = rv[1]{v=2; unit=1,2,3}",
            "expected 2 unit digits, got 3 (at position 47)",
        ),
        (
            _FIELDS[0],
            "x = 1 | rv[0]{v=0; unit= 0} = rv[0]{v=0; unit=1}",
            "leading unit digit must be nonzero (at position 25)",
        ),
        (
            _FIELDS[1],
            "x = 1 | rv[0]{v=0; unit=1} = rv[0]{v=0; unit=1/2}",
            "padic unit digits must be integers (at position 45)",
        ),
        (
            _FIELDS[1],
            "rv[0]{v=0; unit=1} = rv[0]{v=0; unit=1} & rv[1]{v=0; unit=  3}",
            "expected 2 unit digits, got 1 (at position 60)",
        ),
    ],
)
def test_an_rv_literal_error_points_at_its_first_unit_digit(field, text, message):
    """Wherever the literal stands, and past any whitespace after "unit="."""
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula(field, text)
    assert str(e.value) == message
    assert _outcome(ref.parse_formula, field, text) == (FormulaSyntaxError, message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("EX x:K. rv[3](x*y)*w = rv[0](x)", "w is not an RV-sorted variable (at position 19)"),
        ("EX x:RV[0]. 2*x  = 1", "x is RV-sorted, expected a field term (at position 14)"),
        ("EX x:RV[0]. 2*x2  = 1 | 2*x = 1", "x is RV-sorted, expected a field term (at position 26)"),
    ],
)
def test_a_sort_error_points_at_the_identifier(text, message):
    """At its first character, not past it or the whitespace after it."""
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula(_FIELDS[0], text)
    assert str(e.value) == message
    assert _outcome(ref.parse_formula, _FIELDS[0], text) == (FormulaSyntaxError, message)


# ---- a repeated v(...) term is read once per scope -----------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        # the same tokens: "-1" is one number, "- 1" a sign with nothing to negate
        (
            "v(rv[0](x - -1)) < v(rv[0](t)) | v(rv[0](x - - 1)) < v(rv[0](t))",
            "expected identifier (at position 45)",
        ),
        # the same tokens: "rv [0]" is not the rv function
        (
            "EX x:K. v(rv[0](x - 1)) < v(rv[0](t)) & v(rv [0](x - 1)) < v(rv[0](t))",
            "rv is not an RV-sorted variable (at position 42)",
        ),
        # the same text in another scope: x is RV-sorted there
        (
            "v(rv[0](x)) < v(rv[0](t)) & EX x:RV[0]. v(rv[0](x)) < v(rv[0](t))",
            "x is RV-sorted, expected a field term (at position 48)",
        ),
        # and read first at a greater depth, which alone would allow the reuse
        (
            "!!!!!!!!v(rv[0](x)) < v(rv[0](t)) & EX x:RV[0]. v(rv[0](x)) < v(rv[0](t))",
            "x is RV-sorted, expected a field term (at position 56)",
        ),
    ],
)
def test_a_v_term_is_shared_only_for_the_same_text_in_the_same_scope(laurent, text, message):
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula(laurent, text)
    assert str(e.value) == message
    assert _outcome(parse_formula, laurent, text) == _outcome(ref.parse_formula, laurent, text)


def test_a_v_term_read_shallow_is_refused_when_repeated_too_deep(laurent):
    term = "v(rv[0](" + "(" * 100 + "x" + ")" * 100 + ")) > v(rv[0](1))"

    def parses(text):
        try:
            parse_formula(laurent, text)
            return True
        except FormulaSyntaxError as e:
            assert str(e) == "formula nested too deeply"
            return False

    # the fewest negations under which the term alone is nested too deeply
    lo, hi = 0, 4000
    while lo < hi:
        mid = (lo + hi) // 2
        if parses("EX x:K. " + "!" * mid + term):
            lo = mid + 1
        else:
            hi = mid
    n = lo
    assert 0 < n < 4000 and parses("EX x:K. " + "!" * n + "v(rv[0](x)) > v(rv[0](1))")
    assert parses(f"EX x:K. {term} & " + "!" * (n - 1) + term)
    assert not parses(f"EX x:K. {term} & " + "!" * n + term)


def test_a_repeated_v_term_is_one_node(laurent):
    phi = parse_formula(laurent, "EX x:K. v(rv[0](x - 1)) < v(rv[0](t)) | v(rv[0](x - 1)) = v(rv[0](t^2))")
    first, second = phi.body.args
    assert first.left.arg is second.left.arg  # x - 1
    assert first.right != second.right
    assert phi == ref.parse_formula(laurent, print_formula(phi))
