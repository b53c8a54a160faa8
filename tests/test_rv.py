import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rv_reference
from hqe.errors import DivisionByZero, FormulaSyntaxError, NegativeValue, OrderMismatch, OrderViolation, PrecisionExhausted
from hqe.decomp import rv_decompose
from hqe.field import Field
from hqe.poly import Poly
from hqe.rv import (
    RVElem,
    SumAnalysis,
    oplus_holds,
    parse_rv,
    residue_of,
    rv,
    rv_sum_analyze,
)
from hqe.valq import INF


def series_pair(laurent):
    x = laurent.parse("t^-2 + t^-1 + 1 + t + 2*t^2 + t^3")
    y = laurent.parse("t^-2 + t^-1 + 1 + t + 1*t^2 + t^3")
    return x, y


def test_equality_examples(laurent):
    x, y = series_pair(laurent)
    assert rv(x, 3) == rv(y, 3)
    assert rv(x, 4) != rv(y, 4)
    assert rv(laurent.parse("t^2"), 0) != rv(laurent.parse("2*t^2"), 0)
    assert rv(x, 2) == rv(x, 2)


def test_projection(laurent):
    x, y = series_pair(laurent)
    assert rv(x, 4).project(3) == rv(y, 3)
    a = rv(x, 4)
    assert a.project(4) == a
    assert RVElem.inf(laurent, 4).project(2) == RVElem.inf(laurent, 2)
    with pytest.raises(OrderViolation):
        rv(x, 2).project(3)


@pytest.mark.parametrize("order", [-1, Fraction(1, 2), INF])
def test_orders_are_nonnegative_integers(any_field, order):
    x = any_field.one()
    with pytest.raises(NegativeValue):
        rv(x, order)
    with pytest.raises(NegativeValue):
        rv(x, 2).project(order)
    with pytest.raises(NegativeValue):
        x.residue(order)
    with pytest.raises(NegativeValue):
        rv_decompose([Poly(any_field, [x, x])], [order])


def test_projection_commutes(any_field):
    rng = random.Random(3)
    for _ in range(50):
        x = any_field.monomial(rng.choice([1, 2, 3, 5, -1, -4]), rng.randrange(-4, 5))
        x = x + any_field.monomial(rng.choice([1, 2]), x.val() + rng.randrange(1, 6))
        gamma = rng.randrange(1, 5)
        delta = rng.randrange(0, gamma + 1)
        assert rv(x, gamma).project(delta) == rv(x, delta)


def test_mul_inv(laurent):
    t = laurent.uniformizer()
    assert rv(t, 0) * rv(t, 0) == rv(t * t, 0)
    assert rv(laurent.parse("2*t"), 0).inv() == rv(laurent.parse("1/2*t^-1"), 0)
    inf0 = RVElem.inf(laurent, 0)
    assert rv(t, 0) * inf0 == inf0
    with pytest.raises(OrderMismatch):
        rv(t, 0) * rv(t, 1)


def test_sum_analyze_examples(laurent):
    one = laurent.one()
    s = rv_sum_analyze([one, laurent.parse("-1 + t^5")], order=3)
    assert not s.well_defined and s.severity == 5 and s.witness_value is None
    s2 = rv_sum_analyze([rv(one, 0), rv(laurent.uniformizer(), 0)])
    assert s2.well_defined and s2.result == rv(laurent.parse("1 + t"), 0)
    s3 = rv_sum_analyze([one, laurent.parse("-1 + t^3")], order=5)
    assert not s3.well_defined and s3.severity == 3 and s3.witness_value == 3


def test_ambiguous_witnesses_project_consistently(laurent):
    # severity 3 at order 5: every witness projects at order <= 2 to rv(t^3)
    one = laurent.one()
    t = laurent.uniformizer()
    base = t**3
    for j in range(1, 4):
        for c in (1, 2, -1):
            witness = base + laurent.monomial(c, 5 + j)  # perturbation of value > min + 5
            assert rv(witness, 5).project(2) == rv(base, 2)


def test_oplus_examples(laurent):
    one = laurent.one()
    t = laurent.uniformizer()
    a = rv(one, 0)
    b = rv(laurent.parse("-1 + t^3"), 0)
    assert oplus_holds(a, b, rv(t**3, 0))
    assert oplus_holds(a, b, rv(t**5, 0))
    assert not oplus_holds(rv(one, 0), rv(t, 0), rv(t, 0))
    # inf cases
    inf0 = RVElem.inf(laurent, 0)
    assert oplus_holds(inf0, a, a)
    assert not oplus_holds(inf0, a, b)
    assert oplus_holds(a, rv(-one, 0), inf0)
    assert not oplus_holds(a, a, inf0)


def test_oplus_brute_force_grid(any_field):
    """oplus agrees with explicit witness enumeration on a perturbation grid."""
    rng = random.Random(17)
    field = any_field
    units = [1, 2, 3, -1] if field.backend == "laurent-q" else [1, 2, 3, field.p + 1]
    delta = 1

    def perturbations(x, target):
        # the grid carries generic points plus the construction-guided one:
        # when a witness exists it is realizable by perturbing the operand
        # of minimal valuation alone
        out = [field.zero()]
        for c in units[:3]:
            for j in range(1, 4):
                out.append(x * field.monomial(c, delta + j))
        if not target.is_zero and target.val() > x.val() + delta:
            out.append(target)
        return out

    for _ in range(40):
        x = field.monomial(rng.choice(units), rng.randrange(-2, 3))
        y = -x + field.monomial(rng.choice(units), x.val() + rng.randrange(0, 4))
        if y.is_zero:
            continue
        z = rng.choice(
            [x + y, x, field.monomial(rng.choice(units), rng.randrange(-2, 5)), x + y + x * field.monomial(1, delta + 2)]
        )
        a, b = rv(x, delta), rv(y, delta)
        c = rv(z, delta) if not z.is_zero else RVElem.inf(field, delta)
        w = z - x - y
        found = False
        for mx in perturbations(x, w):
            for my in perturbations(y, w):
                s = (x + mx) + (y + my)
                cls = rv(s, delta) if not s.is_zero else RVElem.inf(field, delta)
                if cls == c:
                    found = True
                    break
            if found:
                break
        # the grid contains the targeted witness, so enumeration is exact here
        assert found == oplus_holds(a, b, c)


def test_value_and_residue(laurent):
    assert rv(laurent.parse("3*t^2"), 0).val() == 2
    assert RVElem.inf(laurent, 1).val() == INF
    r = residue_of(rv(laurent.parse("3 + t"), 0))
    assert r == laurent.from_rational(3).residue(0)


def test_positivity_predicate(any_field):
    # v(x) > 0 iff d*x + 1 = 1 is a well-defined sum, d of value delta
    one = any_field.one()
    for delta in (0, 1):
        d = rv(any_field.monomial(1, delta), delta)
        for k, expect in ((1, True), (2, True), (0, False), (-1, False), (-2 * delta - 2, False)):
            x = rv(any_field.monomial(1, k), delta)
            assert oplus_holds(d * x, rv(one, delta), rv(one, delta)) == expect


def test_textual_roundtrip(any_field):
    x = any_field.monomial(3, -2) + any_field.monomial(1, 1)
    for delta in range(4):
        a = rv(x, delta)
        assert parse_rv(any_field, str(a)) == a
    inf3 = RVElem.inf(any_field, 3)
    assert parse_rv(any_field, str(inf3)) == inf3


def test_rv_requires_precision(laurent):
    x = laurent.parse("1 + t + O(t^3)")
    assert rv(x, 2) == rv(laurent.parse("1 + t"), 2)
    with pytest.raises(PrecisionExhausted):
        rv(x, 3)


@pytest.mark.parametrize(
    "text",
    ["rv[1]{v=0; unit=1}", "rv[0]{v=0; unit=0}", "rv[1]{v=0; unit=0,1}", "rv[0]{v=0; unit=1} x"],
)
def test_malformed_literal_is_a_syntax_error(any_field, text):
    with pytest.raises(FormulaSyntaxError):
        parse_rv(any_field, text)


@pytest.mark.parametrize(
    "field, text, x",
    [
        (Field.padic(7), "rv[1]{v=2; unit=8,-1}", "49"),
        (Field.padic(7), "rv[2]{v=-1; unit=-1,0,0}", "-1/7"),
        (Field.padic(2), "rv[1]{v=0; unit=3,5}", "1"),
        (Field.laurent(), "rv[2]{v=1; unit=1/2,2/4,0}", "1/2*t + 1/2*t^2 + 5*t^4"),
    ],
)
def test_literal_digits_are_read_as_the_reference_reads_them(field, text, x):
    a = parse_rv(field, text)
    assert str(a) == str(rv_reference.parse_rv(field, text))
    assert a == rv(field.parse(x), a.order)


# ---- the stored representative against the frozen digit-tuple classes ------

_DIFF_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]


def _key(r):
    """An outcome made comparable across the two implementations."""
    if isinstance(r, RVElem):
        # stored canonically: equal to the class its printed form parses to
        assert r == parse_rv(r.field, str(r)), str(r)
        return "rv", str(r)
    if isinstance(r, rv_reference.RVElem):
        return "rv", str(r)
    if isinstance(r, (SumAnalysis, rv_reference.SumAnalysis)):
        return "sum", r.well_defined, str(r.result), r.severity, r.witness_value
    return "value", r


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except Exception as e:  # the same error counts as the same answer
        return type(e), str(e)
    return _key(r)


def _inf_inverse(outcome):
    """The oracle raised the builtin ZeroDivisionError on inverting inf;
    the toolkit raises DivisionByZero with the same message."""
    if outcome[0] is ZeroDivisionError:
        return DivisionByZero, outcome[1]
    return outcome


@st.composite
def _element(draw, field):
    """Zero, an order bound, or an exact or truncated element with a few
    terms; over padic the terms' sum is a rational with p in it or not."""
    kind = draw(st.sampled_from(["exact", "exact", "truncated", "order-bound", "zero"]))
    if kind == "zero":
        return field.zero()
    if kind == "order-bound":
        return field.small(draw(st.integers(-4, 8)))
    coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    x = field.from_terms(draw(st.lists(st.tuples(st.integers(-3, 6), coeff), min_size=1, max_size=5)))
    if kind == "truncated" and not x.is_zero:
        x = x.truncate_rel(draw(st.integers(1, 7)))
    return x


@st.composite
def _diff_case(draw):
    field = draw(st.sampled_from(_DIFF_FIELDS))
    xs = [draw(_element(field)) for _ in range(3)]
    # a near copy of the first element, so that classes often coincide
    x = xs[0]
    if not (x.is_zero or x.is_small):
        k = draw(st.integers(0, 7))
        xs.append(x + field.monomial(draw(st.sampled_from([1, -1, 2, 3])), x.v + k))
    orders = [draw(st.integers(0, 5)) for _ in xs]
    if draw(st.booleans()):
        orders = [orders[0]] * len(xs)
    return field, xs, orders, draw(st.integers(0, 5)), draw(st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(case=_diff_case())
def test_classes_match_the_digit_tuple_reference(case):
    field, xs, orders, e, n = case
    new, old = [], []
    for x, d in zip(xs, orders):
        got = _outcome(rv, x, d)
        assert got == _outcome(rv_reference.rv, x, d), (str(x), d)
        if got[0] == "rv":
            new.append(rv(x, d))
            old.append(rv_reference.rv(x, d))
    if not new:
        return
    for a, b in zip(new, old):
        assert str(a) == str(b) and a.val() == b.val() and a.is_inf == b.is_inf
        assert a.rep() == b.rep()
        assert _outcome(a.project, e) == _outcome(b.project, e)
        assert _outcome(a.inv) == _inf_inverse(_outcome(b.inv))
        assert _outcome(a.__pow__, n) == _inf_inverse(_outcome(b.__pow__, n))
        assert _outcome(a.__neg__) == _outcome(b.__neg__)
        assert _outcome(rv_reference.residue_of, b) == _outcome(residue_of, a)
        back = parse_rv(field, str(a))
        assert back == a and hash(back) == hash(a)
        assert str(back) == str(rv_reference.parse_rv(field, str(b)))
    pairs = list(zip(new, old))
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            assert (a1 == a2) == (b1 == b2), (str(a1), str(a2))
            if a1 == a2:
                assert hash(a1) == hash(a2) and hash(b1) == hash(b2)
            assert _outcome(a1.__mul__, a2) == _outcome(b1.__mul__, b2)
            assert _outcome(rv_sum_analyze, [a1, a2]) == _outcome(rv_reference.rv_sum_analyze, [b1, b2])
            for a3, b3 in pairs:
                assert _outcome(oplus_holds, a1, a2, a3) == _outcome(rv_reference.oplus_holds, b1, b2, b3)
    mixed = [new[0], *xs[1:]]
    assert _outcome(rv_sum_analyze, mixed) == _outcome(rv_reference.rv_sum_analyze, [old[0], *xs[1:]])
    assert _outcome(rv_sum_analyze, xs, orders[0]) == _outcome(rv_reference.rv_sum_analyze, xs, orders[0])
