import operator
from math import inf

import pytest

from hqe.errors import NonEffectiveQuantifier, OrderMismatch, PrecisionExhausted
from hqe.field import Field
from hqe.formula import FLit, RVOf, RVLitT, VComp, parse_formula
from hqe.rv import RVElem, rv, rv_sum_analyze
from hqe.semantics import (
    evaluate,
    eval_field_term,
    eval_rv_term,
    guarded_forall_pattern,
    two_witness_pattern,
)


def test_atom_evaluation(laurent):
    assert evaluate(parse_formula(laurent, "t - t = 0"), {}, laurent)
    assert not evaluate(parse_formula(laurent, "rv[0](t^2) = rv[0](2*t^2)"), {}, laurent)
    assert evaluate(parse_formula(laurent, "true & !false"), {}, laurent)
    assert evaluate(parse_formula(laurent, "v(rv[0](t)) < v(rv[0](t^2))"), {}, laurent)
    assert evaluate(
        parse_formula(laurent, "oplus[0](rv[0](1), rv[0](-1 + t^3), rv[0](t^5))"), {}, laurent
    )


def test_assignment_evaluation(laurent):
    phi = parse_formula(laurent, "rv[0](x^2 - t^2) = rv[0](2*t^4)")
    x = laurent.parse("t + t^3")
    assert evaluate(phi, {"x": x}, laurent)
    assert not evaluate(phi, {"x": laurent.parse("t + t^2")}, laurent)


def test_sum_term_semantics(laurent):
    # order-3 data projected to order 0 through a severity-2 sum
    phi = parse_formula(laurent, "sum[1](rv[3](1), rv[3](-1 + t^2), rv[3](t^2)) = rv[1](2*t^2)")
    assert evaluate(phi, {}, laurent)
    with pytest.raises(PrecisionExhausted):
        evaluate(
            parse_formula(laurent, "sum[2](rv[3](1), rv[3](-1 + t^2)) = rv[2](t^2)"),
            {},
            laurent,
        )


def test_two_witness_pattern_is_severity_test(laurent):
    one = laurent.one()
    t = laurent.uniformizer()
    # on x^2 - t^2 at x = t + t^3 around 0 the collision severity is 2 > 0
    x = t + t**3
    gamma = 0
    terms = [RVLitT(rv(x * x, gamma)), RVLitT(rv(-(t * t), gamma))]
    chi = two_witness_pattern(terms, gamma)
    assert evaluate(chi, {}, laurent)
    # no collision at x = 1: severity 0
    terms0 = [RVLitT(rv(one, gamma)), RVLitT(rv(-(t * t), gamma))]
    assert not evaluate(two_witness_pattern(terms0, gamma), {}, laurent)


def test_two_witness_pattern_three_terms(laurent):
    t = laurent.uniformizer()
    gamma = 1
    # 1 + (-1 + t^3) + t^5: severity 3 > 1
    terms = [
        RVLitT(rv(laurent.one(), gamma)),
        RVLitT(rv(laurent.parse("-1 + t^3"), gamma)),
        RVLitT(rv(t**5, gamma)),
    ]
    assert evaluate(two_witness_pattern(terms, gamma), {}, laurent)
    # 1 + t + t^2: severity 0
    terms2 = [RVLitT(rv(laurent.one(), gamma)), RVLitT(rv(t, gamma)), RVLitT(rv(t * t, gamma))]
    assert not evaluate(two_witness_pattern(terms2, gamma), {}, laurent)


def test_guarded_forall_pattern(laurent):
    from hqe.formula import RVVarT

    t = laurent.uniformizer()
    gamma, low = 3, 1
    u = RVVarT("u", gamma)
    # a deep guard: v(guard) + low = 3 >= min(values) + gamma = 0 + 3
    guard = RVLitT(rv(laurent.parse("t^2 + t^3"), low))
    # sum 1 + (-1 + t^5) - u: severity determined by the class of the guard
    body_terms = [
        RVLitT(rv(laurent.one(), gamma)),
        RVLitT(rv(laurent.parse("-1 + t^5"), gamma)),
        u,
    ]
    phi = guarded_forall_pattern("u", gamma, low, guard, two_witness_pattern(body_terms, gamma))
    # the sum is t^5 - u with v(u) = 2: severity 2, not above gamma = 3
    assert not evaluate(phi, {}, laurent)
    guard4 = RVLitT(rv(laurent.parse("t^4 + t^5"), low))
    phi2 = guarded_forall_pattern("u", gamma, low, guard4, two_witness_pattern(body_terms, gamma))
    # now the sum has value 4: severity 4 > 3 for every admissible u
    assert evaluate(phi2, {}, laurent)


def test_guarded_forall_shallow_guard_rejected(laurent):
    from hqe.formula import RVVarT

    gamma, low = 3, 1
    u = RVVarT("u", gamma)
    guard = RVLitT(rv(laurent.parse("1 + t"), low))
    body_terms = [u, RVLitT(rv(laurent.parse("-1 - t"), gamma))]
    phi = guarded_forall_pattern("u", gamma, low, guard, two_witness_pattern(body_terms, gamma))
    # a shallow guard leaves the severity comparison choice-dependent
    with pytest.raises(NonEffectiveQuantifier):
        evaluate(phi, {}, laurent)


def test_noneffective_quantifier(laurent):
    phi = parse_formula(laurent, "EX w:RV[0]. w*rv[0](t) = rv[0](t^2)")
    with pytest.raises(NonEffectiveQuantifier):
        evaluate(phi, {}, laurent)


def test_vacuous_rv_quantifier(laurent):
    phi = parse_formula(laurent, "EX w:RV[0]. rv[0](t) = rv[0](t)")
    assert evaluate(phi, {}, laurent)


def test_field_quantifier_delegates(laurent):
    phi = parse_formula(laurent, "EX y:K. y^2 = 1 + t")
    assert evaluate(phi, {}, laurent)
    phi2 = parse_formula(laurent, "ALL y:K. y^2 = 1 + t")
    assert not evaluate(phi2, {}, laurent)


def test_field_quantifier_binds_its_variable(laurent):
    """An assignment to the bound variable does not reach the body; free
    parameters are still substituted."""
    two = laurent.from_rational(2)
    assert evaluate(parse_formula(laurent, "EX x:K. x = 1"), {"x": two}, laurent)
    assert not evaluate(parse_formula(laurent, "ALL x:K. x = 1"), {"x": laurent.one()}, laurent)
    phi = parse_formula(laurent, "EX y:K. y^2 = c")
    assert evaluate(phi, {"c": laurent.parse("t^2")}, laurent)
    assert not evaluate(phi, {"c": laurent.parse("2*t^2")}, laurent)


_VALUE_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


@pytest.mark.parametrize("op", sorted(_VALUE_OPS))
def test_value_comparison_every_op(laurent, op):
    """v(a) op v(b) over all orderings of the two values, +inf included."""
    t = laurent.uniformizer()

    def side(k):
        return RVOf(0, FLit(laurent.zero() if k == inf else t**k))

    for a in (1, 2, inf):
        for b in (1, 2, inf):
            phi = VComp(op, side(a), side(b))
            assert evaluate(phi, {}, laurent) == _VALUE_OPS[op](a, b), (a, op, b)


def test_value_comparison_unknown_op(laurent):
    t = laurent.uniformizer()
    with pytest.raises(ValueError):
        evaluate(VComp("<>", RVOf(0, FLit(t)), RVOf(0, FLit(t))), {}, laurent)


def test_order_mismatch(laurent):
    phi = parse_formula(laurent, "rv[0](t) = rv[1](t)")
    with pytest.raises(OrderMismatch):
        evaluate(phi, {}, laurent)


@pytest.mark.parametrize(
    "text, value",
    [
        ("EX y:K. y = x", lambda L: rv(L.uniformizer(), 0)),
        ("EX y:K. rv[0](y) = x", lambda L: L.one()),
        ("EX y:K. rv[0](y) = x", lambda L: rv(L.uniformizer(), 1)),
    ],
    ids=["rv-for-field", "field-for-rv", "wrong-order"],
)
def test_wrong_sort_assignment_under_field_quantifier(laurent, text, value):
    # the same error as without the quantifier, where evaluate reads x itself
    rv_vars = {"x": 0} if "rv[0](y)" in text else None
    phi = parse_formula(laurent, text, rv_vars)
    with pytest.raises(OrderMismatch):
        evaluate(phi, {"x": value(laurent)}, laurent)
    with pytest.raises(OrderMismatch):
        evaluate(phi.body, {"x": value(laurent), "y": laurent.one()}, laurent)
