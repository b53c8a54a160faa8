import random
from fractions import Fraction

import pytest

from hqe.errors import NegativeValue, OrderMismatch, OrderViolation, PrecisionExhausted
from hqe.field import Field
from hqe.rv import (
    RVElem,
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


@pytest.mark.parametrize("order", [-1, Fraction(1, 2)])
def test_orders_are_nonnegative_integers(any_field, order):
    x = any_field.one()
    with pytest.raises(NegativeValue):
        rv(x, order)
    with pytest.raises(NegativeValue):
        rv(x, 2).project(order)
    with pytest.raises(NegativeValue):
        x.residue(order)


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
