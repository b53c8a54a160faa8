from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqe.decomp import decompose
from hqe.errors import NegativeValue, PrecisionExhausted
from hqe.field import Field
from hqe.poly import Poly, coeff_vals, slope_root_counts
from hqe.regions import _solve
from hqe.valq import INF, NEG_INF, as_order, as_value


def test_total_order():
    assert NEG_INF < -10 < 0 < Fraction(1, 3) < 1 < INF
    assert 2 <= 2
    assert INF >= INF


def test_addition_and_infinities():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert INF + 7 == INF
    assert NEG_INF + 7 == NEG_INF


def test_scaling_and_division():
    assert 3 * 2 == 6
    assert -INF == NEG_INF
    assert INF * 5 == INF
    assert INF * -1 == NEG_INF


def test_as_value_and_as_order():
    assert as_value(Fraction(2, 4)) == Fraction(1, 2)
    assert as_value(NEG_INF) == NEG_INF
    assert as_order(5) == 5 and type(as_order(Fraction(4, 2))) is int
    for bad in (Fraction(1, 2), -1, INF):
        with pytest.raises(NegativeValue):
            as_order(bad)
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            as_value(bad)
        with pytest.raises(TypeError):
            as_order(bad)


# ---- values stay exact through every layer ----------------------------------

FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]
OPS = ["<", "<=", "=", "!=", ">", ">="]


def is_value(x) -> bool:
    """An int, a Fraction or +/-inf: never another float (nor a bool)."""
    return type(x) in (int, Fraction) or (type(x) is float and x in (INF, NEG_INF))


@st.composite
def polys(draw):
    field = draw(st.sampled_from(FIELDS))
    units = [Fraction(1), Fraction(-2), Fraction(1, 3)] if field.backend == "laurent-q" else [1, 3, 5]

    def coeff():
        return field.monomial(draw(st.sampled_from(units)), draw(st.integers(-3, 4)))

    coeffs = [draw(st.one_of(st.just(field.zero()), st.builds(coeff))) for _ in range(draw(st.integers(1, 3)))]
    return Poly(field, coeffs + [coeff()])


@settings(max_examples=60, deadline=None)
@given(f=polys())
def test_values_of_every_layer_are_exact(f):
    assert all(is_value(c.val()) for c in f.coeffs)
    for s, n in slope_root_counts(coeff_vals(f)):
        assert type(s) is Fraction and type(n) is int
    for piece in decompose(f):
        assert is_value(piece.severity_bound)
        intervals, _ = piece.cheese.realized_radii(piece.center)
        assert all(is_value(end) for interval in intervals for end in interval)
        try:
            w = piece.eval_v(piece.cheese.sample())
        except PrecisionExhausted:
            continue  # a sample the working precision cannot place
        assert is_value(w)


values = st.one_of(st.integers(-6, 6), st.just(INF))


@settings(max_examples=300, deadline=None)
@given(A=values, B=values, m1=st.integers(0, 4), m2=st.integers(0, 4), op=st.sampled_from(OPS),
       lo=st.one_of(st.just(NEG_INF), st.integers(-6, 0)), hi=st.one_of(st.just(INF), st.integers(0, 6)))
def test_radius_intervals_are_exact(A, B, m1, m2, op, lo, hi):
    for l2, h2, _ in _solve(A, m1, B, m2, op, lo, hi, True):
        assert is_value(l2) and is_value(h2)
