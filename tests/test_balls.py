from fractions import Fraction

import pytest

from hqe.balls import Ball, SwissCheese, _outside_points, ball_covered
from hqe.errors import PrecisionExhausted
from hqe.field import Field
from hqe.hensel import field_roots
from hqe.poly import Poly
from hqe.valq import INF, NEG_INF


def test_nested_intersection(laurent):
    zero = laurent.zero()
    b0 = Ball.at_least(zero, 0)
    b1 = Ball.at_least(zero, 1)
    assert b0.intersect(b1) == b1


def test_disjoint_balls(laurent):
    t = laurent.uniformizer()
    assert Ball.more_than(t, 1).intersect(Ball.more_than(2 * t, 1)).is_empty


def test_fractional_radius_normalizes(laurent):
    zero = laurent.zero()
    assert Ball.more_than(zero, Fraction(3, 2)) == Ball.at_least(zero, 2)
    assert Ball.more_than(zero, 2) == Ball.at_least(zero, 3)
    assert Ball.at_least(zero, Fraction(5, 3)) == Ball.at_least(zero, 2)


def test_any_member_is_a_center(laurent):
    t = laurent.uniformizer()
    b = Ball.at_least(t, 1)
    member = t + t**3
    assert b.contains(member)
    assert Ball.at_least(member, 1) == b


def test_degenerate_balls(laurent):
    zero = laurent.zero()
    assert Ball.more_than(zero, NEG_INF) == Ball.all(laurent)
    assert Ball.at_least(zero, INF) == Ball.point(zero)
    assert Ball.more_than(zero, INF).is_empty
    assert Ball.all(laurent).contains(laurent.parse("t^-5"))


def test_membership_precision(laurent):
    b = Ball.at_least(laurent.zero(), 3)
    assert b.contains(laurent.small(5))
    with pytest.raises(PrecisionExhausted):
        b.contains(laurent.small(2))


def test_cheese_intersection_examples(laurent):
    zero = laurent.zero()
    k_minus = SwissCheese(Ball.all(laurent), [Ball.more_than(zero, 1)])
    inter = k_minus.intersect(SwissCheese(Ball.at_least(zero, 0)))
    assert inter.outer == Ball.at_least(zero, 0)
    assert inter.holes == (Ball.at_least(zero, 2),)


def test_cheese_normalization(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    ch = SwissCheese(
        Ball.at_least(zero, 0),
        [Ball.at_least(t, 3), Ball.at_least(t, 5), Ball.at_least(laurent.parse("t^-2"), 0)],
    )
    # nested hole merged, out-of-outer hole dropped
    assert ch.holes == (Ball.at_least(t, 3),)
    swallowed = SwissCheese(Ball.at_least(zero, 2), [Ball.at_least(zero, 1)])
    assert swallowed.is_empty


def test_padic_cover(padic2):
    z = padic2.zero()
    b = Ball.at_least(z, 0)
    h0 = Ball.at_least(z, 1)
    h1 = Ball.at_least(padic2.one(), 1)
    assert ball_covered(b, [h0, h1])
    assert not ball_covered(b, [h0])
    assert SwissCheese(b, [h0, h1]).is_empty
    # laurent never covers with proper sub-balls
    laur = Field.laurent()
    lb = Ball.at_least(laur.zero(), 0)
    holes = [Ball.at_least(laur.from_rational(c), 1) for c in range(-3, 4)]
    assert not ball_covered(lb, holes)


def test_sample_skips_sub_balls_covered_by_several_holes(padic2):
    # B[>=0](1/2) is covered by B[>=1](3/2) and B[>=1](5/2) together, so the
    # only points are the 2-adic units
    F = padic2
    holes = [Ball.at_least(F.parse(c), 1) for c in ("3/2", "0", "5/2")]
    cheese = SwissCheese(Ball.at_least(F.parse("1/2"), -1), holes)
    x = cheese.sample()
    assert cheese.contains(x) and x.val() == 0


def test_sample_dodges_an_approximated_point_hole(padic7):
    """B[>=4](r) minus {r} for r = sqrt(2), known to 64 digits: the center
    cannot be told from the hole, and the sample is the next candidate,
    proven outside.  Where no candidate can be told from the hole, sample
    raises rather than guesses."""
    for r in field_roots(Poly.from_rationals(padic7, [-2, 0, 1])):
        assert not r.is_exact
        cheese = SwissCheese(Ball.at_least(r, 4), [Ball.point(r)])
        x = cheese.sample()
        assert cheese.contains(x) and (x - r).val() == 5
        with pytest.raises(PrecisionExhausted):
            SwissCheese(Ball.at_least(r, 63), [Ball.point(r)]).sample()


def test_realized_radii(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    assert SwissCheese.all(laurent).realized_radii(zero) == ([(NEG_INF, INF)], True)
    ann = SwissCheese(Ball.at_least(zero, 1), [Ball.at_least(zero, 2)])
    assert ann.realized_radii(zero) == ([(1, 1)], False)
    # from an off-center point the outer ball sits at one radius
    ch = SwissCheese(Ball.at_least(t, 2))
    assert ch.realized_radii(zero) == ([(1, 1)], False)


def test_realized_radii_sphere_removal(padic2):
    # in Q_2 the sphere v(x) = 0 is a single class, removable by one hole
    z = padic2.zero()
    s = SwissCheese(Ball.all(padic2), [Ball.at_least(padic2.one(), 1)])
    intervals, point = s.realized_radii(z)
    assert point
    assert intervals == [(NEG_INF, -1), (1, INF)]


def test_json_roundtrip(any_field):
    zero = any_field.zero()
    pi = any_field.uniformizer()
    ch = SwissCheese(Ball.at_least(zero, -2), [Ball.at_least(pi, 4), Ball.point(pi + pi)])
    back = SwissCheese.from_json(any_field, ch.to_json())
    assert back == ch


def test_outside_points_is_false_on_an_undecided_membership(padic7):
    """A point known only to 5 digits may be 3 or not: 3 is not proven to
    lie outside it, while 4 is."""
    hole = Ball.point(padic7.from_rational(3).truncate_rel(5))
    three = padic7.from_rational(3)
    with pytest.raises(PrecisionExhausted):
        hole.contains(three)
    assert not _outside_points(three, [hole])
    assert _outside_points(padic7.from_rational(4), [hole])
