"""Regions against pointwise truth: a point lies in qe.literal_region of an
atom exactly when semantics.evaluate finds the atom true there."""

import pytest

from hqe.balls import Ball, SwissCheese
from hqe.errors import PrecisionExhausted
from hqe.formula import parse_formula
from hqe.hensel import same_point
from hqe.poly import Poly
from hqe.qe import literal_region
from hqe.regions import vcomp_region
from hqe.semantics import evaluate

# each atom in x, with {u} the uniformizer; one or more per atom kind
_ATOMS = {
    "equation": [
        "(x - 1)*(x - 1 - {u}) = 0",
        "x^2 - (1 + {u})^2 = 0",
    ],
    "rv equality": [
        "rv[0](x - 1) = rv[0]({u})",
        "rv[1](x^2 - 1) = rv[1]({u})",
        "rv[0](x - 1 - {u}) = rv[0](x - 1)",
    ],
    "constant side": [
        "v(rv[0](x - (1 + {u}))) < v(rv[0]({u}^2))",
        "v(rv[0]({u})) = v(rv[0](x - 1))",
        "v(rv[0](x^2 - 1)) >= v(rv[0]({u}))",
        "v(rv[0](3)) != v(rv[0]((x - 1)*(x + {u})))",
        "v(rv[0](x - 1 - 2*{u})) <= v(rv[0](1))",
        "v(rv[0](x - 1)) > v(rv[0]({u}^-1))",
    ],
    "zero side": [
        "v(rv[0](0)) > v(rv[0](x - 1))",
        "v(rv[0](x^2 - {u}^2)) = v(rv[0](0))",
        "v(rv[0](x - 1)) < v(rv[0](0))",
    ],
    "two varying sides": [
        "v(rv[0](x - 1)) < v(rv[0](x^2 - {u}))",
        "v(rv[0](x - 1 - {u})) = v(rv[0](x - 1 - {u}^2))",
        "v(rv[0]((x - 1)^2)) >= v(rv[0](x + {u}))",
    ],
    "oplus": [
        "oplus[0](rv[0](x - 1 - 2*{u}), rv[0]({u}), rv[0](2*x - 2 - 3*{u}))",
        "oplus[0](rv[0](x - 1), rv[0](x^2 - 1), rv[0](x - 1 + {u}))",
        "oplus[1](rv[1](x), rv[1](x - {u}), rv[1](2*x - {u}))",
    ],
}

# the grid: points at, near and away from the atoms' centres
_POINTS = [
    "0", "1", "-1", "2", "3", "1/3", "{u}", "{u}^2", "-{u}", "{u}^-1",
    "1 + {u}", "1 - {u}", "1 + 2*{u}", "1 + 3*{u}", "1 + {u}^2", "1 + {u} + {u}^2",
    "1 + 2*{u} + {u}^3", "3 + {u}", "-1 + {u}", "1/3 + {u}",
]


def _uniformizer(field):
    return "t" if field.backend == "laurent-q" else str(field.p)


def _member(region, x) -> bool:
    # a tuple item is read as the intersection of its regions
    return any(
        all(_member(r, x) for r in item) if isinstance(item, tuple) else item.contains(x)
        for item in region
    )


@pytest.mark.parametrize("kind", sorted(_ATOMS))
def test_region_membership_is_pointwise_truth(any_field, kind):
    u = _uniformizer(any_field)
    points = [any_field.parse(p.format(u=u)) for p in _POINTS]
    checked = 0
    for text in _ATOMS[kind]:
        atom = parse_formula(any_field, text.format(u=u))
        region = literal_region(atom, "x", any_field)
        for x in points:
            try:
                want = evaluate(atom, {"x": x}, any_field)
            except PrecisionExhausted:
                continue
            assert _member(region, x) is want, (text, str(x), region)
            checked += 1
    assert checked >= len(_ATOMS[kind]) * len(points) // 2


def _line(field, c):
    """x - c"""
    return Poly(field, [-field.parse(c), field.one()])


def test_a_constant_side_is_solved_around_the_other_centre(laurent, padic7):
    one_t = laurent.parse("1 + t")
    got = vcomp_region(_line(laurent, "1 + t"), Poly(laurent, [laurent.parse("t^2")]), "<", laurent)
    assert got == [SwissCheese(Ball.all(laurent), [Ball.at_least(one_t, 2)])]
    got = vcomp_region(_line(padic7, "8"), Poly(padic7, [padic7.parse("49")]), "<", padic7)
    assert got == [SwissCheese(Ball.all(padic7), [Ball.at_least(padic7.parse("8"), 2)])]
    assert str(got[0]) == "K \\ (B[>=2](8))"


@pytest.mark.parametrize("op", ["<", "<=", "=", "!=", ">=", ">"])
def test_no_ball_of_a_constant_side_comparison_leaves_the_centre(any_field, op):
    u = _uniformizer(any_field)
    centre = f"1 + {u}"
    H = _line(any_field, centre)
    for j in (-1, 0, 2):
        G = Poly(any_field, [any_field.parse(f"{u}^{j}")])
        for left, right, o in ((H, G, op), (G, H, op)):
            for cheese in vcomp_region(left, right, o, any_field):
                for ball in (cheese.outer, *cheese.holes):
                    if ball != Ball.all(any_field):
                        assert same_point(ball.center, any_field.parse(centre)), (o, j, cheese)


def test_a_region_is_a_flat_list_of_nonempty_cheeses(any_field):
    u = _uniformizer(any_field)
    for texts in _ATOMS.values():
        for text in texts:
            region = literal_region(parse_formula(any_field, text.format(u=u)), "x", any_field)
            assert all(isinstance(c, SwissCheese) and not c.is_empty for c in region), text
