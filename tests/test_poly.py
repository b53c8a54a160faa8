import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqe.errors import PrecisionExhausted
from hqe.field import Field
from hqe.poly import (
    Poly,
    _divisors,
    derivative,
    exact_divide,
    monic,
    poly_divmod,
    poly_gcd,
    poly_pseudo_divmod,
    recompose,
    residue_roots,
    squarefree_part,
    taylor_shift,
)


def x_poly(field):
    return Poly(field, [field.zero(), field.one()])


def test_taylor_shift_example(laurent):
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, laurent.zero(), laurent.one()])  # x^2 - t
    a = taylor_shift(f, t)
    assert a[0] == t * t - t
    assert a[1] == t + t
    assert a[2] == laurent.one()
    assert recompose(laurent, a, t) == f


def test_taylor_shift_identity_cases(laurent):
    f = Poly.from_rationals(laurent, [3, 0, 0, 2])
    assert taylor_shift(f, laurent.zero()) == f.coeffs
    g = x_poly(laurent)
    assert taylor_shift(g, laurent.one()) == (laurent.one(), laurent.one())


def test_derivative(laurent):
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, laurent.zero(), laurent.one()])
    assert derivative(f, 1) == Poly.from_rationals(laurent, [0, 2])
    assert derivative(f, 0) == f
    cube = Poly.from_rationals(laurent, [0, 0, 0, 1])
    assert derivative(cube, 2) == Poly.from_rationals(laurent, [0, 6])
    assert derivative(f, 5).is_zero


def test_divmod_example(laurent):
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, laurent.zero(), laurent.one()])
    g = Poly.from_rationals(laurent, [0, 0, 0, 1])
    q, r = poly_divmod(g, f)
    assert q == x_poly(laurent)
    assert r == Poly(laurent, [laurent.zero(), t])
    assert q * f + r == g


def test_gcd_examples(laurent):
    x = x_poly(laurent)
    assert poly_gcd(x * x, x) == x
    g = poly_gcd(Poly.from_rationals(laurent, [-1, 0, 1]), Poly.from_rationals(laurent, [0, 2]))
    assert g == Poly.from_rationals(laurent, [1])


def test_divmod_identity_random(any_field):
    rng = random.Random(5)
    for _ in range(25):
        dg = rng.randrange(0, 5)
        df = rng.randrange(1, 4)
        g = Poly.from_rationals(any_field, [rng.randrange(-9, 10) for _ in range(dg + 1)])
        coeffs = [rng.randrange(-9, 10) for _ in range(df)] + [rng.choice([1, -1, 2])]
        f = Poly.from_rationals(any_field, coeffs)
        if f.is_zero:
            continue
        q, r = poly_divmod(g, f)
        assert q * f + r == g
        assert r.is_zero or r.degree < f.degree


def test_pseudo_divmod_exact(laurent):
    t = laurent.uniformizer()
    g = Poly(laurent, [t, laurent.one(), t + laurent.one()])
    f = Poly(laurent, [laurent.one(), t])
    q, r, k = poly_pseudo_divmod(g, f)
    lead_pow = f.leading() ** k
    assert q * f + r == Poly(laurent, [c * lead_pow for c in g.coeffs])


def test_gcd_of_coprime_exact_inputs_is_one(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    # x^3 + (1 + t^5) x + t^7 + 3 is squarefree; the chain ends in a long
    # exact constant
    f = Poly(laurent, [t**7 + 3, one + t**5, laurent.zero(), one])
    assert poly_gcd(f, derivative(f)) == Poly(laurent, [one])
    assert poly_gcd(Poly.from_rationals(laurent, [1, 1]), Poly.from_rationals(laurent, [2, 1])) == Poly(
        laurent, [one]
    )


def test_gcd_truncated_constant_remainder(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    c = (one + t).truncate_rel(10)  # 1 + t + O(t^10)
    f = Poly(laurent, [-c, laurent.zero(), one])  # x^2 - c
    g = Poly.from_rationals(laurent, [-3, 1])  # x - 3
    _, r, _ = poly_pseudo_divmod(f, g)
    assert r.degree == 0 and not r.coeffs[0].is_exact
    h = poly_gcd(f, g)
    assert h == monic(r)
    assert h.coeffs[0] == one.truncate_rel(10)


def test_gcd_constant_remainder_zero_to_its_precision_raises(laurent):
    c = laurent.from_rational(9).truncate_rel(10)  # 9 + O(t^10)
    f = Poly(laurent, [-c, laurent.zero(), laurent.one()])
    g = Poly.from_rationals(laurent, [-3, 1])
    _, r, _ = poly_pseudo_divmod(f, g)
    assert r.degree == 0 and r.coeffs[0].is_small
    with pytest.raises(PrecisionExhausted):
        poly_gcd(f, g)


def test_gcd_divides_inputs(laurent):
    rng = random.Random(7)
    x = x_poly(laurent)
    for _ in range(15):
        a = Poly.from_rationals(laurent, [rng.randrange(-4, 5) for _ in range(3)] + [1])
        b = Poly.from_rationals(laurent, [rng.randrange(-4, 5), 1])
        f, g = a * b, b * Poly.from_rationals(laurent, [rng.randrange(-4, 5), 1])
        h = poly_gcd(f, g)
        assert not h.is_zero
        exact_divide(f, h)
        exact_divide(g, h)


def test_squarefree_part(laurent):
    x = x_poly(laurent)
    one = Poly.from_rationals(laurent, [1])
    f = (x - one) * (x - one) * (x + one)
    sf = squarefree_part(f)
    assert sf.degree == 2
    assert poly_gcd(sf, derivative(sf)).degree == 0


def test_residue_roots_examples(laurent, padic7):
    assert residue_roots(laurent, [Fraction(-1), Fraction(0), Fraction(1)]) == [-1, 1]
    assert residue_roots(laurent, [Fraction(-2), Fraction(0), Fraction(1)]) == []
    assert residue_roots(padic7, [-2, 0, 1]) == [3, 4]


def test_residue_roots_rational(laurent):
    # 2u^2 - 3u + 1 = (2u - 1)(u - 1)
    assert residue_roots(laurent, [Fraction(1), Fraction(-3), Fraction(2)]) == [
        Fraction(1, 2),
        Fraction(1),
    ]


def _residue_roots_by_fractions(cs):
    """The rational-root search on Fraction evaluations, kept as an oracle:
    every num/den with num | a_0 and den | a_d, both signs."""
    from math import lcm

    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    roots = set()
    while cs and cs[0] == 0:
        roots.add(Fraction(0))
        cs.pop(0)
    if len(cs) > 1:
        mult = lcm(*[c.denominator for c in cs])
        ics = [int(c * mult) for c in cs]
        for num in _divisors(abs(ics[0])):
            for den in _divisors(abs(ics[-1])):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if sum(c * cand**i for i, c in enumerate(cs)) == 0:
                        roots.add(cand)
    return sorted(roots)


_small_rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    roots=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)), max_size=3),
    scale=st.integers(1, 6),
)
def test_residue_roots_matches_fraction_search(data, roots, scale):
    # a random factor times planted rational roots, so that roots exist
    cs = data.draw(st.lists(_small_rational, min_size=1, max_size=4))
    if not any(cs):
        cs[-1] = Fraction(1)
    for r in roots:
        cs = [Fraction(0)] + cs
        for i in range(len(cs) - 1):
            cs[i] -= r * cs[i + 1]
    cs = [c * scale for c in cs]
    assert residue_roots(Field.laurent(), cs) == _residue_roots_by_fractions(cs)
