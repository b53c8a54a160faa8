import random
import time
from fractions import Fraction

import gcd_reference
import horner_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqe.poly
from hqe.errors import PrecisionExhausted, PreconditionViolated
from hqe.field import FINGERPRINT_PRIME, FINGERPRINT_T, Field
from hqe.hensel import _roots_in_O, field_roots
from hqe.poly import (
    RESIDUE_SCAN_MAX_P,
    Poly,
    _divisors,
    _strip_content,
    coeff_images,
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


# ---- evaluation and recentering on integer forms -----------------------------------


_HORNER_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]


@st.composite
def horner_cases(draw):
    """(f, x) over one of three fields.  A coefficient or point is exact
    (denominators other than 1, negative valuations), truncated, an order
    bound or the exact zero.  In the planted shape f = (X - r) g, and x is
    r truncated or moved by a high power of the uniformizer, so that the
    value cancels down to an order bound."""
    field = draw(st.sampled_from(_HORNER_FIELDS))
    p = field.p or 2

    def exact():
        if field.backend == "laurent-q":
            lo = draw(st.integers(-3, 3))
            terms = [(lo + i, Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 3, 5)))))
                     for i in range(draw(st.integers(1, 3)))]
            x = field.from_terms(terms)
        else:
            num = draw(st.integers(-99, 99)) * p ** draw(st.integers(0, 3))
            x = field.from_rational(Fraction(num, draw(st.sampled_from((1, 2, 3, p, 5 * p * p)))))
        return x if not x.is_zero else field.one()

    def elem(kinds=("exact", "exact", "truncated", "small", "zero")):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return field.zero()
        if kind == "small":
            return field.small(draw(st.integers(-2, 12)))
        x = exact()
        return x.truncate_rel(draw(st.integers(1, 8))) if kind == "truncated" else x

    def poly(lo, hi):
        return Poly(field, [elem() for _ in range(draw(st.integers(lo, hi)))])

    if draw(st.booleans()):
        return poly(0, 6), elem()
    r = elem(("exact", "truncated"))
    f = Poly(field, [-r, field.one()]) * poly(1, 4)
    if draw(st.booleans()):
        f = Poly(field, [c.truncate_rel(draw(st.integers(4, 12))) for c in f.coeffs])
    if draw(st.booleans()):
        x = r.truncate_rel(draw(st.integers(1, 10)))
    else:
        x = r + field.monomial(draw(st.integers(1, 9)), draw(st.integers(3, 12)))
    return f, x


def _results(fn, *args):
    """Each resulting element with its field, or the error."""
    try:
        r = fn(*args)
    except Exception as e:
        return type(e), str(e)
    return [(x, x.field) for x in (r if isinstance(r, tuple) else (r,))]


@settings(max_examples=400, deadline=None)
@given(case=horner_cases())
def test_integer_kernel_matches_field_steps(case):
    """Evaluation and recentering on integer forms give the elements the
    field's own products and sums give: the same kind, digits, ``rel`` and
    field, or the same error."""
    f, x = case
    assert _results(f, x) == _results(horner_reference.evaluate, f, x)
    assert _results(taylor_shift, f, x) == _results(horner_reference.taylor_shift, f, x)


def test_integer_kernel_cancels_to_an_order_bound(any_field):
    """A value whose known digits all cancel is an order bound at the
    smallest cap, over every backend, as in the field kernel."""
    one = any_field.one()
    r = any_field.from_rational(Fraction(3, 2)) + any_field.uniformizer()
    f = Poly(any_field, [-r, one]) * Poly(any_field, [one, one])  # (X - r)(X + 1)
    x = r.truncate_rel(6)
    value = f(x)
    assert value.is_small and value == horner_reference.evaluate(f, x)
    assert value.abs_prec == x.abs_prec + (r + one).val()
    assert f(r).is_zero


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
    # x^3 + (1 + t^5) x + t^7 + 3 is squarefree; the exact chain would end
    # in a long exact constant, and the images modulo a prime prove it first
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


def test_residue_roots_refuses_a_huge_prime():
    """Root search over F_p scans every residue, so a huge p is refused at
    once instead of running for hours; the bound is named in the message."""
    P = FINGERPRINT_PRIME
    field = Field.padic(P)
    start = time.perf_counter()
    with pytest.raises(PreconditionViolated, match=str(RESIDUE_SCAN_MAX_P)):
        residue_roots(field, [-3, 1])
    with pytest.raises(PreconditionViolated, match=str(RESIDUE_SCAN_MAX_P)):
        field_roots(Poly(field, [field.from_rational(-3), field.zero(), field.one()]))
    assert time.perf_counter() - start < 0.5


# ---- the modular coprimality screen of poly_gcd ------------------------------------


_GCD_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]


@st.composite
def gcd_pairs(draw):
    """(f, g) over one of three fields: f = h*a and g = h*b with a planted
    common factor h of degree 0-2, f = h^2*a with a square factor, or f and
    g with random exact coefficients.  A coefficient may be short, zero,
    have the fingerprint prime in its denominator (no image) or be a
    multiple of an element that maps to 0 (P, and t - FINGERPRINT_T over
    laurent-q), also in a leading position, where the image loses a degree."""
    field = draw(st.sampled_from(_GCD_FIELDS))
    one = field.one()
    P = FINGERPRINT_PRIME

    def short(dens=(1, 3, 5)):
        if field.backend == "laurent-q":
            n = draw(st.integers(1, 3))
            lo = draw(st.integers(-2, 3))
            terms = [(lo + i, Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(dens))))
                     for i in range(n)]
            c = field.from_terms(terms)
        else:
            c = field.from_rational(Fraction(draw(st.integers(-60, 60)), draw(st.sampled_from(dens))))
        return c if not c.is_zero else one

    # in half the examples every coefficient has an image, so that the
    # screen decides and its answers are tested
    kinds = ["short", "short", "short", "zero"]
    if draw(st.booleans()):
        kinds += ["no-image", "zero-image"]

    def coeff(kind=None):
        kind = kind or draw(st.sampled_from(kinds))
        if kind == "zero":
            return field.zero()
        if kind == "no-image":
            return short((P, 2 * P))
        if kind == "zero-image":
            vanishing = [field.from_rational(P)]
            if field.backend == "laurent-q":
                vanishing.append(field.uniformizer() - FINGERPRINT_T)
            return short() * draw(st.sampled_from(vanishing))
        return short()

    def poly(lo, hi, lead_kind=None):
        cs = [coeff() for _ in range(draw(st.integers(lo, hi)))]
        lead = coeff(lead_kind)
        return Poly(field, cs + [lead if not lead.is_zero else one])

    shape = draw(st.sampled_from(["planted", "random", "square"]))
    if shape == "planted":
        # a common factor whose leading image vanishes maps to one of lower
        # degree, which the images of f and g may then not share
        h = poly(0, 2, draw(st.sampled_from(["short", "zero-image"])))
        return h * poly(0, 3), h * poly(0, 3)
    if shape == "square":
        h = poly(1, 1)
        return h * h * poly(0, 2), poly(0, 3)
    return poly(0, 4), poly(0, 4)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the same error counts as the same answer
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(pair=gcd_pairs())
def test_gcd_matches_unscreened_reference(pair):
    """The screen never changes a gcd or a squarefree part: the same
    polynomial, coefficient by coefficient, or the same error as the frozen
    exact chain."""
    f, g = pair
    assert _outcome(poly_gcd, f, g) == _outcome(gcd_reference.poly_gcd, f, g)
    assert _outcome(poly_gcd, g, f) == _outcome(gcd_reference.poly_gcd, g, f)
    for h in (f, g):
        assert _outcome(squarefree_part, h) == _outcome(gcd_reference.squarefree_part, h)


@pytest.fixture
def chain_calls(monkeypatch):
    """Counts the calls of the exact chain's pseudo-division."""
    calls = []
    exact = hqe.poly.poly_pseudo_divmod

    def counted(g, f):
        calls.append(1)
        return exact(g, f)

    monkeypatch.setattr(hqe.poly, "poly_pseudo_divmod", counted)
    return calls


def _lin(field, c1, c0):
    return Poly(field, [c0, c1])


def test_gcd_vanishing_leading_image_takes_the_chain(laurent, chain_calls):
    """h = (t - FINGERPRINT_T) x + 1 maps to 1, so f = h (x + 1) and
    g = h (x + 2) map to coprime images of lower degree; the leading images
    vanish, so the chain finds the common factor."""
    one = laurent.one()
    h = _lin(laurent, laurent.uniformizer() - FINGERPRINT_T, one)
    assert coeff_images(h) == [1, 0]
    f, g = h * _lin(laurent, one, one), h * _lin(laurent, one, one + one)
    got = poly_gcd(f, g)
    assert chain_calls and got.degree == 1 and got == gcd_reference.poly_gcd(f, g)
    sq = h * h * _lin(laurent, one, one)
    assert squarefree_part(sq) == gcd_reference.squarefree_part(sq)
    assert squarefree_part(sq).degree == 2


def test_gcd_coefficient_without_image_takes_the_chain(laurent, padic7, chain_calls):
    P = FINGERPRINT_PRIME
    for field in (laurent, padic7):
        one = field.one()
        h = _lin(field, one, field.from_rational(Fraction(-1, P)))
        assert coeff_images(h) is None
        f, g = h * _lin(field, one, one), h * _lin(field, one, one + one)
        got = poly_gcd(f, g)
        assert got.degree == 1 and got == gcd_reference.poly_gcd(f, g)
    assert len(chain_calls) >= 2


def test_gcd_inexact_coefficient_takes_the_chain(laurent, chain_calls):
    """(x - 1)(x - 2) with its constant term known to 20 digits has no image;
    the chain decides as it always did."""
    one = laurent.one()
    f = Poly(laurent, [laurent.from_rational(2).truncate_rel(20), laurent.from_rational(-3), one])
    assert coeff_images(f) is None
    for g in (Poly.from_rationals(laurent, [-3, 1]), Poly.from_rationals(laurent, [-1, 1])):
        assert _outcome(poly_gcd, f, g) == _outcome(gcd_reference.poly_gcd, f, g)
    assert chain_calls


def test_gcd_over_q_fingerprint_prime_takes_the_chain(chain_calls):
    """Over Q_P for the fingerprint prime P no element has an image."""
    field = Field.padic(FINGERPRINT_PRIME)
    x = Poly(field, [field.zero(), field.one()])
    one = Poly.from_rationals(field, [1])
    assert coeff_images(x + one) is None
    got = poly_gcd((x - one) * (x + one), (x - one) * (x + one + one))
    assert chain_calls and got == x - one
    assert squarefree_part((x - one) * (x - one) * (x + one)).degree == 2


def test_squarefree_input_skips_the_chain(monkeypatch):
    """A counted guard, no timing: a squarefree prec-128 laurent-q polynomial
    shaped like the roots benchmark's "m0 c2 m-1" template (37 times the
    roots u, u + u' t^2 and u'' t^-1, times x^2 - 2) never reaches the
    pseudo-division, and (x - 1)^2 (x + 1) still does."""
    def chain(g, f):
        raise AssertionError("the exact chain ran")

    field = Field.laurent().with_prec(128)
    r1 = field.from_rational(-3)
    f = Poly.from_rationals(field, [-74, 0, 37])
    for r in (r1, r1 + field.monomial(Fraction(1, 2), 2), field.monomial(2, -1)):
        f = f * Poly(field, [-r, field.one()])
    x1 = Poly.from_rationals(field, [-1, 1])
    sq = x1 * x1 * Poly.from_rationals(field, [1, 1])
    monkeypatch.setattr(hqe.poly, "poly_pseudo_divmod", chain)
    assert squarefree_part(f) is f
    with pytest.raises(AssertionError, match="the exact chain ran"):
        squarefree_part(sq)
    monkeypatch.undo()
    assert squarefree_part(sq).degree == 2


def test_degree_bound(laurent):
    one = laurent.one()
    top = hqe.poly.MAX_DEGREE
    assert Poly(laurent, [one] * (top + 1)).degree == top
    assert Poly(laurent, [one] * (top + 1) + [laurent.zero()]).degree == top
    with pytest.raises(PreconditionViolated, match="MAX_DEGREE"):
        Poly(laurent, [one] * (top + 2))


def test_undecided_content_is_left_and_its_callers_raise(laurent):
    """_strip_content leaves f as it is when a valuation is undecided; each
    caller then meets that coefficient and raises instead of answering."""
    F = laurent
    f = Poly(F, [F.parse("O(t^5)"), F.parse("t^2")])
    assert _strip_content(f) is f
    with pytest.raises(PrecisionExhausted):
        _roots_in_O(f, 0)
    # the remainder of x^2 by x + O(t^5) is O(t^10): taken for zero, the gcd
    # would be x + O(t^5), taken for a unit, 1
    x2 = Poly(F, [F.zero(), F.zero(), F.one()])
    near_x = Poly(F, [F.parse("O(t^5)"), F.one()])
    for a, b in ((x2, near_x), (near_x, x2)):
        with pytest.raises(PrecisionExhausted):
            poly_gcd(a, b)
    g = Poly(F, [F.parse("O(t^5)"), F.parse("t"), F.one()])  # x^2 + t*x + O(t^5)
    with pytest.raises(PrecisionExhausted):
        field_roots(g)
