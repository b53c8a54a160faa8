import operator
import sys
from fractions import Fraction
from math import gcd, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqe.errors import DivisionByZero, HQEError, PrecisionExhausted, PreconditionViolated
from hqe.field import MAX_DIGIT_SPAN, MAX_EXACT_BITS, REDUCE_DEN_BITS, Field, _from_form, _lfma, decimal, val_diff
from hqe.valq import INF

import field_arith_reference as frozen
import fraction_kernel as oracle
import padic_fraction_kernel as padic_oracle


def test_val_examples(laurent):
    t = laurent.uniformizer()
    assert (t**2 + t**3).val() == 2
    assert laurent.zero().val() == INF
    one = laurent.one()
    # expand the product exactly: (1+t)(1-t) - 1 = -t^2
    assert ((one + t) * (one - t) - one).val() == 2


def test_val_of_unknown_raises(laurent):
    with pytest.raises(PrecisionExhausted):
        laurent.small(5).val()


def test_arith_examples(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    assert (one + t) + (-one) == t
    assert t * t**-1 == one
    inv = (one + t) ** -1
    # geometric series oracle: (1+t)^-1 = sum (-1)^k t^k
    for k in range(20):
        assert inv.coeff(k) == Fraction((-1) ** k)


def test_cancellation_tracks_precision(laurent):
    x = laurent.parse("1 + t + O(t^8)")
    y = laurent.parse("1 + t + O(t^12)")
    d = x - y
    assert d.is_small and d.rel == 8
    with pytest.raises(PrecisionExhausted):
        d.val()


def test_division_by_zero(laurent):
    with pytest.raises(DivisionByZero):
        laurent.one() / laurent.zero()
    with pytest.raises(PrecisionExhausted):
        laurent.one() / laurent.small(3)


def test_exact_laurent_division_detected(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    q = (one - t**2) / (one + t)
    assert q.is_exact and q == one - t


def test_res_delta_examples(laurent, padic7):
    assert laurent.parse("2 + t").residue(0) == laurent.from_rational(2).residue(0)
    x = padic7.from_rational(52)  # 3 + 49
    assert x.residue(1) == 3  # digits 0..1
    assert x.residue(2) == 52


def test_res_delta_matches_class_equality(laurent):
    # res_delta(x/y) = 1 iff rv_delta(x) = rv_delta(y)
    from hqe.rv import rv

    t = laurent.uniformizer()
    x = laurent.parse("1 + t + t^2")
    y = laurent.parse("1 + t + 2*t^2")
    for delta in range(4):
        lhs = (x / y).residue(delta) == 1
        rhs = rv(x, delta) == rv(y, delta)
        assert lhs == rhs


def test_padic_mod_cross_check(padic7):
    # padic arithmetic mod p^N agrees with integer arithmetic mod p^N
    import random

    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        xa, xb = padic7.from_rational(a), padic7.from_rational(b)
        for op, pyop in ((xa + xb, a + b), (xa * xb, a * b), (xa - xb, a - b)):
            if pyop == 0:
                assert op.is_zero
                continue
            k = 12
            assert op.unit_digits(k) * 7 ** op.v % 7**k == pyop % 7**k


def test_parse_print_roundtrip(any_field):
    samples = (
        ["0", "1", "-3/2", "t^-2 + 1 + 2*t^2", "1 + -1*t^1 + O(t^9)", "O(t^5)"]
        if any_field.backend == "laurent-q"
        else ["0", "17", "-5/3", f"3 + O({any_field.p}^6)", f"O({any_field.p}^4)"]
    )
    for s in samples:
        x = any_field.parse(s)
        assert any_field.parse(str(x)) == x


@settings(max_examples=200, deadline=None)
@given(
    av=st.integers(-6, 6),
    bv=st.integers(-6, 6),
    an=st.integers(-9, 9),
    bn=st.integers(-9, 9),
)
def test_ultrametric_property(av, bv, an, bn):
    field = Field.laurent()
    x = field.monomial(an, av) if an else field.zero()
    y = field.monomial(bn, bv) if bn else field.zero()
    s = x + y
    lhs = s.val()
    rhs = min(x.val(), y.val())
    assert lhs >= rhs
    if x.val() != y.val():
        assert lhs == rhs


def test_pow_and_shift(padic2):
    x = padic2.from_rational(3)
    assert x**0 == padic2.one()
    assert x**3 == padic2.from_rational(27)
    assert x**-1 == padic2.from_rational(Fraction(1, 3))
    assert x.shift(2) == padic2.from_rational(12)


def test_precision_env(laurent):
    f2 = laurent.with_prec(16)
    one = f2.one()
    t = f2.uniformizer()
    inv = one / (one + t)
    assert inv.rel == 16


# ---- differential test: the laurent-q kernel against the Fraction oracle -----


_digit = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _laurent_elems(draw, field):
    """Exact and truncated laurent-q numbers with non-integral digits, exact
    zeros and order bounds."""
    kind = draw(st.sampled_from(["exact", "exact", "trunc", "trunc", "zero", "small"]))
    if kind == "zero":
        return field.zero()
    if kind == "small":
        return field.small(draw(st.integers(-4, 8)))
    v = draw(st.integers(-4, 4))
    lead = draw(_digit.filter(bool))
    unit = [lead] + draw(st.lists(_digit, max_size=9))
    rel = draw(st.integers(1, 12)) if kind == "trunc" else None
    return field.from_unit(v, unit, rel)


def _as_oracle(x):
    return (x.kind, x.v, x.unit if x.kind == "n" else None, x.rel)


def _stored(fn, x, y):
    """fn(x, y) as stored data, or the type and message of what it raised."""
    try:
        z = fn(x, y)
    except (HQEError, ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return z.kind, z.v, z.u, z.den, z.rel


def _matches_frozen(x, y):
    """x + y, x - y and x * y give the frozen pre-kernel arithmetic's data
    and errors (tests/field_arith_reference.py)."""
    for op, ref in ((operator.add, frozen.add), (operator.sub, frozen.sub), (operator.mul, frozen.mul)):
        assert _stored(op, x, y) == _stored(ref, x, y)


def _same(x, expected):
    assert _as_oracle(x) == expected
    if x.kind == "n":
        # canonical storage: equal elements have equal data and hashes
        assert x.u[0] and x.u[-1] and x.den > 0
        assert gcd(x.den, *x.u) == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data(), prec=st.sampled_from([8, 16, 64]))
def test_laurent_kernel_matches_fraction_oracle(data, prec):
    field = Field.laurent(prec)
    x = data.draw(_laurent_elems(field))
    y = data.draw(_laurent_elems(field))
    ox, oy = _as_oracle(x), _as_oracle(y)
    # printing and parsing round-trip to equal data and hash
    assert field.parse(str(x)) == x and hash(field.parse(str(x))) == hash(x)
    _same(-x, oracle.neg(ox))
    _same(x + y, oracle.add(ox, oy))
    _same(x - y, oracle.sub(ox, oy))
    _same(x * y, oracle.mul(ox, oy))
    if y.kind == "n":
        _same(x / y, oracle.div(ox, oy, prec))
        _same(field.one() / y, oracle.div(_as_oracle(field.one()), oy, prec))
    # a unit of MAX_DIGIT_SPAN - 2 digits: a sum or product with a longer
    # span raises, with the frozen code's error
    long = field.from_unit(0, [Fraction(1, 3)] * (MAX_DIGIT_SPAN - 2), None)
    for a, b in ((x, y), (x, long), (long, x)):
        _matches_frozen(a, b)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 10))
def test_laurent_cancellation_matches_fraction_oracle(data, k):
    # x - trunc(x) and x + (-x truncated) cancel every known digit, so the
    # result is an order bound (or an exact zero) at the combined precision
    field = Field.laurent(16)
    x = data.draw(_laurent_elems(field))
    y = x.truncate_rel(k)
    ox, oy = _as_oracle(x), _as_oracle(y)
    _same(y, oracle._truncate_rel(ox, k))
    _same(x - y, oracle.sub(ox, oy))
    _same(y - x, oracle.sub(oy, ox))
    _same(x + (-y), oracle.add(ox, oracle.neg(oy)))
    _matches_frozen(x, y)
    _matches_frozen(y, x)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(_digit, min_size=1, max_size=10).filter(lambda u: u[0] != 0),
    b=st.lists(_digit, min_size=1, max_size=10).filter(lambda u: u[0] != 0),
)
def test_laurent_exact_product_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    field = Field.laurent()
    t = sympy.Symbol("t")
    prod = sympy.Poly(list(reversed(a)), t, domain="QQ") * sympy.Poly(list(reversed(b)), t, domain="QQ")
    expected = [Fraction(int(c.p), int(c.q)) for c in reversed(prod.all_coeffs())]
    got = field.from_unit(0, a, None) * field.from_unit(0, b, None)
    assert got.is_exact
    assert list(got.unit) == expected[: len(got.unit)]
    assert not any(expected[len(got.unit) :])


# ---- differential test: the padic kernel against the Fraction oracle ---------


@pytest.mark.parametrize("p", [2, 3, 7])
def test_padic_stored_form(p):
    field = Field.padic(p)
    # p and a common factor 2 in both the numerator and the denominator
    q = Fraction(10 * p**3, 4 * p**2 + 6 * p**5)
    x, y = field.from_rational(q), field.from_rational(Fraction(-3, 4) - q)
    for z, value in ((x, q), (y, Fraction(-3, 4) - q), (x + y, Fraction(-3, 4)), (x * y, q * (Fraction(-3, 4) - q)),
                     (x / y, q / (Fraction(-3, 4) - q)), (-x, -q)):
        _check_padic_form(z)
        assert z.unit * Fraction(p) ** z.v == value
    _check_padic_form(x.truncate_rel(5))
    assert field.from_unit(0, 5, None) == field.from_unit(0, Fraction(5), None)
    with pytest.raises(ValueError):
        field.from_unit(0, Fraction(1, p), None)


def _check_padic_form(x):
    """Canonical storage: p^v * u/den with p dividing neither u nor den and
    gcd(u, den) = 1 when exact, an int mod p^rel over den 1 when not."""
    if x.kind != "n":
        return
    p = x.field.p
    assert type(x.u) is int and type(x.den) is int
    if x.rel is None:
        assert x.u % p and x.den % p and x.den > 0 and gcd(x.u, x.den) == 1
    else:
        assert x.den == 1 and 0 < x.u < p**x.rel and x.u % p


def _padic_oracle(x):
    return (x.kind, x.v, x.unit if x.kind == "n" else None, x.rel)


def _padic_same(x, expected):
    p = x.field.p
    got = _padic_oracle(x)
    assert got == expected and type(got[2]) is type(expected[2])
    assert str(x) == padic_oracle.format_elem(expected, p)
    _check_padic_form(x)


def _outcome(fn):
    """fn()'s value, or "raised" when it raises (the oracle raises plain
    ArithmeticError where the kernel raises its own error types)."""
    try:
        return fn()
    except (HQEError, ArithmeticError, ValueError):
        return "raised"


@st.composite
def _padic_pair(draw, p):
    """Two padic operands as (rational value, truncation) specs: exact and
    truncated, with p in the numerator and the denominator, exact zeros,
    order bounds, and pairs at the same valuation whose leading digits cancel."""

    def spec(value):
        kind = draw(st.sampled_from(["exact", "exact", "trunc", "trunc"]))
        return (value, draw(st.integers(1, 12)) if kind == "trunc" else None)

    def value():
        kind = draw(st.sampled_from(["num", "num", "num", "num", "zero", "small"]))
        if kind == "zero":
            return 0
        if kind == "small":
            return ("small", draw(st.integers(-4, 8)))
        num = draw(st.integers(-(p**5), p**5).filter(bool)) * p ** draw(st.integers(0, 3))
        den = draw(st.integers(1, p**4)) * p ** draw(st.integers(0, 3))
        return Fraction(num, den)

    x = value()
    if isinstance(x, Fraction) and x and draw(st.booleans()):
        # y = -x + e * p^(v(x) + j): x + y cancels j leading digits at s = 0
        vx = padic_oracle._frac_vp(x, p)
        e = Fraction(draw(st.integers(-(p**3), p**3)), draw(st.integers(1, p**2)))
        y = -x + e * Fraction(p) ** (vx + draw(st.integers(1, 6)))
    else:
        y = value()
    return spec(x), spec(y)


def _build(field, spec):
    """The kernel element and the oracle element of a spec."""
    p = field.p
    value, trunc = spec
    if isinstance(value, tuple):
        return field.small(value[1]), padic_oracle.small(value[1])
    x, o = field.from_rational(value), padic_oracle.monomial(value, 0, p)
    if trunc is not None:
        x, o = x.truncate_rel(trunc), padic_oracle.truncate_rel(o, trunc, p)
    return x, o


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 2, 3]), k=st.integers(1, 10), d=st.integers(0, 6))
def test_padic_kernel_matches_fraction_oracle(data, p, k, d):
    field = Field.padic(p)
    sx, sy = data.draw(_padic_pair(p))
    (x, ox), (y, oy) = _build(field, sx), _build(field, sy)
    results = [(x, ox), (y, oy), (-x, padic_oracle.neg(ox, p))]
    results.append((x + y, padic_oracle.add(ox, oy, p)))
    results.append((x - y, padic_oracle.sub(ox, oy, p)))
    results.append((y - x, padic_oracle.sub(oy, ox, p)))
    results.append((x * y, padic_oracle.mul(ox, oy, p)))
    _matches_frozen(x, y)
    _matches_frozen(y, x)
    if y.kind == "n":
        results.append((x / y, padic_oracle.div(ox, oy, p)))
        results.append((field.one() / y, padic_oracle.div(padic_oracle.monomial(1, 0, p), oy, p)))
    for z, oz in results:
        _padic_same(z, oz)
        _padic_same(z.truncate_rel(k), padic_oracle.truncate_rel(oz, k, p))
        assert _outcome(lambda: z.unit_digits(k)) == _outcome(lambda: padic_oracle.unit_digits(oz, k, p))
        assert _outcome(lambda: z.residue(d)) == _outcome(lambda: field.from_rational(padic_oracle.residue(oz, d, p)))
        # printing and parsing round-trip to equal data and hash
        back = field.parse(str(z))
        assert back == z and hash(back) == hash(z)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([7, 2, 3]),
    v=st.integers(-4, 4),
    k=st.integers(-4, 4),
    unit=st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool),
    rel=st.one_of(st.none(), st.integers(1, 8)),
)
def test_padic_constructors_match_fraction_oracle(p, v, k, unit, rel):
    field = Field.padic(p)
    _padic_same(field.monomial(unit, k), padic_oracle.monomial(unit, k, p))
    if rel is not None:
        unit = unit.numerator  # an inexact unit is read as an int
    expected = _outcome(lambda: padic_oracle.from_unit(v, unit, rel, p))
    got = _outcome(lambda: field.from_unit(v, unit, rel))
    if expected == "raised":
        assert got == "raised"
    else:
        _padic_same(got, expected)
        if rel is None and unit.denominator == 1:
            assert field.from_unit(v, unit.numerator, None) == got  # an int unit


# ---- the prime check ------------------------------------------------------------


def test_prime_check_is_fast_and_proven():
    from hqe.field import PRIME_BOUND

    assert [p for p in range(60) if _accepts(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not _accepts(561) and not _accepts(3215031751)  # Carmichael, spsp to bases 2..7
    assert _accepts((1 << 61) - 1) and _accepts((1 << 64) + 13)
    # a strong pseudoprime to the bases 2..37, found composite by base 41
    assert not _accepts(318665857834031151167461)
    assert _accepts(3317044064679887385961813)  # the largest prime below the bound
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        Field.padic(PRIME_BOUND)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        Field.padic((1 << 89) - 1)  # prime, but past what the test proves


def _accepts(p) -> bool:
    try:
        Field.padic(p)
    except ValueError:
        return False
    return True


def test_digit_span_bound_is_checked_before_allocation(laurent):
    t = laurent.uniformizer()
    edge = MAX_DIGIT_SPAN - 1
    assert laurent.from_terms([(0, 1), (edge, 1)]).u[-1] == 1
    assert (t**-3 + t ** (edge - 3)).val() == -3
    assert ((1 + t**89) ** 23).u[edge] == 1  # 89 * 23 == edge
    for build in (
        lambda: laurent.from_terms([(0, 1), (edge + 1, 1)]),
        lambda: t**-3 + t ** (edge - 2),
        lambda: (1 + t**89) ** 24,
        lambda: (1 + t ** (edge // 2 + 1)) * (1 + t ** (edge // 2 + 1)),
        lambda: laurent.parse("t^-5 + O(t^5000)") + 1,
    ):
        with pytest.raises(PreconditionViolated, match="MAX_DIGIT_SPAN"):
            build()


def test_exact_padic_sum_bound_is_checked_before_the_power(padic7):
    far = padic7.monomial(1, 30000000)
    with pytest.raises(PreconditionViolated, match=f"MAX_EXACT_BITS = {MAX_EXACT_BITS}"):
        padic7.one() + far
    with pytest.raises(PreconditionViolated, match="MAX_EXACT_BITS"):
        far - padic7.one()
    # a far term past the cap of an inexact sum, and an exact product, build no power of p
    assert str(padic7.parse("1 + O(7^5)") + far) == "1 + O(7^5)"
    assert (far * far).v == 60000000


# ---- the stored encoding read back, and v(x - c) against r ---------------------


def test_element_reads_back_kind_rel_abs_prec_unit_and_v(laurent, padic7):
    inv2 = 3 * pow(2, -1, 7**10) % 7**10
    cases = [
        (laurent.zero(), ("z", None, INF, None, None)),
        (laurent.small(5), ("s", 5, 5, None, None)),
        (laurent.parse("1/2 + t"), ("n", None, INF, (Fraction(1, 2), Fraction(1)), 0)),
        (laurent.parse("t^-1 + 2 + O(t^3)"), ("n", 4, 3, (Fraction(1), Fraction(2)), -1)),
        (padic7.zero(), ("z", None, INF, None, None)),
        (padic7.small(-2), ("s", -2, -2, None, None)),
        (padic7.from_rational(Fraction(49, 3)), ("n", None, INF, Fraction(1, 3), 2)),
        (padic7.parse("3/2 + O(7^10)"), ("n", 10, 10, inv2, 0)),
        (padic7.parse("3/2 + O(7^10)").shift(-3), ("n", 10, 7, inv2, -3)),
    ]
    for x, expected in cases:
        assert (x.kind, x.rel, x.abs_prec, x.unit, x.v) == expected, x
        assert x.is_zero == (x.kind == "z") and x.is_small == (x.kind == "s")
        assert x.is_exact == (x.abs_prec == INF)


def _v_at_least_route(x, c, r):
    """v(x - c) >= r as ball membership decided it before val_diff: on the
    difference of x and c truncated at r (a point, r = INF: on x - c),
    raising when the known digits cannot tell."""
    d = frozen.sub(x, c) if r == INF else frozen.sub(x.truncate_abs(r), c.truncate_abs(r))
    if d.is_zero:
        return True
    if d.is_small:
        if d.rel >= r:
            return True
        raise PrecisionExhausted(f"cannot decide v >= {r} at precision {d.rel}")
    return d.val() >= r


def _check_val_diff(x, c, r):
    w = val_diff(x, c, r)
    assert _outcome(lambda: _v_at_least_route(x, c, r)) == ("raised" if w is None else w == r)
    d = frozen.sub(x, c)
    # the proven-or-not reading of same_point and of the open-ball tests
    assert (d.val_lb() >= r) == (w == r)
    if w is not None and w != r:
        assert w == d.val()


@st.composite
def _laurent_pair(draw, field):
    """Two laurent-q elements, often close: the second a truncation of the
    first, or the first plus a perturbation at some valuation."""
    x = draw(_laurent_elems(field))
    how = draw(st.sampled_from(["any", "truncated", "near"]))
    if how == "any":
        return x, draw(_laurent_elems(field))
    if how == "truncated":
        return x, x.truncate_abs(draw(st.integers(-4, 12)))
    return x, x + draw(_laurent_elems(field)).shift(draw(st.integers(0, 8)))


@settings(max_examples=500, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["laurent-q", "padic-7", "padic-2"]),
    r=st.one_of(st.integers(-6, 14), st.just(INF)),
)
def test_val_diff_matches_the_routes_it_replaced(data, name, r):
    """val_diff(x, c, r) against the subtractions it replaced: the
    decide-or-raise of ball membership and v(x - c) >= r proven or not."""
    if name == "laurent-q":
        x, c = data.draw(_laurent_pair(Field.laurent(16)))
    else:
        p = int(name.split("-")[1])
        field = Field.padic(p)
        (x, _), (c, _) = (_build(field, spec) for spec in data.draw(_padic_pair(p)))
    _check_val_diff(x, c, r)
    _check_val_diff(c, x, r)


_EQUAL_VALUATION_PAIRS = [
    ("laurent-q", "1/2 + 1/3*t + t^2", "1/2 + 1/3*t + 1/5*t^2"),
    ("laurent-q", "1/2 + 1/3*t + O(t^4)", "1/2 + 1/3*t + 7/4*t^3"),
    ("laurent-q", "1/3*t + 1/7*t^2 + O(t^9)", "1/3*t + 1/7*t^2 + 1/2*t^9"),
    ("laurent-q", "-1/6*t^-2 + 1/4*t", "-1/6*t^-2 + 1/4*t + 1/9*t^3 + O(t^6)"),
    ("padic-7", "1/2 + 1/3*7", "1/2 + 1/5*7"),
    ("padic-7", "1/2 + 1/3*7^2", "1/2 + 1/3*7^2 + O(7^6)"),
    ("padic-7", "1/3*7^-1 + 1/5*7^3", "1/3*7^-1 + 1/5*7^3 + 1/2*7^8"),
    ("padic-2", "1/3 + 1/5*2^3", "1/3 + 1/7*2^3"),
    ("padic-2", "1/3 + 1/5*2^3", "1/3 + 1/5*2^3 + O(2^5)"),
]


@pytest.mark.parametrize("r", [-3, 0, 1, 2, 3, 4, 6, 9, 12, INF])
@pytest.mark.parametrize("name, x, c", _EQUAL_VALUATION_PAIRS)
def test_val_diff_at_equal_valuations_and_different_denominators(name, x, c, r):
    """The case val_diff decides on the units in place: v(x) == v(c), with
    denominators that differ, against the same routes as above."""
    field = Field.laurent(16) if name == "laurent-q" else Field.padic(int(name.split("-")[1]))
    x, c = field.parse(x), field.parse(c)
    assert x.v == c.v and x.den != c.den
    _check_val_diff(x, c, r)
    _check_val_diff(c, x, r)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_print_bound_read_off_the_valuation_agrees_with_the_built_number(p):
    """Around the interpreter's digit limit, an exact padic element prints,
    or fails to, as the number p^v * u/den it stands for does."""
    field = Field.padic(p)
    k0 = round(sys.get_int_max_str_digits() * log2(10) / log2(p))
    for k in range(k0 - 4, k0 + 5):
        for c in (Fraction(1), Fraction(p + 1, p - 1 if p > 2 else 3), Fraction(-(2**40 + 1), 5 if p != 5 else 3)):
            for s in (k, -k):
                try:
                    want = decimal(c * Fraction(p) ** s)
                except PreconditionViolated as e:
                    want = str(e)
                try:
                    got = str(field.from_rational(c).shift(s))
                except PreconditionViolated as e:
                    got = str(e)
                assert got == want, (c, s)


def test_a_horner_chain_keeps_its_denominator_bounded(laurent):
    """x^128 by 128 Horner steps of the kernel's a * b + c, at x the root
    (1 + t)^(1/128) known to 32 digits: each truncated power has digits
    over a denominator no longer than x's, and a product whose denominator
    grows past REDUCE_DEN_BITS divides out what it shares with its digits,
    so the chain never carries den(x)^k."""
    coeff, terms = Fraction(1), []
    for k in range(32):
        terms.append((k, coeff))
        coeff = coeff * (Fraction(1, 128) - k) / (k + 1)
    x = laurent.from_terms(terms).truncate_rel(32)
    form, acc, zero = (x.v, x.u, x.den, x.cap), (0, (1,), 1, None), (None, None, 1, None)
    bits = []
    for _ in range(128):
        acc = _lfma(acc, form, zero)
        bits.append(acc[2].bit_length())
    assert max(bits) <= x.den.bit_length() + REDUCE_DEN_BITS
    assert str(_from_form(laurent, acc)) == "1 + 1*t^1 + O(t^32)"
