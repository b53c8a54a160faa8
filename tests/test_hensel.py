import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqe.errors import PrecisionExhausted, PreconditionViolated
from hqe.field import FINGERPRINT_PRIME, FINGERPRINT_T, Field, fingerprint
from hqe.hensel import (
    LiftCertificate,
    _snap_exact,
    collision_classes,
    collision_root,
    derivative_roots,
    field_roots,
    is_root,
    newton_lift,
)
from hqe.poly import Poly, derivative
from hqe.rv import rv
from hqe.valq import INF

import newton_reference as reference
import snap_reference


def val_at_least(x, bound):
    if x.is_zero:
        return True
    if x.is_small:
        return x.rel >= bound
    return x.val() >= bound


def sq_minus(field, c):
    return Poly(field, [field.from_rational(-1) * c, field.zero(), field.one()])


def binomial_sqrt_coeffs(n):
    """Independent oracle: coefficients of (1+t)^(1/2)."""
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (Fraction(1, 2) - (k - 1)) / k)
    return out


def digit_sqrt(a, p, start, k):
    """Independent oracle: x with x^2 = a mod p^k by digit search from start."""
    x = start % p
    for j in range(1, k):
        q = p ** (j + 1)
        for d in range(p):
            cand = x + d * p**j
            if (cand * cand - a) % q == 0:
                x = cand
                break
        else:
            raise AssertionError("no digit lifts")
    return x


def test_sqrt_one_plus_t(laurent):
    one = laurent.one()
    t = laurent.uniformizer()
    P = sq_minus(laurent, one + t)
    cert = newton_lift(P, one, 0)
    oracle = binomial_sqrt_coeffs(40)
    for k, c in enumerate(oracle):
        assert cert.root.coeff(k) == c
    assert cert.separation == 1
    assert is_root(P, cert.root)


def test_already_root(laurent):
    P = sq_minus(laurent, laurent.one())
    cert = newton_lift(P, laurent.one(), 0)
    assert cert.root == laurent.one()
    assert cert.iterations == 0
    assert cert.separation == INF


def test_sqrt2_in_z7(padic7):
    P = sq_minus(padic7, padic7.from_rational(2))
    cert = newton_lift(P, padic7.from_rational(3), 0)
    assert cert.root.unit_digits(2) == 10
    oracle = digit_sqrt(2, 7, 3, 40)
    assert cert.root.unit_digits(40) == oracle


def test_sqrt17_in_z2(padic2):
    P = sq_minus(padic2, padic2.from_rational(17))
    cert = newton_lift(P, padic2.one(), 0)
    b = cert.root
    assert cert.separation == 3
    # oracle branch fixed by b = 1 mod 8
    x = 1
    for j in range(3, 40):
        if (x * x - 17) % 2 ** (j + 1) != 0:
            x += 2 ** (j - 1)
    assert b.unit_digits(39) == x % 2**39


def test_hypothesis_violation(laurent):
    t = laurent.uniformizer()
    P = sq_minus(laurent, t)  # x^2 - t has no hensel configuration at 1
    with pytest.raises(PreconditionViolated):
        newton_lift(P, laurent.one(), 0)


def test_random_engineered_lifts(any_field):
    rng = random.Random(23)
    field = any_field
    one = field.one()
    for _ in range(40):
        a = field.from_rational(rng.randrange(0, 9))
        k = rng.randrange(1, 8)
        e = field.monomial(1, k)
        # P = (x - a - e) * Q with Q(a) a unit
        while True:
            Q = Poly.from_rationals(field, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 3))] + [1])
            qa = Q(a)
            if not qa.is_zero and qa.val() == 0:
                break
        root = a + e
        P = Poly(field, [-root, one]) * Q
        delta = rng.randrange(0, k)
        cert = newton_lift(P, a, delta)
        assert cert.separation > delta
        assert val_at_least(cert.root - root, field.prec - 4)
        assert is_root(P, cert.root)


def _lift_outcome(lift, P, a, delta, target):
    """The certificate of a lift, or the name of the error it raised."""
    try:
        return lift(P, a, delta, target)
    except (PrecisionExhausted, PreconditionViolated) as e:
        return type(e).__name__


def _assert_lift_matches_reference(P, a, delta, target):
    """The lift against the frozen full-precision one: the same errors, and
    a root with the same separation in no more iterations that agrees with
    the reference root on every digit the latter certifies, and certifies
    at least as many.  The digits are almost always exactly the reference's;
    a padded iterate can land exactly on a short root, or on 0, where the
    reference's full-length iterate only comes near it, and then the lift
    knows more."""
    got = _lift_outcome(newton_lift, P, a, delta, target)
    want = _lift_outcome(reference.newton_lift, P, a, delta, target)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.separation == want.separation
    assert got.iterations <= want.iterations
    assert got.root.abs_prec >= want.root.abs_prec
    assert (got.root - want.root).val_lb() >= want.root.abs_prec
    return got, want


_LIFT_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]


@st.composite
def lift_cases(draw):
    """Exact polynomials and exact starts, as the engine lifts them: a
    planted root near the start (a short exact one whenever the tail is 0),
    a cofactor Q with Q'(a) = 0 (the first step lands on the root), a cubic
    whose root sits near the inflection point 0, and a descent-shaped
    polynomial with coefficients a_i * pi^i."""
    field = draw(st.sampled_from(_LIFT_FIELDS))
    one = field.one()

    def elem(lo):
        """An exact element of valuation >= lo with small digits."""
        if field.backend == "laurent-q":
            n = draw(st.integers(0, 3))
            return field.from_terms(
                (lo + i, Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3)))) for i in range(n)
            )
        c = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 5, 11])))
        return field.from_rational(c) * field.monomial(1, lo)

    kind = draw(st.sampled_from(["planted", "planted", "cofactor", "cubic", "descent"]))
    a = field.from_rational(draw(st.integers(0, 4)))
    if kind in ("planted", "cofactor"):
        k = draw(st.integers(1, 8))
        root = a + field.monomial(draw(st.sampled_from([1, -1, 3])), k) + elem(k + 1)
        if kind == "planted":
            Q = Poly(field, [elem(0) for _ in range(draw(st.integers(1, 3)))] + [one])
        else:
            Q = Poly(field, [elem(0), a * -2, one])
        P = Poly(field, [-root, one]) * Q
    elif kind == "cubic":
        k = draw(st.integers(1, 10))
        c0 = field.monomial(draw(st.sampled_from([1, -1, 2])), k) + elem(k + 1)
        c1 = field.from_rational(draw(st.sampled_from([1, 3, -2])))
        P = Poly(field, [c0, c1, elem(draw(st.integers(0, 10))), one])
        a = draw(st.sampled_from([field.zero(), field.monomial(1, k)]))
    else:
        H = [elem(0) for _ in range(draw(st.integers(2, 4)))] + [one]
        P = Poly(field, [c * field.monomial(1, i) for i, c in enumerate(H)])
    delta = draw(st.integers(0, 3))
    target = draw(st.one_of(st.none(), st.integers(8, field.prec)))
    return P, a, delta, target


@settings(max_examples=300, deadline=None)
@given(case=lift_cases())
def test_newton_lift_matches_full_precision_reference(case):
    _assert_lift_matches_reference(*case)


def test_newton_lift_lands_on_short_roots(padic2):
    """Where the padded iterate meets a short root exactly, the lift knows
    more than the reference: 40 to 2^67 rather than 2^65, and the root 0
    exactly rather than to 2^84."""
    P = Poly.from_rationals(padic2, [-40, -1279, -48, -38, 1])
    got, want = _assert_lift_matches_reference(P, padic2.zero(), 0, None)
    assert (str(got.root), str(want.root)) == ("40 + O(2^67)", "40 + O(2^65)")
    P = Poly.from_rationals(padic2, [0, 1, 0, 1])
    got, want = _assert_lift_matches_reference(P, padic2.from_rational(2), 0, None)
    assert got.root.is_zero and want.root.is_small


def test_newton_lift_short_exact_root(laurent, padic7):
    """Roots with short digit strings, lifted from a unit start."""
    for field, r in ((laurent, "1 + 3*t^2"), (padic7, "50")):
        root = field.parse(r)
        P = Poly(field, [-root, field.one()]) * Poly.from_rationals(field, [5, 1, 1])
        got, want = _assert_lift_matches_reference(P, field.from_rational(1), 0, None)
        assert (str(got.root), got.root.rel) == (str(want.root), want.root.rel)
        assert val_at_least(got.root - root, field.prec)


def test_newton_lift_data_too_short_still_raises(laurent, padic2):
    """Coefficients known to fewer digits than the target: both lifts stop
    with PrecisionExhausted."""
    t = laurent.uniformizer()
    c = (laurent.one() + t).truncate_rel(20)
    P = sq_minus(laurent, c)
    for lift in (newton_lift, reference.newton_lift):
        with pytest.raises(PrecisionExhausted):
            lift(P, laurent.one(), 0)
    P2 = sq_minus(padic2, padic2.from_rational(17).truncate_rel(30))
    for lift in (newton_lift, reference.newton_lift):
        with pytest.raises(PrecisionExhausted):
            lift(P2, padic2.one(), 0)


def test_field_roots_examples(laurent, padic2):
    t = laurent.uniformizer()
    assert sorted(str(r) for r in field_roots(sq_minus(laurent, t * t))) == ["-1*t^1", "1*t^1"]
    assert field_roots(sq_minus(laurent, laurent.from_rational(2) * t * t)) == []
    assert field_roots(sq_minus(laurent, t)) == []
    rs = field_roots(sq_minus(padic2, padic2.from_rational(17)))
    assert len(rs) == 2
    for r in rs:
        assert is_root(sq_minus(padic2, padic2.from_rational(17)), r)
    assert field_roots(sq_minus(padic2, padic2.from_rational(3))) == []


def test_field_roots_deg5(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    roots = [t, 2 * t, t**3, one, -one]
    f = Poly(laurent, [one])
    for r in roots:
        f = f * Poly(laurent, [-r, one])
    found = field_roots(f)
    assert len(found) == 5
    for r in roots:
        assert any((r - s).is_zero for s in found)


def test_field_roots_multiple(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    lin = Poly(laurent, [-t, one])
    f = lin * lin * Poly(laurent, [one, one])
    found = field_roots(f)
    assert len(found) == 2  # t (despite multiplicity) and -1


def test_field_roots_memo_hands_out_fresh_lists(laurent):
    """A repeated root search is answered by the bounded memo, and the list
    a caller receives is its own."""
    from hqe.hensel import _field_roots

    t = laurent.uniformizer()
    f = sq_minus(laurent, laurent.from_rational(3) * t**4)
    first = field_roots(f)
    hits = _field_roots.cache_info().hits
    first.append(laurent.one())
    again = field_roots(f)
    assert _field_roots.cache_info().hits == hits + 1
    assert _field_roots.cache_info().maxsize == 4096
    assert again == first[:-1] and again is not first


def test_collision_root_example(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    f = sq_minus(laurent, t * t)
    beta = t * (one + t)
    n, lam = collision_root(f, laurent.zero(), beta, 0)
    assert n == 0
    assert is_root(f, lam)
    assert rv(lam, 0) == rv(beta, 0)


def test_collision_root_requires_collision(laurent):
    t = laurent.uniformizer()
    f = sq_minus(laurent, laurent.from_rational(2) * t * t)
    with pytest.raises(PreconditionViolated):
        collision_root(f, laurent.zero(), t, 0)


def test_collision_root_padic2(padic2):
    f = sq_minus(padic2, padic2.from_rational(17))
    # at beta = 1 the severity is 4, not above the threshold 2^2 (v(2!) + 0) = 4
    with pytest.raises(PreconditionViolated):
        collision_root(f, padic2.zero(), padic2.one(), 0)
    # one digit deeper the severity is 6 > 4
    n, lam = collision_root(f, padic2.zero(), padic2.from_rational(9), 0)
    assert n == 0
    assert is_root(f, lam)
    assert rv(lam, 0) == rv(padic2.from_rational(9), 0)


def test_collision_root_separation_order(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    f = sq_minus(laurent, t * t)
    beta = t * (one + t**9)
    for delta in (0, 1, 2):
        n, lam = collision_root(f, laurent.zero(), beta, delta)
        assert rv(lam, delta) == rv(beta, delta)


def test_collision_classes_examples(laurent):
    t = laurent.uniformizer()
    zero = laurent.zero()
    cc = collision_classes(sq_minus(laurent, t * t), zero, 1)
    assert [str(a) for a, _ in cc] == ["rv[0]{v=1; unit=-1}", "rv[0]{v=1; unit=1}"]
    for a, lam in cc:
        assert is_root(sq_minus(laurent, t * t), lam)
    assert collision_classes(sq_minus(laurent, laurent.from_rational(2) * t * t), zero, 1) == []
    for d in (0, 1, 2, 3):
        assert collision_classes(sq_minus(laurent, t), zero, d) == []


def test_collision_classes_complete_by_sampling(laurent):
    # severity above the bound only occurs inside returned classes
    t = laurent.uniformizer()
    zero = laurent.zero()
    f = sq_minus(laurent, t * t)
    returned = collision_classes(f, zero, 1)
    for c in (1, 2, 3, -1, -2, Fraction(1, 2)):
        x = laurent.monomial(c, 1)
        sev_pos = f(x).val() > 2
        in_returned = any((x - lam).val() > 1 for _, lam in returned)
        assert (not sev_pos) or in_returned


def test_derivative_roots_cover_all_orders(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    f = Poly(laurent, [-t, one]) * Poly(laurent, [t, one]) * Poly(laurent, [-one, one])
    dr = derivative_roots(f)
    for n, r in dr:
        assert is_root(derivative(f, n), r)
    assert {n for n, _ in dr} == {0, 1, 2}


# ---- the fingerprint screen of _snap_exact -------------------------------------


@st.composite
def snap_cases(draw):
    """(g, x) as _snap_exact receives them: a planted short root, which
    snaps, also with the fingerprint prime in its denominator, so that its
    image is unknown; a root of the derivative of a clustered product,
    which does not; a planted root with one coefficient of g made inexact;
    and a short candidate r with g(r) = -(offset) * Q(r) for an offset that
    maps to 0, so the image of g(r) is 0 though g(r) is not."""
    field = draw(st.sampled_from(_LIFT_FIELDS))
    one = field.one()

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

    def cofactor():
        return Poly(field, [short() for _ in range(draw(st.integers(0, 2)))] + [one])

    kind = draw(st.sampled_from(["planted", "unknown-image", "derivative", "inexact", "zero-image"]))
    if kind == "derivative":
        a = short()
        f = Poly(field, [one])
        for _ in range(draw(st.integers(3, 5))):
            c = a + field.monomial(draw(st.sampled_from([1, -1, 2, 3])), draw(st.integers(1, 4)))
            f = f * Poly(field, [-c, one])
        g = derivative(f)
        inexact = [r for r in field_roots(g) if not r.is_exact]
        x = draw(st.sampled_from(inexact)) if inexact else a.truncate_rel(field.prec)
        return g, x
    r = short((FINGERPRINT_PRIME,) if kind == "unknown-image" else (1, 3, 5))
    if kind == "zero-image":
        offsets = [FINGERPRINT_PRIME, -3 * FINGERPRINT_PRIME]
        if field.backend == "laurent-q":
            offsets.append(field.uniformizer() - FINGERPRINT_T)
        r_g = r + draw(st.sampled_from(offsets))
    else:
        r_g = r
    g = Poly(field, [-r_g, one]) * cofactor()
    if kind == "inexact":
        cs = list(g.coeffs)
        j = draw(st.integers(0, len(cs) - 1))
        if not cs[j].is_zero:
            cs[j] = cs[j].truncate_rel(draw(st.integers(1, 8)))
        g = Poly(field, cs)
    k = draw(st.one_of(st.integers(1, 12), st.integers(field.prec - 8, field.prec)))
    return g, r.truncate_rel(k)


@settings(max_examples=300, deadline=None)
@given(case=snap_cases())
def test_snap_exact_matches_unscreened_reference(case):
    """The screen never changes the element returned: the same v, digits
    and rel, exact or not, as the frozen procedure without it (or the same
    error, for a padic x too short to reconstruct from)."""
    g, x = case

    def outcome(snap):
        try:
            y = snap(g, x)
        except PrecisionExhausted as e:
            return str(e)
        return y, y.is_exact

    assert outcome(_snap_exact) == outcome(snap_reference.snap_exact)


def test_snap_exact_zero_image_falls_through(laurent, padic7):
    """A candidate whose image is 0 but which is no root goes to the exact
    check, which rejects it."""
    for field in (laurent, padic7):
        r = field.parse("2 + 3*t" if field.backend == "laurent-q" else "50")
        g = Poly(field, [-(r + FINGERPRINT_PRIME), field.one()])
        assert fingerprint(r - (r + FINGERPRINT_PRIME)) == 0 and not g(r).is_zero
        x = r.truncate_rel(field.prec)
        assert _snap_exact(g, x) is x


def test_snap_exact_unknown_image_takes_the_exact_check(laurent, padic7):
    """A root with the fingerprint prime in a denominator has no image, and
    the exact check still accepts it."""
    P = FINGERPRINT_PRIME
    for r in (laurent.from_terms([(0, Fraction(1, P)), (1, 1)]), padic7.from_rational(Fraction(3, P))):
        assert fingerprint(r) is None
        g = Poly(r.field, [-r, r.field.one()]) * Poly.from_rationals(r.field, [2, 0, 1])
        got = _snap_exact(g, r.truncate_rel(r.field.prec))
        assert got == r and got.is_exact


def test_fingerprint_is_a_ring_homomorphism_where_defined(laurent, padic7):
    P = FINGERPRINT_PRIME
    t = laurent.uniformizer()
    a = laurent.from_terms([(-2, Fraction(3, 4)), (0, 5), (3, Fraction(-1, 7))])
    b = laurent.from_terms([(1, 2), (2, Fraction(1, 9))])
    for x, y in ((a, b), (padic7.from_rational(Fraction(98, 15)), padic7.from_rational(Fraction(-3, 49)))):
        fx, fy = fingerprint(x), fingerprint(y)
        assert fingerprint(x + y) == (fx + fy) % P
        assert fingerprint(x * y) == fx * fy % P
    assert fingerprint(t) == FINGERPRINT_T and fingerprint(t**-1) * FINGERPRINT_T % P == 1
    assert fingerprint(laurent.zero()) == 0 and fingerprint(laurent.from_rational(P)) == 0
    # undefined: an inexact element, a denominator divisible by P
    assert fingerprint(a.truncate_rel(2)) is None and fingerprint(laurent.small(3)) is None
    assert fingerprint(laurent.from_terms([(0, 1), (1, Fraction(1, 2 * P))])) is None
    assert fingerprint(padic7.from_rational(Fraction(1, 3 * P))) is None
    # and over Q_P itself
    qp = Field.padic(P)
    assert fingerprint(qp.from_rational(5)) is None and fingerprint(qp.from_rational(P)) is None
