"""Edge cases beyond the acceptance suites: repeated roots, multi-polynomial
cells, off-center radius sets, and precision boundaries."""

import pytest

from hqe.balls import Ball, SwissCheese
from hqe.decomp import decompose, m_bound, rv_decompose
from hqe.errors import PrecisionExhausted
from hqe.field import Field
from hqe.formula import parse_formula
from hqe.hensel import collision_root, newton_lift
from hqe.poly import Poly
from hqe.qe import decide, eliminate_linear_exists, normal_form
from hqe.rv import rv
from hqe.semantics import evaluate
from hqe.valq import INF


def val_of(x):
    return INF if x.is_zero else x.val()


def test_decompose_repeated_root(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    lin = Poly(laurent, [-t, one])
    f = lin * lin * Poly(laurent, [one, one])  # (x - t)^2 (x + 1)
    pieces = decompose(f)
    pts = [laurent.monomial(c, k) for c in (1, 2, -1, 3) for k in range(-3, 4)]
    pts += [t + t**4, -one + t**2]
    for x in pts:
        owners = [p for p in pieces if p.contains(x)]
        assert len(owners) == 1
        assert owners[0].eval_v(x) == val_of(f(x))


def test_decompose_padic_repeated_root(padic2):
    one = padic2.one()
    three = padic2.from_rational(3)
    lin = Poly(padic2, [-three, one])
    f = lin * lin * Poly(padic2, [padic2.from_rational(-17), padic2.zero(), one])
    pieces = decompose(f)
    pts = [padic2.monomial(u, k) for u in (1, 3, 5, 7, 9, 11) for k in range(-2, 3)]
    for x in pts:
        owners = [p for p in pieces if p.contains(x)]
        assert len(owners) == 1
        p = owners[0]
        w = p.eval_v(x)
        assert w <= val_of(f(x)) <= w + p.severity_bound


def test_multi_poly_cells(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    zero = laurent.zero()
    f = Poly(laurent, [-(t * t), zero, one])
    g = Poly(laurent, [-(one + t), zero, one])
    h = Poly(laurent, [-t, one])
    dec = rv_decompose([f, g, h], [0, 1, 0])
    pts = [laurent.monomial(c, k) for c in (1, 2, -1, 3, -2) for k in range(-3, 4)]
    for x in pts:
        cell = dec.cell_of(x)
        assert cell.pieces[0].eval_rv(x, 0) == rv(f(x), 0)
        assert cell.pieces[1].eval_rv(x, 1) == rv(g(x), 1)
        assert cell.pieces[2].eval_rv(x, 0) == rv(h(x), 0)


def test_piece_eval_at_negative_valuation(laurent):
    # the unbounded piece of x^2 - t evaluated at 2/t
    t = laurent.uniformizer()
    zero = laurent.zero()
    f = Poly(laurent, [-t, zero, laurent.one()])
    pieces = decompose(f)
    x = laurent.from_rational(2) * t**-1
    owner = next(p for p in pieces if p.contains(x))
    assert owner.eval_v(x) == -2
    assert val_of(f(x)) == -2


def test_m_bound_center_outside(laurent):
    # from a point outside the cheese, all radii coincide
    t = laurent.uniformizer()
    zero = laurent.zero()
    f = Poly(laurent, [-t, zero, laurent.one()])
    far = SwissCheese(Ball.at_least(laurent.parse("t^-3"), -3))
    assert m_bound(f, zero, far) == 2
    near = SwissCheese(Ball.at_least(t, 5))
    assert m_bound(f, zero, near) == 0


def test_qe_with_negated_equation(laurent):
    assert decide(parse_formula(laurent, "EX y:K. y^2 = t^2 & !(y - t = 0)"), laurent)
    assert not decide(
        parse_formula(laurent, "EX y:K. y^2 = t^2 & !(y - t = 0) & !(y + t = 0)"), laurent
    )


def test_qe_forall_block(laurent):
    assert decide(
        parse_formula(laurent, "ALL y:K. ALL z:K. (y = t & z = y) -> z^2 = t^2"), laurent
    )


def test_qe_shared_root_side_equation(laurent):
    # the side equation shares the root with the main equation
    phi = parse_formula(laurent, "EX y:K. y^2 = 1 + t & y^4 = (1 + t)^2")
    assert decide(phi, laurent)
    phi2 = parse_formula(laurent, "EX y:K. y^2 = 1 + t & y^4 = (1 + t)^3")
    assert not decide(phi2, laurent)


def test_qe_padic_order_side_condition(padic2):
    phi = parse_formula(padic2, "EX y:K. y^2 = 17 & rv[1](y - 1) = rv[1](8)")
    assert decide(phi, padic2)
    phi2 = parse_formula(padic2, "EX y:K. y^2 = 17 & rv[1](y - 1) = rv[1](2)")
    assert not decide(phi2, padic2)


def test_decompose_rejects_unknown_coefficients(laurent):
    f = Poly(laurent, [laurent.small(3), laurent.one()])
    with pytest.raises(PrecisionExhausted):
        decompose(f)


def test_normal_form_multi_order_same_poly(laurent):
    phi = parse_formula(
        laurent, "rv[0](x^2 - t^2) = rv[0](t^3) | rv[2](x^2 - t^2) = rv[2](2*t^4)"
    )
    nf = normal_form(phi, "x", laurent)
    pts = [laurent.monomial(c, k) for c in (1, 2, -1) for k in range(-2, 4)]
    pts += [laurent.parse("t + t^3"), laurent.parse("t + 1/2*t^2"), laurent.parse("-1*t + t^3")]
    for x0 in pts:
        try:
            want = evaluate(phi, {"x": x0}, laurent)
        except PrecisionExhausted:
            continue
        assert nf.member(x0) == want


def test_high_order_rv_near_precision(laurent):
    x = laurent.parse("1 + t + O(t^62)")
    assert rv(x, 60) == rv(laurent.parse("1 + t"), 60)
    with pytest.raises(PrecisionExhausted):
        rv(x, 62)


def test_constant_only_formula_decides(laurent):
    assert decide(parse_formula(laurent, "EX y:K. 0 = 0"), laurent)
    assert not decide(parse_formula(laurent, "EX y:K. 1 = 0"), laurent)


def test_clustered_roots_separate(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    from hqe.hensel import field_roots

    f = Poly(laurent, [-t, one]) * Poly(laurent, [-(t + t**5), one]) * Poly(laurent, [one, one])
    roots = field_roots(f)
    assert len(roots) == 3
    assert any((r - t).is_zero for r in roots)
    assert any((r - t - t**5).is_zero for r in roots)
    pieces = decompose(f)
    # the deep pair induces separated pieces
    for x in [t, t + t**5, t + t**7, t + t**4, -one]:
        owners = [p for p in pieces if p.contains(x)]
        assert len(owners) == 1
        assert owners[0].eval_v(x) == val_of(f(x))


def test_region_path_negated_oplus(laurent):
    # rv[0](2t) has the borderline value, so it is never a witness of the sum
    phi = parse_formula(
        laurent,
        "EX x:K. rv[0](x) = rv[0](t) & !oplus[0](rv[0](x), rv[0](-t), rv[0](2*t))",
    )
    assert decide(phi, laurent)
    # whereas every deeper class is a witness for every member of the class
    phi_deep = parse_formula(
        laurent,
        "EX x:K. rv[0](x) = rv[0](t) & !oplus[0](rv[0](x), rv[0](-t), rv[0](t^3))",
    )
    assert not decide(phi_deep, laurent)
    phi2 = parse_formula(
        laurent,
        "EX x:K. rv[1](x) = rv[1](t) & !oplus[1](rv[1](x), rv[1](-t), rv[1](x - t))",
    )
    assert not decide(phi2, laurent)


def test_qe_with_xfree_rv_quantifier(laurent):
    phi = parse_formula(
        laurent,
        "EX y:K. y^2 = t^2 & (EX w:RV[0]. rv[0](t) = rv[0](t))",
    )
    assert decide(phi, laurent)


def test_normal_form_unsatisfiable(laurent):
    phi = parse_formula(laurent, "x = 0 & x = 1")
    nf = normal_form(phi, "x", laurent)
    for x0 in [laurent.zero(), laurent.one(), laurent.uniformizer()]:
        assert not nf.member(x0)


def test_implication_through_qe(laurent):
    phi = parse_formula(
        laurent, "(EX y:K. y^2 = t^2) -> (EX z:K. z^2 = t^4)"
    )
    from hqe.qe import qe
    from hqe.formula import has_field_quantifier

    out = qe(phi, laurent)
    assert not has_field_quantifier(out)
    assert evaluate(out, {}, laurent)


def test_singleton_and_ball_constraints(laurent):
    from hqe.qe import eliminate_linear_exists

    t = laurent.uniformizer()
    one = laurent.one()
    # a x - b = 0 pins x = t; the ball constraint must contain t
    ok = eliminate_linear_exists(
        [(laurent.zero(), one, t, 0), (t, one, laurent.zero(), 0)], laurent
    )
    assert ok  # x = t satisfies rv(t) = rv(x)
    bad = eliminate_linear_exists(
        [(laurent.zero(), one, t, 0), (laurent.from_rational(2) * t, one, laurent.zero(), 0)],
        laurent,
    )
    assert not bad


def test_region_witness_extraction(any_field):
    """When the one-variable decider says TRUE, a point of its witness box
    satisfies the matrix."""
    import random
    from fractions import Fraction

    from hqe.errors import HQEError
    from hqe.qe import witness_box

    field = any_field
    rng = random.Random(5150 + (field.p or 0))
    units = (
        [1, 2, 3, -1, -2]
        if field.backend == "laurent-q"
        else [u for u in (1, 2, 3, 5, 7, -1) if u % field.p]
    )

    def lit(c, k):
        if field.backend == "laurent-q":
            return str(c) if k == 0 else f"({c}*t^{k})"
        v = Fraction(c) * Fraction(field.p) ** k
        return f"({v.numerator})" if v.denominator == 1 else f"({v.numerator}/{v.denominator})"

    templates = [
        "rv[0](x - {a}) = rv[0]({b})",
        "v(rv[0](x^2 - {a})) <= v(rv[0]({b}))",
        "!(rv[0](x) = rv[0]({a}))",
        "oplus[1](rv[1](x), rv[1](-{a}), rv[1]({b}))",
        "!(x = {a})",
    ]
    checked = 0
    for _ in range(60):
        n = rng.randrange(1, 3)
        parts = [
            rng.choice(templates).format(
                a=lit(rng.choice(units), rng.randrange(-2, 3)),
                b=lit(rng.choice(units), rng.randrange(-2, 3)),
            )
            for _ in range(n)
        ]
        body = parse_formula(field, " & ".join(parts))
        try:
            box = witness_box(["x"], body, field)
        except HQEError:
            continue
        if box is None:
            continue
        witness = box["x"].sample()
        try:
            assert evaluate(body, {"x": witness}, field), (parts, str(witness))
            checked += 1
        except PrecisionExhausted:
            continue
    assert checked > 10


def test_decompose_deep_exact_structure(laurent):
    """Exact coefficients keep their full depth: roots separated far below
    the resolution horizon are still resolved into separate pieces."""
    t = laurent.uniformizer()
    one = laurent.one()
    f = (
        Poly(laurent, [-t, one])
        * Poly(laurent, [-(t + t**40), one])
        * Poly(laurent, [one, one])
    )
    pieces = decompose(f)
    probes = [t, t + t**40, t + t**41, t + t**39, t + t**12, -one, laurent.one()]
    for x in probes:
        owners = [p for p in pieces if p.contains(x)]
        assert len(owners) == 1, str(x)
        assert owners[0].eval_v(x) == val_of(f(x)), str(x)
    # the two deep roots land in different pieces
    own_a = next(p for p in pieces if p.contains(t))
    own_b = next(p for p in pieces if p.contains(t + t**40))
    assert own_a is not own_b


def test_qe_padic_multiorder_conditions(padic7):
    # sqrt(2) = 3 + 1*7 + 2*49 + 6*343 + ... in Z_7, so sqrt(2) - 3 = 7*(1 + 2*7 + 6*49 + ...)
    cases = [
        ("EX y:K. y^2 = 2 & rv[2](y - 3) = rv[2](2163)", True),
        ("EX y:K. y^2 = 2 & rv[2](y - 3) = rv[2](7)", False),
        ("EX y:K. y^2 = 2 & rv[2](y - 3) = rv[2](14)", False),
        ("EX y:K. y^2 = 2 & v(rv[0](y - 3)) = v(rv[0](7))", True),
        ("EX y:K. (y - 1)*(y - 7) = 0 & v(rv[0](y)) <= v(rv[0](2))", True),
        ("EX y:K. (y - 1)*(y - 7) = 0 & v(rv[0](y)) < v(rv[0](2))", False),
        ("EX y:K. (y - 7)*(y - 14) = 0 & v(rv[0](y)) = v(rv[0](1))", False),
    ]
    for text, want in cases:
        assert decide(parse_formula(padic7, text), padic7) == want, text


def test_sample_from_decomposition_pieces(any_field):
    # every nonempty piece yields a verified member
    field = any_field
    f = Poly(
        field,
        [field.from_rational(-4), field.zero(), field.one()],
    ) * Poly(field, [-field.uniformizer(), field.one()])
    for p in decompose(f):
        x = p.cheese.sample()
        assert p.contains(x)
        w = p.eval_v(x)
        assert w <= val_of(f(x)) <= w + p.severity_bound


def test_exact_cells_small_prime_fuzz():
    """The exact-mode descent pins v(f) pointwise over small primes."""
    import random

    from hqe.regions import exact_cells

    for p in (2, 3):
        field = Field.padic(p)
        rng = random.Random(p * 31)
        units = [u for u in range(1, 30) if u % p]
        pts = [field.monomial(u, k) for u in units[:8] for k in range(-3, 4)]
        pts += [
            field.monomial(u, 0) + field.monomial(w, j)
            for u in units[:4]
            for w in units[:2]
            for j in (1, 2, 5)
        ]
        for _ in range(15):
            d = rng.randrange(2, 5)
            coeffs = [field.from_rational(rng.randrange(-20, 21)) for _ in range(d)] + [field.one()]
            f = Poly(field, coeffs)
            try:
                cells = exact_cells(f, field)
            except PrecisionExhausted:
                continue
            for x in pts:
                fx = f(x)
                want = INF if fx.is_zero else fx.val()
                owners = [c for c in cells if c.cheese.contains(x)]
                assert len(owners) == 1
                c = owners[0]
                dist = x - c.center
                if dist.is_small:
                    continue
                assert c.eval_v(x) == want, (str(f), str(x))


def test_mixed_branch_paths(laurent):
    # one branch decided by roots, the other by regions
    phi = parse_formula(
        laurent,
        "EX x:K. (x^2 = 2*t^2 & rv[0](x) = rv[0](t)) | rv[0](x) = rv[0](3*t)",
    )
    assert decide(phi, laurent)
    phi2 = parse_formula(
        laurent,
        "EX x:K. (x^2 = 2*t^2 & rv[0](x) = rv[0](t)) | rv[0](x^2) = rv[0](2*t^2)",
    )
    assert not decide(phi2, laurent)


@pytest.mark.parametrize("bad", [1.5, "1"])
def test_entries_reject_non_values(laurent, bad):
    # a float order or radius would be inexact, a string no number at all
    t, one, zero = laurent.uniformizer(), laurent.one(), laurent.zero()
    f = Poly(laurent, [-(t * t), zero, one])
    piece = decompose(f)[0]
    calls = [
        lambda: newton_lift(f, t + t**3, bad),
        lambda: collision_root(f, zero, t, bad),
        lambda: piece.eval_rv(piece.cheese.sample(), bad),
        lambda: eliminate_linear_exists([(t, one, zero, bad)], laurent),
        lambda: rv_decompose([f], [bad]),
        lambda: Ball.at_least(t, bad),
        lambda: Ball.more_than(t, bad),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
