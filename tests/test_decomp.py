import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivative_roots_reference
import eval_rv_reference
from hqe.balls import Ball, SwissCheese
import hqe.decomp
from hqe.decomp import Piece, _measure_drops, decompose, m_bound, rv_decompose
from hqe.errors import HQEError, NotInPiece, PrecisionExhausted
from hqe.field import Field, FieldElem
import hqe.hensel
from hqe.hensel import collision_classes, derivative_roots, is_root, resolution_horizon
from hqe.poly import Poly, derivative
from hqe.rv import RVElem, rv
from hqe.valq import INF


def val_of(x):
    return INF if x.is_zero else x.val()


def grid(field, ks=range(-6, 7)):
    units = (
        [Fraction(c) for c in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)] + [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
        if field.backend == "laurent-q"
        else [u for u in range(1, 40) if u % field.p][:13]
    )
    return [field.monomial(c, k) for c in units for k in ks]


def test_m_bound_examples(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, zero, laurent.one()])
    assert m_bound(f, zero, SwissCheese.all(laurent)) == 2
    assert m_bound(f, zero, SwissCheese(Ball.at_least(zero, 1))) == 0
    assert m_bound(Poly.from_rationals(laurent, [7]), zero, SwissCheese.all(laurent)) == 0


def test_decompose_x2_minus_t(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, zero, laurent.one()])
    pieces = decompose(f)
    assert len(pieces) == 2
    ms = sorted(p.m for p in pieces)
    assert ms == [0, 2]
    for x in grid(laurent):
        owners = [p for p in pieces if p.contains(x)]
        assert len(owners) == 1
        assert owners[0].eval_v(x) == val_of(f(x))


def test_decompose_x2_minus_t2(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-(t * t), zero, laurent.one()])
    pieces = decompose(f)
    assert len(pieces) == 5
    assert sorted(p.m for p in pieces) == [0, 1, 1, 2, 2]
    # centers at the roots appear
    assert any((p.center - t).is_zero for p in pieces)
    assert any((p.center + t).is_zero for p in pieces)


def test_decompose_constant(laurent):
    f = Poly.from_rationals(laurent, [6])
    pieces = decompose(f)
    assert len(pieces) == 1 and pieces[0].m == 0
    assert pieces[0].eval_v(laurent.uniformizer()) == 0


def test_decompose_restricted_to_cheese(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-(t * t), zero, laurent.one()])
    S = SwissCheese(Ball.at_least(zero, 0), [Ball.at_least(t, 2)])
    pieces = decompose(f, S)
    for p in pieces:
        assert not p.cheese.is_empty
    for x in grid(laurent, ks=range(0, 5)):
        if not S.contains(x):
            continue
        owners = [p for p in pieces if p.contains(x)]
        assert len(owners) == 1


def poly_from_roots(field, roots, lead=1):
    f = Poly(field, [field.from_rational(lead)])
    for r in roots:
        f = f * Poly(field, [-r, field.one()])
    return f


def random_poly(field, rng, max_deg=5):
    # mix of rational roots placed on the grid and an irreducible tail
    d = rng.randrange(1, max_deg + 1)
    roots = []
    for _ in range(rng.randrange(0, min(3, d) + 1)):
        c = rng.choice([1, 2, 3, -1, -2]) if field.backend != "padic" or field.p != 2 else rng.choice([1, 3, -1])
        roots.append(field.monomial(c, rng.randrange(-2, 3)))
    f = poly_from_roots(field, roots, lead=rng.choice([1, 2, -1]))
    rest = d - len(roots)
    if rest:
        tail = [field.from_rational(rng.randrange(-6, 7)) for _ in range(rest)] + [field.one()]
        f = f * Poly(field, tail)
    return f


def test_partition_and_bounds_random(any_field):
    rng = random.Random(42)
    field = any_field
    pts = grid(field, ks=range(-4, 5))
    for _ in range(12):
        f = random_poly(field, rng)
        pieces = decompose(f)
        for x in pts:
            owners = [p for p in pieces if p.contains(x)]
            assert len(owners) == 1, f"{f} at {x}"
            p = owners[0]
            w = p.eval_v(x)
            fv = val_of(f(x))
            assert w <= fv <= w + p.severity_bound
            if field.backend == "laurent-q":
                assert w == fv


def test_each_centre_is_taylor_shifted_once(monkeypatch, any_field):
    """The recursion inward from a centre reuses its coefficients there."""
    rng = random.Random(7)
    shifted = []
    real = hqe.decomp.taylor_shift
    monkeypatch.setattr(hqe.decomp, "taylor_shift", lambda f, c: shifted.append(c) or real(f, c))
    for _ in range(12):
        shifted.clear()
        f = random_poly(any_field, rng)
        centres = {p.center for p in decompose(f)}
        assert len(shifted) == len(set(shifted)) and centres <= set(shifted)


def test_monotonicity_of_m(laurent):
    rng = random.Random(9)
    zero = laurent.zero()
    for _ in range(10):
        f = random_poly(laurent, rng, max_deg=4)
        S = SwissCheese.all(laurent)
        m_outer = m_bound(f, zero, S)
        for c, k in ((1, 0), (2, -1), (1, 2)):
            beta = laurent.monomial(c, k)
            T = SwissCheese(Ball.at_least(beta, k + rng.randrange(1, 4)))
            assert m_bound(f, beta, T) <= m_outer


def test_center_provenance(any_field):
    rng = random.Random(12)
    field = any_field
    for _ in range(6):
        f = random_poly(field, rng, max_deg=4)
        pieces = decompose(f)
        for p in pieces:
            ok = False
            for n in range(f.degree):
                if is_root(derivative(f, n), p.center):
                    ok = True
                    break
            assert ok, f"center {p.center} of {f}"


def test_rv_decompose_single_piece(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, zero, laurent.one()])
    dec = rv_decompose([f], [0])
    assert all(p.severity_bound == 0 for cell in dec.cells for p in cell.pieces)
    for x in grid(laurent):
        cell = dec.cell_of(x)
        assert cell.pieces[0].eval_rv(x, 0) == rv(f(x), 0)


def test_rv_decompose_multi(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-(t * t), zero, laurent.one()])
    g = Poly(laurent, [-t, laurent.one()])
    dec = rv_decompose([f, g], [0, 1])
    for x in grid(laurent, ks=range(-3, 4)):
        cell = dec.cell_of(x)
        assert cell.pieces[0].eval_rv(x, 0) == rv(f(x), 0)
        assert cell.pieces[1].eval_rv(x, 1) == rv(g(x), 1)


def test_rv_decompose_padic_offsets(padic2):
    f = Poly(padic2, [padic2.from_rational(-17), padic2.zero(), padic2.one()])
    dec = rv_decompose([f], [0])
    bound = 4  # 2^2 * v(2!)
    for cell in dec.cells:
        p = cell.pieces[0]
        assert p.severity_bound <= bound
    for x in grid(padic2, ks=range(-3, 4)):
        cell = dec.cell_of(x)
        assert cell.pieces[0].eval_rv(x, 0) == rv(f(x), 0)


def test_piece_eval_errors(laurent):
    zero = laurent.zero()
    t = laurent.uniformizer()
    f = Poly(laurent, [-t, zero, laurent.one()])
    pieces = decompose(f)
    inner = next(p for p in pieces if p.m == 0)
    with pytest.raises(NotInPiece):
        inner.eval_v(laurent.parse("t^-3"))


def test_piece_at_center_root(laurent):
    # the piece containing a root evaluates to +inf there
    t = laurent.uniformizer()
    zero = laurent.zero()
    f = Poly(laurent, [-(t * t), zero, laurent.one()])
    pieces = decompose(f)
    owner = [p for p in pieces if p.contains(t)]
    assert len(owner) == 1
    assert owner[0].eval_v(t) == INF


def test_piece_eval_rv_correction_example(laurent):
    t = laurent.uniformizer()
    zero = laurent.zero()
    f = Poly(laurent, [-(t * t), zero, laurent.one()])
    pieces = decompose(f)
    owner = next(p for p in pieces if p.contains(t + t**3) and not (p.center - t).is_zero is False)
    x = t + t**3
    owner = next(p for p in pieces if p.contains(x))
    assert owner.eval_rv(x, 0) == rv(f(x), 0)
    assert rv(f(x), 0) == rv(laurent.parse("2*t^4 + t^6"), 0)


def test_json_roundtrip_pieces(laurent):
    t = laurent.uniformizer()
    zero = laurent.zero()
    f = Poly(laurent, [-(t * t), zero, laurent.one()])
    for p in decompose(f):
        back = Piece.from_json(laurent, p.to_json())
        assert back.cheese == p.cheese
        assert back.m == p.m and back.severity_bound == p.severity_bound
        assert all((a - b).is_zero or (a - b).is_small for a, b in zip(back.coeffs, p.coeffs))


# ---- a slack piece keeps v(q), not q ------------------------------------------


def _slack_piece(field, f):
    """The piece of index deg f on the unit annulus of x^n - c, c = 1 mod p
    and no n-th power: the class of 1 holds no root of f or of a derivative,
    so it stays in the annulus and leaves it slack."""
    return next(p for p in decompose(f) if p.contains(field.one()))


# c for x^(m - k) (x^k - c) with k = m - m % p: c = 1 mod p is no k-th
# power, and no root of f or of a derivative lies in the class of 1, so the
# unit annulus leaves a slack piece of index m; 1 + p where not listed
_SLACK_C = {(2, 3): 5, (3, 4): 7, (3, 8): 7, (7, 8): 15}


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("m", range(2, 11))
def test_severity_bound_is_the_valuation_of_q(p, m):
    field = Field.padic(p)

    def vq(i):  # v(q) for q = i!^(2^i), read off q one p at a time
        return eval_rv_reference._int_val(field, factorial(i) ** (2**i))

    k = m - m % p or m  # m < p: v(m!) = 0, and no piece has slack
    c = _SLACK_C.get((p, m), 1 + p)
    pieces = decompose(Poly.from_rationals(field, [0] * (m - k) + [-c] + [0] * (k - 1) + [1]))
    assert all(q.severity_bound in (0, vq(q.m)) for q in pieces)
    assert any(q.m == m and q.severity_bound == vq(m) for q in pieces)


def test_json_prints_q_as_its_formula(padic2):
    f = Poly.from_rationals(padic2, [-17] + [0] * 15 + [1])
    pieces = decompose(f)
    qs = [p.to_json()["q"] for p in pieces]
    assert qs.count("16!^(2^16)") == 1 and qs.count(1) == len(qs) - 1
    for p in pieces:
        back = Piece.from_json(padic2, json.loads(json.dumps(p.to_json())))
        assert back.cheese == p.cheese and back.severity_bound == p.severity_bound


# units whose 2-adic digits end, and units with gamma + 1 nonzero digits: a
# product of those costs about a second at gamma = 983,040, so x^16 - 17
# takes the short ones here and two long ones in a child process below
_SHORT_UNITS = [1, 3, 5, 7, 1 + 2**9, 1 + 2**20]
_LONG_UNITS = [-1, -3, Fraction(1, 3), Fraction(-5, 7)]


@pytest.mark.parametrize("n, c, units", [(10, 3, _SHORT_UNITS + _LONG_UNITS), (16, 17, _SHORT_UNITS)])
def test_eval_rv_at_a_large_working_order(padic2, n, c, units):
    """x^10 - 3 reads gamma = 8,192 and x^16 - 17 gamma = 983,040 at delta 0."""
    f = Poly.from_rationals(padic2, [-c] + [0] * (n - 1) + [1])
    piece = _slack_piece(padic2, f)
    assert piece.severity_bound == padic2.factorial_val(n) * 2**n
    for u in units:
        x = padic2.from_rational(Fraction(u))
        assert piece.contains(x)
        assert piece.eval_rv(x, 0) == rv(f(x), 0), str(x)


_LONG_UNITS_AT_983040 = """
import resource
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hqe.decomp import decompose
from hqe.field import Field
from hqe.poly import Poly
from hqe.rv import rv
F = Field.padic(2)
f = Poly.from_rationals(F, [-17] + [0] * 15 + [1])
piece = next(p for p in decompose(f) if p.severity_bound)
for u in (-1, Fraction(1, 3)):
    x = F.from_rational(u)
    assert piece.contains(x)
    print(u, piece.eval_rv(x, 0) == rv(f(x), 0))
"""


def test_eval_rv_on_long_units_at_a_large_working_order():
    """x = -1 and x = 1/3 have 983,041 nonzero 2-adic digits on the slack
    piece of x^16 - 17 (gamma = 983,040).  Reducing each product modulo
    2^(gamma + 1) by a mask takes about a second per point here, by long
    division 13 and 26 s; the child's wall limit sits between the two."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _LONG_UNITS_AT_983040], capture_output=True, text=True, env=env, timeout=20
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "-1 True\n1/3 True\n"


_PAST_MAX_EXACT_BITS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hqe.decomp import decompose
from hqe.errors import PreconditionViolated
from hqe.field import Field
from hqe.poly import Poly
F = Field.padic(2)
piece = next(p for p in decompose(Poly.from_rationals(F, [-17] + [0] * 31 + [1])) if p.contains(F.one()))
try:
    piece.eval_rv(F.one(), 0)
except PreconditionViolated as e:
    print(e)
"""


def test_eval_rv_refuses_a_working_order_past_max_exact_bits():
    """x^32 - 17 reads gamma = 2^32 * 31 = 133,143,986,176: p^(gamma + 1)
    would take 16 GB.  A child with 1 GiB of address space and a wall limit
    runs it, so a missing guard fails this test rather than the machine."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _PAST_MAX_EXACT_BITS], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "leading term of a piece needs 2^133143986177, longer than MAX_EXACT_BITS = 16777216\n"


# ---- the compiled linearization against the frozen field-product path ------

_LIN_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]
# x^2 - a has no root: over padic-2 its annulus leaves a slack piece, v(q) > 0
_NON_SQUARE = {None: 2, 7: 3, 2: 5}  # by field.p


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the same error counts as the same answer
        return type(e), str(e)


def _planted(draw, field):
    """lead * prod (x - r) * tail, degree 1-6, with clustered roots: a root
    is fresh or an earlier one plus u pi^k."""
    tail = draw(st.booleans())
    roots = []
    for _ in range(draw(st.integers(1, 4 if tail else 6))):
        u = field.from_rational(Fraction(draw(st.sampled_from([1, -1, 3, -3, 5])), draw(st.sampled_from([1, 3]))))
        if roots and draw(st.booleans()):
            roots.append(draw(st.sampled_from(roots)) + field.monomial(1, draw(st.integers(1, 3))) * u)
        else:
            roots.append(field.monomial(1, draw(st.integers(-1, 2))) * u)
    f = Poly(field, [field.from_rational(draw(st.sampled_from([1, 2, -1])))])
    for r in roots:
        f = f * Poly(field, [-r, field.one()])
    if tail:
        f = f * Poly.from_rationals(field, [-_NON_SQUARE[field.p], 0, 1])
    return f


@st.composite
def linearization_queries(draw):
    """(piece, points): a piece of a planted polynomial's decomposition, as
    built, read back from JSON (inexact coefficients), or with a coefficient
    made an order bound or cut to few digits; points on the grid, from the
    cheese, at pi^k from the center up to and past the resolution horizon,
    and truncated to few digits."""
    field = draw(st.sampled_from(_LIN_FIELDS))
    pieces = decompose(_planted(draw, field))
    piece = draw(st.sampled_from(pieces))
    how = draw(st.sampled_from(["built", "json", "order-bound", "short"]))
    if how != "built":
        piece = Piece.from_json(field, piece.to_json())
    if how in ("order-bound", "short"):
        cs = list(piece.coeffs)
        i = draw(st.integers(0, len(cs) - 1))
        if how == "order-bound":
            cs[i] = field.small(draw(st.integers(-2, 6)))
        elif not cs[i].is_zero and not cs[i].is_small:
            cs[i] = cs[i].truncate_rel(draw(st.integers(1, 3)))
        piece = replace(piece, coeffs=tuple(cs))
    horizon = resolution_horizon(field)
    points = [piece.center]
    points += draw(st.lists(st.sampled_from(grid(field, ks=range(-3, 4))), min_size=1, max_size=4))
    for k in draw(st.lists(st.sampled_from([0, 1, 2, 5, horizon - 1, horizon, horizon + 1, horizon + 4]), max_size=3)):
        points.append(piece.center + field.monomial(draw(st.sampled_from([1, -1, 3])), k))
    try:
        points.append(piece.cheese.sample())
    except PrecisionExhausted:
        pass
    for x in list(points):
        if not (x.is_zero or x.is_small) and draw(st.booleans()):
            points.append(x.truncate_rel(draw(st.integers(1, 4))))
    return piece, points


@settings(max_examples=150, deadline=None)
@given(case=linearization_queries())
def test_eval_rv_matches_field_product_reference(case):
    piece, points = case
    for x in points:
        assert _outcome(piece.eval_v, x) == _outcome(eval_rv_reference.eval_v, piece, x), str(x)
        for delta in range(4):
            got = _outcome(piece.eval_rv, x, delta)
            assert got == _outcome(eval_rv_reference.eval_rv, piece, x, delta), (str(x), delta)


class _Forbidden(Exception):
    pass


def _forbidden(*args):
    raise _Forbidden("the field-product path ran")


def test_eval_rv_never_forms_a_field_power_or_a_representative(monkeypatch, any_field):
    one, pi = any_field.one(), any_field.uniformizer()
    cluster = pi + any_field.monomial(1, 2)
    f = (
        Poly(any_field, [-pi, one])
        * Poly(any_field, [-cluster, one])
        * Poly.from_rationals(any_field, [-_NON_SQUARE[any_field.p], 0, 1])
    )
    pieces = decompose(f)
    assert any_field.p != 2 or any(p.severity_bound > 0 for p in pieces)
    pts = grid(any_field, ks=range(-3, 4)) + [cluster + any_field.monomial(1, 5)]
    queries = [(p, x, delta) for p in pieces for x in pts if p.contains(x) for delta in range(3)]
    want = [_outcome(eval_rv_reference.eval_rv, p, x, delta) for p, x, delta in queries]
    monkeypatch.setattr(RVElem, "rep", _forbidden)
    monkeypatch.setattr(FieldElem, "__pow__", _forbidden)
    got = [_outcome(p.eval_rv, x, delta) for p, x, delta in queries]
    assert got == want
    assert sum(isinstance(r, RVElem) for r in got) > len(got) // 2


def test_count_inside_counts_an_undecided_root_in(padic7):
    """The frozen count is an upper bound: a root known only modulo 7^3 may
    lie in the ball 7^5 O, and counts as inside."""
    ball = Ball.at_least(padic7.zero(), 5)
    droots = [(0, padic7.monomial(1, 6)), (0, padic7.one()), (1, padic7.small(3))]
    with pytest.raises(PrecisionExhausted):
        ball.contains(padic7.small(3))
    assert derivative_roots_reference._count_inside(droots, ball) == 2


_THREE_ROOTS = [-25137, 3747, -115, 1]  # (x - 9)(x - 49)(x - 57) over padic-7


def _spy_measure(monkeypatch, verdict):
    calls = []

    def forced(f, droots, prev, ball):
        calls.append((prev, ball))
        return verdict

    monkeypatch.setattr(hqe.decomp, "_measure_drops", forced)
    return calls


def test_measure_check_failing_raises_the_measure_assertion(monkeypatch):
    """The check is reached where m does not drop, and its verdict is the
    assertion's."""
    f = Poly.from_rationals(Field.padic(7), _THREE_ROOTS)
    calls = _spy_measure(monkeypatch, False)
    with pytest.raises(AssertionError, match="measure failed to decrease"):
        decompose(f)
    assert len(calls) == 1


def test_measure_check_reaches_no_piece(monkeypatch):
    """_region reads the check only in its measure assertion: forced to pass,
    the pieces are the same.  It runs once here, in the class recursion that
    _annulus_analysis starts, where m does not drop; the old center, a root
    of f', lies in the ball entered from and not in the class ball."""
    field = Field.padic(7)
    f = Poly.from_rationals(field, _THREE_ROOTS)
    expected = decompose(f)
    calls = _spy_measure(monkeypatch, True)
    assert decompose(f) == expected
    assert len(calls) == 1
    (_, outer, center, n), ball = calls[0]
    assert outer.contains_ball(ball) and outer.contains(center) and not ball.contains(center)
    assert is_root(derivative(f, n), center)
    monkeypatch.undo()
    assert _measure_drops(f, hqe.hensel.DerivativeRoots(f), calls[0][0], ball)
    assert len({p.center for p in expected}) >= 2


def test_measure_check_passes_an_undecided_membership(padic7):
    """Conservative: where the old center's membership in the new ball is
    undecided at the precision, the defensive check passes instead of
    raising, since no piece reads it."""
    f = Poly(padic7, [padic7.zero(), padic7.zero(), padic7.one()])  # x^2: f' has the root 0
    centre = padic7.small(3)  # zero, known only modulo 7^3
    outer = Ball.all(padic7)
    ball = Ball.at_least(padic7.zero(), 5)
    with pytest.raises(PrecisionExhausted):
        ball.contains(centre)
    droots = hqe.hensel.DerivativeRoots(f)
    assert _measure_drops(f, droots, (2, outer, centre, 1), ball)
    # a decided membership of the center in the new ball fails the check
    assert not _measure_drops(f, droots, (2, outer, padic7.zero(), 1), ball)
    # and so does a center that is no root of the order it came from
    assert not _measure_drops(f, droots, (2, outer, padic7.one(), 1), ball)
    assert not _measure_drops(f, droots, (2, outer, padic7.one(), None), ball)


# ---- derivative roots found on demand ----------------------------------------


def _json(pieces):
    return [p.to_json() for p in pieces]


def _agrees_with_eager_reference(got, want):
    """The same answer as the frozen eager path; where that raised, the
    on-demand path may answer (it reads fewer root sets), and it never
    raises where the reference answered."""
    try:
        expected = want()
    except HQEError:
        return
    assert got() == expected


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_on_demand_derivative_roots_match_eager_reference(data):
    field = data.draw(st.sampled_from(_LIN_FIELDS))
    f = _planted(data.draw, field)
    ref = derivative_roots_reference
    _agrees_with_eager_reference(lambda: derivative_roots(f), lambda: ref.derivative_roots(f))
    _agrees_with_eager_reference(lambda: _json(decompose(f)), lambda: _json(ref.decompose(f)))
    _agrees_with_eager_reference(
        lambda: _json(decompose(f, None, _exact=True)), lambda: _json(ref.decompose(f, None, _exact=True))
    )
    try:
        centers = sorted({str(p.center): p.center for p in ref.decompose(f)}.items())
    except HQEError:
        centers = []
    alpha = data.draw(st.sampled_from([field.zero()] + [c for _, c in centers]))
    delta = data.draw(st.integers(-1, 3))
    _agrees_with_eager_reference(
        lambda: collision_classes(f, alpha, delta), lambda: ref.collision_classes(f, alpha, delta)
    )


def test_classes_holding_roots_of_f_find_no_derivative_roots(monkeypatch):
    """Every residue class of (x - 1)(x - 8)(x - 50) over padic-7 holds a
    root of f, so only the roots of f itself are searched for."""
    field = Field.padic(7)
    f = Poly.from_rationals(field, [-400, 458, -59, 1])
    expected = [_json(derivative_roots_reference.decompose(f, None, exact)) for exact in (False, True)]
    searched = []
    field_roots = hqe.hensel.field_roots

    def recorded(g):
        searched.append(g.degree)
        return field_roots(g)

    monkeypatch.setattr(hqe.hensel, "field_roots", recorded)
    assert [_json(decompose(f, None, exact)) for exact in (False, True)] == expected
    assert searched == [3, 3]
    assert len({p["center"] for p in expected[0]}) >= 3
