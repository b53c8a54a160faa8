"""Frozen reference: the derivative roots found all at once, before the
decomposition starts.

``decompose`` and ``collision_classes`` as they were when every root set
of f, f', ..., f^(d-1) was found up front by ``derivative_roots`` and a
residue class was re-centred at the first root inside it by
(order, ``elem_sort_key``).  The library now finds a set only when a
class asks for its order; tests compare the two choices of centre.
"""

from fractions import Fraction

from hqe.balls import Ball, SwissCheese
from hqe.decomp import _MAX_DEPTH, Piece, _support_vals
from hqe.errors import PrecisionExhausted, PreconditionViolated, RecursionBound
from hqe.field import val_diff
from hqe.hensel import collision_data, collision_root, elem_sort_key, field_roots
from hqe.poly import Poly, annulus_residue_poly, argmin_indices, derivative, residue_roots, taylor_shift
from hqe.rv import rv
from hqe.valq import INF, NEG_INF


def _count_inside(droots, ball: Ball) -> int:
    """An upper bound on the distinct derivative roots in ball; droots is a
    DerivativeRoots or a list of its (n, root) pairs.  Iterating a
    DerivativeRoots finds every order's set, so the count reads every root.

    Conservative: a root whose membership is undecided counts as inside.
    The count feeds only _region's measure assertion, which counts a ball
    and the ball it was entered from (_annulus_analysis hands that one to
    the class recursion) when m does not drop; no piece reads it, and
    termination rests on _MAX_DEPTH.  So an undecided membership can at
    most let that defensive check pass, never change an answer."""
    n = 0
    seen = []
    for _, r in droots:
        try:
            if ball.contains(r) and not any(val_diff(r, s, r.field.prec) == r.field.prec for s in seen):
                seen.append(r)
                n += 1
        except PrecisionExhausted:
            n += 1
    return n


def derivative_roots(f: Poly) -> list:
    out = []
    for n in range(f.degree):
        for r in field_roots(derivative(f, n)):
            out.append((n, r))
    return out


def decompose(f: Poly, S=None, _exact: bool = False) -> list:
    field = f.field
    if f.is_zero:
        raise PreconditionViolated("cannot decompose the zero polynomial")
    if S is not None and S.is_empty:
        return []
    d = f.degree
    if d == 0:
        cheese = S if S is not None else SwissCheese.all(field)
        return [Piece(cheese, field.zero(), (f.coeffs[0],), 0, 0)]
    top = f.coeffs[d]
    below = f.coeffs[d - 1]
    alpha0 = -(below / (top * d))
    droots = derivative_roots(f)
    pieces = _region(f, alpha0, Ball.all(field), droots, _exact, 0)
    if S is not None:
        pieces = [
            Piece(c, p.center, p.coeffs, p.m, p.severity_bound)
            for p in pieces
            for c in [p.cheese.intersect(S)]
            if not c.is_empty
        ]
    return pieces


def _region(f, center, ball, droots, exact, depth, prev=None) -> list:
    if depth > _MAX_DEPTH:
        raise RecursionBound("decomposition recursion exceeded its defensive cap")
    field = f.field
    if ball.kind == "point":
        coeffs = taylor_shift(f, center)
        return [Piece(SwissCheese.of_ball(ball), center, tuple(coeffs), 0, 0)]
    coeffs = taylor_shift(f, center)
    pairs = _support_vals(field, coeffs)
    if not pairs:
        raise PreconditionViolated("zero polynomial in decomposition")
    gamma = ball.radius_int if ball.kind == "ball" else NEG_INF
    m = max(argmin_indices(pairs, gamma))
    if prev is not None:
        prev_m, prev_ball = prev
        assert m < prev_m or _count_inside(droots, prev_ball) > _count_inside(droots, ball), (
            "decomposition measure failed to decrease"
        )
    if m == 0:
        return [Piece(SwissCheese.of_ball(ball), center, tuple(coeffs), 0, 0)]
    vm = dict(pairs)[m]
    cuts = [Fraction(v - vm, m - i) for i, v in pairs if i < m]
    if not cuts:
        return [Piece(SwissCheese.of_ball(ball), center, tuple(coeffs), m, 0)]
    rho = min(cuts, default=INF)
    pieces = []
    inner_ball = Ball.more_than(center, rho)
    outer = SwissCheese(ball, [Ball.at_least(center, rho)])
    if not outer.is_empty:
        pieces.append(Piece(outer, center, tuple(coeffs), m, 0))
    if rho.denominator == 1:
        r = int(rho)
        annulus = SwissCheese(Ball.at_least(center, r), [inner_ball])
        if not annulus.is_empty:
            class_balls, slack = _annulus_analysis(
                f, coeffs, center, r, droots, exact, depth, pieces, (m, ball)
            )
            remainder = annulus.minus_balls(class_balls)
            if not remainder.is_empty:
                bound = field.factorial_val(m) * (2**m) if slack else 0
                pieces.append(Piece(remainder, center, tuple(coeffs), m, bound))
    pieces.extend(_region(f, center, inner_ball, droots, exact, depth + 1, (m, ball)))
    return pieces


def _annulus_analysis(f, coeffs, center, r, droots, exact, depth, pieces, prev):
    field = f.field
    respoly = annulus_residue_poly(coeffs, _support_vals(field, coeffs), r)
    if sum(1 for c in respoly if c != 0) <= 1:
        return [], False
    pi_r = field.monomial(1, r)
    class_balls = []
    slack = False
    for c in residue_roots(field, respoly):
        if c == 0:
            continue
        beta = center + pi_r * field.from_rational(c)
        cls_ball = Ball.more_than(beta, r)
        inside = [(n, rt) for n, rt in droots if cls_ball.contains(rt)]
        if inside:
            inside.sort(key=lambda nr: (nr[0], elem_sort_key(nr[1])))
            lam = inside[0][1]
            class_balls.append(cls_ball)
            pieces.extend(_region(f, lam, Ball.more_than(lam, r), droots, exact, depth + 1, prev))
        elif exact:
            class_balls.append(cls_ball)
            pieces.extend(_region(f, beta, cls_ball, droots, exact, depth + 1, None))
        else:
            slack = True
    return class_balls, slack


def collision_classes(f: Poly, alpha, delta_ann: int):
    field = f.field
    a = taylor_shift(f, alpha)
    pairs = [(i, c.val()) for i, c in enumerate(a) if not c.is_zero]
    if not pairs:
        raise PreconditionViolated("zero polynomial")
    respoly = annulus_residue_poly(a, pairs, delta_ann)
    if sum(1 for c in respoly if c != 0) <= 1:
        return []
    m_ann = len(respoly) - 1
    pi_d = field.monomial(1, delta_ann)
    droots = derivative_roots(f)
    out = []
    for c in residue_roots(field, respoly):
        if c == 0:
            continue
        beta = alpha + pi_d * field.from_rational(c)
        _, _, severity = collision_data(f, alpha, beta)
        base = (field.factorial_val(m_ann)) * (2**m_ann)
        lam = None
        if severity > base:
            try:
                _, lam = collision_root(f, alpha, beta, 0)
            except (PreconditionViolated, PrecisionExhausted):
                lam = None
        if lam is None:
            inside = [(n, r) for n, r in droots if val_diff(r, beta, delta_ann + 1) == delta_ann + 1]
            if not inside:
                continue
            inside.sort(key=lambda nr: (nr[0], elem_sort_key(nr[1])))
            lam = inside[0][1]
        out.append((rv(lam - alpha, 0), lam))
    out.sort(key=lambda pair: elem_sort_key(pair[1]))
    return out
