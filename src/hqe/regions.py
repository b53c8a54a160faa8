"""Solution regions of one-variable leading-term conditions.

Every atom in one field variable reduces to comparisons of valuations of
polynomials, v(H(x)) <=> v(G(x)) + c, plus root equations.  On an
exact cell decomposition both sides are linear in the radii v(x - center),
so the satisfying set is a finite union of swiss cheeses, computed here,
and the balls of finitely many regions cut K into one cell partition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .balls import Ball, SwissCheese
from .decomp import Piece, _refine, decompose
from .errors import NonEffectiveQuantifier, PrecisionExhausted
from .field import Field, FieldElem, val_diff
from .hensel import field_roots, resolution_horizon, same_point
from .poly import Poly
from .valq import FLIP, INF, NEG_INF, holds

# a region is a finite union of nonempty swiss cheeses, kept as a list
Region = list


def region_all(field: Field) -> Region:
    return [SwissCheese.all(field)]


def roots_region(f: Poly, field: Field) -> tuple[Region, list]:
    roots = field_roots(f)
    return [SwissCheese.of_ball(Ball.point(r)) for r in roots], roots


def _inside(ball: Ball, node: Ball) -> bool:
    if node.is_point:
        return ball.is_point and same_point(ball.center, node.center)
    return node.contains_ball(ball)


def cell_partition(regions, points, field: Field):
    """Cut K into cells along every ball of the regions and the points.

    Two balls are nested or disjoint, so the balls form a containment
    forest under K (Holly's canonical swiss cheeses): a cell is a node minus
    its children, and n balls cut K into at most n + 1 cells.  Returns the
    bitmask of each region over the cells, and the cells as (node, children)
    pairs, and the cell of each point."""
    nodes, kids, index = [Ball.all(field)], [[]], {}
    marks = [Ball.point(r) for r in points]
    balls = marks + [b for reg in regions for c in reg for b in (c.outer, *c.holes)]
    # larger balls first, so that a ball is inserted below all its supersets
    for b in sorted(balls, key=lambda b: b.radius):
        i = 0
        while nodes[i].radius != b.radius:
            k = next((k for k in kids[i] if _inside(b, nodes[k])), None)
            if k is None:
                k = len(nodes)
                nodes.append(b)
                kids.append([])
                kids[i].append(k)
            i = k
        index[id(b)] = i
    # a node's children come after it
    sub = [1 << i for i in range(len(nodes))]
    for i in reversed(range(len(nodes))):
        for k in kids[i]:
            sub[i] |= sub[k]

    def mask(region):
        out = 0
        for c in region:
            m = sub[index[id(c.outer)]]
            for h in c.holes:
                m &= ~sub[index[id(h)]]
            out |= m
        return out

    cells = [(b, [nodes[k] for k in kids[i]]) for i, b in enumerate(nodes)]
    return [mask(r) for r in regions], cells, [index[id(b)] for b in marks]


# ---- exact cells --------------------------------------------------------------


def exact_cells(H: Poly, field: Field) -> list[Piece]:
    """The slack-free pieces of H, on each of which v(H(x)) is exactly
    Piece.eval_v(x) = v(a_m) + m * v(x - center)."""
    if H.is_zero:
        raise NonEffectiveQuantifier("valuation of the zero polynomial")
    pieces = decompose(H, None, _exact=True)
    assert all(p.severity_bound == 0 for p in pieces)
    return pieces


def vcomp_region(H: Poly, G, op: str, field: Field, c: int = 0) -> Region:
    """{x : v(H(x))  op  v(G(x)) + c} as a union of swiss cheeses.

    G may be a Poly, or None for +inf (comparisons against the value of a
    root)."""
    if G is None:
        # the right side is +inf
        if H.is_zero:
            ok = op in ("<=", "=", ">=")
            return region_all(field) if ok else []
        if op == "<=":
            return region_all(field)
        if op == ">":
            return []
        if op in ("=", ">="):
            reg, _ = roots_region(H, field)
            return reg
        # "<" and "!=" hold exactly away from the roots
        _, roots = roots_region(H, field)
        return [SwissCheese(Ball.all(field), [Ball.point(r) for r in roots])]
    # a fresh list: callers may extend the list they receive, never the memo
    return list(_vcomp_region(field, H.coeffs, G.coeffs, op, c))


@lru_cache(maxsize=2048)
def _vcomp_region(field: Field, hc, gc, op: str, c) -> tuple[SwissCheese, ...]:
    # exact_cells raises on a zero side; lru_cache stores no error
    H, G = Poly(field, hc), Poly(field, gc)
    out = []
    for cheese, (ch, cg) in _refine([exact_cells(H, field), exact_cells(G, field)]):
        for piece in _cell_compare(ch, cg, c, op, cheese, field):
            if not piece.is_empty:
                out.append(piece)
    return tuple(out)


def _cell_compare(ch: Piece, cg: Piece, c, op, cheese, field) -> Region:
    # v(a_m) of each piece, or INF: its linearized valuation is that plus m * r
    A, B = (INF if a.is_zero else a.val() for a in (ch.coeffs[ch.m], cg.coeffs[cg.m]))
    if B != INF:
        B += c
    m1, m2 = ch.m, cg.m
    a1, a2 = ch.center, cg.center
    if m1 == 0 or m2 == 0:
        # a constant side reads no radius: the other side's center serves both
        one = a2 if m1 == 0 else a1
    else:
        horizon = resolution_horizon(field)
        dd = val_diff(a1, a2, horizon)  # v(a1 - a2), or the horizon for the same center
        if dd is None:
            raise PrecisionExhausted("cell centers indistinguishable at precision")
        one = a1 if dd == horizon else None
    out: Region = []
    if one is not None:
        # one center: one radius r, w1 = A + m1 r, w2 = B + m2 r
        for lo, hi, inc in _solve(A, m1, B, m2, op, NEG_INF, INF, True):
            out.extend(_radius_range(one, lo, hi, inc, field))
    else:
        # r1 < dd forces r2 = r1
        for lo, hi, inc in _solve(A, m1, B, m2, op, NEG_INF, dd - 1, False):
            out.extend(_radius_range(a1, lo, hi, inc, field))
        A2, B2 = _affine(A, m1, dd), _affine(B, m2, dd)
        # r1 > dd forces r2 = dd
        for lo, hi, inc in _solve(A, m1, B2, 0, op, dd + 1, INF, True):
            out.extend(_radius_range(a1, lo, hi, inc, field))
        # r1 = dd, r2 = dd
        if holds(A2, B2, op):
            both = SwissCheese(
                Ball.at_least(a1, dd),
                [Ball.at_least(a1, dd + 1), Ball.at_least(a2, dd + 1)],
            )
            out.append(both)
        # r1 = dd, r2 > dd (x near a2): solve over r2
        for lo, hi, inc in _solve(A2, 0, B, m2, op, dd + 1, INF, True):
            out.extend(_radius_range(a2, lo, hi, inc, field))
    return [c.intersect(cheese) for c in out]


def _solve(A, m1, B, m2, op, lo, hi, allow_inf):
    """Integer intervals of r in [lo, hi] (plus the radius r = +inf when
    allowed, i.e. the center itself) where A + m1 r  op  B + m2 r.
    Yields triples (lo', hi', include_infinite_radius)."""
    inf_ok = allow_inf and holds(_affine(A, m1, INF), _affine(B, m2, INF), op)
    finite = []
    k = m1 - m2
    if A == INF or B == INF or k == 0:
        # an infinite side, or equal slopes: the same answer at every finite r
        if holds(A, B, op):
            finite.append((lo, hi))
    else:
        bound = Fraction(B - A, k)
        eff = op if k > 0 else FLIP[op]
        if eff == "=":
            if bound.denominator == 1:
                finite.append((int(bound), int(bound)))
        elif eff == "!=":
            if bound.denominator == 1:
                finite.append((lo, int(bound) - 1))
                finite.append((int(bound) + 1, hi))
            else:
                finite.append((lo, hi))
        elif eff == "<":
            finite.append((lo, math.ceil(bound) - 1))
        elif eff == "<=":
            finite.append((lo, math.floor(bound)))
        elif eff == ">":
            finite.append((math.floor(bound) + 1, hi))
        else:  # >=
            finite.append((math.ceil(bound), hi))
    out = []
    attached = False
    for l2, h2 in finite:
        l2, h2 = max(l2, lo), min(h2, hi)
        if l2 > h2:
            continue
        if h2 == INF and inf_ok:
            out.append((l2, h2, True))
            attached = True
        else:
            out.append((l2, h2, False))
    if inf_ok and not attached:
        out.append((1, 0, True))  # no finite radii, the point only
    return out


def _affine(A, m: int, r):
    if A == INF:
        return INF
    if r == INF:
        return INF if m > 0 else A
    if r == NEG_INF:
        return NEG_INF if m > 0 else A
    return A + r * m


def _radius_range(center: FieldElem, lo, hi, include_point: bool, field) -> Region:
    """{x : lo <= v(x - center) <= hi} (integers), optionally with x = center."""
    out = []
    if lo <= hi:
        outer = Ball.at_least(center, lo) if lo != NEG_INF else Ball.all(field)
        holes = []
        if hi != INF:
            holes.append(Ball.at_least(center, hi + 1))
        elif not include_point:
            holes.append(Ball.point(center))
        cheese = SwissCheese(outer, holes)
        if not cheese.is_empty:
            out.append(cheese)
        if hi != INF and include_point:
            out.append(SwissCheese.of_ball(Ball.point(center)))
    elif include_point:
        out.append(SwissCheese.of_ball(Ball.point(center)))
    return out
