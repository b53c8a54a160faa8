"""Solution regions of one-variable leading-term conditions.

Every atom in one field variable reduces to comparisons of valuations of
polynomials, v(H(x)) <=> v(G(x)) + c, plus root equations.  On an
exact cell decomposition both sides are linear in the radii v(x - center),
so the satisfying set is a finite union of swiss cheeses, computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .balls import Ball, SwissCheese
from .decomp import decompose
from .errors import NonEffectiveQuantifier, PrecisionExhausted
from .field import Field, FieldElem
from .hensel import field_roots, resolution_horizon
from .poly import Poly
from .valq import FLIP, INF, NEG_INF, holds

# a region is a finite union of swiss cheeses
Region = list


def region_all(field: Field) -> Region:
    return [SwissCheese.all(field)]


def region_union(a: Region, b: Region) -> Region:
    return list(a) + list(b)


def region_intersect(a: Region, b: Region) -> Region:
    out = []
    for x in a:
        for y in b:
            z = x.intersect(y)
            if not z.is_empty:
                out.append(z)
    return out


def region_nonempty(region: Region) -> bool:
    return any(not c.is_empty for c in region)


def region_without_points(region: Region, points) -> Region:
    return [c.minus_balls([Ball.point(p) for p in points]) for c in region]


def roots_region(f: Poly, field: Field) -> tuple[Region, list]:
    roots = field_roots(f)
    return [SwissCheese.of_ball(Ball.point(r)) for r in roots], roots


# ---- exact cells --------------------------------------------------------------


@dataclass(frozen=True)
class _CellData:
    cheese: SwissCheese
    center: FieldElem
    m: int
    base: int  # v(a_m), or INF; the linearized valuation is base + m * v(x - center)


def exact_cells(H: Poly, field: Field) -> tuple[_CellData, ...]:
    """Cells on which v(H(x)) = base + m * v(x - center) exactly."""
    if H.is_zero:
        raise NonEffectiveQuantifier("valuation of the zero polynomial")
    if H.degree == 0:
        return (_CellData(SwissCheese.all(field), field.zero(), 0, H.coeffs[0].val()),)
    return _exact_cells(field, H.coeffs)


@lru_cache(maxsize=2048)
def _exact_cells(field: Field, coeffs) -> tuple[_CellData, ...]:
    out = []
    for p in decompose(Poly(field, coeffs), None, _exact=True):
        assert p.severity_bound == 0
        a_m = p.coeffs[p.m]
        base = INF if a_m.is_zero else a_m.val()
        out.append(_CellData(p.cheese, p.center, p.m, base))
    return tuple(out)


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
        return region_without_points(region_all(field), roots)
    cellsH = exact_cells(H, field)
    cellsG = exact_cells(G, field)
    out: Region = []
    for ch in cellsH:
        for cg in cellsG:
            cheese = ch.cheese.intersect(cg.cheese)
            if cheese.is_empty:
                continue
            for piece in _cell_compare(ch, cg, c, op, cheese, field):
                if not piece.is_empty:
                    out.append(piece)
    return out


def _cell_compare(ch: _CellData, cg: _CellData, c, op, cheese, field) -> Region:
    A = ch.base
    B = cg.base + c if cg.base != INF else INF
    m1, m2 = ch.m, cg.m
    a1, a2 = ch.center, cg.center
    if m1 == 0 and m2 == 0:
        return [cheese] if holds(A, B, op) else []
    d = a1 - a2
    dv = d.val_lb()
    if not d.is_zero and d.is_small and d.rel < resolution_horizon(field):
        raise PrecisionExhausted("cell centers indistinguishable at precision")
    out: Region = []
    if dv == INF or (not d.is_zero and dv >= resolution_horizon(field)):
        # same center: one radius r, w1 = A + m1 r, w2 = B + m2 r
        for lo, hi, inc in _solve(A, m1, B, m2, op, NEG_INF, INF, True):
            out.extend(_radius_range(a1, lo, hi, inc, field))
    else:
        dd = dv
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
