"""Swiss-cheese decomposition of K relative to a polynomial: partition into
pieces on which v(f(x)) is pinned between v(a_m (x-alpha)^m) and that value
plus 2^m v(m!), and on which the order-delta leading term of f(x) is a
well-defined leading-term polynomial in the leading term of x - alpha.

The recursion follows the valuation geometry: around a center (a root of a
derivative of f) the Newton data singles out an initial segment of radii on
which the m-th recentered monomial is strictly minimal; past it the maximal
index drops and the recursion continues inward; on the boundary annulus the
residue-root classes that can carry collisions are re-centered at roots of
derivatives found inside them.  A double induction on (m, number of
derivative roots inside) terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm

from .balls import Ball, SwissCheese
from .errors import NotInPiece, PreconditionViolated, PrecisionExhausted, RecursionBound
from .field import LAURENT, Field, FieldElem, _lconv, _lelem, _pelem, val_diff
from .hensel import derivative_roots, elem_sort_key, resolution_horizon
from .poly import Poly, annulus_residue_poly, argmin_indices, residue_roots, taylor_shift
from .rv import RVElem, rv
from .valq import INF, NEG_INF, as_order

_MAX_DEPTH = 600


@dataclass(frozen=True)
class Piece:
    """One cell of a decomposition: on ``cheese``, with a_i the coefficients
    of f recentered at ``center``,

        v(a_m (x-center)^m)  <=  v(f(x))  <=  same + severity_bound,

    and rv_delta(f(x)) equals the projected leading-term polynomial built
    from order delta + v(q) data (q = 1 in residue characteristic 0)."""

    cheese: SwissCheese
    center: FieldElem
    coeffs: tuple
    m: int
    severity_bound: int
    q: int

    def contains(self, x: FieldElem) -> bool:
        return self.cheese.contains(x)

    def eval_v(self, x: FieldElem):
        """The linearized valuation v(a_m (x-center)^m)."""
        if not self.contains(x):
            raise NotInPiece(f"{x} is not in {self.cheese}")
        a_m = self.coeffs[self.m]
        if self.m == 0:
            return INF if a_m.is_zero else a_m.val()
        d = x - self.center
        if d.is_zero:
            return INF
        r = d.val()
        self._depth_guard(r)
        return a_m.val() + r * self.m

    @cached_property
    def _terms(self) -> dict:
        # order -> linearization, filled on the first query at that order
        return {}

    @cached_property
    def _exact(self) -> bool:
        return self.center.is_exact and all(c.is_exact for c in self.coeffs)

    @cached_property
    def _vq(self) -> int:
        return _int_val(self.center.field, self.q)

    def _depth_guard(self, r):
        # a piece built around truncated data does not resolve structure
        # below the working precision
        if r >= resolution_horizon(self.center.field) and not self._exact:
            raise PrecisionExhausted("point lies deeper than the center is known")

    def linearization(self, gamma: int) -> tuple:
        """The terms of rv_gamma(f(x)) in j order, built once per order:
        ``(j, None, cls)`` with cls the coefficient a_j truncated to gamma + 1
        unit digits (fewer when a_j is known to fewer), which fixes the class
        rv_gamma(a_j); and ``(j, lb, None)`` for a coefficient with no class
        -- unresolved, or an order bound -- where lb is a lower bound on
        v(a_j).  A zero coefficient has no entry."""
        terms = self._terms.get(gamma)
        if terms is None:
            field = self.center.field
            terms = []
            for j, a in enumerate(self.coeffs):
                if a.is_zero:
                    continue
                if a.is_small or coeff_unresolved(field, a):
                    terms.append((j, a.val_lb(), None))
                else:
                    terms.append((j, None, a.truncate_rel(gamma + 1)))
            terms = self._terms[gamma] = tuple(terms)
        return terms

    def rv_terms(self, order: int) -> list:
        """(j, rv_order(a_j)) for each coefficient resolved at the horizon, in
        j order; raises as ``rv(a_j, order)`` does on an order bound or on a
        unit known to fewer than order + 1 digits."""
        horizon = resolution_horizon(self.center.field)
        out = []
        for j, lb, cls in self.linearization(order):
            if cls is None:
                # an unresolved coefficient has lb at or past the horizon
                if lb < horizon:
                    raise PrecisionExhausted("class of an element with unknown leading digit")
                continue
            out.append((j, rv(cls, order)))
        return out

    def eval_rv(self, x: FieldElem, delta) -> RVElem:
        """rv_delta(f(x)) from the linearization of the piece.  With
        gamma = delta + v(q) and d = x - center,

            rv_gamma(f(x)) = (+)_j rv_gamma(a_j) * rv_gamma(d)^j,

        and the sum is projected to order delta.  It runs on integers: the
        gamma + 1 unit digits of d are read once, each power of rv_gamma(d)
        costs one product truncated to gamma + 1 digits, and the classes
        are summed through their canonical representatives (over a common
        denominator on laurent-q, with aligned powers of p on padic) into
        one field element, whose class is the answer.

        A term with no class -- its coefficient unresolved or an order
        bound, or d known only to an order bound -- is dropped with a lower
        bound on its value.  PrecisionExhausted when a dropped term could
        reach the leading term of the sum, when a kept term is known to
        fewer than gamma + 1 digits, or when x lies deeper than the data of
        the piece resolves."""
        if not self.contains(x):
            raise NotInPiece(f"{x} is not in {self.cheese}")
        delta = as_order(delta)
        field = self.center.field
        gamma = delta + self._vq
        k = gamma + 1
        d = x - self.center
        dlb = None if d.is_zero else d.val_lb()  # v(d), or its order bound
        if dlb is not None:
            self._depth_guard(dlb)
        if not (d.is_zero or d.is_small):
            d = d.truncate_rel(k)  # the unit digits of rv_gamma(d), fewer when d is known to fewer
        laurent = field.backend == LAURENT
        pw, mod = ((1,), None) if laurent else (1, field.p**k)
        pj = 0  # pw is the unit of rv_gamma(d)^pj, over d.den^pj on laurent-q
        ignored = INF  # lower bound on the dropped terms
        kept = []  # (value, unit, den) of each term class
        for j, lb, cls in self.linearization(gamma):
            if j and d.is_zero:
                continue  # the whole term vanishes exactly
            if cls is None:
                ignored = min(ignored, lb + j * dlb if j else lb)
                continue
            known = cls.cap - cls.v  # unit digits of the term's class
            if j:
                if d.is_small:
                    ignored = min(ignored, cls.v + j * dlb)
                    continue
                known = min(known, d.cap - d.v)
            if known < k:
                raise PrecisionExhausted(f"need {k} unit digits, have {known}")
            while pj < j:
                pw = _lconv(pw, d.u, k) if laurent else pw * d.u % mod
                pj += 1
            if not j:
                kept.append((cls.v, cls.u, cls.den))
            elif laurent:
                kept.append((cls.v + j * dlb, _lconv(cls.u, pw, k), cls.den * d.den**j))
            else:
                kept.append((cls.v + j * dlb, cls.u * pw % mod, 1))
        if not kept:
            return RVElem.inf(field, delta)
        low = min(v for v, _, _ in kept)
        if laurent:
            common = lcm(*(den for _, _, den in kept))
            total = {}
            for v, u, den in kept:
                scale = common // den
                for i, c in enumerate(u, v - low):
                    if c:
                        total[i] = total.get(i, 0) + c * scale
            lead = min((i for i, c in total.items() if c), default=None)
            if lead is None:
                return RVElem.inf(field, delta)
            # the sum's leading delta + 1 digits: all that its class reads
            s = _lelem(field, low + lead, [total.get(lead + i, 0) for i in range(delta + 1)], common, None)
        else:
            total = sum(u * field.p ** (v - low) for v, u, _ in kept)
            if not total:
                return RVElem.inf(field, delta)
            s = _pelem(field, low, total, 1)
        if s.v + gamma >= ignored:
            raise PrecisionExhausted("dropped term could affect the leading term")
        return rv(s, delta)

    def to_json(self):
        return {
            "cheese": self.cheese.to_json(),
            "center": str(self.center),
            "coeffs": [str(c) for c in self.coeffs],
            "m": self.m,
            "severity_bound": str(self.severity_bound),
            "q": self.q,
        }

    @staticmethod
    def from_json(field: Field, data) -> "Piece":
        return Piece(
            SwissCheese.from_json(field, data["cheese"]),
            field.parse(data["center"]),
            tuple(field.parse(c) for c in data["coeffs"]),
            data["m"],
            int(data["severity_bound"]),
            data["q"],
        )


def _int_val(field: Field, q: int) -> int:
    if field.backend == LAURENT:
        return 0
    v = 0
    while q % field.p == 0:
        q //= field.p
        v += 1
    return v


def coeff_unresolved(field: Field, c) -> bool:
    """Whether a coefficient is treated as zero by the decomposition: it
    vanishes to the resolution horizon, or it is inexact with valuation at
    or beyond it (truncated data -- a recentered constant term at a lifted
    root, typically -- whose depth is noise, not structure)."""
    horizon = resolution_horizon(field)
    if c.is_small:
        return c.cap >= horizon
    return not c.is_exact and c.val() >= horizon


def _support_vals(field: Field, coeffs):
    """(index, valuation) pairs of the resolved coefficients; exact
    coefficients always keep their true valuation."""
    pairs = []
    for i, c in enumerate(coeffs):
        if c.is_zero:
            continue
        if coeff_unresolved(field, c):
            continue
        if c.is_small:
            raise PrecisionExhausted(f"coefficient {i} known only modulo pi^{c.cap}")
        pairs.append((i, c.val()))
    return pairs


def m_bound(f: Poly, alpha: FieldElem, S: SwissCheese) -> int:
    """The largest index i such that v(a_i (x-alpha)^i) is minimal for some
    x in S, read off the Newton data over the radii S realizes around alpha."""
    if S.is_empty:
        raise PreconditionViolated("m is undefined on the empty set")
    if f.is_zero:
        raise PreconditionViolated("m is undefined for the zero polynomial")
    coeffs = taylor_shift(f, alpha)
    pairs = _support_vals(f.field, coeffs)
    intervals, point = S.realized_radii(alpha)
    best = 0
    for lo, _hi in intervals:
        idxs = argmin_indices(pairs, lo)
        if idxs:
            best = max(best, max(idxs))
    if point:
        best = max(best, min(i for i, _ in pairs))
    return best


# ---- the decomposition -------------------------------------------------------


def decompose(f: Poly, S: SwissCheese | None = None, _exact: bool = False) -> list[Piece]:
    """Disjoint pieces covering S (default: all of K) with the valuation
    bound of Piece on each; centers are roots of derivatives of f."""
    field = f.field
    if f.is_zero:
        raise PreconditionViolated("cannot decompose the zero polynomial")
    if S is not None and S.is_empty:
        return []
    d = f.degree
    if d == 0:
        cheese = S if S is not None else SwissCheese.all(field)
        return [Piece(cheese, field.zero(), (f.coeffs[0],), 0, 0, 1)]
    # initial center: the root of the linear derivative, always in K
    top = f.coeffs[d]
    below = f.coeffs[d - 1]
    alpha0 = -(below / (top * d))
    droots = derivative_roots(f)
    pieces = _region(f, alpha0, Ball.all(field), droots, _exact, 0)
    if S is not None:
        pieces = [
            Piece(c, p.center, p.coeffs, p.m, p.severity_bound, p.q)
            for p in pieces
            for c in [p.cheese.intersect(S)]
            if not c.is_empty
        ]
    return pieces


def _count_inside(droots, ball: Ball) -> int:
    """An upper bound on the distinct derivative roots in ball.

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


def _region(f, center, ball, droots, exact, depth, prev=None) -> list:
    """Decompose ``ball`` (which contains ``center``) for f."""
    if depth > _MAX_DEPTH:
        raise RecursionBound("decomposition recursion exceeded its defensive cap")
    field = f.field
    if ball.kind == "point":
        coeffs = taylor_shift(f, center)
        return [Piece(SwissCheese.of_ball(ball), center, tuple(coeffs), 0, 0, 1)]
    coeffs = taylor_shift(f, center)
    pairs = _support_vals(field, coeffs)
    if not pairs:
        raise PreconditionViolated("zero polynomial in decomposition")
    gamma = ball.radius_int if ball.kind == "ball" else NEG_INF
    m = max(argmin_indices(pairs, gamma))
    # measure of the double induction: m drops, or the number of derivative
    # roots strictly inside drops (counted only where m does not drop)
    if prev is not None:
        prev_m, prev_ball = prev
        assert m < prev_m or _count_inside(droots, prev_ball) > _count_inside(droots, ball), (
            "decomposition measure failed to decrease"
        )
    if m == 0:
        return [Piece(SwissCheese.of_ball(ball), center, tuple(coeffs), 0, 0, 1)]
    vm = dict(pairs)[m]
    cuts = [Fraction(v - vm, m - i) for i, v in pairs if i < m]
    if not cuts:
        # the m-th monomial is strictly minimal on the whole ball
        return [Piece(SwissCheese.of_ball(ball), center, tuple(coeffs), m, 0, 1)]
    rho = min(cuts, default=INF)
    pieces = []
    inner_ball = Ball.more_than(center, rho)
    # radii in [gamma, rho): the m-th monomial is strictly minimal
    outer = SwissCheese(ball, [Ball.at_least(center, rho)])
    if not outer.is_empty:
        pieces.append(Piece(outer, center, tuple(coeffs), m, 0, 1))
    # the tie annulus at rho, when it is realized in the value group
    if rho.denominator == 1:
        r = int(rho)
        annulus = SwissCheese(Ball.at_least(center, r), [inner_ball])
        if not annulus.is_empty:
            class_balls, slack = _annulus_analysis(
                f, coeffs, center, r, droots, exact, depth, pieces, (m, ball)
            )
            remainder = annulus.minus_balls(class_balls)
            if not remainder.is_empty:
                if slack:
                    bound = field.factorial_val(m) * (2**m)
                    q = factorial(m) ** (2**m) if bound > 0 else 1
                else:
                    bound, q = 0, 1
                pieces.append(Piece(remainder, center, tuple(coeffs), m, bound, q))
    # inside: the maximal index drops strictly
    pieces.extend(_region(f, center, inner_ball, droots, exact, depth + 1, (m, ball)))
    return pieces


def _annulus_analysis(f, coeffs, center, r, droots, exact, depth, pieces, prev):
    """Handle the residue-root classes on the annulus v(x-center) = r.

    Classes containing a root of a derivative are re-centered there and
    recursed into (this covers every class whose collision severity can
    exceed 2^m v(m!)); in exact mode the remaining residue-root classes are
    subdivided as well, so every produced piece carries zero slack.
    ``prev`` is _region's (m, ball), for the measure assertion of the
    recursion into a class with a derivative root.
    Returns (class balls removed from the annulus, slack flag).
    """
    field = f.field
    respoly = annulus_residue_poly(coeffs, _support_vals(field, coeffs), r)
    if sum(1 for c in respoly if c != 0) <= 1:
        return [], False  # a single minimal monomial: no residue root but 0
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
            pieces.extend(
                _region(f, lam, Ball.more_than(lam, r), droots, exact, depth + 1, prev)
            )
        elif exact:
            # no derivative root: the collision severity in this class is
            # bounded, and finitely many digit levels resolve it exactly
            class_balls.append(cls_ball)
            pieces.extend(
                _region(f, beta, cls_ball, droots, exact, depth + 1, None)
            )
        else:
            slack = True
    return class_balls, slack


# ---- simultaneous decomposition for leading terms ----------------------------


@dataclass(frozen=True)
class Cell:
    """A common cell with one Piece per polynomial, all sharing the cheese."""

    cheese: SwissCheese
    pieces: tuple


@dataclass(frozen=True)
class RVDecomposition:
    polys: tuple
    deltas: tuple
    cells: tuple

    def cell_of(self, x: FieldElem) -> Cell:
        for cell in self.cells:
            if cell.cheese.contains(x):
                return cell
        raise NotInPiece(f"no cell contains {x}")

    def to_json(self):
        return {
            "deltas": [str(d) for d in self.deltas],
            "cells": [
                {
                    "cheese": cell.cheese.to_json(),
                    "pieces": [p.to_json() for p in cell.pieces],
                }
                for cell in self.cells
            ],
        }

    @staticmethod
    def from_json(field: Field, data) -> "RVDecomposition":
        cells = tuple(
            Cell(
                SwissCheese.from_json(field, c["cheese"]),
                tuple(Piece.from_json(field, p) for p in c["pieces"]),
            )
            for c in data["cells"]
        )
        deltas = tuple(int(d) for d in data["deltas"])
        return RVDecomposition((), deltas, cells)


def rv_decompose(fs, deltas) -> RVDecomposition:
    """A common partition of K adapted to every f in fs at its order delta:
    intersect the per-polynomial decompositions."""
    fs = list(fs)
    deltas = [as_order(d) for d in deltas]
    if len(fs) != len(deltas):
        raise ValueError("one order per polynomial required")
    field = fs[0].field
    per_poly = [decompose(f) for f in fs]
    cells = [(SwissCheese.all(field), [])]
    for pieces in per_poly:
        new_cells = []
        for cheese, chosen in cells:
            for p in pieces:
                inter = cheese.intersect(p.cheese)
                if inter.is_empty:
                    continue
                new_cells.append((inter, chosen + [p]))
        cells = new_cells
    packed = []
    for cheese, chosen in cells:
        packed.append(
            Cell(
                cheese,
                tuple(
                    Piece(cheese, p.center, p.coeffs, p.m, p.severity_bound, p.q)
                    for p in chosen
                ),
            )
        )
    return RVDecomposition(tuple(fs), tuple(deltas), tuple(packed))
