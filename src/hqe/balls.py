"""Ultrametric ball geometry: balls, swiss cheeses (a ball minus finitely
many sub-balls), exact membership, containment, intersection, and the set
of radii a swiss cheese realizes around a point.

Because the value group is Z, every ball with finite radius has a canonical
closed form: {v(x-a) > delta} = {v(x-a) >= floor(delta)+1}, including the
fractional radii delta/n.  K itself, the empty set and singletons are balls.
"""

from __future__ import annotations

import math

from .errors import PrecisionExhausted
from .field import LAURENT, Field, FieldElem, val_diff
from .valq import INF, NEG_INF, as_value

_ALL = "all"
_EMPTY = "empty"
_POINT = "point"
_BALL = "ball"


class Ball:
    """A ball in K, canonically closed: {x : v(x - center) >= radius}."""

    __slots__ = ("field", "kind", "center", "radius_int", "radius")

    def __init__(self, field, kind, center=None, radius_int=None):
        self.field = field
        self.kind = kind
        self.center = center
        self.radius_int = radius_int
        # the radius as a value: -inf for K, +inf for a point and the empty set
        self.radius = radius_int if kind == _BALL else NEG_INF if kind == _ALL else INF

    @staticmethod
    def all(field: Field) -> "Ball":
        return Ball(field, _ALL)

    @staticmethod
    def empty(field: Field) -> "Ball":
        return Ball(field, _EMPTY)

    @staticmethod
    def point(center: FieldElem) -> "Ball":
        return Ball(center.field, _POINT, center)

    @staticmethod
    def at_least(center: FieldElem, radius) -> "Ball":
        """{x : v(x - center) >= radius}, radius in Q extended."""
        r = as_value(radius)
        if r == NEG_INF:
            return Ball.all(center.field)
        if r == INF:
            return Ball.point(center)
        return Ball(center.field, _BALL, center, math.ceil(r))

    @staticmethod
    def more_than(center: FieldElem, radius) -> "Ball":
        """{x : v(x - center) > radius}; fractional radii compare via
        n*v(x-center) > eta."""
        r = as_value(radius)
        if r == NEG_INF:
            return Ball.all(center.field)
        if r == INF:
            return Ball.empty(center.field)
        return Ball(center.field, _BALL, center, math.floor(r) + 1)

    @property
    def is_empty(self) -> bool:
        return self.kind == _EMPTY

    def depth(self, x: FieldElem):
        """min(v(x - center), radius) of a point or a ball; PrecisionExhausted
        when the digits of x and the center below the radius do not decide it."""
        r = self.radius
        w = val_diff(x, self.center, r)
        if w is None:
            raise PrecisionExhausted(f"cannot decide v(x - center) >= {r} at precision")
        return w

    def contains(self, x: FieldElem) -> bool:
        if self.kind == _ALL:
            return True
        if self.kind == _EMPTY:
            return False
        return self.depth(x) == self.radius

    def contains_ball(self, other: "Ball") -> bool:
        if other.kind == _EMPTY or self.kind == _ALL:
            return True
        if self.kind == _EMPTY or other.kind == _ALL or other.radius < self.radius:
            return False
        return self.contains(other.center)

    def intersect(self, other: "Ball") -> "Ball":
        """Intersection, using: two balls that meet are nested."""
        if self.contains_ball(other):
            return other
        if other.contains_ball(self):
            return self
        return Ball.empty(self.field)

    def intersects(self, other: "Ball") -> bool:
        return not self.intersect(other).is_empty

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind in (_ALL, _EMPTY):
            return True
        if self.kind == _POINT:
            return val_diff(self.center, other.center, INF) == INF
        return self.radius_int == other.radius_int and self.contains(other.center)

    def __hash__(self):
        return hash((self.kind, self.radius_int))

    def __str__(self):
        if self.kind == _ALL:
            return "K"
        if self.kind == _EMPTY:
            return "{}"
        if self.kind == _POINT:
            return f"{{{self.center}}}"
        return f"B[>={self.radius_int}]({self.center})"

    def __repr__(self):
        return str(self)

    def to_json(self):
        out = {"kind": self.kind}
        if self.center is not None:
            out["center"] = str(self.center)
        if self.kind == _BALL:
            out["radius"] = self.radius_int
        return out

    @staticmethod
    def from_json(field: Field, data) -> "Ball":
        kind = data["kind"]
        if kind == _ALL:
            return Ball.all(field)
        if kind == _EMPTY:
            return Ball.empty(field)
        center = field.parse(data["center"])
        if kind == _POINT:
            return Ball.point(center)
        return Ball.at_least(center, data["radius"])


def _digit_candidates(field: Field, n: int):
    if field.backend == LAURENT:
        return list(range(n))
    return list(range(field.p))


def _digit_subballs(ball: Ball):
    """The p sub-balls of radius r+1 splitting a closed p-adic ball."""
    field = ball.field
    r = ball.radius_int
    for d in range(field.p):
        yield Ball.at_least(ball.center + field.monomial(d, r), r + 1)


def ball_covered(ball: Ball, holes) -> bool:
    """Whether finitely many balls cover ``ball``.

    Over laurent-q the residue field is infinite, so only a single
    containing ball can cover; over Q_p a digit-splitting recursion decides.
    """
    holes = [h for h in holes if not h.is_empty]
    if ball.is_empty:
        return True
    for h in holes:
        if h.contains_ball(ball):
            return True
    if ball.kind == _POINT:
        return False
    field = ball.field
    if field.backend == LAURENT or ball.kind == _ALL:
        return False
    relevant = [h for h in holes if h.kind == _BALL and h.intersects(ball)]
    # each digit sub-ball needs at least one (disjointly placed) hole
    if len(relevant) < field.p:
        return False
    return all(
        ball_covered(sub, [h for h in relevant if h.intersects(sub)])
        for sub in _digit_subballs(ball)
    )


def _outside_points(x: FieldElem, points) -> bool:
    """Whether x is proven to differ from every point; False (not proven)
    when a membership is undecided at the available precision."""
    try:
        return not any(h.contains(x) for h in points)
    except PrecisionExhausted:
        return False


class SwissCheese:
    """outer ball minus finitely many holes, kept normalized: holes are
    nonempty proper sub-balls of the outer ball, pairwise non-nested; the
    empty cheese is canonical."""

    __slots__ = ("field", "outer", "holes")

    def __init__(self, outer: Ball, holes=()):
        field = outer.field
        if outer.is_empty:
            self.field, self.outer, self.holes = field, Ball.empty(field), ()
            return
        kept = []
        for h in holes:
            if h.is_empty:
                continue
            if h.contains_ball(outer):
                self.field, self.outer, self.holes = field, Ball.empty(field), ()
                return
            inter = h.intersect(outer)
            if inter.is_empty:
                continue
            kept.append(inter)
        # drop holes nested inside other holes (equality included)
        maximal = []
        for h in kept:
            if any(g.contains_ball(h) for g in maximal):
                continue
            maximal = [g for g in maximal if not h.contains_ball(g)]
            maximal.append(h)
        if ball_covered(outer, maximal):
            self.field, self.outer, self.holes = field, Ball.empty(field), ()
            return
        self.field = field
        self.outer = outer
        self.holes = tuple(maximal)

    @staticmethod
    def all(field: Field) -> "SwissCheese":
        return SwissCheese(Ball.all(field))

    @staticmethod
    def empty(field: Field) -> "SwissCheese":
        return SwissCheese(Ball.empty(field))

    @staticmethod
    def of_ball(ball: Ball) -> "SwissCheese":
        return SwissCheese(ball)

    @property
    def is_empty(self) -> bool:
        return self.outer.is_empty

    def contains(self, x: FieldElem) -> bool:
        if not self.outer.contains(x):
            return False
        return not any(h.contains(x) for h in self.holes)

    def intersect(self, other: "SwissCheese") -> "SwissCheese":
        outer = self.outer.intersect(other.outer)
        return SwissCheese(outer, list(self.holes) + list(other.holes))

    def minus_balls(self, balls) -> "SwissCheese":
        return SwissCheese(self.outer, list(self.holes) + list(balls))

    def __eq__(self, other):
        if not isinstance(other, SwissCheese):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        if self.outer != other.outer or len(self.holes) != len(other.holes):
            return False
        return all(any(h == g for g in other.holes) for h in self.holes)

    def __hash__(self):
        return hash((self.outer, len(self.holes)))

    def __str__(self):
        if not self.holes:
            return str(self.outer)
        return f"{self.outer} \\ ({' u '.join(str(h) for h in self.holes)})"

    def __repr__(self):
        return str(self)

    def to_json(self):
        return {"outer": self.outer.to_json(), "holes": [h.to_json() for h in self.holes]}

    @staticmethod
    def from_json(field: Field, data) -> "SwissCheese":
        return SwissCheese(
            Ball.from_json(field, data["outer"]),
            [Ball.from_json(field, h) for h in data["holes"]],
        )

    def sample(self) -> FieldElem:
        """Some element of the cheese (it is nonempty by normalization)."""
        field = self.field
        if self.is_empty:
            raise ValueError("empty swiss cheese has no points")
        if self.outer.kind == _POINT:
            return self.outer.center
        if self.outer.kind == _ALL:
            # go shallower than every hole can reach
            k = 0
            for h in self.holes:
                if h.kind == _BALL:
                    k = min(k, h.radius_int - 1)
                if not h.center.is_zero:
                    k = min(k, h.center.val() - 1)
            probe = field.monomial(1, k)
            if all(not h.contains(probe) for h in self.holes):
                return probe
            return SwissCheese(Ball.at_least(probe, k), list(self.holes)).sample()
        ball, holes = self.outer, list(self.holes)
        for _ in range(256):
            ball_holes = [h for h in holes if h.kind == _BALL]
            if not ball_holes:
                # dodge the finitely many removed points: the center, then
                # center + pi^b for b > r; each point rules out at most one
                # of these candidates unless it is known too coarsely to
                # tell them apart, and then no candidate is guessed outside
                r = ball.radius_int
                for b in range(r, r + len(holes) + 2):
                    cand = ball.center + field.monomial(1, b) if b > r else ball.center
                    if _outside_points(cand, holes):
                        return cand
                raise PrecisionExhausted("no sample point proven outside the removed points")
            for d in _digit_candidates(field, len(holes) + 2):
                sub = Ball.at_least(
                    ball.center + field.monomial(d, ball.radius_int) if d != 0 else ball.center,
                    ball.radius_int + 1,
                )
                inside = [h for h in holes if h.intersects(sub)]
                if ball_covered(sub, inside):
                    continue
                ball, holes = sub, inside
                break
            else:
                raise RuntimeError("no free digit found in a nonempty cheese")
        raise RuntimeError("sampling descent failed to terminate")

    # ---- radii seen from a point -------------------------------------------

    def realized_radii(self, alpha: FieldElem):
        """All values of v(x - alpha) for x in the cheese, as a sorted list
        of integer intervals (lo, hi) with int endpoints (lo may be -inf, hi +inf),
        plus a flag for v = +inf (x = alpha itself)."""
        if self.is_empty:
            return [], False
        out = self.outer
        if out.kind == _ALL:
            intervals = [(NEG_INF, INF)]
            point = True
        else:
            s = out.depth(alpha)
            if s == INF:  # alpha is the outer point
                return [], True
            if s == out.radius:
                intervals, point = [(s, INF)], True
            else:
                intervals, point = [(s, s)], False
        removed = set()
        for h in self.holes:
            if h.kind == _POINT:
                if val_diff(h.center, alpha, INF) == INF:
                    point = False
                continue
            s = h.depth(alpha)
            if s == h.radius_int:
                # alpha inside the hole: radii >= hole radius disappear
                intervals = _cap_intervals(intervals, s - 1)
                point = False
            else:
                if self.field.backend != LAURENT and _sphere_covered(self, alpha, s):
                    removed.add(s)
        for s in sorted(removed):
            intervals = _remove_radius(intervals, s)
        return intervals, point


def _cap_intervals(intervals, cap: int):
    out = []
    for lo, hi in intervals:
        if lo > cap:
            continue
        out.append((lo, min(hi, cap)))
    return out


def _remove_radius(intervals, s: int):
    out = []
    for lo, hi in intervals:
        if s < lo or s > hi:
            out.append((lo, hi))
            continue
        if lo <= s - 1:
            out.append((lo, s - 1))
        if s + 1 <= hi:
            out.append((s + 1, hi))
    return out


def _sphere_covered(cheese: SwissCheese, alpha: FieldElem, r) -> bool:
    """Whether the holes swallow the whole sphere {v(x - alpha) = r}."""
    field = cheese.field
    if r == INF:
        return False
    for d in range(1, field.p):
        cls = Ball.at_least(alpha + field.monomial(d, r), r + 1)
        if not ball_covered(cls, cheese.holes):
            return False
    return True
