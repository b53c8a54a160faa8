"""Frozen copy of the exact-root snap without the fingerprint screen, kept
as an oracle.

Before candidates were screened by their image modulo a prime,
``hqe.hensel._snap_exact`` evaluated g(candidate) in exact arithmetic for
every candidate.  This module keeps that procedure, and the rational
reconstruction it uses, unchanged so that tests can check that the screen
never changes the element returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from hqe.field import LAURENT, FieldElem
from hqe.poly import Poly


def snap_exact(g: Poly, x: FieldElem) -> FieldElem:
    if x.is_exact or not x.field or x.is_zero or x.is_small:
        return x
    field = x.field
    candidates = []
    if field.backend == LAURENT:
        candidates.append(x.as_exact())
        candidates.append(x.truncate_rel(max(1, (x.rel or field.prec) - 4)).as_exact())
    else:
        k = max(4, (x.rel or field.prec) - 4)
        fr = rational_reconstruct(x.unit_digits(k), field.p**k)
        if fr is not None and fr != 0:
            candidates.append(field.from_rational(fr).shift(x.v))
    for cand in candidates:
        if g(cand).is_zero:
            return cand
    return x


def rational_reconstruct(u: int, m: int):
    """A fraction n/d = u mod m with |n|, d <= sqrt(m/2), if one exists."""
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)
