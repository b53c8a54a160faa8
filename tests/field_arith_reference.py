"""Frozen copy of ``field._add`` and ``field._mul`` as they were before
field arithmetic ran on the integer-form kernel, with their helpers
``_abs_cap``, ``_int_vp`` and ``_min_rel``.  The differential tests in
``test_field.py`` check ``x + y``, ``x - y`` and ``x * y`` against it, on
the stored data and on the errors raised; do not optimise this file."""

from __future__ import annotations

from itertools import repeat
from math import gcd

from hqe.field import (
    _NUM,
    _SMALL,
    _ZERO,
    LAURENT,
    MAX_DIGIT_SPAN,
    FieldElem,
    _lconv,
    _lelem,
    _pelem,
    _span_error,
)


def _int_vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _abs_cap(x: FieldElem):
    """x.abs_prec as an int, None for an exact number."""
    return x.rel if x.kind == _SMALL or x.rel is None else x.v + x.rel


def add(x: FieldElem, y: FieldElem) -> FieldElem:
    f = x.field
    if x.kind == _ZERO:
        return y
    if y.kind == _ZERO:
        return x
    # digits below cap are known (cap None: all of them)
    cx, cy = _abs_cap(x), _abs_cap(y)
    cap = cx if cy is None or (cx is not None and cx < cy) else cy
    if x.kind == _SMALL and y.kind == _SMALL:
        return f.small(cap)
    if x.kind == _SMALL or y.kind == _SMALL:
        num = x if x.kind == _NUM else y
        if num.v < cap:
            return num.truncate_rel(cap - num.v)
        return f.small(cap)
    # both numbers
    if x.v > y.v:
        x, y = y, x
    s = y.v - x.v
    if f.backend == LAURENT:
        if cap is None:
            length = max(len(x.u), s + len(y.u))
        else:
            length = cap - x.v
        if length > MAX_DIGIT_SPAN:
            raise _span_error(length)
        # bring both units to the common denominator lcm(x.den, y.den)
        g = gcd(x.den, y.den)
        ma, mb = y.den // g, x.den // g
        digits = [c * ma for c in x.u[:length]]
        digits += repeat(0, length - len(digits))
        for j, c in enumerate(y.u[: max(0, length - s)], s):
            digits[j] += c * mb
        den = x.den * ma
        lead = 0
        while not digits[lead]:
            lead += 1
            if lead == length:
                return f.zero() if cap is None else f.small(cap)
        rel = None if cap is None else length - lead
        return _lelem(f, x.v + lead, digits[lead:], den, rel)
    # padic
    if cap is None:
        num = x.u * y.den + y.u * x.den * f.p ** s
        if not num:
            return f.zero()
        return _pelem(f, x.v, num, x.den * y.den)
    k = cap - x.v
    w = (x.unit_digits(k) + y.unit_digits(max(0, k - s)) * f.p ** s) % f.p ** k
    if w == 0:
        return f.small(cap)
    j = _int_vp(w, f.p)
    return FieldElem(f, _NUM, x.v + j, (w // f.p ** j) % f.p ** (k - j), k - j)


def mul(x: FieldElem, y: FieldElem) -> FieldElem:
    f = x.field
    if x.kind == _ZERO or y.kind == _ZERO:
        return f.zero()
    if x.kind == _SMALL or y.kind == _SMALL:
        bx = x.rel if x.kind == _SMALL else x.v
        by = y.rel if y.kind == _SMALL else y.v
        return f.small(bx + by)
    rel = _min_rel(x.rel, y.rel)
    if f.backend == LAURENT:
        n = len(x.u) + len(y.u) - 1
        if rel is not None and rel < n:
            n = rel
        if n > MAX_DIGIT_SPAN:
            raise _span_error(n)
        digits = _lconv(x.u, y.u, n)
        return _lelem(f, x.v + y.v, digits, x.den * y.den, rel)
    if rel is None:
        return _pelem(f, x.v + y.v, x.u * y.u, x.den * y.den)
    u = x.unit_digits(rel) * y.unit_digits(rel) % f.p ** rel
    return FieldElem(f, _NUM, x.v + y.v, u, rel)


def _min_rel(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def sub(x: FieldElem, y: FieldElem) -> FieldElem:
    """x - y as ``FieldElem.__sub__`` computed it: x plus the negation of y."""
    return add(x, -y)
