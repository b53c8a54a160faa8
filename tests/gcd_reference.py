"""Frozen copy of the polynomial gcd without the modular coprimality screen,
kept as an oracle.

Before coprimality was proven modulo a prime first, ``hqe.poly.poly_gcd``
ran the exact pseudo-remainder chain on every input, and
``squarefree_part`` divided by its result.  This module keeps that chain
(pseudo-division, valuation-content stripping, normalisation to monic)
unchanged so that tests can check that the screen never changes a gcd.
"""

from __future__ import annotations

from hqe.errors import PrecisionExhausted
from hqe.poly import Poly, derivative, exact_divide
from hqe.valq import INF


def poly_pseudo_divmod(g: Poly, f: Poly):
    if f.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    field = g.field
    df, dg = f.degree, g.degree
    if dg is None or dg < df:
        return Poly(field, []), g, 0
    lead = f.leading()
    rem = list(g.coeffs)
    q = [field.zero()] * (dg - df + 1)
    k = 0
    for i in range(dg - df, -1, -1):
        c = rem[i + df]
        if c.is_zero:
            continue
        k += 1
        rem = [r * lead for r in rem]
        q = [qq * lead for qq in q]
        q[i] = c
        for j in range(df + 1):
            rem[i + j] = rem[i + j] - c * f.coeffs[j]
    return Poly(field, q), Poly(field, rem[:df]), k


def poly_gcd(f: Poly, g: Poly) -> Poly:
    a, b = f, g
    while not b.is_zero:
        if b.degree == 0:
            return monic(b)
        _, r, _ = poly_pseudo_divmod(a, b)
        r = _strip_content(r)
        a, b = b, r
    if a.is_zero:
        return a
    return monic(a)


def monic(f: Poly) -> Poly:
    lead = f.leading()
    return Poly(f.field, [c / lead for c in f.coeffs])


def _strip_content(f: Poly) -> Poly:
    if f.is_zero:
        return f
    try:
        vals = [c.val() for c in f.coeffs if not c.is_zero]
    except PrecisionExhausted:
        return f
    m = min(vals, default=INF)
    if m == INF or m == 0:
        return f
    return Poly(f.field, [c.shift(-m) if not c.is_zero else c for c in f.coeffs])


def squarefree_part(f: Poly) -> Poly:
    d = f.degree
    if d is None or d <= 1:
        return f
    g = poly_gcd(f, derivative(f))
    if g.degree == 0:
        return f
    return exact_divide(f, g)
