"""Frozen copy of the padic kernel on Fraction units, kept as an oracle.

Before the integer padic kernel, an exact padic unit was a ``Fraction`` with
no p in it and every sum rescaled it by ``Fraction(p) ** s``.  This module
keeps that arithmetic (padic only, same precision rules) so that tests can
check the current kernel against it.  An element is a tuple
``(kind, v, unit, rel)`` with kind "n" (number), "z" (exact zero) or "s"
(order bound ``v >= rel``; v and unit are None); a number's unit is a
Fraction when it is exact (rel None) and an int mod p^rel otherwise.
"""

from __future__ import annotations

from fractions import Fraction


def _int_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _frac_vp(x: Fraction, p: int) -> int:
    return _int_vp(x.numerator, p) - _int_vp(x.denominator, p)


def zero():
    return ("z", None, None, None)


def small(bound: int):
    return ("s", None, None, bound)


def monomial(coeff, k: int, p: int):
    """coeff * p^k for a rational coeff."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return zero()
    v = _frac_vp(coeff, p)
    return ("n", v + k, coeff / Fraction(p) ** v, None)


def from_unit(v: int, unit, rel, p: int):
    if rel is None:
        unit = Fraction(unit)
        if _frac_vp(unit, p) != 0:
            raise ValueError("padic unit must have valuation 0")
    else:
        unit = int(unit) % p**rel
        if unit % p == 0:
            raise ValueError("padic unit must be nonzero mod p")
    return ("n", v, unit, rel)


def unit_digits(x, k: int, p: int) -> int:
    kind, _, unit, rel = x
    if kind != "n":
        raise ValueError("no unit part")
    if rel is not None and rel < k:
        raise ArithmeticError(f"need {k} unit digits, have {rel}")
    if rel is None:
        return unit.numerator * pow(unit.denominator, -1, p**k) % p**k
    return unit % p**k


def truncate_rel(x, k: int, p: int):
    kind, v, _, rel = x
    if kind != "n" or (rel is not None and rel <= k):
        return x
    return ("n", v, unit_digits(x, k, p), k)


def residue(x, d: int, p: int) -> int:
    """The digits 0..d of x (v(x) >= 0) as an int mod p^(d+1)."""
    kind, v, _, rel = x
    if kind == "z":
        return 0
    if kind == "s":
        if rel > d:
            return 0
        raise ArithmeticError("residue not determined at available precision")
    if v < 0:
        raise ArithmeticError("residue of an element of negative valuation")
    if rel is not None and v + rel <= d:
        raise ArithmeticError(f"residue mod m_{d} needs {d + 1} known digits")
    u = unit_digits(x, d + 1 - v, p) if v <= d else 0
    return u * p**v % p ** (d + 1)


def neg(x, p: int):
    kind, v, unit, rel = x
    if kind != "n":
        return x
    return ("n", v, -unit if rel is None else (-unit) % p**rel, rel)


def _abs_cap(x):
    kind, v, _, rel = x
    return rel if kind == "s" or rel is None else v + rel


def add(x, y, p: int):
    if x[0] == "z":
        return y
    if y[0] == "z":
        return x
    cx, cy = _abs_cap(x), _abs_cap(y)
    cap = cx if cy is None or (cx is not None and cx < cy) else cy
    if x[0] == "s" and y[0] == "s":
        return small(cap)
    if x[0] == "s" or y[0] == "s":
        num = x if x[0] == "n" else y
        if num[1] < cap:
            return truncate_rel(num, cap - num[1], p)
        return small(cap)
    if x[1] > y[1]:
        x, y = y, x
    s = y[1] - x[1]
    if cap is None:
        total = x[2] + y[2] * Fraction(p) ** s
        if total == 0:
            return zero()
        j = _frac_vp(total, p)
        return ("n", x[1] + j, total / Fraction(p) ** j, None)
    k = cap - x[1]
    w = (unit_digits(x, k, p) + unit_digits(y, max(0, k - s), p) * p**s) % p**k
    if w == 0:
        return small(cap)
    j = _int_vp(w, p)
    return ("n", x[1] + j, (w // p**j) % p ** (k - j), k - j)


def sub(x, y, p: int):
    return add(x, neg(y, p), p)


def _min_rel(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def mul(x, y, p: int):
    if x[0] == "z" or y[0] == "z":
        return zero()
    if x[0] == "s" or y[0] == "s":
        bx = x[3] if x[0] == "s" else x[1]
        by = y[3] if y[0] == "s" else y[1]
        return small(bx + by)
    rel = _min_rel(x[3], y[3])
    if rel is None:
        return ("n", x[1] + y[1], x[2] * y[2], None)
    u = unit_digits(x, rel, p) * unit_digits(y, rel, p) % p**rel
    return ("n", x[1] + y[1], u, rel)


def div(x, y, p: int):
    if y[0] == "z":
        raise ZeroDivisionError("division by exact zero")
    if y[0] == "s":
        raise ArithmeticError("divisor is zero to its known precision")
    if x[0] == "z":
        return zero()
    if x[0] == "s":
        return small(x[3] - y[1])
    rel = _min_rel(x[3], y[3])
    if rel is None:
        return ("n", x[1] - y[1], x[2] / y[2], None)
    u = unit_digits(x, rel, p) * pow(unit_digits(y, rel, p), -1, p**rel) % p**rel
    return ("n", x[1] - y[1], u, rel)


def format_elem(x, p: int) -> str:
    kind, v, unit, rel = x
    if kind == "z":
        return "0"
    if kind == "s":
        return f"O({p}^{rel})"
    q = Fraction(unit) * Fraction(p) ** v
    num = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return num if rel is None else f"{num} + O({p}^{v + rel})"
