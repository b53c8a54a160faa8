"""Values in the divisible hull of the value group, extended by +/-infinity.

The value group of both backends is Z, so a value is a plain ``int``; the
only values that are not integers are ball radii delta/n, which are
``fractions.Fraction`` (always built as ``Fraction(a, b)``: ``/`` between
ints would give a float).  +/-infinity are the floats ``INF`` and
``NEG_INF``.  A float infinity turns (+inf) + (-inf) and inf * 0 into a
silent nan, so every site that can see an infinity branches on it before
doing arithmetic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import NegativeValue

INF = math.inf
NEG_INF = -math.inf


def as_value(x):
    """x checked as a value: an int, a Fraction or +/-infinity.

    Anything else (a float radius would be inexact, a string no number)
    raises TypeError."""
    if isinstance(x, (int, Fraction)) or x in (INF, NEG_INF):
        return x
    raise TypeError(f"a value is an int, a Fraction or +/-inf, not {type(x).__name__}")


def as_order(delta) -> int:
    """delta checked as the order of a leading-term structure: a
    nonnegative integer (NegativeValue otherwise, TypeError for a
    non-value)."""
    d = as_value(delta)
    if d in (INF, NEG_INF) or d.denominator != 1 or d < 0:
        raise NegativeValue(f"order must be a nonnegative integer, got {d}")
    return int(d)


# the six comparisons of values: a op b holds iff b FLIP[op] a, and it fails
# iff a NEGATED[op] b
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}
FLIP = {"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">": "<", ">=": "<="}
NEGATED = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">": "<=", ">=": "<"}


def holds(a, b, op: str) -> bool:
    """Whether a op b, for op one of the six comparisons."""
    try:
        compare = _COMPARE[op]
    except KeyError:
        raise ValueError(f"unknown value comparison {op!r}") from None
    return compare(a, b)
