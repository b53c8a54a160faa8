"""Values in the divisible hull of the value group, extended by +/-infinity.

The value group of both backends is Z; fractional values arise only as ball
radii delta/n.  ValQ is total for comparison and addition, with the usual
infinity conventions ((+inf) + (-inf) is rejected).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import ceil, floor


class ValQ:
    """An element of Q extended by +/-infinity, stored in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 1 and type(num) is int:
            self.num = num
            self.den = 1
            return
        if den == 0:
            # infinities: den == 0, num in {1, -1}
            self.num = 1 if num > 0 else -1
            self.den = 0
            return
        f = Fraction(num, den)
        self.num = f.numerator
        self.den = f.denominator

    @staticmethod
    def of(x) -> "ValQ":
        if isinstance(x, ValQ):
            return x
        if isinstance(x, Fraction):
            return ValQ(x.numerator, x.denominator)
        if isinstance(x, int):
            return ValQ(x)
        raise TypeError(f"cannot make ValQ from {type(x).__name__}")

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    @property
    def is_int(self) -> bool:
        return self.den == 1

    def as_fraction(self) -> Fraction:
        if not self.is_finite:
            raise ValueError("infinite value")
        return Fraction(self.num, self.den)

    def as_int(self) -> int:
        if not (self.is_finite and self.den == 1):
            raise ValueError(f"{self} is not an integer")
        return self.num

    def floor(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite value")
        return floor(Fraction(self.num, self.den))

    def ceil(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite value")
        return ceil(Fraction(self.num, self.den))

    def __eq__(self, other):
        if isinstance(other, int):
            other = ValQ(other)
        if not isinstance(other, ValQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _cmp(self, other) -> int:
        if isinstance(other, int):
            other = ValQ(other)
        if self.den == 0 or other.den == 0:
            a = self.num * 2 if self.den == 0 else 0
            b = other.num * 2 if other.den == 0 else 0
            return (a > b) - (a < b)
        lhs = self.num * other.den
        rhs = other.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __add__(self, other):
        if isinstance(other, int):
            other = ValQ(other)
        if not isinstance(other, ValQ):
            return NotImplemented
        if self.den == 0 or other.den == 0:
            if self.den == 0 and other.den == 0:
                if self.num != other.num:
                    raise ValueError("(+inf) + (-inf) is undefined")
                return self
            return self if self.den == 0 else other
        return ValQ(self.as_fraction() + other.as_fraction())

    __radd__ = __add__

    def __neg__(self):
        if self.den == 0:
            return ValQ(-self.num, 0)
        return ValQ(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = ValQ(other)
        return self + (-other)

    def __rsub__(self, other):
        return ValQ.of(other) + (-self)

    def __mul__(self, k):
        # scaling by a rational; inf * 0 is rejected
        k = Fraction(k) if not isinstance(k, Fraction) else k
        if self.den == 0:
            if k == 0:
                raise ValueError("inf * 0 is undefined")
            return self if k > 0 else -self
        return ValQ(self.as_fraction() * k)

    __rmul__ = __mul__

    def __truediv__(self, n):
        if self.den == 0:
            return self if n > 0 else -self
        return ValQ(self.as_fraction() / n)

    def __str__(self):
        if self.den == 0:
            return "inf" if self.num > 0 else "-inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"ValQ({self})"


INF = ValQ(1, 0)
NEG_INF = ValQ(-1, 0)


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


def holds(a: ValQ, b: ValQ, op: str) -> bool:
    """Whether a op b, for op one of the six comparisons."""
    try:
        compare = _COMPARE[op]
    except KeyError:
        raise ValueError(f"unknown value comparison {op!r}") from None
    return compare(a, b)


def vmin(values):
    """Minimum of an iterable of ValQ (empty minimum is +inf)."""
    best = INF
    for v in values:
        if v < best:
            best = v
    return best
