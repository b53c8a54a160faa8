"""Frozen copy of ``hqe.rv`` as it was while a leading term stored its unit
as a second format (a tuple of Fraction digits over laurent-q, an int mod
p^(delta+1) over padic), kept as an oracle.

The differential test in ``test_rv.py`` checks that classes stored as their
truncated canonical field element print, compare, project, multiply, sum
and parse exactly as these did; do not optimise this file.  The original
module docstring follows.

Leading-term structures of order delta: the quotient K^x / (1 + m_delta)
together with the distinguished element rv(0) = inf.

An element is canonically a pair (value, unit digits 0..delta), so equality
of classes is literal equality of the stored data, and two field elements
map to the same class exactly when v(x - y) > v(y) + delta.  Besides the
group multiplication the structure carries the partial ternary addition
``oplus``; sums are analyzed through canonical representatives, which are
exact field elements.
"""

from __future__ import annotations

from hqe.errors import (
    NegativeValue,
    OrderMismatch,
    OrderViolation,
    PrecisionExhausted,
)
from hqe.field import LAURENT, Field, FieldElem
from hqe.valq import INF, as_order
from parser_reference import _Scanner


class RVElem:
    """A leading term of order delta, or the absorbing element inf."""

    __slots__ = ("field", "order", "value", "unit")

    def __init__(self, field: Field, order: int, value, unit):
        self.field = field
        self.order = order
        self.value = value      # int, or None for inf
        self.unit = unit        # laurent: tuple of delta+1 Fractions; padic: int mod p^(delta+1)

    @staticmethod
    def inf(field: Field, order: int) -> "RVElem":
        return RVElem(field, order, None, None)

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def val(self):
        """The valuation, well-defined on classes: an int, or INF."""
        return INF if self.is_inf else self.value

    def rep(self) -> FieldElem:
        """The canonical (exact) field representative of the class."""
        f = self.field
        if self.is_inf:
            return f.zero()
        if f.backend == LAURENT:
            return f.from_unit(self.value, _trim_nonempty(self.unit), None)
        return f.from_unit(self.value, self.unit, None)

    def project(self, order) -> "RVElem":
        """The image under RV_gamma -> RV_delta for delta = order <= gamma."""
        order = as_order(order)
        if order > self.order:
            raise OrderViolation(f"cannot project order {self.order} up to {order}")
        if self.is_inf:
            return RVElem.inf(self.field, order)
        if self.field.backend == LAURENT:
            return RVElem(self.field, order, self.value, self.unit[: order + 1])
        return RVElem(self.field, order, self.value, self.unit % self.field.p ** (order + 1))

    def __mul__(self, other: "RVElem") -> "RVElem":
        _check_same(self, other)
        if self.is_inf or other.is_inf:
            return RVElem.inf(self.field, self.order)
        return rv(self.rep() * other.rep(), self.order)

    def inv(self) -> "RVElem":
        if self.is_inf:
            raise ZeroDivisionError("inf has no inverse")
        one = self.field.one()
        return rv(one / self.rep(), self.order)

    def __pow__(self, n: int) -> "RVElem":
        if self.is_inf:
            if n <= 0:
                raise ZeroDivisionError("inf has no inverse")
            return self
        return rv(self.rep() ** n, self.order)

    def __neg__(self) -> "RVElem":
        if self.is_inf:
            return self
        return rv(-self.rep(), self.order)

    def __eq__(self, other):
        return (
            isinstance(other, RVElem)
            and self.field.backend == other.field.backend
            and self.field.p == other.field.p
            and self.order == other.order
            and self.value == other.value
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field.backend, self.field.p, self.order, self.value, self.unit))

    def __str__(self):
        if self.is_inf:
            return f"rv[{self.order}]{{inf}}"
        if self.field.backend == LAURENT:
            digits = ",".join(str(c) for c in self.unit)
        else:
            digits = ",".join(str(d) for d in _p_digits(self.unit, self.field.p, self.order + 1))
        return f"rv[{self.order}]{{v={self.value}; unit={digits}}}"

    def __repr__(self):
        return str(self)


def _trim_nonempty(unit):
    n = len(unit)
    while n > 1 and unit[n - 1] == 0:
        n -= 1
    return unit[:n]


def _p_digits(u: int, p: int, k: int):
    out = []
    for _ in range(k):
        u, d = divmod(u, p)
        out.append(d)
    return out


def _check_same(a: RVElem, b: RVElem):
    if a.order != b.order:
        raise OrderMismatch(f"orders {a.order} and {b.order} differ")
    if a.field.backend != b.field.backend or a.field.p != b.field.p:
        raise OrderMismatch("elements from different fields")


def rv(x: FieldElem, delta) -> RVElem:
    """The class of x in RV_delta; rv(0) = inf.

    Needs delta + 1 known unit digits of x, else PrecisionExhausted.
    """
    delta = as_order(delta)
    f = x.field
    if x.is_zero:
        return RVElem.inf(f, delta)
    if x.is_small:
        raise PrecisionExhausted("class of an element with unknown leading digit")
    digits = x.unit_digits(delta + 1)
    return RVElem(f, delta, x.v, digits)


def residue_of(a: RVElem):
    """The order-delta residue of the class; requires v(a) >= 0."""
    if a.is_inf:
        raise NegativeValue("inf carries no residue")
    if a.value < 0:
        raise NegativeValue("residue of a class of negative valuation")
    return a.rep().residue(a.order)


class SumAnalysis:
    """Outcome of summing leading terms of one order.

    ``well_defined`` when no cancellation raises the valuation (severity 0);
    otherwise ``severity`` is the excess of the representative sum over the
    minimal summand valuation, and ``witness_value`` is the common valuation
    of all witnesses when that is determined (severity <= order), else None.
    """

    __slots__ = ("well_defined", "result", "severity", "witness_value")

    def __init__(self, well_defined, result, severity, witness_value):
        self.well_defined = well_defined
        self.result = result
        self.severity = severity
        self.witness_value = witness_value

    def __repr__(self):
        if self.well_defined:
            return f"WellDefined({self.result})"
        return f"Ambiguous(severity={self.severity}, value={self.witness_value})"


def rv_sum_analyze(xs, order=None) -> SumAnalysis:
    """Analyze x_1 + ... + x_n in RV_order through representatives.

    Entries may be RVElem (their canonical, exact representatives are used)
    or FieldElem (used as the given representatives of their classes; the
    order must then be passed explicitly unless some entry fixes it).

    Well-definedness (severity 0) and the comparison of the severity with
    the order are class-invariant; the reported severity itself is that of
    the representative family, and the witness value is reported only when
    it is determined, i.e. when the severity does not exceed the order.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty sum")
    reps = []
    for x in xs:
        if isinstance(x, RVElem):
            if order is None:
                order = x.order
            elif x.order != order:
                raise OrderMismatch(f"orders {x.order} and {order} differ")
            reps.append(x.rep())
        else:
            reps.append(x)
    if order is None:
        raise ValueError("order required when passing bare representatives")
    field = reps[0].field
    total = field.zero()
    for r in reps:
        total = total + r
    low = min((r.val() for r in reps), default=INF)
    tv = total.val()  # may raise PrecisionExhausted for truncated representatives
    # all summands zero: the sum is zero too, and inf - inf is no severity
    severity = tv - low if low != INF else 0
    if severity == 0:
        return SumAnalysis(True, rv(total, order), 0, tv)
    witness = tv if severity <= order else None
    return SumAnalysis(False, None, severity, witness)


def oplus_holds(a: RVElem, b: RVElem, c: RVElem) -> bool:
    """Whether c is a possible class of x + y with rv(x) = a, rv(y) = b.

    Decision rule on canonical representatives xt, yt, zt:
        v(zt - (xt + yt)) > min(v(xt), v(yt)) + delta.
    The witness set {xt*m1 + yt*m2 : v(m_i) > delta} is exactly
    {w : v(w) > min + delta} together with 0, and a change of canonical
    representative moves the difference by an element of that same set, so
    the rule does not depend on the representatives chosen.
    """
    _check_same(a, b)
    _check_same(a, c)
    if a.is_inf:
        return c == b
    if b.is_inf:
        return c == a
    if c.is_inf:
        return b == -a
    diff = c.rep() - (a.rep() + b.rep())
    bound = min(a.val(), b.val()) + a.order
    return diff.val() > bound


def parse_rv(field: Field, text: str) -> RVElem:
    """Parse the textual form rv[d]{v=k; unit=c0,...,cd} or rv[d]{inf}."""
    sc = _Scanner(text)
    a = parse_rv_scan(field, sc)
    sc.skip_ws()
    if not sc.done():
        raise ValueError(f"trailing input in rv literal: {text!r}")
    return a


def parse_rv_scan(field: Field, sc: _Scanner) -> RVElem:
    sc.expect("rv[")
    order = sc.integer()
    sc.expect("]")
    sc.expect("{")
    if sc.eat("inf"):
        sc.expect("}")
        return RVElem.inf(field, order)
    sc.expect("v=")
    value = sc.integer()
    sc.expect(";")
    sc.expect("unit=")
    digits = [sc.rational()]
    while sc.eat(","):
        digits.append(sc.rational())
    sc.expect("}")
    if len(digits) != order + 1:
        raise ValueError(f"expected {order + 1} unit digits, got {len(digits)}")
    if field.backend == LAURENT:
        if digits[0] == 0:
            raise ValueError("leading unit digit must be nonzero")
        return RVElem(field, order, value, tuple(digits))
    u = 0
    for i, d in enumerate(digits):
        if d.denominator != 1:
            raise ValueError("padic unit digits must be integers")
        u += int(d) * field.p ** i
    if u % field.p == 0:
        raise ValueError("leading unit digit must be nonzero")
    return RVElem(field, order, value, u % field.p ** (order + 1))
