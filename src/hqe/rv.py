"""Leading-term structures of order delta: the quotient K^x / (1 + m_delta)
together with the distinguished element rv(0) = inf.

A class of order delta is stored as the pair (delta, representative): the
representative of rv_delta(x) is x truncated to its first delta + 1 unit
digits and made exact, a canonical field element with at most delta + 1
unit digits (the exact zero for inf).  Two field elements map to the same
class exactly when v(x - y) > v(y) + delta, that is when their truncations
agree, so equality of classes is equality of the stored elements.  Besides
the group multiplication the structure carries the partial ternary addition
``oplus``; sums are analyzed through the representatives.
"""

from __future__ import annotations

from .errors import (
    DivisionByZero,
    FormulaSyntaxError,
    NegativeValue,
    OrderMismatch,
    OrderViolation,
    PrecisionExhausted,
)
from .field import LAURENT, Field, FieldElem, bounded_order, decimal
from .valq import INF, as_order


class RVElem:
    """A leading term of order delta, or the absorbing element inf."""

    __slots__ = ("order", "_rep")

    def __init__(self, order: int, rep: FieldElem):
        self.order = order
        self._rep = rep  # exact, at most order + 1 unit digits; zero for inf

    @staticmethod
    def inf(field: Field, order: int) -> "RVElem":
        return RVElem(order, field.zero())

    @property
    def field(self) -> Field:
        return self._rep.field

    @property
    def is_inf(self) -> bool:
        return self._rep.is_zero

    def val(self):
        """The valuation, well-defined on classes: an int, or INF."""
        return self._rep.val()

    def rep(self) -> FieldElem:
        """The canonical (exact) field representative of the class."""
        return self._rep

    def project(self, order) -> "RVElem":
        """The image under RV_gamma -> RV_delta for delta = order <= gamma."""
        order = as_order(order)
        if order > self.order:
            raise OrderViolation(f"cannot project order {self.order} up to {order}")
        return RVElem(order, self._rep.truncate_rel(order + 1).as_exact())

    def __mul__(self, other: "RVElem") -> "RVElem":
        _check_same(self, other)
        if self.is_inf or other.is_inf:
            return RVElem.inf(self.field, self.order)
        return rv(self._rep * other._rep, self.order)

    def inv(self) -> "RVElem":
        if self.is_inf:
            raise DivisionByZero("inf has no inverse")
        return rv(self.field.one() / self._rep, self.order)

    def __pow__(self, n: int) -> "RVElem":
        if self.is_inf:
            if n <= 0:
                raise DivisionByZero("inf has no inverse")
            return self
        return rv(self._rep**n, self.order)

    def __neg__(self) -> "RVElem":
        if self.is_inf:
            return self
        return rv(-self._rep, self.order)

    def __eq__(self, other):
        return isinstance(other, RVElem) and self.order == other.order and self._rep == other._rep

    def __hash__(self):
        return hash((self.order, self._rep))

    def __str__(self):
        if self.is_inf:
            return f"rv[{self.order}]{{inf}}"
        x, k = self._rep, self.order + 1
        unit = x.unit_digits(k)
        if x.field.backend != LAURENT:
            unit = [unit // x.field.p**i % x.field.p for i in range(k)]
        return f"rv[{self.order}]{{v={x.v}; unit={','.join(map(decimal, unit))}}}"

    def __repr__(self):
        return str(self)


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
    if x.is_small:
        raise PrecisionExhausted("class of an element with unknown leading digit")
    if x.cap is not None and x.cap - x.v <= delta:
        raise PrecisionExhausted(f"need {delta + 1} unit digits, have {x.cap - x.v}")
    return RVElem(delta, x.truncate_rel(delta + 1).as_exact())


def residue_of(a: RVElem) -> FieldElem:
    """The order-delta residue of the class, as FieldElem.residue gives it;
    requires v(a) >= 0."""
    if a.is_inf:
        raise NegativeValue("inf carries no residue")
    if a.val() < 0:
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
    from .formula import parse_rv_class

    return parse_rv_class(field, text)


def parse_rv_scan(p, order=None) -> RVElem:
    """rv[d]{inf} or rv[d]{v=k; unit=c0,...,cd}, read by the formula parser
    p; from "{" when the order d is given, read already."""
    if order is None:
        p.expect("rv", "[")
        order = bounded_order(p.integer())
        p.expect("]")
    p.expect("{")
    tok = p.toks[p.i]
    if tok == "inf":
        p.i += 1
        p.expect("}")
        return RVElem.inf(p.field, order)
    if tok.startswith("inf"):  # "inf" matches, then "}" is missing
        raise FormulaSyntaxError("expected '}'", p.pos() + 3)
    p.expect("v", "=")
    value = p.integer()
    p.expect(";")
    p.expect("unit", "=")
    start = p.i
    unit = [p.rational()]
    while p.toks[p.i] == ",":
        p.i += 1
        unit.append(p.rational())
    p.expect("}")
    if len(unit) != order + 1:
        raise FormulaSyntaxError(f"expected {order + 1} unit digits, got {len(unit)}", p.pos(start))
    field = p.field
    if field.backend != LAURENT:
        if any(d.denominator != 1 for d in unit):
            raise FormulaSyntaxError("padic unit digits must be integers", p.pos(start))
        unit = sum(int(d) * field.p**i for i, d in enumerate(unit)) % field.p ** (order + 1)
    try:
        rep = field.from_unit(value, unit, None)
    except ValueError:
        raise FormulaSyntaxError("leading unit digit must be nonzero", p.pos(start)) from None
    return RVElem(order, rep)
