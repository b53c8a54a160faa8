"""Exact arithmetic in a henselian valued field K at finite precision.

Two backends share one element type:

* ``laurent-q`` -- formal Laurent series over Q in the uniformizer t,
* ``padic`` -- p-adic numbers for a chosen prime p.

Both have value group Z.  An element is stored as ``pi^v * u`` with a unit
part ``u`` known to ``rel`` digits (``rel = None`` means the unit is known
exactly: a polynomial in t over Q, resp. a rational with no p in it).  Ring
operations compute the provable output precision; a result whose known
digits all cancel degrades to an order bound ("zero modulo pi^A"), and any
question it cannot answer raises PrecisionExhausted.

A laurent-q unit is stored as one integer digit vector over one positive
common denominator, canonical (no trailing zero digits, and
``gcd(den, *digits) == 1``), so the kernels run on integers and equal units
have equal data.  An exact padic unit is an integer numerator over a
positive integer denominator, canonical too (p divides neither, and
``gcd(u, den) == 1``); an inexact one is an int mod p^rel over den 1.
``FieldElem.unit`` reads a unit back as Fraction digits, resp. a Fraction
or an int.

``+`` and ``*`` run on one integer kernel per backend, which polynomial
evaluation and ``poly.taylor_shift`` share as ``a * b + c``.  It works on
the integer form of an element: None for the exact zero, (None, 0, 1, A)
for an order bound (v >= A), and (v, u, den, cap) for the number
pi^v * u/den known below valuation cap (None: exact).  Over padic an exact
u is an integer over a den, p dividing neither, and an inexact one an int
mod p^(cap - v) over den 1; over laurent-q u is a sequence of integer
digits over den, the first and the last nonzero.  The precision rules live
there: a product is known below min(A_a + v_b, v_a + A_b), a sum below the
smaller cap; leading digits that cancel are stripped from a sum, and a sum
whose known digits all cancel is the order bound at its cap.  No fraction
is reduced on the way: an exact number has many forms, and the one element
made from the result is canonical.

``str`` prints an element as a field term of ``hqe.formula``'s grammar,
and ``Field.parse`` reads one back: any field term with no variables,
evaluated, such as ``1 + -1*t^2 + O(t^8)`` or ``3/2 + O(7^10)``, where
``O(t^k)`` is an element known only to have valuation at least k.  The
parsers share one lexer, ``_Tokens``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul

from .errors import (
    DivisionByZero,
    FormulaSyntaxError,
    NegativeValue,
    PrecisionExhausted,
    PreconditionViolated,
)
from .valq import INF, as_order

LAURENT = "laurent-q"
PADIC = "padic"

# element kinds
_NUM = "n"      # nonzero leading digit known
_ZERO = "z"     # exact zero
_SMALL = "s"    # zero to its known precision: only v >= bound is known


# the ring homomorphism of ``fingerprint``: rationals to Z/FINGERPRINT_PRIME,
# and t to FINGERPRINT_T over laurent-q, a point far from small rationals so
# that short Laurent polynomials such as t - 2 do not map to 0
FINGERPRINT_PRIME = (1 << 61) - 1
FINGERPRINT_T = 0x2545F4914F6CDD1D % FINGERPRINT_PRIME

# a laurent-q unit is a dense digit vector, so a sparse literal such as
# t^-50000000 + t^50000000 would fill memory across its span: the kernel
# refuses to allocate a vector longer than this
MAX_DIGIT_SPAN = 1 << 11


def _span_error(n: int) -> PreconditionViolated:
    return PreconditionViolated(f"laurent-q digit span {n} exceeds MAX_DIGIT_SPAN = {MAX_DIGIT_SPAN}")


def bounded_order(d: int) -> int:
    """An order read from input, checked: a class of order d carries d + 1
    unit digits, so 0 <= d < MAX_DIGIT_SPAN."""
    if not 0 <= d < MAX_DIGIT_SPAN:
        raise PreconditionViolated(f"order {d} is outside 0 <= d < MAX_DIGIT_SPAN = {MAX_DIGIT_SPAN}")
    return d


# Miller-Rabin with the first 13 primes as bases is a proof of primality
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n < PRIME_BOUND is prime, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Configuration of a backend: kind, prime (padic only), working precision."""

    __slots__ = ("backend", "p", "prec")

    def __init__(self, backend: str, p: int | None = None, prec: int = 64):
        if backend not in (LAURENT, PADIC):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == PADIC:
            if isinstance(p, int) and p >= PRIME_BOUND:
                raise ValueError(f"padic prime must be below {PRIME_BOUND}, got {p}")
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"padic backend needs a prime, got {p!r}")
        else:
            p = None
        if prec < 8:
            raise ValueError("precision must be at least 8")
        self.backend = backend
        self.p = p
        self.prec = prec

    @staticmethod
    def laurent(prec: int = 64) -> "Field":
        return Field(LAURENT, prec=prec)

    @staticmethod
    def padic(p: int, prec: int = 64) -> "Field":
        return Field(PADIC, p, prec)

    def with_prec(self, prec: int) -> "Field":
        return Field(self.backend, self.p, prec)

    def factorial_val(self, m: int) -> int:
        """v(m!): zero over laurent-q, Legendre's formula over Q_p."""
        if self.backend == LAURENT or m <= 1:
            return 0
        total, q = 0, self.p
        while q <= m:
            total += m // q
            q *= self.p
        return total

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.backend == other.backend
            and self.p == other.p
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.backend, self.p, self.prec))

    def __repr__(self):
        if self.backend == PADIC:
            return f"Field(padic, p={self.p}, prec={self.prec})"
        return f"Field(laurent-q, prec={self.prec})"

    # ---- element constructors -------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, _ZERO, None, None, None)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def small(self, abs_bound: int) -> "FieldElem":
        """An element only known to satisfy v >= abs_bound."""
        return FieldElem(self, _SMALL, None, None, abs_bound)

    def from_rational(self, x) -> "FieldElem":
        return self.monomial(x, 0)

    def uniformizer(self) -> "FieldElem":
        if self.backend == LAURENT:
            return FieldElem(self, _NUM, 1, (1,), None, 1)
        return FieldElem(self, _NUM, 1, 1, None)

    def monomial(self, coeff, k: int) -> "FieldElem":
        """coeff * pi^k for a rational coeff."""
        num, den = _num_den(coeff)
        if not num:
            return self.zero()
        if self.backend == LAURENT:
            return FieldElem(self, _NUM, k, (num,), None, den)
        return _pelem(self, k, num, den)

    def from_terms(self, terms) -> "FieldElem":
        """Element from (exponent, rational coefficient) pairs; exact."""
        if self.backend == LAURENT:
            acc = {}
            for k, c in terms:
                acc[k] = acc.get(k, Fraction(0)) + Fraction(c)
            acc = {k: c for k, c in acc.items() if c != 0}
            if not acc:
                return self.zero()
            v, top = min(acc), max(acc)
            if top - v >= MAX_DIGIT_SPAN:
                raise _span_error(top - v + 1)
            unit = [acc.get(v + i, Fraction(0)) for i in range(top - v + 1)]
            return _lelem(self, v, *_lfrom_fractions(unit), None)
        total = Fraction(0)
        for k, c in terms:
            total += Fraction(c) * Fraction(self.p) ** k
        return self.from_rational(total)

    def from_unit(self, v: int, unit, rel: int | None) -> "FieldElem":
        """Low-level constructor from rational unit digits (laurent-q) or a
        rational or int unit (padic); canonicalizes the unit part."""
        if self.backend == LAURENT:
            unit = [Fraction(c) for c in (unit if rel is None else unit[:rel])]
            if not unit or unit[0] == 0:
                raise ValueError("laurent unit must have nonzero constant digit")
            return _lelem(self, v, *_lfrom_fractions(unit), rel)
        if rel is None:
            num, den = _num_den(unit)
            if not num % self.p or not den % self.p:
                raise ValueError("padic unit must have valuation 0")
            return FieldElem(self, _NUM, v, num, None, den)
        unit = int(unit) % self.p ** rel
        if unit % self.p == 0:
            raise ValueError("padic unit must be nonzero mod p")
        return FieldElem(self, _NUM, v, unit, rel)

    def parse(self, text: str) -> "FieldElem":
        """The value of a field term with no variables, in the term grammar
        of ``hqe.formula``: ``1 + -1*t^2 + O(t^8)``, ``3/2 + O(7^10)``."""
        from .formula import free_vars, parse_field_term
        from .semantics import eval_field_term

        term = parse_field_term(self, text)
        names = free_vars(term)
        if names:
            raise FormulaSyntaxError(f"a field literal has no variables, got {', '.join(sorted(names))}")
        return eval_field_term(term, {}, self)


def _num_den(x) -> tuple:
    """(numerator, denominator) of a rational x in lowest terms."""
    if type(x) is int:
        return x, 1
    x = Fraction(x)
    return x.numerator, x.denominator


def _lfrom_fractions(unit) -> tuple:
    """(digits, den) of a sequence of rational digits."""
    den = lcm(*(c.denominator for c in unit))
    return [c.numerator * (den // c.denominator) for c in unit], den


def _lelem(field, v, digits, den, rel) -> "FieldElem":
    """A laurent-q number from a unit's integer digits over den > 0, made
    canonical: trailing zeros trimmed, common factor of den and digits removed."""
    n = len(digits)
    while n and not digits[n - 1]:
        n -= 1
    digits = tuple(digits[:n])
    g = gcd(den, *digits)
    if g != 1:
        digits, den = tuple(c // g for c in digits), den // g
    return FieldElem(field, _NUM, v, digits, rel, den)


def _pelem(field, v, num, den) -> "FieldElem":
    """The exact padic number p^v * num/den (num, den nonzero ints), made
    canonical: factors of p moved into v, den > 0, gcd(num, den) == 1."""
    p = field.p
    if den < 0:
        num, den = -num, -den
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        while not den % p:
            den //= p
            v -= 1
    while not num % p:
        num //= p
        v += 1
    return FieldElem(field, _NUM, v, num, None, den)


class FieldElem:
    """An element of K known to finite (or exact) precision.

    Canonical form: ``pi^v * u`` with the leading digit of ``u`` nonzero,
    unless the element is an exact zero or an order bound.  ``u`` holds a
    laurent-q unit's integer digits over the denominator ``den``; over padic
    an exact unit's integer numerator over ``den`` (p divides neither), and
    an inexact unit as an int mod p^rel (``den`` is then 1).
    """

    __slots__ = ("field", "kind", "v", "u", "rel", "den")

    def __init__(self, field, kind, v, u, rel, den=1):
        self.field = field
        self.kind = kind
        self.v = v
        self.u = u
        self.rel = rel
        self.den = den

    @property
    def unit(self):
        """The unit part: a tuple of Fraction digits over laurent-q; over
        padic a Fraction when exact, an int mod p^rel otherwise."""
        if self.kind != _NUM:
            return self.u
        if self.field.backend == LAURENT:
            return tuple(Fraction(c, self.den) for c in self.u)
        return self.u if self.rel is not None else Fraction(self.u, self.den)

    # ---- state predicates -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True for the exact zero only."""
        return self.kind == _ZERO

    @property
    def is_small(self) -> bool:
        """True when only an order bound v >= abs_prec is known."""
        return self.kind == _SMALL

    @property
    def is_exact(self) -> bool:
        return self.kind == _ZERO or (self.kind == _NUM and self.rel is None)

    @property
    def abs_prec(self):
        """Digits below this valuation are known (an int, or INF)."""
        if self.kind == _ZERO:
            return INF
        if self.kind == _SMALL:
            return self.rel
        if self.rel is None:
            return INF
        return self.v + self.rel

    def val(self):
        """The valuation: an int, or INF for an exact zero."""
        if self.kind == _NUM:
            return self.v
        if self.kind == _ZERO:
            return INF
        raise PrecisionExhausted(
            f"element is zero modulo pi^{self.rel} but not known to be an exact zero"
        )

    def val_lb(self):
        """A usable lower bound on v(x): exact when known, the order bound
        for an element that is zero to its precision."""
        if self.kind == _SMALL:
            return self.rel
        return self.val()

    # ---- digit access -------------------------------------------------------

    def unit_digits(self, k: int):
        """First k digits of the unit part (tuple over Q, or an int mod p^k)."""
        if self.kind != _NUM:
            raise ValueError("no unit part")
        if self.rel is not None and self.rel < k:
            raise PrecisionExhausted(f"need {k} unit digits, have {self.rel}")
        f = self.field
        if f.backend == LAURENT:
            u = self.u[:k]
            return tuple(Fraction(c, self.den) for c in u) + (Fraction(0),) * (k - len(u))
        return _punit(self.u, self.den, f.p**k)

    def residue(self, delta) -> "Residue":
        """The class of the element in O / m_delta (digits 0..delta)."""
        d = as_order(delta)
        f = self.field
        if self.kind == _ZERO:
            return Residue(f, d, _zero_res(f, d))
        if self.kind == _SMALL:
            if self.rel > d:
                return Residue(f, d, _zero_res(f, d))
            raise PrecisionExhausted("residue not determined at available precision")
        if self.v < 0:
            raise NegativeValue("residue of an element of negative valuation")
        if self.abs_prec <= d:
            raise PrecisionExhausted(f"residue mod m_{d} needs {d + 1} known digits")
        if f.backend == LAURENT:
            if self.v > d:
                return Residue(f, d, _zero_res(f, d))
            return Residue(f, d, (Fraction(0),) * self.v + self.unit_digits(d + 1 - self.v))
        u = self.unit_digits(d + 1 - self.v) if self.v <= d else 0
        return Residue(f, d, u * f.p ** self.v % f.p ** (d + 1))

    def coeff(self, k: int) -> Fraction:
        """Laurent backend: the coefficient of t^k (must be within precision)."""
        if self.field.backend != LAURENT:
            raise ValueError("coeff() is a laurent-q operation")
        if self.kind == _ZERO:
            return Fraction(0)
        if self.abs_prec <= k:
            raise PrecisionExhausted(f"coefficient of t^{k} beyond precision")
        if self.kind == _SMALL or k < self.v:
            return Fraction(0)
        i = k - self.v
        return Fraction(self.u[i], self.den) if i < len(self.u) else Fraction(0)

    # ---- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field.backend != self.field.backend or other.field.p != self.field.p:
                raise ValueError("mixed-backend arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        if self.kind != _NUM:
            return self
        if self.field.backend == LAURENT:
            return FieldElem(self.field, _NUM, self.v, tuple(-c for c in self.u), self.rel, self.den)
        u = -self.u if self.rel is None else (-self.u) % self.field.p ** self.rel
        return FieldElem(self.field, _NUM, self.v, u, self.rel, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self.field.one() / self) ** (-n)
        if self.kind == _NUM and self.rel is None and self.field.backend == LAURENT:
            span = (len(self.u) - 1) * n + 1
            if span > MAX_DIGIT_SPAN:
                raise _span_error(span)  # before any squaring
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "FieldElem":
        """Multiply by pi^k (exact)."""
        if self.kind == _NUM:
            return FieldElem(self.field, _NUM, self.v + k, self.u, self.rel, self.den)
        if self.kind == _SMALL:
            return FieldElem(self.field, _SMALL, None, None, self.rel + k)
        return self

    def truncate_rel(self, k: int) -> "FieldElem":
        """Forget digits beyond k relative digits."""
        if self.kind != _NUM or (self.rel is not None and self.rel <= k):
            return self
        f = self.field
        if f.backend == LAURENT:
            if len(self.u) <= k:  # no digit dropped: still canonical
                return FieldElem(f, _NUM, self.v, self.u, k, self.den)
            return _lelem(f, self.v, self.u[:k], self.den, k)
        return FieldElem(f, _NUM, self.v, self.unit_digits(k), k)

    def with_field(self, field: Field) -> "FieldElem":
        """The same element viewed in a field clone of different working precision."""
        return FieldElem(field, self.kind, self.v, self.u, self.rel, self.den)

    def as_exact(self) -> "FieldElem":
        """The exact element whose unit is the known digits of this one."""
        if self.kind != _NUM or self.rel is None:
            return self
        return FieldElem(self.field, _NUM, self.v, self.u, None, self.den)

    def padded(self, k: int) -> "FieldElem":
        """as_exact() known to k relative digits: digits past k dropped,
        zero digits added up to k."""
        if self.kind != _NUM or self.rel is None or self.rel >= k:
            return self.truncate_rel(k)
        return FieldElem(self.field, _NUM, self.v, self.u, k, self.den)

    def truncate_abs(self, k: int) -> "FieldElem":
        """Forget digits at valuation k and beyond (the class mod m_{>=k})."""
        if self.kind == _ZERO:
            return self
        if self.kind == _SMALL:
            return self if self.rel <= k else self.field.small(k)
        if self.v >= k:
            return self.field.small(k)
        return self.truncate_rel(k - self.v)

    # ---- comparison and printing --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(other)
        return (
            self.field.backend == other.field.backend
            and self.field.p == other.field.p
            and self.kind == other.kind
            and self.v == other.v
            and self.u == other.u
            and self.den == other.den
            and self.rel == other.rel
        )

    def __hash__(self):
        return hash((self.field.backend, self.field.p, self.kind, self.v, self.u, self.den, self.rel))

    def __str__(self):
        return format_elem(self)

    def __repr__(self):
        return f"<{format_elem(self)}>"


class Residue:
    """A class in the ring O/m_delta, represented by its digits 0..delta."""

    __slots__ = ("field", "delta", "data")

    def __init__(self, field, delta, data):
        self.field = field
        self.delta = delta
        self.data = data

    @property
    def is_one(self) -> bool:
        return self == Residue(self.field, self.delta, _one_res(self.field, self.delta))

    def __eq__(self, other):
        return (
            isinstance(other, Residue)
            and self.field.backend == other.field.backend
            and self.field.p == other.field.p
            and self.delta == other.delta
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field.backend, self.field.p, self.delta, self.data))

    def __str__(self):
        if self.field.backend == LAURENT:
            return "(" + ", ".join(str(c) for c in self.data) + ")"
        return f"{self.data} mod {self.field.p}^{self.delta + 1}"

    def __repr__(self):
        return f"Residue[{self.delta}]({self})"


def _zero_res(field, d):
    return (Fraction(0),) * (d + 1) if field.backend == LAURENT else 0


def _one_res(field, d):
    if field.backend == LAURENT:
        return (Fraction(1),) + (Fraction(0),) * d
    return 1


# ---- arithmetic kernels -------------------------------------------------


def _add(x: FieldElem, y: FieldElem) -> FieldElem:
    f = x.field
    a, b = _form(x), _form(y)
    e = _ADD[f.backend](a, b, f.p)
    # the kernel hands an operand's own form back when the sum is that operand
    return x if e is a else y if e is b else _from_form(f, e)


def _mul(x: FieldElem, y: FieldElem) -> FieldElem:
    f = x.field
    return _from_form(f, _MUL[f.backend](_form(x), _form(y), f.p))


def _div(x: FieldElem, y: FieldElem) -> FieldElem:
    f = x.field
    if y.kind == _ZERO:
        raise DivisionByZero("division by exact zero")
    if y.kind == _SMALL:
        raise PrecisionExhausted("divisor is zero to its known precision")
    if x.kind == _ZERO:
        return f.zero()
    if x.kind == _SMALL:
        return f.small(x.rel - y.v)
    rel = _min_rel(x.rel, y.rel)
    if f.backend == PADIC:
        if rel is None:
            return _pelem(f, x.v - y.v, x.u * y.den, x.den * y.u)
        k = rel
        u = x.unit_digits(k) * pow(y.unit_digits(k), -1, f.p ** k) % f.p ** k
        return FieldElem(f, _NUM, x.v - y.v, u, k)
    # laurent: exact when the unit division terminates, else truncate;
    # x/y = (a/da) / (b/db) = (a/b) * db/da
    a, b = x.u, y.u
    if rel is None:
        # b divides a iff digits top .. len(a) - 1 of the series a/b vanish
        top = len(a) - len(b) + 1
        if top > 0:
            Q, D = _lseries_div(a, b, len(a))
        if top <= 0 or any(Q[top:]):
            rel = f.prec
            Q, D = _lseries_div(a, b, rel)
    else:
        Q, D = _lseries_div(a, b, rel)
    return _lelem(f, x.v - y.v, [c * y.den for c in Q], x.den * D, rel)


def _min_rel(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def fingerprint(x: FieldElem) -> int | None:
    """The image of an exact element in Z/FINGERPRINT_PRIME: t^v * sum(u_i t^i)
    / den at t = FINGERPRINT_T over laurent-q, p^v * u over padic.

    On the exact elements where it is defined this is a ring homomorphism,
    so a nonzero image of a polynomial expression proves the expression
    nonzero.  None when x is inexact, when a denominator is 0 mod the prime,
    and over padic when p is the prime itself.
    """
    P = FINGERPRINT_PRIME
    if x.kind == _ZERO:
        return 0
    if x.kind == _SMALL or x.rel is not None:
        return None
    f = x.field
    if f.backend == LAURENT:
        den = x.den % P
        if not den:
            return None
        acc = 0
        for c in reversed(x.u):
            acc = (acc * FINGERPRINT_T + c) % P
        return acc * pow(FINGERPRINT_T, x.v, P) * pow(den, -1, P) % P
    den = x.den % P
    if f.p == P or not den:
        return None
    return x.u * pow(f.p, x.v, P) * pow(den, -1, P) % P


def _lconv(a, b, n: int) -> list:
    """The first n digits of the product of integer digit vectors a and b."""
    if len(a) > len(b):
        a, b = b, a
    out = [0] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if ai:
            for j, bj in enumerate(b, i):
                if j >= n:
                    break
                out[j] += ai * bj
    return out


# ---- the integer-form kernel: + and x, and a * b + c --------------------


def _form(x: FieldElem):
    if x.kind == _NUM:
        return (x.v, x.u, x.den, None if x.rel is None else x.v + x.rel)
    return None if x.kind == _ZERO else (None, 0, 1, x.rel)


def _from_form(field: Field, e) -> FieldElem:
    """The canonical element of a form."""
    if e is None:
        return field.zero()
    v, u, den, cap = e
    if v is None:
        return field.small(cap)
    if field.backend == LAURENT:
        return _lelem(field, v, u, den, None if cap is None else cap - v)
    if cap is None:
        return _pelem(field, v, u, den)
    return FieldElem(field, _NUM, v, u, cap - v)


def _mul_cap(va, ca, vb, cb):
    """The cap of a product of two numbers: min(A_a + v_b, v_a + A_b)."""
    if ca is None:
        return None if cb is None else cb + va
    return ca + vb if cb is None else min(ca + vb, cb + va)


def _punit(u: int, den: int, m: int) -> int:
    """A padic unit u/den mod m."""
    return u % m if den == 1 else u * pow(den, -1, m) % m


def _pmul(a, b, p):
    """a * b on padic forms."""
    if a is None or b is None:
        return None
    va, ua, da, ca = a
    vb, ub, db, cb = b
    if va is None or vb is None:
        return (None, 0, 1, (ca if va is None else va) + (cb if vb is None else vb))
    cap = _mul_cap(va, ca, vb, cb)
    if cap is None:
        return (va + vb, ua * ub, da * db, None)
    m = p ** (cap - va - vb)
    return (va + vb, _punit(ua, da, m) * _punit(ub, db, m) % m, 1, cap)


def _padd(a, b, p):
    """a + b on padic forms."""
    if a is None:
        return b
    if b is None:
        return a
    va, ua, da, ca = a
    vb, ub, db, cb = b
    cap = ca if cb is None or (ca is not None and ca < cb) else cb
    if va is None:
        return (None, 0, 1, cap) if vb is None else _ptrunc(b, cap, p)
    if vb is None:
        return _ptrunc(a, cap, p)
    if va > vb:
        va, ua, da, vb, ub, db = vb, ub, db, va, ua, da
    s = vb - va
    if cap is None:
        if da == db:
            u, den = ua + ub * p**s, da
        else:
            u, den = ua * db + ub * da * p**s, da * db
        if not u:
            return None
    else:
        den, m = 1, p ** (cap - va)
        u = _punit(ua, da, m)
        if s < cap - va:  # else the second number is 0 mod p^(cap - va)
            u = (u + _punit(ub, db, m) * p**s) % m
        if not u:
            return (None, 0, 1, cap)
    while not u % p:
        u //= p
        va += 1
    return (va, u, den, cap)


def _ptrunc(a, cap, p):
    """A padic number plus an order bound at cap."""
    v, u, den, c = a
    if v >= cap:
        return (None, 0, 1, cap)
    if c is not None and c <= cap:
        return a
    return (v, _punit(u, den, p ** (cap - v)), 1, cap)


def _pfma(a, b, c, p):
    """a * b + c on padic forms."""
    return _padd(_pmul(a, b, p), c, p)


def _lmul(a, b, p=None):
    """a * b on laurent-q forms."""
    if a is None or b is None:
        return None
    va, ua, da, ca = a
    vb, ub, db, cb = b
    if va is None or vb is None:
        return (None, 0, 1, (ca if va is None else va) + (cb if vb is None else vb))
    cap = _mul_cap(va, ca, vb, cb)
    n = len(ua) + len(ub) - 1
    if cap is not None:
        n = min(n, cap - va - vb)
    if n > MAX_DIGIT_SPAN:
        raise _span_error(n)
    digits = _lconv(ua, ub, n)
    while not digits[-1]:
        digits.pop()
    return (va + vb, digits, da * db, cap)


def _ladd(a, b, p=None):
    """a + b on laurent-q forms."""
    if a is None:
        return b
    if b is None:
        return a
    va, ua, da, ca = a
    vb, ub, db, cb = b
    cap = ca if cb is None or (ca is not None and ca < cb) else cb
    if va is None:
        return (None, 0, 1, cap) if vb is None else _ltrunc(b, cap)
    if vb is None:
        return _ltrunc(a, cap)
    if va > vb:
        va, ua, da, vb, ub, db = vb, ub, db, va, ua, da
    s = vb - va
    length = max(len(ua), s + len(ub)) if cap is None else cap - va
    if length > MAX_DIGIT_SPAN:
        raise _span_error(length)
    # one denominator for both units: the larger when one divides the other
    if da == db or not da % db:
        den, ma, mb = da, 1, da // db
    elif not db % da:
        den, ma, mb = db, db // da, 1
    else:
        den, ma, mb = da * db, db, da
    digits = list(ua[:length]) if ma == 1 else [c * ma for c in ua[:length]]
    digits += repeat(0, length - len(digits))
    for j, c in enumerate(ub[: max(0, length - s)], s):
        digits[j] += c * mb
    lead = 0
    while not digits[lead]:
        lead += 1
        if lead == length:
            return None if cap is None else (None, 0, 1, cap)
    while not digits[-1]:
        digits.pop()
    return (va + lead, digits[lead:] if lead else digits, den, cap)


def _ltrunc(a, cap):
    """A laurent-q number plus an order bound at cap."""
    v, u, den, c = a
    if v >= cap:
        return (None, 0, 1, cap)
    if c is not None and c <= cap:
        return a
    k = cap - v
    if len(u) > k:
        u = list(u[:k])
        while not u[-1]:
            u.pop()
    return (v, u, den, cap)


def _lfma(a, b, c, p=None):
    """a * b + c on laurent-q forms."""
    return _ladd(_lmul(a, b), c)


_ADD = {LAURENT: _ladd, PADIC: _padd}
_MUL = {LAURENT: _lmul, PADIC: _pmul}
_FMA = {LAURENT: _lfma, PADIC: _pfma}


def _lseries_div(a, b, n: int) -> tuple:
    """(Q, D) with a/b = Q / D modulo t^n, for integer digit vectors a, b
    (b[0] != 0) and an integer D > 0.  D grows only when a digit's exact
    division by b[0] needs it, so it stays near the true common denominator."""
    b0 = b[0]
    rb = b[:0:-1]  # b[len(b) - 1], ..., b[1]
    Q, D = [], 1
    for k in range(n):
        m = min(k, len(b) - 1)
        s = sum(map(mul, Q[k - m : k], rb[len(rb) - m :])) if m else 0
        num = (a[k] * D if k < len(a) else 0) - s  # b0 * digit k == num / D
        scale = abs(b0) // gcd(num, b0)
        if scale != 1:
            Q = [c * scale for c in Q]
            D *= scale
            num *= scale
        Q.append(num // b0)
    return Q, D


# ---- literals: parsing and canonical printing -----------------------------


def decimal(c) -> str:
    """str(c) of an int or a Fraction; PreconditionViolated for one with more
    digits than the interpreter converts."""
    try:
        return str(c)
    except ValueError:
        bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        raise PreconditionViolated(f"a number of {bits} bits is too long to print") from None


def format_elem(x: FieldElem) -> str:
    f = x.field
    if x.kind == _ZERO:
        return "0"
    if f.backend == LAURENT:
        if x.kind == _SMALL:
            return f"O(t^{x.rel})"
        parts = []
        for i, c in enumerate(x.u):
            if not c:
                continue
            k = x.v + i
            c = Fraction(c, x.den)
            c = decimal(c)
            parts.append(c if k == 0 else f"{c}*t^{k}")
        if not parts:
            parts.append("0")
        s = " + ".join(parts)
        if x.rel is not None:
            s += f" + O(t^{x.v + x.rel})"
        return s
    if x.kind == _SMALL:
        return f"O({f.p}^{x.rel})"
    # p divides neither u nor den, so p^v * u/den is in lowest terms
    num, den = x.u, x.den
    if x.v >= 0:
        num *= f.p ** x.v
    else:
        den *= f.p ** -x.v
    s = decimal(Fraction(num, den))
    return s if x.rel is None else f"{s} + O({f.p}^{x.v + x.rel})"


# one lexer for all input text: a run of decimal digits, any other run of
# word characters, or one other character; whitespace separates tokens
_TOKEN = re.compile(r"(\d+)|(\w+)|(\S)")
_DIGITS, _WORD = 1, 2


class _Tokens:
    """A cursor over the tokens of one input text, lexed in one pass.

    ``pos`` is where the current token starts (``len(text)`` past the last
    one).  ``at``, ``eat`` and ``expect`` match a string from there, so a
    string that spans tokens (``rv[``, ``->``) needs them adjacent.  One
    that ends inside a word (``t`` of ``O(tx``, ``inf`` of ``{infx``) leaves
    the cursor there, where no token starts, and the string the grammar
    expects next fails to match, as it did on the characters.  A sign
    belongs to a number only right before its digits.
    """

    __slots__ = ("text", "pos", "_spans", "_next")

    def __init__(self, text: str):
        self.text = text
        self._spans = spans = {}  # token start -> (end, kind)
        self._next = nxt = {}  # token end -> start of the next token
        end = 0
        for m in _TOKEN.finditer(text):
            start = nxt[end] = m.start()
            end = m.end()
            spans[start] = (end, m.lastindex)
        nxt[end] = len(text)
        self.pos = nxt[0]

    def at(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def eat(self, s: str) -> bool:
        if not self.text.startswith(s, self.pos):
            return False
        end = self.pos + len(s)
        self.pos = self._next.get(end, end)
        return True

    def expect(self, s: str):
        if not self.eat(s):
            raise FormulaSyntaxError(f"expected {s!r}", self.pos)

    def peek(self) -> str:
        """The run of word characters or digits at the cursor, else ""."""
        end, kind = self._spans.get(self.pos, (self.pos, 0))
        return self.text[self.pos : end] if kind in (_DIGITS, _WORD) else ""

    def word(self) -> str:
        """An identifier: a run of word characters (digits included)."""
        start = end = self.pos
        while self.pos == end:
            tok_end, kind = self._spans.get(self.pos, (self.pos, 0))
            if kind not in (_DIGITS, _WORD):
                break
            end = tok_end
            self.pos = self._next[end]
        if end == start:
            raise FormulaSyntaxError("expected identifier", start)
        return self.text[start:end]

    def _number_end(self):
        """Where the integer at the cursor ends, None if there is none."""
        q = self.pos + self.text.startswith(("+", "-"), self.pos)
        end, kind = self._spans.get(q, (q, 0))
        return end if kind == _DIGITS else None

    def number_next(self) -> bool:
        """Whether a number literal starts here: digits, or "-" right before them."""
        return not self.at("+") and self._number_end() is not None

    def integer(self) -> int:
        start, end = self.pos, self._number_end()
        if end is None:
            raise FormulaSyntaxError("expected integer", start)
        self.pos = self._next[end]
        try:
            return int(self.text[start:end])
        except ValueError:  # more digits than the interpreter converts
            raise PreconditionViolated(f"integer literal of {end - start} characters is too long") from None

    def order(self) -> int:
        return bounded_order(self.integer())

    def rational(self) -> Fraction:
        num = self.integer()
        save = self.pos
        if self.eat("/"):
            try:
                den = self.integer()
            except FormulaSyntaxError:
                self.pos = save
                return Fraction(num)
            if den <= 0:
                raise FormulaSyntaxError("denominator must be positive", save)
            return Fraction(num, den)
        return Fraction(num)

    def done(self) -> bool:
        return self.pos >= len(self.text)
