"""Exact arithmetic in a henselian valued field K at finite precision.

Two backends share one element type:

* ``laurent-q`` -- formal Laurent series over Q in the uniformizer t,
* ``padic`` -- p-adic numbers for a chosen prime p.

Both have value group Z.  An element is stored in one encoding, the one
the integer kernel behind ``+`` and ``*`` works on: ``(v, u, den, cap)``
for the number pi^v * u/den known below valuation ``cap`` (None: exact).
An order bound ("zero modulo pi^A") is ``v = None`` with ``cap = A``, and
the exact zero is ``v = None`` with ``cap = None``, an order bound at
infinity.  Ring operations compute the provable ``cap`` of their result; a
result whose known digits all cancel degrades to an order bound, and any
question it cannot answer raises PrecisionExhausted.

A laurent-q unit ``u`` is one integer digit vector over one positive
common denominator ``den``, canonical (no trailing zero digits, and
``gcd(den, *digits) == 1``), so the kernels run on integers and equal units
have equal data.  An exact padic unit is an integer numerator over a
positive integer denominator, canonical too (p divides neither, and
``gcd(u, den) == 1``); an inexact one is an int mod p^(cap - v) over den 1.
``FieldElem.unit`` reads a unit back as Fraction digits, resp. a Fraction
or an int, and ``kind`` and ``rel`` (relative digits) are derived from the
stored fields.

The kernel functions ``_padd``/``_ladd``, ``_pmul``/``_lmul`` and
``_pneg``/``_lneg`` take and return these fields as a tuple; polynomial
evaluation and ``poly.taylor_shift`` chain them as ``a * b + c`` without
building an element per step.  The precision rules live there: a product
is known below min(A_a + v_b, v_a + A_b), a sum below the smaller cap;
leading digits that cancel are stripped from a sum, and a sum whose known
digits all cancel is the order bound at its cap.  A fraction is reduced on
the way only in a product whose denominator has grown past
``REDUCE_DEN_BITS``: an exact number has many forms, and ``_from_form``
makes the one element built from a result canonical.  ``val_diff`` decides
v(x - c) >= r on the same tuples, from the digits below r; balls, cells,
roots and decisions all ask it.

``str`` prints an element as a field term of ``hqe.formula``'s grammar,
and ``Field.parse`` reads one back: any field term with no variables,
evaluated, such as ``1 + -1*t^2 + O(t^8)`` or ``3/2 + O(7^10)``, where
``O(t^k)`` is an element known only to have valuation at least k.  Every
text the toolkit reads goes through the one lexer and parser of
``hqe.formula``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import repeat
from math import floor, gcd, lcm, log2
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


# a laurent-q product's denominator is the product of its operands', so a
# Horner chain would carry den^k after k steps: a product whose denominator
# is longer than this many bits divides out what it shares with its digits
# (doing so on every denominator costs more than it saves at bench sizes)
REDUCE_DEN_BITS = 256


# an exact padic sum builds p^s for the valuation gap s of its terms, so a
# sparse literal such as 1 + 7^30000000 would run for minutes, and a piece's
# leading term works modulo p^(gamma + 1) at an order gamma that grows as
# 2^m: neither builds a power of p longer than this many bits
MAX_EXACT_BITS = 1 << 24


def _span_error(n: int) -> PreconditionViolated:
    return PreconditionViolated(f"laurent-q digit span {n} exceeds MAX_DIGIT_SPAN = {MAX_DIGIT_SPAN}")


def bounded_order(d: int) -> int:
    """An order read from input, checked: a class of order d carries d + 1
    unit digits, so 0 <= d < MAX_DIGIT_SPAN."""
    if not 0 <= d < MAX_DIGIT_SPAN:
        raise PreconditionViolated(f"order {d} is outside 0 <= d < MAX_DIGIT_SPAN = {MAX_DIGIT_SPAN}")
    return d


def bounded_power(p: int, s: int, what: str) -> int:
    """p^s for an exact padic computation, refused when it is longer than
    MAX_EXACT_BITS."""
    if s * log2(p) > MAX_EXACT_BITS:
        raise PreconditionViolated(f"{what} needs {p}^{s}, longer than MAX_EXACT_BITS = {MAX_EXACT_BITS}")
    return p**s


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
        return FieldElem(self, None, None, 1, None)

    def one(self) -> "FieldElem":
        return self.from_rational(1)

    def small(self, abs_bound: int) -> "FieldElem":
        """An element only known to satisfy v >= abs_bound."""
        return FieldElem(self, None, None, 1, abs_bound)

    def from_rational(self, x) -> "FieldElem":
        return self.monomial(x, 0)

    def uniformizer(self) -> "FieldElem":
        return FieldElem(self, 1, (1,) if self.backend == LAURENT else 1, 1, None)

    def monomial(self, coeff, k: int) -> "FieldElem":
        """coeff * pi^k for a rational coeff."""
        num, den = _num_den(coeff)
        if not num:
            return self.zero()
        if self.backend == LAURENT:
            return FieldElem(self, k, (num,), den, None)
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
            return _lelem(self, v, *_lfrom_fractions(unit))
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
            return FieldElem(self, v, num, den, None)
        unit = int(unit) % self.p ** rel
        if unit % self.p == 0:
            raise ValueError("padic unit must be nonzero mod p")
        return FieldElem(self, v, unit, 1, v + rel)

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


def _lelem(field, v, digits, den, rel=None) -> "FieldElem":
    """A laurent-q number from a unit's integer digits over den > 0, known to
    rel relative digits (None: exact), made canonical: trailing zeros
    trimmed, common factor of den and digits removed."""
    n = len(digits)
    while n and not digits[n - 1]:
        n -= 1
    digits = tuple(digits[:n])
    g = gcd(den, *digits)
    if g != 1:
        digits, den = tuple(c // g for c in digits), den // g
    return FieldElem(field, v, digits, den, None if rel is None else v + rel)


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
    return FieldElem(field, v, num, den, None)


class FieldElem:
    """An element of K known to finite (or exact) precision, stored as the
    kernel's ``(v, u, den, cap)``.

    A number is ``pi^v * u/den`` known below valuation ``cap`` (None when
    exact), with the leading digit of ``u`` nonzero: ``u`` holds a laurent-q
    unit's integer digits over ``den``; over padic an exact unit's integer
    numerator over ``den`` (p divides neither), and an inexact unit as an
    int mod p^(cap - v) (``den`` is then 1).  ``v = None`` marks an order
    bound v >= ``cap``, or the exact zero when ``cap`` is None too.
    """

    __slots__ = ("field", "v", "u", "den", "cap")

    def __init__(self, field, v, u, den, cap):
        self.field = field
        self.v = v
        self.u = u
        self.den = den
        self.cap = cap

    @property
    def kind(self) -> str:
        """``n`` for a number, ``s`` for an order bound, ``z`` for the exact zero."""
        if self.v is not None:
            return _NUM
        return _ZERO if self.cap is None else _SMALL

    @property
    def rel(self):
        """Relative precision of a number (None: exact); the bound of an
        order bound; None for the exact zero."""
        if self.v is None or self.cap is None:
            return self.cap
        return self.cap - self.v

    @property
    def unit(self):
        """The unit part: a tuple of Fraction digits over laurent-q; over
        padic a Fraction when exact, an int mod p^rel otherwise."""
        if self.v is None:
            return None
        if self.field.backend == LAURENT:
            return tuple(Fraction(c, self.den) for c in self.u)
        return self.u if self.cap is not None else Fraction(self.u, self.den)

    # ---- state predicates -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True for the exact zero only."""
        return self.v is None and self.cap is None

    @property
    def is_small(self) -> bool:
        """True when only an order bound v >= abs_prec is known."""
        return self.v is None and self.cap is not None

    @property
    def is_exact(self) -> bool:
        return self.cap is None

    @property
    def abs_prec(self):
        """Digits below this valuation are known (an int, or INF)."""
        return INF if self.cap is None else self.cap

    def val(self):
        """The valuation: an int, or INF for an exact zero."""
        if self.v is not None:
            return self.v
        if self.cap is None:
            return INF
        raise PrecisionExhausted(
            f"element is zero modulo pi^{self.cap} but not known to be an exact zero"
        )

    def val_lb(self):
        """A usable lower bound on v(x): exact when known, the order bound
        for an element that is zero to its precision."""
        return self.abs_prec if self.v is None else self.v

    # ---- digit access -------------------------------------------------------

    def unit_digits(self, k: int):
        """First k digits of the unit part (tuple over Q, or an int mod p^k)."""
        if self.v is None:
            raise ValueError("no unit part")
        if self.cap is not None and self.cap - self.v < k:
            raise PrecisionExhausted(f"need {k} unit digits, have {self.cap - self.v}")
        f = self.field
        if f.backend == LAURENT:
            u = self.u[:k]
            return tuple(Fraction(c, self.den) for c in u) + (Fraction(0),) * (k - len(u))
        return _punit(self.u, self.den, f.p**k)

    def residue(self, delta) -> "FieldElem":
        """The class of the element in O / m_delta, as its exact
        representative with no digit past delta."""
        d = as_order(delta)
        if self.v is not None and self.v < 0:
            raise NegativeValue("residue of an element of negative valuation")
        if self.abs_prec <= d:
            raise PrecisionExhausted(f"residue mod m_{d} needs {d + 1} known digits")
        if self.v is None or self.v > d:
            return self.field.zero()
        return self.truncate_rel(d + 1 - self.v).as_exact()

    def coeff(self, k: int) -> Fraction:
        """Laurent backend: the coefficient of t^k (must be within precision)."""
        if self.field.backend != LAURENT:
            raise ValueError("coeff() is a laurent-q operation")
        if self.abs_prec <= k:
            raise PrecisionExhausted(f"coefficient of t^{k} beyond precision")
        if self.v is None or k < self.v:
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
        f = self.field
        a, b = (self.v, self.u, self.den, self.cap), (other.v, other.u, other.den, other.cap)
        e = _ADD[f.backend](a, b, f.p)
        # the kernel hands an operand's own tuple back when the sum is that operand
        return self if e is a else other if e is b else _from_form(f, e)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FieldElem(f, *_NEG[f.backend]((self.v, self.u, self.den, self.cap), f.p))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        a = (self.v, self.u, self.den, self.cap)
        e = _ADD[f.backend](a, _NEG[f.backend]((other.v, other.u, other.den, other.cap), f.p), f.p)
        return self if e is a else _from_form(f, e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        a, b = (self.v, self.u, self.den, self.cap), (other.v, other.u, other.den, other.cap)
        return _from_form(f, _MUL[f.backend](a, b, f.p))

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
        if self.v is not None and self.cap is None and self.field.backend == LAURENT:
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
        v, cap = self.v, self.cap
        return FieldElem(
            self.field, None if v is None else v + k, self.u, self.den, None if cap is None else cap + k
        )

    def truncate_rel(self, k: int) -> "FieldElem":
        """Forget digits beyond k relative digits."""
        v = self.v
        if v is None or (self.cap is not None and self.cap - v <= k):
            return self
        f = self.field
        if f.backend == LAURENT:
            if len(self.u) <= k:  # no digit dropped: still canonical
                return FieldElem(f, v, self.u, self.den, v + k)
            return _lelem(f, v, self.u[:k], self.den, k)
        return FieldElem(f, v, self.unit_digits(k), 1, v + k)

    def with_field(self, field: Field) -> "FieldElem":
        """The same element viewed in a field clone of different working precision."""
        return FieldElem(field, self.v, self.u, self.den, self.cap)

    def as_exact(self) -> "FieldElem":
        """The exact element whose unit is the known digits of this one."""
        if self.v is None or self.cap is None:
            return self
        return FieldElem(self.field, self.v, self.u, self.den, None)

    def padded(self, k: int) -> "FieldElem":
        """as_exact() known to k relative digits: digits past k dropped,
        zero digits added up to k."""
        v = self.v
        if v is None or self.cap is None or self.cap - v >= k:
            return self.truncate_rel(k)
        return FieldElem(self.field, v, self.u, self.den, v + k)

    def truncate_abs(self, k: int) -> "FieldElem":
        """Forget digits at valuation k and beyond (the class mod m_{>=k})."""
        v, cap = self.v, self.cap
        if v is None and (cap is None or cap <= k):
            return self  # the exact zero, or an order bound no finer than k
        if v is None or v >= k:
            return self.field.small(k)
        return self.truncate_rel(k - v)

    # ---- comparison and printing --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(other)
        return (
            self.field.backend == other.field.backend
            and self.field.p == other.field.p
            and self.v == other.v
            and self.u == other.u
            and self.den == other.den
            and self.cap == other.cap
        )

    def __hash__(self):
        return hash((self.field.backend, self.field.p, self.v, self.u, self.den, self.cap))

    def __str__(self):
        return format_elem(self)

    def __repr__(self):
        return f"<{format_elem(self)}>"


# ---- arithmetic kernels -------------------------------------------------


def _div(x: FieldElem, y: FieldElem) -> FieldElem:
    f = x.field
    if y.v is None:
        if y.cap is None:
            raise DivisionByZero("division by exact zero")
        raise PrecisionExhausted("divisor is zero to its known precision")
    if x.v is None:
        return x if x.cap is None else f.small(x.cap - y.v)
    v = x.v - y.v
    # relative digits of the quotient: the fewer of the operands' (None: exact)
    rel = min((e.cap - e.v for e in (x, y) if e.cap is not None), default=None)
    if f.backend == PADIC:
        if rel is None:
            return _pelem(f, v, x.u * y.den, x.den * y.u)
        m = f.p**rel
        return FieldElem(f, v, x.unit_digits(rel) * pow(y.unit_digits(rel), -1, m) % m, 1, v + rel)
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
    return _lelem(f, v, [c * y.den for c in Q], x.den * D, rel)


def _horner(cs, x, m=0):
    """sum cs[i] x^i over the integers or Q, reduced modulo m after each step
    when m is given."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m if m else acc * x + c
    return acc


def fingerprint(x: FieldElem) -> int | None:
    """The image of an exact element in Z/FINGERPRINT_PRIME: t^v * sum(u_i t^i)
    / den at t = FINGERPRINT_T over laurent-q, p^v * u over padic.

    On the exact elements where it is defined this is a ring homomorphism,
    so a nonzero image of a polynomial expression proves the expression
    nonzero.  None when x is inexact, when a denominator is 0 mod the prime,
    and over padic when p is the prime itself.
    """
    P = FINGERPRINT_PRIME
    if x.cap is not None:
        return None
    if x.v is None:
        return 0
    f = x.field
    if f.backend == LAURENT:
        den = x.den % P
        if not den:
            return None
        return _horner(x.u, FINGERPRINT_T, P) * pow(FINGERPRINT_T, x.v, P) * pow(den, -1, P) % P
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


# ---- the integer kernel: + and x, negation, a * b + c, and v(x - c) ------
#
# It runs on the stored fields of elements as tuples (v, u, den, cap); a
# number's tuple may hold an exact fraction that is not reduced.


def _from_form(field: Field, e) -> FieldElem:
    """The canonical element of a kernel result."""
    v, u, den, cap = e
    if v is None:
        return FieldElem(field, None, None, 1, cap)
    if field.backend == LAURENT:
        return _lelem(field, v, u, den, None if cap is None else cap - v)
    if cap is None:
        return _pelem(field, v, u, den)
    return FieldElem(field, v, u, 1, cap)


def val_diff(x: FieldElem, c: FieldElem, r):
    """min(v(x - c), r) for an int r or INF, read from the digits of x and c
    below r; None when those digits do not decide it, because one of x and
    c is known only to fewer.  No digit at r or beyond is computed, and no
    element is built: at equal valuations the units are compared in place."""
    vx, vc = x.v, c.v
    if vx is not None and vc is not None and vx != vc:
        # two numbers: the one of lower valuation is known there, and leads
        w = vx if vx < vc else vc
        return w if w < r else r
    # the digits below k are known in both and asked for
    k = r
    if x.cap is not None and x.cap < k:
        k = x.cap
    if c.cap is not None and c.cap < k:
        k = c.cap
    if vx is None or vc is None:
        # at most one number, and it leads when it is below k
        w = vc if vx is None else vx
        if w is not None and w < k:
            return w
        return r if k >= r else None
    # v(x) == v(c): the digits of u_x/den_x - u_c/den_c, i.e. of
    # u_x * den_c - u_c * den_x, at the relative places below k - v
    if x.field.backend == LAURENT:
        ux, uc, dx, dc = x.u, c.u, x.den, c.den
        n = max(len(ux), len(uc))
        if k - vx < n:
            n = k - vx
        for i in range(n):
            a = ux[i] * dc if i < len(ux) else 0
            if a != (uc[i] * dx if i < len(uc) else 0):
                return vx + i
        return r if k >= r else None
    p = x.field.p
    num = x.u * c.den - c.u * x.den
    if num:
        w = vx
        while w < k and not num % p:
            num //= p
            w += 1
        if w < k:
            return w
    return r if k >= r else None


def _bound_mul(va, ca, vb, cb):
    """The product of two factors one of which is zero or an order bound:
    v >= the sum of their lower bounds, exact zero when either is zero."""
    la = ca if va is None else va
    lb = cb if vb is None else vb
    return (None, None, 1, None if la is None or lb is None else la + lb)


def _mul_cap(va, ca, vb, cb):
    """The cap of a product of two numbers: min(A_a + v_b, v_a + A_b)."""
    if ca is None:
        return None if cb is None else cb + va
    return ca + vb if cb is None else min(ca + vb, cb + va)


def _punit(u: int, den: int, m: int) -> int:
    """A padic unit u/den mod m."""
    return u % m if den == 1 else u * pow(den, -1, m) % m


def _pneg(a, p):
    """-a on padic tuples."""
    v, u, den, cap = a
    if v is None:
        return a
    return (v, -u if cap is None else p ** (cap - v) - u, den, cap)


def _pmul(a, b, p):
    """a * b on padic tuples."""
    va, ua, da, ca = a
    vb, ub, db, cb = b
    if va is None or vb is None:
        return _bound_mul(va, ca, vb, cb)
    cap = _mul_cap(va, ca, vb, cb)
    if cap is None:
        return (va + vb, ua * ub, da * db, None)
    m = p ** (cap - va - vb)
    return (va + vb, _punit(ua, da, m) * _punit(ub, db, m) % m, 1, cap)


def _padd(a, b, p):
    """a + b on padic tuples."""
    va, ua, da, ca = a
    vb, ub, db, cb = b
    cap = ca if cb is None or (ca is not None and ca < cb) else cb
    if va is None:
        return (None, None, 1, cap) if vb is None else _ptrunc(b, cap, p)
    if vb is None:
        return _ptrunc(a, cap, p)
    if va > vb:
        va, ua, da, vb, ub, db = vb, ub, db, va, ua, da
    s = vb - va
    if cap is None:
        ps = bounded_power(p, s, "exact padic sum")
        if da == db:
            u, den = ua + ub * ps, da
        else:
            u, den = ua * db + ub * da * ps, da * db
    else:
        den, m = 1, p ** (cap - va)
        u = _punit(ua, da, m)
        if s < cap - va:  # else the second number is 0 mod p^(cap - va)
            u = (u + _punit(ub, db, m) * p**s) % m
    if not u:
        return (None, None, 1, cap)
    while not u % p:
        u //= p
        va += 1
    return (va, u, den, cap)


def _ptrunc(a, cap, p):
    """A padic number plus an order bound at cap (None: the exact zero)."""
    v, u, den, c = a
    if cap is None or (c is not None and c <= cap):
        return a
    if v >= cap:
        return (None, None, 1, cap)
    return (v, _punit(u, den, p ** (cap - v)), 1, cap)


def _pfma(a, b, c, p):
    """a * b + c on padic tuples."""
    return _padd(_pmul(a, b, p), c, p)


def _lneg(a, p=None):
    """-a on laurent-q tuples."""
    v, u, den, cap = a
    if v is None:
        return a
    return (v, tuple([-c for c in u]), den, cap)


def _lmul(a, b, p=None):
    """a * b on laurent-q tuples."""
    va, ua, da, ca = a
    vb, ub, db, cb = b
    if va is None or vb is None:
        return _bound_mul(va, ca, vb, cb)
    cap = _mul_cap(va, ca, vb, cb)
    n = len(ua) + len(ub) - 1
    if cap is not None:
        n = min(n, cap - va - vb)
    if n > MAX_DIGIT_SPAN:
        raise _span_error(n)
    digits = _lconv(ua, ub, n)
    while not digits[-1]:
        digits.pop()
    den = da * db
    if den.bit_length() > REDUCE_DEN_BITS:
        g = gcd(den, *digits)
        if g > 1:
            den //= g
            digits = [c // g for c in digits]
    return (va + vb, digits, den, cap)


def _ladd(a, b, p=None):
    """a + b on laurent-q tuples."""
    va, ua, da, ca = a
    vb, ub, db, cb = b
    cap = ca if cb is None or (ca is not None and ca < cb) else cb
    if va is None:
        return (None, None, 1, cap) if vb is None else _ltrunc(b, cap)
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
            return (None, None, 1, cap)
    while not digits[-1]:
        digits.pop()
    return (va + lead, digits[lead:] if lead else digits, den, cap)


def _ltrunc(a, cap):
    """A laurent-q number plus an order bound at cap (None: the exact zero)."""
    v, u, den, c = a
    if cap is None or (c is not None and c <= cap):
        return a
    if v >= cap:
        return (None, None, 1, cap)
    k = cap - v
    if len(u) > k:
        u = list(u[:k])
        while not u[-1]:
            u.pop()
    return (v, u, den, cap)


def _lfma(a, b, c, p=None):
    """a * b + c on laurent-q tuples."""
    return _ladd(_lmul(a, b), c)


_ADD = {LAURENT: _ladd, PADIC: _padd}
_MUL = {LAURENT: _lmul, PADIC: _pmul}
_NEG = {LAURENT: _lneg, PADIC: _pneg}
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
        raise _too_long(max(abs(c.numerator).bit_length(), c.denominator.bit_length())) from None


def _too_long(bits: int) -> PreconditionViolated:
    return PreconditionViolated(f"a number of {bits} bits is too long to print")


def _unprintable_bits(n: int, p: int, k: int) -> int | None:
    """The bit length of |n| * p^k, read off logarithms without building p^k,
    when a number that long has more digits than the interpreter converts;
    None when it may have fewer, or when rounding leaves the bit length
    in doubt."""
    limit = sys.get_int_max_str_digits()
    if p == 2:
        bits = abs(n).bit_length() + k
        e = bits - 1  # at most log2(|n| * 2^k)
    else:
        e = log2(abs(n)) + k * log2(p)
        bits = floor(e * (1 - 2**-40)) + 1
        if bits != floor(e * (1 + 2**-40)) + 1:
            return None
    # a number N has more than log2(N) * log10(2) decimal digits; the one
    # digit to spare absorbs the rounding of e
    return bits if limit and e > (limit + 1) * log2(10) else None


def format_elem(x: FieldElem) -> str:
    f = x.field
    pi = "t" if f.backend == LAURENT else f.p
    tail = "" if x.cap is None else f"O({pi}^{x.cap})"
    if x.v is None:
        return tail or "0"
    if f.backend == LAURENT:
        parts = []
        for i, c in enumerate(x.u):
            if not c:
                continue
            k = x.v + i
            c = decimal(Fraction(c, x.den))
            parts.append(c if k == 0 else f"{c}*t^{k}")
        s = " + ".join(parts) or "0"
    else:
        # p divides neither u nor den, so p^v * u/den is in lowest terms
        num, den = x.u, x.den
        scaled, other = (num, den) if x.v >= 0 else (den, num)
        bits = _unprintable_bits(scaled, f.p, abs(x.v))
        if bits is not None:
            raise _too_long(max(bits, abs(other).bit_length()))
        if x.v >= 0:
            num *= f.p ** x.v
        else:
            den *= f.p ** -x.v
        s = decimal(Fraction(num, den))
    return f"{s} + {tail}" if tail else s
