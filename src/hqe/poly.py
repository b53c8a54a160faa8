"""Univariate polynomials over the valued field: recentering, division, gcd,
Newton-polygon bookkeeping, and root search over the residue field."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .errors import PrecisionExhausted, PreconditionViolated
from .field import (
    _NUM,
    _SMALL,
    _ZERO,
    FINGERPRINT_PRIME,
    LAURENT,
    MAX_DIGIT_SPAN,
    PADIC,
    Field,
    FieldElem,
    _lconv,
    _lelem,
    _pelem,
    _span_error,
    fingerprint,
)
from .valq import INF, NEG_INF

# residue_roots scans all of F_p, which is hopeless for a huge prime, so root
# search over the residue field refuses a p above this bound
RESIDUE_SCAN_MAX_P = 1 << 16

# root search costs at least quadratic time in the degree, so no polynomial
# of higher degree is built
MAX_DEGREE = 128


def check_degree(n: int):
    """PreconditionViolated when degree n exceeds MAX_DEGREE."""
    if n > MAX_DEGREE:
        raise PreconditionViolated(f"polynomial degree {n} exceeds MAX_DEGREE = {MAX_DEGREE}")


class Poly:
    """Coefficient-list polynomial; leading coefficient is not an exact zero
    (the zero polynomial has an empty coefficient tuple).

    Immutable: the integer forms of the coefficients, which evaluation and
    ``taylor_shift`` run on, are built on first use and kept."""

    __slots__ = ("field", "coeffs", "_forms")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        check_degree(len(cs) - 1)
        self.field = field
        self.coeffs = tuple(cs)
        self._forms = None

    @staticmethod
    def from_rationals(field: Field, rationals) -> "Poly":
        return Poly(field, [field.from_rational(c) for c in rationals])

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElem:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: FieldElem) -> FieldElem:
        """f(x) by Horner's rule on integer forms; the digits and precision
        of the field's own ``acc * x + c`` steps."""
        if not self.coeffs:
            return self.field.zero()
        field = self.field
        fma = _FMA[field.backend]
        forms = self._int_forms()
        xf = _point_form(field, x)
        p = field.p
        acc = forms[-1]
        for c in forms[-2::-1]:
            acc = fma(acc, xf, c, p)
        return _from_form(field, acc)

    def _int_forms(self) -> tuple:
        forms = self._forms
        if forms is None:
            forms = self._forms = _coeff_forms(self.field, self.coeffs)
        return forms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs and self.field == other.field

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return Poly(self.field, [c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly(self.field, [])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if i == 0:
                parts.append(f"({cs})")
            elif i == 1:
                parts.append(f"({cs})*x")
            else:
                parts.append(f"({cs})*x^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def derivative(f: Poly, n: int = 1) -> Poly:
    """The n-th derivative; n = 0 returns f, n beyond the degree returns 0."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    coeffs = list(f.coeffs)
    for _ in range(n):
        coeffs = [coeffs[i] * i for i in range(1, len(coeffs))]
    return Poly(f.field, coeffs)


def taylor_shift(f: Poly, alpha: FieldElem):
    """Coefficients of f recentered at alpha: f(x) = sum a_i (x - alpha)^i.

    Repeated synthetic division on integer forms, with the digits and
    precision of the field's own ``b[j] + alpha * b[j + 1]`` steps."""
    field = f.field
    if len(f.coeffs) <= 1:
        return f.coeffs or (field.zero(),)
    fma = _FMA[field.backend]
    b = list(f._int_forms())
    a = _point_form(field, alpha)
    p = field.p
    d = len(b) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] = fma(a, b[j + 1], b[j], p)
    return tuple(_from_form(field, e) for e in b)


def recompose(field: Field, coeffs, alpha: FieldElem) -> Poly:
    """Inverse of taylor_shift: the polynomial sum a_i (x - alpha)^i, which
    is sum a_i y^i recentered at -alpha."""
    return Poly(field, taylor_shift(Poly(field, coeffs), -alpha))


# ---- the integer kernel -------------------------------------------------------
#
# Evaluation and recentering run on plain integers.  The integer form of an
# element is None for the exact zero, (None, 0, 1, A) for an order bound
# (v >= A), and (v, u, den, cap) for the number pi^v * u/den known below
# valuation cap (None: exact).  Over padic an exact u is an integer that p
# does not divide, over a den that p does not divide, and an inexact one an
# int mod p^(cap - v) over den 1; over laurent-q u is a list of integer
# digits over den, the first nonzero and the last nonzero.
#
# Each backend's kernel is one a * b + c, in the steps of field._mul and
# then field._add: a product is known below min(A_a + v_b, v_a + A_b), a
# sum below the smaller cap, leading digits that cancel are stripped from a
# sum, and a sum whose known digits all cancel is the order bound at its
# cap.  No fraction is reduced on the way: an exact number has many forms,
# and the one FieldElem made at the end is canonical, so every result is
# the field kernel's, digit for digit.


def _form(x: FieldElem):
    if x.kind == _ZERO:
        return None
    if x.kind == _SMALL:
        return (None, 0, 1, x.rel)
    return (x.v, x.u, x.den, None if x.rel is None else x.v + x.rel)


def _point_form(field: Field, x):
    """The form of a point, read as the field's arithmetic reads an operand."""
    if not isinstance(x, FieldElem):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot evaluate a polynomial at {type(x).__name__}")
        x = field.from_rational(x)
    elif x.field.backend != field.backend or x.field.p != field.p:
        raise ValueError("mixed-backend arithmetic")
    return _form(x)


def _coeff_forms(field: Field, coeffs) -> tuple:
    """The forms of the coefficients; laurent-q digits over one common
    denominator, so that Horner's sums need no rescaling of coefficients."""
    forms = [_form(c) for c in coeffs]
    if field.backend != LAURENT:
        return tuple(forms)
    nums = [i for i, e in enumerate(forms) if e is not None and e[0] is not None]
    den = lcm(*(forms[i][2] for i in nums))
    for i in nums:
        v, u, d, cap = forms[i]
        if d != den:
            forms[i] = (v, [c * (den // d) for c in u], den, cap)
    return tuple(forms)


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


def _punit(u: int, den: int, m: int) -> int:
    """A padic unit u/den mod m (field.FieldElem.unit_digits)."""
    return u % m if den == 1 else u * pow(den, -1, m) % m


def _pfma(a, b, c, p):
    """a * b + c on padic forms."""
    if a is None or b is None:
        return c
    va, ua, da, ca = a
    vb, ub, db, cb = b
    if va is None or vb is None:
        return _pbound_plus((ca if va is None else va) + (cb if vb is None else vb), c, p)
    v = va + vb
    if ca is None and cb is None:
        u, den, cap = ua * ub, da * db, None
    else:
        rel = cb - vb if ca is None else ca - va if cb is None else min(ca - va, cb - vb)
        m = p**rel
        u, den, cap = _punit(ua, da, m) * _punit(ub, db, m) % m, 1, v + rel
    if c is None:
        return (v, u, den, cap)
    vc, uc, dc, cc = c
    if vc is None:
        return _pbound_plus(cc, (v, u, den, cap), p)
    return _psum(v, u, den, cap, vc, uc, dc, cc, p)


def _pbound_plus(bound, c, p):
    """The order bound v >= bound plus the form c (field.FieldElem.truncate_rel)."""
    if c is None:
        return (None, 0, 1, bound)
    v, u, den, cap = c
    if v is None:
        return (None, 0, 1, min(bound, cap))
    if cap is not None and cap <= bound:
        return c
    if v >= bound:
        return (None, 0, 1, bound)
    return (v, _punit(u, den, p ** (bound - v)), 1, bound)


def _psum(va, ua, da, ca, vb, ub, db, cb, p):
    """The sum of two padic numbers, given by the parts of their forms."""
    cap = ca if cb is None or (ca is not None and ca < cb) else cb
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
        # p^s is 0 mod p^k when the second number starts at or past the cap
        den, m = 1, p ** (cap - va)
        u = (_punit(ua, da, m) + _punit(ub, db, m) * p**s) % m
        if not u:
            return (None, 0, 1, cap)
    while not u % p:
        u //= p
        va += 1
    return (va, u, den, cap)


def _lfma(a, b, c, p=None):
    """a * b + c on laurent-q forms."""
    return _ladd(_lmul(a, b), c)


def _lmul(a, b):
    if a is None or b is None:
        return None
    va, ua, da, ca = a
    vb, ub, db, cb = b
    if va is None or vb is None:
        return (None, 0, 1, (ca if va is None else va) + (cb if vb is None else vb))
    v = va + vb
    n = len(ua) + len(ub) - 1
    if ca is None and cb is None:
        cap = None
    else:
        rel = cb - vb if ca is None else ca - va if cb is None else min(ca - va, cb - vb)
        cap = v + rel
        if rel < n:
            n = rel
    if n > MAX_DIGIT_SPAN:
        raise _span_error(n)
    digits = _lconv(ua, ub, n)
    while not digits[-1]:
        digits.pop()
    return (v, digits, da * db, cap)


def _ladd(a, b):
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
    """A number plus an order bound at cap (field.FieldElem.truncate_rel)."""
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


_FMA = {LAURENT: _lfma, PADIC: _pfma}


def poly_divmod(g: Poly, f: Poly):
    """Quotient and remainder with deg r < deg f.

    Coefficient divisions go through the field, so over laurent-q the result
    is exact whenever each step divides exactly (monic or monomial leading
    coefficient in particular) and carries working precision otherwise.
    """
    if f.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    field = g.field
    rem = list(g.coeffs)
    df, dg = f.degree, g.degree
    if dg is None or dg < df:
        return Poly(field, []), g
    q = [field.zero()] * (dg - df + 1)
    lead = f.leading()
    for i in range(dg - df, -1, -1):
        c = rem[i + df] / lead
        q[i] = c
        if not c.is_zero:
            for j in range(df + 1):
                rem[i + j] = rem[i + j] - c * f.coeffs[j]
    return Poly(field, q), Poly(field, rem[:df])


def poly_pseudo_divmod(g: Poly, f: Poly):
    """Exact pseudo-division: lead(f)^k * g = q*f + r with deg r < deg f.

    No coefficient divisions are performed, so exact inputs give exact
    output.  Returns (q, r, k).
    """
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
    """The monic gcd of f and g (the zero polynomial when both are zero).

    Coprime exact inputs are usually proven coprime modulo a prime first, as
    in Brown's modular gcd (J. ACM 18, 1971): the coefficients are mapped to
    F_P by the ring homomorphism ``field.fingerprint``.  When every image is
    defined, both leading images are nonzero and the gcd of the images over
    F_P is a constant, the answer is 1.  This is sound because the resultant
    Res(f, g) is a polynomial in the coefficients, and with both degrees kept
    its image is Res(f mod P, g mod P), which is nonzero since those images
    are coprime; so Res(f, g) != 0 and f, g have no common root.

    Every other input (an undefined image, a vanishing leading image, a gcd
    of positive degree modulo P, inexact coefficients) takes the exact
    pseudo-remainder chain, the only path that returns a gcd of degree >= 1.
    The chain is exact on exact inputs and also returns 1 on coprime ones.
    """
    if _coprime_mod_prime(coeff_images(f), coeff_images(g)):
        return Poly(f.field, [f.field.one()])
    a, b = f, g
    while not b.is_zero:
        if b.degree == 0:
            # a constant divides a: the next remainder is 0 and the gcd is
            # monic(b), without the pseudo-division's exact products
            return monic(b)
        _, r, _ = poly_pseudo_divmod(a, b)
        # strip the valuation content so coefficients stay tame
        r = _strip_content(r)
        a, b = b, r
    if a.is_zero:
        return a
    return monic(a)


def coeff_images(f: Poly) -> list[int] | None:
    """The images of f's coefficients (constant term first) under
    ``field.fingerprint``, or None when one of them has no image."""
    images = [fingerprint(c) for c in f.coeffs]
    return None if None in images else images


def _coprime_mod_prime(a, b) -> bool:
    """Whether the coefficient images a and b (constant term first, None when
    undefined) are nonempty with nonzero leading entries and have a constant
    gcd over F_P, P = FINGERPRINT_PRIME."""
    if not a or not b or not a[-1] or not b[-1]:
        return False
    P = FINGERPRINT_PRIME
    while b:
        # a := a mod b; the leading entry of b is nonzero
        inv = pow(b[-1], -1, P)
        while len(a) >= len(b):
            c = a.pop() * inv % P
            shift = len(a) - len(b) + 1
            for j, bj in enumerate(b[:-1]):
                a[shift + j] = (a[shift + j] - c * bj) % P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def monic(f: Poly) -> Poly:
    lead = f.leading()
    return Poly(f.field, [c / lead for c in f.coeffs])


def _strip_content(f: Poly) -> Poly:
    """f divided by the least power of the uniformizer among its
    coefficients: the same roots, with a unit coefficient."""
    if f.is_zero:
        return f
    try:
        vals = [c.val() for c in f.coeffs if not c.is_zero]
    except PrecisionExhausted:
        # Conservative: f and its stripped form differ by a unit factor.
        # poly_gcd strips only to keep coefficients small and ends in
        # monic, so its answer does not rest on the strip; an undecided
        # leading coefficient is monic's divisor, and _div raises there.
        # _roots_in_O needs the strip, but reads the same valuations again
        # through coeff_vals, which raises on the same coefficient.
        return f
    m = min(vals, default=INF)
    if m == INF or m == 0:
        return f
    return Poly(f.field, [c.shift(-m) if not c.is_zero else c for c in f.coeffs])


def exact_divide(g: Poly, f: Poly) -> Poly:
    """The quotient g/f when f divides g; raises if the remainder is not
    (provably) zero."""
    q, r = poly_divmod(g, f)
    for c in r.coeffs:
        if c.is_zero or c.is_small:
            continue
        raise ValueError("polynomial does not divide")
    return q


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'): the same roots as f, each of multiplicity one.

    The leading coefficient is f's own.  f is returned unchanged when its
    degree is at most 1 or the gcd is a constant; ``poly_gcd`` usually proves
    the latter modulo a prime, so a squarefree f costs no remainder chain.
    """
    d = f.degree
    if d is None or d <= 1:
        return f
    g = poly_gcd(f, derivative(f))
    if g.degree == 0:
        return f
    return exact_divide(f, g)


# ---- Newton-polygon data ---------------------------------------------------


def coeff_vals(f: Poly):
    """Pairs (i, v(a_i)) over the support of f (exact-zero coefficients are
    skipped; a coefficient that is zero only to precision raises)."""
    out = []
    for i, c in enumerate(f.coeffs):
        if c.is_zero:
            continue
        out.append((i, c.val()))
    return out


def argmin_indices(pairs, r):
    """Indices i minimizing v(a_i) + i*r among the given (i, v) pairs.

    r = -inf selects the largest support index, r = +inf the smallest.
    """
    if not pairs:
        return []
    if r == INF:
        i0 = min(i for i, _ in pairs)
        return [i0]
    if r == NEG_INF:
        i0 = max(i for i, _ in pairs)
        return [i0]
    best = None
    out = []
    for i, v in pairs:
        w = v + r * i
        if best is None or w < best:
            best = w
            out = [i]
        elif w == best:
            out.append(i)
    return out


def lower_hull(pairs):
    """Vertices of the lower convex hull of {(i, v(a_i))}, by increasing i."""
    pts = sorted((i, v) for i, v in pairs if v != INF)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def slope_root_counts(pairs):
    """[(s, n)]: a polynomial with the coefficient valuations ``pairs`` (its
    coeff_vals) has exactly n roots of valuation s in the algebraic
    closure, for each finite slope s (s as a Fraction)."""
    hull = lower_hull(pairs)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y1 - y2, x2 - x1)
        out.append((s, int(x2 - x1)))
    return out


def count_roots_val_at_least(pairs, bound) -> int:
    """Number of algebraic-closure roots (with multiplicity) of valuation
    >= bound, roots at exactly 0 included, of a polynomial with the
    coefficient valuations ``pairs`` (its coeff_vals)."""
    n = 0
    for s, k in slope_root_counts(pairs):
        if s >= bound:
            n += k
    low = min((i for i, _ in pairs), default=0)
    return n + low  # x = 0 counts (valuation +inf)


# ---- roots over the residue field ------------------------------------------


def annulus_residue_poly(coeffs, pairs, r: int) -> list:
    """The residue polynomial of sum a_i x^i on the annulus v(x) = r, in the
    form residue_roots takes.

    ``pairs`` are the (i, v(a_i)) the caller counts as the support.  Entry i
    is the leading unit digit of a_i where v(a_i) + i r attains the minimum
    over the pairs, and 0 elsewhere, up to the largest such i.
    """
    vals = {i: v + i * r for i, v in pairs}
    mu = min(vals.values())
    top = max(i for i, w in vals.items() if w == mu)
    out = []
    for i in range(top + 1):
        if vals.get(i, INF) > mu:
            out.append(0)
        else:
            digits = coeffs[i].unit_digits(1)
            out.append(digits[0] if coeffs[i].field.backend == LAURENT else digits)
    return out


def residue_roots(field: Field, coeffs):
    """All roots, in the residue field, of the residue polynomial given by
    ``coeffs`` (Fractions over laurent-q, integers mod p over padic).

    Over Q this is an exhaustive rational-root search; over F_p a scan, so
    p above RESIDUE_SCAN_MAX_P raises PreconditionViolated.
    """
    if field.backend == LAURENT:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("zero residue polynomial")
        roots = set()
        while cs and cs[0] == 0:
            roots.add(Fraction(0))
            cs.pop(0)
        if len(cs) > 1:
            mult = lcm(*[c.denominator for c in cs])
            ics = [c.numerator * (mult // c.denominator) for c in cs]
            g = gcd(*ics)
            ics = [c // g for c in ics]
            for num in _divisors(abs(ics[0])):
                for den in _divisors(abs(ics[-1])):
                    if gcd(num, den) != 1:
                        continue  # the same candidate in lower terms
                    for n in (num, -num):
                        # den^d * g(n/den), by Horner on integers
                        acc, scale = ics[-1], 1
                        for c in reversed(ics[:-1]):
                            scale *= den
                            acc = acc * n + c * scale
                        if acc == 0:
                            roots.add(Fraction(n, den))
        return sorted(roots)
    p = field.p
    if p > RESIDUE_SCAN_MAX_P:
        raise PreconditionViolated(
            f"root search over F_p scans every residue; p = {p} exceeds {RESIDUE_SCAN_MAX_P}"
        )
    cs = [int(c) % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero residue polynomial")
    out = []
    for u in range(p):
        acc = 0
        for c in reversed(cs):
            acc = (acc * u + c) % p
        if acc == 0:
            out.append(u)
    return out


def _divisors(n: int):
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
