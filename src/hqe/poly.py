"""Univariate polynomials over the valued field: recentering, division, gcd,
Newton-polygon bookkeeping, and root search over the residue field."""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import PrecisionExhausted, PreconditionViolated
from .field import (
    _FMA,
    FINGERPRINT_PRIME,
    LAURENT,
    Field,
    FieldElem,
    _from_form,
    _horner,
    _is_prime,
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
        """f(x) by Horner's rule on integer forms, each step the field
        kernel's ``acc * x + c``."""
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

    Repeated synthetic division on integer forms, each step the field
    kernel's ``alpha * b[j + 1] + b[j]``."""
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


# ---- integer forms of points and coefficients (field._FMA runs on them) ---


def _point_form(field: Field, x):
    """The form of a point, read as the field's arithmetic reads an operand."""
    if not isinstance(x, FieldElem):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot evaluate a polynomial at {type(x).__name__}")
        x = field.from_rational(x)
    elif x.field.backend != field.backend or x.field.p != field.p:
        raise ValueError("mixed-backend arithmetic")
    return (x.v, x.u, x.den, x.cap)


def _coeff_forms(field: Field, coeffs) -> tuple:
    """The forms of the coefficients; laurent-q digits over one common
    denominator, so that Horner's sums need no rescaling of coefficients."""
    forms = [(c.v, c.u, c.den, c.cap) for c in coeffs]
    if field.backend != LAURENT:
        return tuple(forms)
    nums = [i for i, e in enumerate(forms) if e[0] is not None]
    den = lcm(*(forms[i][2] for i in nums))
    for i in nums:
        v, u, d, cap = forms[i]
        if d != den:
            forms[i] = (v, [c * (den // d) for c in u], den, cap)
    return tuple(forms)


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


def _coprime_mod_prime(a, b, P: int = FINGERPRINT_PRIME) -> bool:
    """Whether the coefficient images a and b (constant term first, None when
    undefined) are nonempty with nonzero leading entries and have a constant
    gcd over F_P, P a prime (FINGERPRINT_PRIME unless given)."""
    if not a or not b or not a[-1] or not b[-1]:
        return False
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

    Over F_p this is a scan, so p above RESIDUE_SCAN_MAX_P raises
    PreconditionViolated.  Over Q it is l-adic expansion (Loos, "Computing
    rational zeros of integral polynomials by p-adic expansion", SIAM J.
    Comput. 12, 1983), which factors no integer.  A rational root r of the
    squarefree part g has a denominator dividing g's leading coefficient a,
    so a*r is an integer at most |a|*B in absolute value, B Cauchy's bound.
    The roots of g modulo the least prime l at which a is a unit and g stays
    squarefree are simple; each is Newton-lifted to l^k > 2|a|B, where the
    centred residue of a times the lift is a*r, and checked exactly.
    """
    if field.backend == LAURENT:
        cs = [Fraction(c) for c in coeffs]
    elif field.p > RESIDUE_SCAN_MAX_P:
        raise PreconditionViolated(
            f"root search over F_p scans every residue; p = {field.p} exceeds {RESIDUE_SCAN_MAX_P}"
        )
    else:
        cs = [int(c) % field.p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero residue polynomial")
    if field.backend != LAURENT:
        return _roots_mod(cs, field.p)
    roots = [Fraction(0)] if cs[0] == 0 else []
    while cs[0] == 0:
        cs.pop(0)
    return sorted(roots + _rational_roots(cs)) if len(cs) > 1 else roots


def _roots_mod(cs, p: int) -> list[int]:
    """The roots in 0..p-1 of sum cs[i] x^i modulo p, by a scan."""
    return [u for u in range(p) if not _horner(cs, u, p)]


def _rational_roots(cs) -> list[Fraction]:
    """The rational roots of sum cs[i] x^i (Fractions, degree >= 1,
    cs[0] != 0) by l-adic lifting, as residue_roots describes."""
    den, num = lcm(*[c.denominator for c in cs]), gcd(*[c.numerator for c in cs])
    g = [c.numerator * (den // c.denominator) // num for c in cs]

    def squarefree_mod(q):
        return _coprime_mod_prime([c % q for c in g], [c % q for c in _deriv(g)], q)

    if not squarefree_mod(FINGERPRINT_PRIME):
        a, b = g, _deriv(g)  # Euclid over Z: g / gcd(g, g') is squarefree
        while b:
            a, b = b, _zdivmod(a, b)[1]
        g = _zdivmod(g, a)[0]
    if len(g) == 2:
        return [Fraction(-g[0], g[1])]
    a, dg = g[-1], _deriv(g)
    # squarefree_mod(q) fails when q divides a, whose image leads g mod q
    ell = next(q for q in count(2) if _is_prime(q) and squarefree_mod(q))
    m, lifts = ell, _roots_mod(g, ell)
    while m <= 2 * (abs(a) + max(abs(c) for c in g[:-1])):
        m *= m
        lifts = [(r - _horner(g, r, m) * pow(_horner(dg, r, m), -1, m)) % m for r in lifts]
    # a^deg(g) * g(y / a), whose integer roots are a times the roots of g
    ga = [c * a ** (len(g) - 1 - i) for i, c in enumerate(g)]
    cands = [n - m if 2 * n > m else n for n in (a * r % m for r in lifts)]
    return [Fraction(n, a) for n in cands if not _horner(ga, n)]


def _deriv(cs) -> list:
    return [i * c for i, c in enumerate(cs)][1:]


def _zdivmod(a, b):
    """(q, r) for integer coefficient lists with k * a = q * b + c * r for
    integers k and c (k = 1 when b divides a over Z), r primitive."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if a[-1] % b[-1]:
            a, q = [c * b[-1] for c in a], [c * b[-1] for c in q]
        q[len(a) - len(b)] = c = a[-1] // b[-1]
        for j, bj in enumerate(b):
            a[len(a) - len(b) + j] -= c * bj
        while a and not a[-1]:
            a.pop()
    k = gcd(*a)
    return q, [c // k for c in a]
