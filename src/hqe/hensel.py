"""Constructive root production: Newton lifting under the henselian bound
v(P(a)) > 2 v(P'(a)) + delta, a certified search for all K-rational roots of
a polynomial, and the passage from collisions to roots of derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .balls import Ball
from .errors import PrecisionExhausted, PreconditionViolated
from .field import FINGERPRINT_PRIME, LAURENT, Field, FieldElem, _horner, fingerprint, val_diff
from .poly import (
    Poly,
    annulus_residue_poly,
    coeff_images,
    coeff_vals,
    count_roots_val_at_least,
    derivative,
    residue_roots,
    slope_root_counts,
    squarefree_part,
    taylor_shift,
    _strip_content,
)
from .rv import rv
from .valq import INF, as_value

_MAX_NEWTON_STEPS = 64
# digits an iterate carries beyond the precision its next step is predicted
# to use
_SLACK = 8


@dataclass(frozen=True)
class LiftCertificate:
    """A root produced by Newton iteration, with the achieved separation
    from the starting point (a lower bound on v(a - b))."""

    root: FieldElem
    iterations: int
    separation: int | float  # INF when the starting point is a root


def newton_lift(P: Poly, a: FieldElem, delta=0, target=None) -> LiftCertificate:
    """Lift the approximate root a of P to a root b with v(a - b) > delta.

    Requires coefficients in O, a in O, and v(P(a)) > 2 v(P'(a)) + delta.
    The iteration x <- x - P(x)/P'(x) is verified to strictly increase
    v(P(x)) at every step and stops once v(P(x)) reaches the certification
    target (the working precision by default) or P(x) vanishes at the
    precision available.
    """
    delta = as_value(delta)
    field = P.field
    for c in P.coeffs:
        if not c.val_lb() >= 0:
            raise PreconditionViolated("polynomial must have coefficients in O")
    if not a.val_lb() >= 0:
        raise PreconditionViolated("starting point must lie in O")
    dP = derivative(P)
    fa = P(a)
    if fa.is_zero:
        return LiftCertificate(a, 0, INF)
    va = fa.val_lb()
    va_d = dP(a)
    if va_d.is_zero or va_d.is_small:
        raise PreconditionViolated("P'(a) is (indistinguishable from) zero")
    vd = va_d.val()
    if not va > vd * 2 + delta:
        raise PreconditionViolated(
            f"henselian bound fails: v(P(a)) = {va} <= 2*{vd} + {delta}"
        )
    separation = va - vd
    if target is None:
        target = field.prec
    base_target = target
    # the root is known to v(P(x)) - v(P'(x)) digits, so certifying prec
    # root digits needs v(P(x)) past prec + v(P'); best effort when the
    # input data cannot support that depth
    target = max(target, field.prec + vd)
    # every step loses about v(P') digits of absolute precision over about
    # log2(target) steps, so give that much headroom and truncate at the end
    margin = 10 * max(0, vd) + 16
    work = field.with_prec(field.prec + 2 * vd + margin)
    # iterates never need digits beyond the certification target plus the
    # per-step losses, so cap their length independently of the field
    cap = min(work.prec, (target if target != INF else field.prec) + margin)
    P = Poly(work, [c.with_field(work) for c in P.coeffs])
    dP = Poly(work, [c.with_field(work) for c in dP.coeffs])
    # precision doubling: an iterate is only a point to go on from, so it is
    # carried as the exact approximant of its known digits, padded to the
    # absolute precision the next step can use.  From v(P(x)) = w a step
    # reaches v(P) >= 2 (w - v(P')), and only if P(x), hence x, is known to
    # that many digits; _SLACK more absorb faster convergence, and a step
    # that converges past them is taken again below.  Digits are never
    # claimed past those of the starting point.
    limit = a.abs_prec

    def carry(x: FieldElem, w) -> FieldElem:
        """x padded for v(P(x)) = w (an int), or to all cap digits (None)."""
        if x.is_small:  # zero to its known digits: the point 0
            return work.zero()
        if x.is_zero:
            return x
        r = cap if w is None else min(cap, 2 * (w - vd) + _SLACK - x.v)
        if limit != INF:
            r = min(r, limit - x.v)
        return x.padded(max(1, r))

    def evaluate(y: FieldElem, w: int):
        """The iterate y carried for v(P(y)) = w, and P there; if P is zero
        to that padded precision, y is carried to all cap digits and P
        evaluated again."""
        x = carry(y, w)
        fx = P(x)
        if fx.is_small:
            wider = carry(y, None)
            if wider.cap is not None and wider.cap > x.cap:
                x, fx = wider, P(wider)
        return x, fx

    y = a.with_field(work)
    x, fx = evaluate(y, va)
    vfx = fx.val_lb()
    steps = 0
    dfx = None
    while vfx < target:
        if fx.is_small:
            # zero at the precision the data supports; nothing more can be
            # revealed by iterating
            if fx.cap >= base_target:
                break
            raise PrecisionExhausted(
                f"root certified only modulo pi^{fx.cap}, target {base_target}"
            )
        if steps >= _MAX_NEWTON_STEPS:
            raise PrecisionExhausted("iteration budget exhausted before certification")
        dfx = dP(x)
        if dfx.is_zero or dfx.is_small:
            raise PrecisionExhausted("derivative lost to precision during iteration")
        y_next = x - fx / dfx
        x_next, fx_next = evaluate(y_next, 2 * (vfx - vd))
        if not (fx_next.is_zero or fx_next.is_small) and fx_next.val() >= vd + y_next.abs_prec:
            # the step converged past the digits x carried, so v(P) may be
            # cut short there: take the step again from all digits of y
            wider = carry(y, None)
            if wider.cap is not None and wider.cap > x.cap:
                x = wider
                fx = P(x)
                vfx = fx.val_lb()
                continue
        y, x, fx = y_next, x_next, fx_next
        steps += 1
        if fx.is_zero or fx.is_small:
            vfx = fx.val_lb()
            continue
        new_vfx = fx.val()
        if not new_vfx > vfx:
            raise PrecisionExhausted(
                f"v(P(x)) failed to increase ({new_vfx} after {vfx})"
            )
        vfx = new_vfx
    if not fx.is_zero:
        # drop digits beyond the certified accuracy of the root
        last_vd = dfx.val() if dfx is not None and not (dfx.is_zero or dfx.is_small) else vd
        accuracy = vfx - last_vd
        if accuracy != INF and not x.is_zero and not x.is_small:
            x = x.truncate_abs(accuracy)
    root = x.truncate_rel(field.prec).with_field(field)
    return LiftCertificate(root, steps, separation)


# ---- all K-rational roots ---------------------------------------------------


def elem_sort_key(x: FieldElem, digits: int = 6):
    """Deterministic ordering key for field elements (roots, centers)."""
    if x.is_zero:
        return (0, 0, ())
    if x.is_small:
        return (1, x.cap, ())
    take = digits if x.cap is None else min(digits, x.cap - x.v)
    u = x.unit_digits(take)
    if x.field.backend == LAURENT:
        key = tuple(u)
    else:
        key = tuple(_digit(u, x.field.p, i) for i in range(take))
    return (2, x.v, key)


def _digit(u: int, p: int, i: int) -> int:
    return (u // p**i) % p


def field_roots(g: Poly) -> list[FieldElem]:
    """All roots of g in K, certified by Newton lifting; exact whenever an
    exact value can be reconstructed and verified.  Deterministic order."""
    if g.is_zero:
        raise PreconditionViolated("root search on the zero polynomial")
    if g.degree == 0:
        return []
    return list(_field_roots(g.field, g.coeffs))


@lru_cache(maxsize=4096)
def _field_roots(field: Field, coeffs) -> tuple[FieldElem, ...]:
    g = squarefree_part(Poly(field, coeffs))
    roots: list[FieldElem] = []
    low = next((i for i, c in enumerate(g.coeffs) if not c.is_zero), 0)
    if low > 0:
        roots.append(field.zero())
        g = Poly(field, g.coeffs[low:])
    if g.degree >= 1:
        pairs = coeff_vals(g)  # raises on a coefficient zero only to precision
        if g.degree == 1:
            # a linear factor's root is read off: no residue search, no lifting
            roots.append(-g.coeffs[0] / g.coeffs[1])
        else:
            for s in _integer_slopes(pairs):
                G = _scale_to_radius(g, pairs, s)
                pi_s = field.monomial(1, s)
                for u in _roots_in_O(G, 0, only_units=True):
                    roots.append(_snap_exact(g, pi_s * u))
    roots.sort(key=elem_sort_key)
    return tuple(roots)


def _snap_exact(g: Poly, x: FieldElem) -> FieldElem:
    """Replace a truncated root by an exact one when a short exact candidate
    verifies g(candidate) = 0 in exact arithmetic.

    Most candidates are not roots (the roots of derivatives are mostly
    irrational), and the exact g(candidate) over long digit vectors is the
    cost.  So each candidate is first screened by its image under the ring
    homomorphism ``field.fingerprint`` to Z/P: if g(candidate) were 0 its
    image would be 0, so a nonzero image proves it is not a root and the
    candidate is skipped (the fingerprint argument of Schwartz and Zippel).
    A zero or unknown image proves nothing, and the exact check runs as
    before; a candidate is accepted only by that exact check."""
    if x.is_exact or x.is_zero or x.is_small:
        return x
    field = x.field
    candidates = []
    if field.backend == LAURENT:
        candidates.append(x.as_exact())
        candidates.append(x.truncate_rel(max(1, x.cap - x.v - 4)).as_exact())
    else:
        k = max(4, x.cap - x.v - 4)
        fr = _rational_reconstruct(x.unit_digits(k), field.p**k)
        if fr is not None and fr != 0:
            candidates.append(field.from_rational(fr).shift(x.v))
    images = coeff_images(g)
    for cand in candidates:
        w = fingerprint(cand) if images is not None else None
        if w is not None and _horner(images, w, FINGERPRINT_PRIME):
            continue
        if g(cand).is_zero:
            return cand
    return x


def _rational_reconstruct(u: int, m: int):
    """A fraction n/d = u mod m with |n|, d <= sqrt(m/2), if one exists."""
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def _integer_slopes(pairs):
    """Integer candidate valuations for nonzero roots of a polynomial with
    the coefficient valuations ``pairs``."""
    return sorted({int(s) for s, _ in slope_root_counts(pairs) if s.denominator == 1})


def _scale_to_radius(g: Poly, pairs, s: int) -> Poly:
    """g(pi^s * x) normalized to O-coefficients with unit content; ``pairs``
    are g's coeff_vals."""
    field = g.field
    mu = min((v + i * s for i, v in pairs), default=INF)
    coeffs = []
    for i, c in enumerate(g.coeffs):
        coeffs.append(c.shift(i * s - mu) if not c.is_zero else c)
    return Poly(field, coeffs)


def _roots_in_O(H: Poly, depth: int, only_units: bool = False) -> list[FieldElem]:
    """All roots of H (squarefree) of valuation >= 0 (> 0 excluded when
    only_units).  Recursive digit descent with Newton lifting at simple
    spots; termination rests on the finite separation of the roots of a
    squarefree polynomial in a complete field."""
    field = H.field
    if depth > field.prec + 16:
        raise PrecisionExhausted("root descent exceeded the precision budget")
    H = _strip_content(H)
    if H.degree is None or H.degree == 0:
        return []
    out: list[FieldElem] = []
    pairs = coeff_vals(H)
    if count_roots_val_at_least(pairs, 0) == 0:
        return out
    # the content is stripped, so the unit coefficients are the minimal ones
    respoly = annulus_residue_poly(H.coeffs, pairs, 0)
    for c in residue_roots(field, respoly):
        if only_units and c == 0:
            continue
        chat = field.from_rational(c)
        Hc = Poly(field, taylor_shift(H, chat))
        if Hc.coeffs and Hc.coeffs[0].is_zero:
            out.append(chat)
            rest = Poly(field, Hc.coeffs[1:])  # simple root: deflation is exact
            out.extend(chat + w for w in _descend(rest, depth))
            continue
        inner = count_roots_val_at_least(coeff_vals(Hc), 1)
        if inner == 0:
            continue
        if inner == 1:
            va = Hc.coeffs[0].val_lb()
            vd = Hc.coeffs[1].val() if len(Hc.coeffs) > 1 and not Hc.coeffs[1].is_zero else None
            if vd is not None and va > vd * 2:
                cert = newton_lift(H, chat, 0)
                out.append(cert.root)
                continue
        out.extend(chat + w for w in _descend(Hc, depth))
    return out


def _descend(Hc: Poly, depth: int) -> list[FieldElem]:
    """Roots w of Hc with v(w) >= 1, via the substitution w = pi * w'."""
    field = Hc.field
    pi = field.uniformizer()
    K = Poly(field, [c.shift(i) if not c.is_zero else c for i, c in enumerate(Hc.coeffs)])
    return [pi * w for w in _roots_in_O(K, depth + 1)]


def resolution_horizon(field: Field) -> int:
    """Valuations at or beyond this bound are not resolved as structure.

    Half the working precision: evaluating degree-d data at points of
    moderate negative valuation costs a bounded number of digits, and the
    decomposition itself only reasons about radii far below this line.
    """
    return field.prec // 2


def same_point(a: FieldElem, b: FieldElem) -> bool:
    """Whether a and b are proven to agree to the resolution horizon."""
    h = resolution_horizon(a.field)
    return val_diff(a, b, h) == h


def is_root(g: Poly, x: FieldElem) -> bool:
    """Whether g(x) vanishes to the resolution horizon."""
    return g(x).val_lb() >= resolution_horizon(g.field)


class DerivativeRoots:
    """The K-rational roots of f = f^(0), f', ..., f^(d-1), each order's set
    found by field_roots the first time it is asked for, and only then."""

    __slots__ = ("f", "_sets")

    def __init__(self, f: Poly):
        self.f = f
        self._sets = {}  # n -> the roots of f^(n)

    def roots(self, n: int) -> list[FieldElem]:
        found = self._sets.get(n)
        if found is None:
            found = self._sets[n] = field_roots(derivative(self.f, n))
        return found

    def lowest(self, inside) -> tuple[int, FieldElem] | None:
        """(n, r): the lowest order n that has a root r with inside(r), and
        the least such root by elem_sort_key; None only after every order is
        read.  The sets of orders above n are not found."""
        for n in range(self.f.degree):
            hits = [r for r in self.roots(n) if inside(r)]
            if hits:
                return n, min(hits, key=elem_sort_key)
        return None


def derivative_roots(f: Poly) -> list[tuple[int, FieldElem]]:
    """(n, root) for every K-rational root of f = f^(0), f', ..., f^(d-1)."""
    droots = DerivativeRoots(f)
    return [(n, r) for n in range(f.degree) for r in droots.roots(n)]


# ---- collisions -------------------------------------------------------------


def collision_data(f: Poly, alpha: FieldElem, beta: FieldElem):
    """(m, mu, severity) of f at beta around alpha: mu is the minimal
    monomial valuation of f recentered at alpha, evaluated at beta, m the
    largest index attaining it, and severity = v(f(beta)) - mu."""
    a = taylor_shift(f, alpha)
    diff = beta - alpha
    vals = []
    for i, c in enumerate(a):
        term = c * diff**i if i else c
        vals.append(term.val_lb())
    mu = min(vals, default=INF)
    if mu == INF:
        raise PreconditionViolated("all recentered monomials vanish")
    m = max(i for i, v in enumerate(vals) if v == mu)
    fb = f(beta)
    severity = fb.val_lb() - mu
    return m, mu, severity


def collision_root(f: Poly, alpha: FieldElem, beta: FieldElem, delta=0):
    """From a collision of severity above 2^m (v(m!) + delta), produce n < m
    and lam with f^(n)(lam) = 0 and rv_delta(lam - alpha) = rv_delta(beta - alpha).

    Constructive path: normalize P(x) = f((beta-alpha) x + alpha) / sigma
    with sigma = a_m (beta-alpha)^m, locate the first n (scanning m-1 down
    to 0) whose gap admits Newton lifting of P^(n) from 1, and map the
    lifted root back.
    """
    delta = as_value(delta)
    field = f.field
    m, mu, severity = collision_data(f, alpha, beta)
    threshold = (field.factorial_val(m) + delta) * (2**m)
    if not severity > threshold:
        raise PreconditionViolated(
            f"collision severity {severity} does not exceed 2^{m}(v({m}!)+{delta}) = {threshold}"
        )
    if m == 0:
        raise PreconditionViolated("no collision is possible at the constant index")
    # the normalized polynomial is built by division, so give the whole
    # construction precision headroom and truncate the root at the end
    work = field.with_prec(field.prec + 32)
    f = Poly(work, [c.with_field(work) for c in f.coeffs])
    alpha = alpha.with_field(work)
    beta = beta.with_field(work)
    a = taylor_shift(f, alpha)
    diff = beta - alpha
    sigma = a[m] * diff**m
    P = Poly(work, [a[i] * diff**i / sigma for i in range(len(a))])
    one = work.one()
    vals = []
    for n in range(m + 1):
        vn = derivative(P, n)(one).val_lb()
        vals.append(vn)
    chosen = None
    for n in range(m - 1, -1, -1):
        # the gap below matches the Newton hypothesis with separation delta;
        # the severity bound guarantees some n satisfies it
        if vals[n] > vals[n + 1] * 2 + delta:
            chosen = n
            break
    if chosen is None:
        raise PreconditionViolated("no derivative gap admits lifting")
    cert = newton_lift(derivative(P, chosen), one, delta, target=field.prec)
    lam = _snap_exact(derivative(f, chosen), diff * cert.root + alpha)
    if not lam.is_exact:
        lam = lam.truncate_rel(field.prec)
    return chosen, lam.with_field(field)


def collision_classes(f: Poly, alpha: FieldElem, delta_ann: int):
    """Leading-term classes on the annulus v(x - alpha) = delta_ann that can
    carry collisions past the severity bound, each with a derivative root
    lam inside it.

    Enumerates the roots of the residue polynomial of f scaled to the
    annulus; a class qualifies when it contains a root of some derivative
    (by the collision-to-derivative-root principle this covers every class
    whose severity can exceed 2^m v(m!)), and the returned lam is obtained
    by Newton/collision lifting, or else is the least root inside of the
    lowest derivative order that has one.  The result is conservative:
    classes whose severity stays below the bound but which do contain a
    derivative root are also reported.
    """
    field = f.field
    a = taylor_shift(f, alpha)
    pairs = [(i, c.val()) for i, c in enumerate(a) if not c.is_zero]
    if not pairs:
        raise PreconditionViolated("zero polynomial")
    respoly = annulus_residue_poly(a, pairs, delta_ann)
    if sum(1 for c in respoly if c != 0) <= 1:
        return []  # a single minimal monomial: no residue root but 0
    m_ann = len(respoly) - 1
    pi_d = field.monomial(1, delta_ann)
    droots = DerivativeRoots(f)
    out = []
    for c in residue_roots(field, respoly):
        if c == 0:
            continue
        beta = alpha + pi_d * field.from_rational(c)
        _, _, severity = collision_data(f, alpha, beta)
        base = (field.factorial_val(m_ann)) * (2**m_ann)
        lam = None
        if severity > base:
            try:
                _, lam = collision_root(f, alpha, beta, 0)
            except (PreconditionViolated, PrecisionExhausted):
                # Conservative: by the collision-to-derivative-root lemma the
                # class still holds a root of a derivative of f, so the
                # fallback below finds one and the class is still reported;
                # only the choice of lam inside it can change
                lam = None
        if lam is None:
            hit = droots.lowest(Ball.more_than(beta, delta_ann).contains)
            if hit is None:
                continue
            lam = hit[1]
        out.append((rv(lam - alpha, 0), lam))
    out.sort(key=lambda pair: elem_sort_key(pair[1]))
    return out
