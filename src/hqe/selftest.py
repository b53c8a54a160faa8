"""Property suites: oracle-backed verification of the whole toolkit at desk
scale, runnable via the CLI (`hqe selftest`) or the test suite.

Every suite draws from a seeded generator, checks against an independent
oracle (direct arithmetic, digit-by-digit lifting, enumeration, sampling),
and reports one line.  Zero tolerance: any mismatch is a failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .balls import Ball, SwissCheese
from .decomp import m_bound, rv_decompose
from .errors import PreconditionViolated, PrecisionExhausted
from .field import Field, FieldElem
from .formula import parse_formula, has_field_quantifier
from .hensel import collision_data, collision_root, is_root, newton_lift
from .poly import Poly, derivative
from .qe import decide, eliminate_linear_exists, normal_form, qe
from .rv import RVElem, oplus_holds, rv, rv_sum_analyze
from .semantics import evaluate
from .valq import INF


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list = dc_field(default_factory=list)
    duration: float = 0.0
    limit: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def over_budget(self) -> bool:
        return self.duration >= self.limit

    def line(self, with_timing: bool = True) -> str:
        """One report line; ``ok`` is the correctness verdict, and the timed
        line states a blown time budget as such."""
        status = "PASS" if self.ok else "FAIL"
        s = f"{status} {self.name} ({self.cases} cases"
        if with_timing:
            relation = ">=" if self.over_budget else "<"
            s += f", {self.duration:.2f}s {relation} {self.limit:.0f}s budget"
        s += ")"
        if self.failures:
            s += f" [{len(self.failures)} failures; first: {self.failures[0]}]"
        return s


def _fields():
    return [Field.laurent(), Field.padic(7), Field.padic(2)]


def _units(field, n=13):
    if field.backend == "laurent-q":
        base = [1, -1, 2, -2, 3, -3, 5, -5, 7, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 3)]
    else:
        base = [u for u in range(1, 60) if u % field.p] + [-1, -3]
    return base[:n]


def _grid(field, ks=range(-6, 7), n_units=13):
    return [field.monomial(c, k) for c in _units(field, n_units) for k in ks]


def _rand_elem(rng, field, kmin=-5, kmax=5, extra=2):
    units = _units(field)
    x = field.monomial(rng.choice(units), rng.randrange(kmin, kmax + 1))
    k = x.val()
    for _ in range(rng.randrange(0, extra + 1)):
        k += rng.randrange(1, 4)
        x = x + field.monomial(rng.choice(units), k)
    return x


def _fail(result, msg):
    if len(result.failures) < 8:
        result.failures.append(msg)
    else:
        result.failures.append("...")
        raise _Abort()


class _Abort(Exception):
    pass


# ---- suite 1: the leading-term equivalence ------------------------------------


def suite_rv_equivalence(seed=0) -> SuiteResult:
    result = SuiteResult("rv-equivalence", 0, limit=5)
    start = time.perf_counter()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-rv-{field.p}")
            for i in range(500):
                x = _rand_elem(rng, field)
                if rng.random() < 0.5:
                    # engineered close pair
                    j = rng.randrange(1, 7)
                    m = field.monomial(rng.choice(_units(field)), j)
                    y = x * (field.one() + m)
                else:
                    y = _rand_elem(rng, field)
                delta = rng.randrange(0, 5)
                c1 = rv(x, delta) == rv(y, delta)
                d = x - y
                c2 = (INF if d.is_zero else d.val()) > y.val() + delta
                q = x / y
                if q.val() < 0:
                    c3 = False
                else:
                    c3 = q.residue(delta).is_one
                b1 = Ball.more_than(x, x.val() + delta)
                b2 = Ball.more_than(y, y.val() + delta)
                c4 = b1 == b2
                if not (c1 == c2 == c3 == c4):
                    _fail(result, f"{field.backend} x={x} y={y} d={delta}: {c1},{c2},{c3},{c4}")
                result.cases += 1
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


# ---- suite 2: partial addition ---------------------------------------------------


def suite_partial_addition(seed=0) -> SuiteResult:
    result = SuiteResult("partial-addition", 0, limit=10)
    start = time.perf_counter()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-add-{field.p}")
            one = field.one()
            units = _units(field)
            for i in range(170):
                delta = rng.randrange(0, 4)
                x = _rand_elem(rng, field)
                # stability: v(x+y) = min, any z in the class of x
                y = _rand_elem(rng, field)
                while (x + y).is_zero or (x + y).val() != min(x.val(), y.val()):
                    y = _rand_elem(rng, field)
                m = field.monomial(rng.choice(units), delta + rng.randrange(1, 4))
                z = x * (one + m)
                if rv(z + y, delta) != rv(x + y, delta):
                    _fail(result, f"stability {field.backend} x={x} y={y} d={delta}")
                result.cases += 1
                # converse: v(x+y) > v(x) admits a class member breaking the sum
                eps = rng.randrange(1, 4)
                y2 = -x + x * field.monomial(rng.choice(units), eps)
                m2 = field.monomial(rng.choice(units), delta + eps)
                z2 = x * (one + m2)
                if rv(z2 + y2, delta) == rv(x + y2, delta):
                    _fail(result, f"converse {field.backend} x={x} eps={eps} d={delta}")
                result.cases += 1
                # n-ary well-defined sums evaluate to the class of the sum
                xs = [x, y] + ([_rand_elem(rng, field)] if rng.random() < 0.5 else [])
                total = field.zero()
                for u in xs:
                    total = total + u
                low = min(u.val() for u in xs)
                analysis = rv_sum_analyze([rv(u, delta) for u in xs])
                if total.is_zero or total.val() != low:
                    if analysis.well_defined:
                        _fail(result, f"n-ary claimed well-defined {field.backend} {xs}")
                else:
                    if not analysis.well_defined or analysis.result != rv(total, delta):
                        _fail(result, f"n-ary sum {field.backend} {xs}")
                result.cases += 1
                # ambiguous sums: witnesses project consistently, values agree
                eps2 = rng.randrange(1, 4)
                gamma = delta + eps2 + rng.randrange(0, 2)
                b = field.monomial(rng.choice(units), x.val() + eps2)
                xs2 = [x, -x + b]
                analysis2 = rv_sum_analyze(xs2, order=gamma)
                if analysis2.well_defined or analysis2.severity != eps2:
                    _fail(result, f"severity {field.backend} x={x} eps={eps2}")
                if analysis2.witness_value != x.val() + eps2:
                    _fail(result, f"witness value {field.backend} x={x} eps={eps2}")
                target = rv(b, delta)
                vals = set()
                for c in units[:3]:
                    for j in (1, 2, 3):
                        w = b + x * field.monomial(c, gamma + j)
                        wcls = rv(w, gamma)
                        if wcls.project(delta) != target:
                            _fail(result, f"witness projection {field.backend} x={x}")
                        vals.add(str(wcls.val()))
                if len(vals) != 1:
                    _fail(result, f"witness values differ below severity {field.backend}")
                result.cases += 2
                # oplus against enumeration over a perturbation grid
                a1 = rv(x, delta)
                y3 = rng.choice([y, -x + b, _rand_elem(rng, field)])
                if y3.is_zero:
                    continue
                b1 = rv(y3, delta)
                zc = rng.choice([x + y3, x, b, x + y3 + x * field.monomial(1, delta + 2)])
                c1 = rv(zc, delta) if not zc.is_zero else RVElem.inf(field, delta)
                w = zc - x - y3
                grid_x = [field.zero()] + [
                    x * field.monomial(c, delta + j) for c in units[:3] for j in (1, 2, 3)
                ]
                grid_y = [field.zero()] + [
                    y3 * field.monomial(c, delta + j) for c in units[:3] for j in (1, 2, 3)
                ]
                if not w.is_zero and w.val() > x.val() + delta:
                    grid_x.append(w)
                if not w.is_zero and w.val() > y3.val() + delta:
                    grid_y.append(w)
                found = False
                for mx in grid_x:
                    for my in grid_y:
                        s = (x + mx) + (y3 + my)
                        scls = rv(s, delta) if not s.is_zero else RVElem.inf(field, delta)
                        if scls == c1:
                            found = True
                            break
                    if found:
                        break
                if found != oplus_holds(a1, b1, c1):
                    _fail(result, f"oplus grid {field.backend} x={x} y={y3} z={zc} d={delta}")
                result.cases += 1
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


# ---- suite 3: Newton lifting -------------------------------------------------------


def _binomial_sqrt_coeffs(n):
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (Fraction(1, 2) - (k - 1)) / k)
    return out


def _digit_sqrt_odd(a, p, start, k):
    x = start % p
    for j in range(1, k):
        q = p ** (j + 1)
        for d in range(p):
            cand = x + d * p**j
            if (cand * cand - a) % q == 0:
                x = cand
                break
        else:
            raise AssertionError("digit lifting failed")
    return x


def _digit_sqrt_two(a, k):
    x = 1
    for j in range(3, k + 1):
        if (x * x - a) % 2 ** (j + 1) != 0:
            x += 2 ** (j - 1)
    return x


def suite_hensel(seed=0) -> SuiteResult:
    result = SuiteResult("hensel-lifting", 0, limit=10)
    start = time.perf_counter()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-hl-{field.p}")
            one = field.one()
            units = _units(field)
            for i in range(200):
                a = field.from_rational(rng.randrange(0, 9))
                k = rng.randrange(1, 8)
                e = field.monomial(1, k)
                while True:
                    Q = Poly.from_rationals(
                        field, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 3))] + [1]
                    )
                    qa = Q(a)
                    if not qa.is_zero and qa.val() == 0:
                        break
                root = a + e
                P = Poly(field, [-root, one]) * Q
                delta = rng.randrange(0, k)
                cert = newton_lift(P, a, delta)
                diff = cert.root - a
                achieved = INF if diff.is_zero else diff.val()
                ok = (
                    cert.separation > delta
                    and achieved == cert.separation
                    and is_root(P, cert.root)
                    and _close(cert.root, root, field.prec // 2)
                )
                if not ok:
                    _fail(result, f"lift {field.backend} case {i}")
                result.cases += 1
        # fixed examples against digit-exact oracles, to precision 40
        laurent = Field.laurent()
        one = laurent.one()
        t = laurent.uniformizer()
        cert = newton_lift(Poly(laurent, [-(one + t), laurent.zero(), one]), one, 0)
        for k, c in enumerate(_binomial_sqrt_coeffs(40)):
            if cert.root.coeff(k) != c:
                _fail(result, f"sqrt(1+t) coefficient {k}")
        result.cases += 1
        z7 = Field.padic(7)
        cert2 = newton_lift(Poly(z7, [z7.from_rational(-2), z7.zero(), z7.one()]), z7.from_rational(3), 0)
        if cert2.root.unit_digits(40) != _digit_sqrt_odd(2, 7, 3, 40):
            _fail(result, "sqrt(2) in Z7 digits")
        result.cases += 1
        z2 = Field.padic(2)
        cert3 = newton_lift(Poly(z2, [z2.from_rational(-17), z2.zero(), z2.one()]), z2.one(), 0)
        if cert3.root.unit_digits(40) % 2**40 != _digit_sqrt_two(17, 40) % 2**40:
            _fail(result, "sqrt(17) in Z2 digits")
        result.cases += 1
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


def _close(x, y, bound):
    d = x - y
    if d.is_zero:
        return True
    if d.is_small:
        return d.rel >= bound
    return d.val() >= bound


# ---- suite 4: collisions ------------------------------------------------------------


def suite_collisions(seed=0) -> SuiteResult:
    result = SuiteResult("collision-roots", 0, limit=10)
    start = time.perf_counter()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-col-{field.p}")
            one = field.one()
            units = _units(field)
            count = 100 if field.backend == "laurent-q" else 50
            for i in range(count):
                deg = rng.randrange(2, 6)
                roots = [field.monomial(rng.choice(units), rng.randrange(-2, 3)) for _ in range(deg)]
                f = Poly(field, [field.from_rational(rng.choice([1, 2, -1]))])
                for r in roots:
                    f = f * Poly(field, [-r, one])
                alpha = field.zero() if rng.random() < 0.6 else field.monomial(
                    rng.choice(units), rng.randrange(-1, 2)
                )
                if any((alpha - r).is_zero for r in roots):
                    alpha = field.zero()
                    if any((alpha - r).is_zero for r in roots):
                        continue
                target = rng.choice(roots)
                delta = rng.randrange(0, 3)
                lam = None
                for j in range(delta + 1, delta + 40):
                    beta = target + field.monomial(rng.choice(units), target.val() + j)
                    try:
                        m, mu, eps = collision_data(f, alpha, beta)
                    except PreconditionViolated:
                        continue
                    threshold = (field.factorial_val(m) + delta) * (2**m)
                    if eps > threshold:
                        n, lam = collision_root(f, alpha, beta, delta)
                        if not is_root(derivative(f, n), lam):
                            _fail(result, f"f^({n}) does not vanish {field.backend} case {i}")
                        if rv(lam - alpha, delta) != rv(beta - alpha, delta):
                            _fail(result, f"class mismatch {field.backend} case {i}")
                        break
                if lam is None:
                    continue
                result.cases += 1
                # a collision-free point raises
                for _ in range(10):
                    beta2 = field.monomial(rng.choice(units), rng.randrange(-2, 3))
                    try:
                        _, _, eps2 = collision_data(f, alpha, beta2)
                    except PreconditionViolated:
                        continue
                    if eps2 == 0:
                        try:
                            collision_root(f, alpha, beta2, delta)
                            _fail(result, f"missing violation {field.backend} case {i}")
                        except PreconditionViolated:
                            pass
                        result.cases += 1
                        break
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


# ---- suite 5: decomposition -----------------------------------------------------------


def _random_poly(rng, field, max_deg=5):
    one = field.one()
    units = _units(field)
    d = rng.randrange(1, max_deg + 1)
    n_roots = rng.randrange(0, min(3, d) + 1)
    f = Poly(field, [field.from_rational(rng.choice([1, 2, -1]))])
    for _ in range(n_roots):
        r = field.monomial(rng.choice(units[:6]), rng.randrange(-2, 3))
        f = f * Poly(field, [-r, one])
    rest = d - n_roots
    if rest:
        tail = [field.from_rational(rng.randrange(-6, 7)) for _ in range(rest)] + [one]
        f = f * Poly(field, tail)
    return f


def suite_decomposition(seed=0) -> SuiteResult:
    result = SuiteResult("decomposition", 0, limit=30)
    start = time.perf_counter()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-dec-{field.p}")
            units = _units(field)
            pts = _grid(field) + [
                field.monomial(c, k) + field.monomial(cp, k + j)
                for c in units[:4]
                for cp in units[:2]
                for k, j in ((-2, 1), (0, 2), (1, 1), (2, 3))
            ]
            # 100 per backend: the padic hundred is split over the two primes
            count = 100 if field.backend == "laurent-q" else 50
            for i in range(count):
                f = _random_poly(rng, field)
                delta = rng.choice([0, 0, 1])
                dec = rv_decompose([f], [delta])
                pieces = [cell.pieces[0] for cell in dec.cells]
                for x in pts:
                    owners = [p for p in pieces if p.contains(x)]
                    if len(owners) != 1:
                        _fail(result, f"partition {field.backend} case {i} at {x}")
                        continue
                    p = owners[0]
                    w = p.eval_v(x)
                    fx = f(x)
                    fv = INF if fx.is_zero else fx.val()
                    if not (w <= fv <= w + p.severity_bound):
                        _fail(result, f"bounds {field.backend} case {i} at {x}")
                    if field.backend == "laurent-q" and w != fv:
                        _fail(result, f"laurent equality {field.backend} case {i} at {x}")
                    if p.eval_rv(x, delta) != rv(fx, delta):
                        _fail(result, f"rv linearization {field.backend} case {i} at {x}")
                result.cases += 1
                # monotonicity of the maximal minimal index
                alpha = field.zero()
                S = SwissCheese.all(field)
                m_outer = m_bound(f, alpha, S)
                for _ in range(3):
                    beta = field.monomial(rng.choice(_units(field)), rng.randrange(-2, 3))
                    sub = SwissCheese(
                        Ball.at_least(beta, beta.val() + rng.randrange(0, 3))
                    )
                    if m_bound(f, beta, sub) > m_outer:
                        _fail(result, f"monotonicity {field.backend} case {i}")
                    result.cases += 1
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


# ---- suite 6: linear elimination --------------------------------------------------------


def _brute_force_linear(constraints, field):
    candidates = []
    for z, a, b, delta in constraints:
        if z.is_zero:
            candidates.append((b / a, True))
            continue
        zs = z / a
        candidates.append(((b / a) + rv(zs, delta).rep(), zs.val() + delta))
    best = None
    for x0, r in candidates:
        if r is True or best is None or (best[1] is not True and r > best[1]):
            best = (x0, r)
            if r is True:
                break
    x0 = best[0]
    for z, a, b, delta in constraints:
        val = a * x0 - b
        if z.is_zero or val.is_zero:
            if not (z.is_zero and val.is_zero):
                return False
            continue
        if rv(z, delta) != rv(val, delta):
            return False
    return True


def suite_linear_elimination(seed=0) -> SuiteResult:
    result = SuiteResult("linear-elimination", 0, limit=10)
    start = time.perf_counter()
    cases_seen = set()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-lin-{field.p}")
            units = _units(field)
            for i in range(170):
                n = rng.randrange(1, 5)
                constraints = []
                for _ in range(n):
                    z = field.monomial(rng.choice(units), rng.randrange(-3, 4))
                    if rng.random() < 0.08:
                        z = field.zero()
                    a = field.monomial(rng.choice(units), rng.randrange(-1, 2))
                    b = field.monomial(rng.choice(units), rng.randrange(-3, 4))
                    if rng.random() < 0.25:
                        b = field.zero()
                    constraints.append((z, a, b, rng.randrange(0, 4)))
                if rng.random() < 0.3:
                    # engineered deep-order pair exercising the guarded case
                    c = field.monomial(rng.choice(units), rng.randrange(0, 3))
                    z1 = field.monomial(rng.choice(units), 0)
                    z2 = field.monomial(rng.choice(units), 5)
                    constraints = [
                        (z1, field.one(), c, 4),
                        (z2, field.one(), c + (z1 if rng.random() < 0.5 else field.zero()), 0),
                    ]
                got = eliminate_linear_exists(constraints, field, cases_seen)
                want = _brute_force_linear(constraints, field)
                if got != want:
                    _fail(result, f"{field.backend} case {i}: {got} vs {want}")
                result.cases += 1
        if cases_seen != {1, 2, 3, 4}:
            _fail(result, f"case coverage incomplete: {sorted(cases_seen)}")
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


# ---- suite 7: elimination end to end -----------------------------------------------------


def _root_search_oracle(g, side, var, field):
    """Grid scan plus Newton refinement, then direct checking of the side
    condition at every root found."""
    found = []
    dg = derivative(g)
    for x in _grid(field, ks=range(-4, 5), n_units=10):
        y = g(x)
        if y.is_zero:
            found.append(x)
            continue
        dy = dg(x)
        if dy.is_zero or dy.is_small:
            continue
        if y.val() > dy.val() * 2:
            try:
                found.append(newton_lift(g, x, 0).root)
            except (PreconditionViolated, PrecisionExhausted):
                pass
    distinct = []
    for r in found:
        if not any(_close(r, s, field.prec // 2) for s in distinct):
            distinct.append(r)
    for r in distinct:
        try:
            if side is None or evaluate(side, {var: r}, field):
                return True
        except PrecisionExhausted:
            continue
    return False


def suite_qe(seed=0) -> SuiteResult:
    result = SuiteResult("qe-end-to-end", 0, limit=30)
    start = time.perf_counter()
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-qe-{field.p}")
            units = _units(field)
            count = 50 if field.backend == "laurent-q" else 20
            for i in range(count):
                deg = rng.randrange(1, 5)
                n_roots = rng.randrange(0, deg + 1)
                one = field.one()
                g = Poly(field, [field.from_rational(rng.choice([1, 2, -1]))])
                roots = []
                for _ in range(n_roots):
                    r = field.monomial(rng.choice(units[:6]), rng.randrange(-2, 3))
                    roots.append(r)
                    g = g * Poly(field, [-r, one])
                while (g.degree or 0) < deg:
                    # a unit-square or non-square tail factor
                    c = rng.choice([2, 3, 5, 1 + (field.p or 0)])
                    if (g.degree or 0) + 2 <= deg:
                        g = g * Poly(field, [field.from_rational(-c), field.zero(), one])
                    else:
                        r = field.monomial(rng.choice(units[:6]), rng.randrange(-2, 3))
                        roots.append(r)
                        g = g * Poly(field, [-r, one])
                gtext = _poly_text(g, "y", field)
                side_text = None
                side = None
                if rng.random() < 0.5 and roots:
                    anchor = rng.choice(roots)
                    if rng.random() < 0.5:
                        side_text = f"rv[0](y - ({_elem_text(anchor)})) = rv[0]({_elem_text(field.monomial(1, anchor.val() + 2))})"
                    else:
                        side_text = f"v(rv[0](y)) <= v(rv[0]({_elem_text(anchor)}))"
                text = f"EX y:K. {gtext} = 0" + (f" & {side_text}" if side_text else "")
                phi = parse_formula(field, text)
                out = qe(phi, field)
                if has_field_quantifier(out):
                    _fail(result, f"not quantifier-free: {text}")
                got = evaluate(out, {}, field)
                if side_text:
                    side = phi.body.args[1]
                want = _root_search_oracle(g, side, "y", field)
                if got != want:
                    _fail(result, f"{field.backend} case {i}: decide {got} oracle {want} [{text}]")
                result.cases += 1
        # the discriminating pairs
        laurent = Field.laurent()
        for text, want in [("EX y:K. y^2 = t^2", True), ("EX y:K. y^2 = 2*t^2", False)]:
            if decide(parse_formula(laurent, text), laurent) != want:
                _fail(result, f"fixed {text}")
            result.cases += 1
        z2 = Field.padic(2)
        for u, want in [(17, True), (3, False)]:
            if decide(parse_formula(z2, f"EX y:K. y^2 = {u}"), z2) != want:
                _fail(result, f"fixed 2-adic square {u}")
            if want != (u % 8 == 1):
                _fail(result, f"oracle disagreement on {u}")
            result.cases += 1
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


def _elem_text(x: FieldElem) -> str:
    return f"({x})"


def _poly_text(g: Poly, var, field) -> str:
    parts = []
    for i, c in enumerate(g.coeffs):
        if c.is_zero:
            continue
        base = _elem_text(c)
        if i == 0:
            parts.append(base)
        elif i == 1:
            parts.append(f"{base}*{var}")
        else:
            parts.append(f"{base}*{var}^{i}")
    return " + ".join(parts)


# ---- suite 8: normal form -------------------------------------------------------------


def suite_normal_form(seed=0) -> SuiteResult:
    result = SuiteResult("normal-form", 0, limit=15)
    start = time.perf_counter()
    templates = [
        "x^2 = {a}",
        "rv[0](x^2 - {a}) = rv[0]({b})",
        "v(rv[0](x - {a})) <= v(rv[0]({b}))",
        "x = {a} | v(rv[0](x)) < v(rv[0]({b}))",
        "!(rv[0](x) = rv[0]({a}))",
        "rv[0](x) = rv[0]({a}) & v(rv[0](x - {a})) <= v(rv[0]({b}))",
    ]
    try:
        for field in _fields():
            rng = random.Random(f"{seed}-nf-{field.p}")
            units = _units(field)
            pts = _grid(field, ks=range(-4, 4), n_units=13)[:100]
            count = 30 if field.backend == "laurent-q" else 10
            for i in range(count):
                text = rng.choice(templates).format(
                    a=_elem_text(field.monomial(rng.choice(units[:6]), rng.randrange(-2, 3))),
                    b=_elem_text(field.monomial(rng.choice(units[:6]), rng.randrange(-2, 3))),
                )
                phi = parse_formula(field, text)
                nf = normal_form(phi, "x", field)
                if field.backend == "laurent-q" and any(g != 0 for g in nf.orders):
                    _fail(result, f"nonzero order emitted over laurent-q: {text}")
                for x0 in pts:
                    try:
                        want = evaluate(phi, {"x": x0}, field)
                    except PrecisionExhausted:
                        continue
                    if nf.member(x0) != want:
                        _fail(result, f"{field.backend} case {i} at {x0}: {text}")
                result.cases += 1
    except _Abort:
        pass
    result.duration = time.perf_counter() - start
    return result


SUITES = {
    "rv-equivalence": suite_rv_equivalence,
    "partial-addition": suite_partial_addition,
    "hensel-lifting": suite_hensel,
    "collision-roots": suite_collisions,
    "decomposition": suite_decomposition,
    "linear-elimination": suite_linear_elimination,
    "qe-end-to-end": suite_qe,
    "normal-form": suite_normal_form,
}


def run_selftest(names=None, seed=0):
    results = []
    for name, fn in SUITES.items():
        if names and name not in names:
            continue
        results.append(fn(seed))
    return results
