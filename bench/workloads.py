"""Seeded inputs, timed operations and answer checkers for the hqe benchmark.

Every workload is two endless streams of operations, one per backend group
(``laurent-q`` and ``padic``).  A stream is a pure function of the seed: its
n-th operation is the same on every run, however far a run gets.  Inputs are
built from planted data -- known roots, a planted witness, a contradictory
core -- kept as plain rationals in ``Lit``, so every answer is checked
against what was planted and never against another hqe routine that could
share a defect.  The one exception is ``decompose``, whose point queries are
checked against direct evaluation of f(x), as the acceptance suite does.

Operation costs vary by orders of magnitude with the number of two-term
roots, the degree and the Boolean width, so each stream walks a fixed cycle
of templates and draws only units, centres and small offsets at random.
That keeps the mix of a run the same from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

# timed calls go through the package namespace, so the tracer's wrappers,
# which rebind it, see them
import hqe
from hqe import INF, Field, HQEError, Poly, rv

WORKLOADS = ("roots", "decompose", "decide")
GROUPS = ("laurent-q", "padic")

# share of a run's busy time that goes to the laurent-q stream (padic gets
# the rest): enough laurent-q operations for a steady 90th percentile
LAURENT_SHARE = {"roots": 0.5, "decompose": 0.75, "decide": 0.5}
# the tail percentile of each stream: the highest of 90, 95, 99 with at
# least ten samples beyond it in a run at the time the benchmark was
# defined.  It is fixed, not recomputed per run, so that a faster commit,
# which completes more operations, is measured at the same percentile.
TAIL_PERCENTILE = {
    "roots": {"laurent-q": 90, "padic": 99},
    "decompose": {"laurent-q": 90, "padic": 95},
    "decide": {"laurent-q": 90, "padic": 90},
}

# the quadratic tail y^2 - c is root-free: 2 is not a square in Q, 3 is not
# a square mod 7, and a 2-adic unit is a square only when it is 1 mod 8
NON_SQUARE = {None: 2, 7: 3, 2: 5}


def _vp(x: Fraction, p: int) -> int:
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


class Lit:
    """An exact element sum c_i pi^k_i with rational c_i, outside hqe.

    ``p`` is None for laurent-q (pi = t) and the prime for padic (pi = p).
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        acc: dict = {}
        for k, c in terms:
            acc[k] = acc.get(k, Fraction(0)) + Fraction(c)
        self.p = p
        self.terms = tuple(sorted((k, c) for k, c in acc.items() if c != 0))

    def value(self) -> Fraction:
        """padic only: the rational number the terms add up to."""
        return sum((c * Fraction(self.p) ** k for k, c in self.terms), Fraction(0))

    @property
    def key(self):
        return self.terms if self.p is None else self.value()

    def is_zero(self) -> bool:
        return not self.terms if self.p is None else self.value() == 0

    def val(self):
        """The valuation, or None for zero."""
        if self.is_zero():
            return None
        if self.p is None:
            return self.terms[0][0]
        return _vp(self.value(), self.p)

    def __add__(self, other: "Lit") -> "Lit":
        return Lit(self.p, self.terms + other.terms)

    def __sub__(self, other: "Lit") -> "Lit":
        return Lit(self.p, self.terms + tuple((k, -c) for k, c in other.terms))

    def elem(self, field: Field):
        return field.from_terms(self.terms)

    def text(self) -> str:
        if self.p is not None:
            return f"({self.value()})"
        if not self.terms:
            return "(0)"
        return "(" + " + ".join(f"{c}*t^{k}" for k, c in self.terms) + ")"

    def __repr__(self):
        return f"Lit{self.text()}"


def mono(p, c, k) -> Lit:
    return Lit(p, [(k, c)])


def _units(p):
    if p is None:
        return [Fraction(u) for u in (1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-3, 2)]
    return [Fraction(u) for u in range(-12, 13) if u % p]


def plant_roots(rng: random.Random, p, spec: str) -> list:
    """Distinct roots with random units, one per token of ``spec``:
    ``m<k>`` a monomial u pi^k, ``T<k>+<d>`` a two-term u1 pi^k + u2 pi^(k+d),
    ``c<e>`` the previous root plus a term e valuations below its leading
    one (a cluster: both share their leading term)."""
    units = _units(p)
    roots: list = []
    for token in spec.split():
        kind, arg = token[0], token[1:]
        while True:
            if kind == "m":
                r = mono(p, rng.choice(units), int(arg))
            elif kind == "T":
                k, d = (int(a) for a in arg.rsplit("+", 1))
                r = mono(p, rng.choice(units), k) + mono(p, rng.choice(units), k + d)
            elif kind == "c":
                prev = roots[-1]
                r = prev + mono(p, rng.choice(units), prev.val() + int(arg))
            else:
                raise ValueError(f"bad root token {token!r}")
            if not r.is_zero() and all(r.key != s.key for s in roots):
                roots.append(r)
                break
    return roots


def poly_from_roots(field: Field, roots, lead: int, tail) -> Poly:
    """lead * prod (x - r) * tail, tail a list of integer coefficients."""
    one = field.one()
    g = Poly(field, [field.from_rational(lead)])
    for r in roots:
        g = g * Poly(field, [-r.elem(field), one])
    return g * Poly(field, [field.from_rational(c) for c in tail])


class Op:
    """One timed operation: ``call()`` is the timed part; ``check(answer)``
    returns a list of wrong-answer messages and runs untimed; ``queries``
    and ``query_errors(answer)`` count point queries inside the operation.
    ``input`` prints the operation's input."""

    __slots__ = ("label", "input", "call", "check", "queries", "query_errors", "dnf_branches")

    def __init__(self, label, input, call, check, queries=0, query_errors=None, dnf_branches=1):
        self.label = label
        self.input = input
        self.call = call
        self.check = check
        self.queries = queries
        self.query_errors = query_errors or (lambda answer: 0)
        self.dnf_branches = dnf_branches


def _fields_of(group):
    """(field, p) pairs a stream cycles through, one per operation."""
    if group == "laurent-q":
        return [(Field.laurent(), None)]
    return [(Field.padic(7), 7), (Field.padic(2), 2)]


def _rotate(i: int, period: int, n: int) -> int:
    """Index into n alternatives for operation i of a template cycle of
    length ``period``, shifted every pass so that each template meets every
    alternative even when n divides the period."""
    return (i + i // period) % n


def stream(workload: str, group: str, seed: int):
    """The endless, seed-determined operation stream of one backend group."""
    if workload not in WORKLOADS or group not in GROUPS:
        raise ValueError(f"unknown workload/group {workload!r}/{group!r}")
    rng = random.Random(f"hqe-bench:{workload}:{group}:{seed}")
    maker = {"roots": _roots_ops, "decompose": _decompose_ops, "decide": _decide_ops}[workload]
    return maker(rng, group)


# ---- roots ----------------------------------------------------------------------

# Template cycles.  The laurent-q and decide cycles, whose runs hold only a
# hundred or two operations, mix a cheap block, a middle block of similar
# cost and a heavy block (about 30/40/30% of a cycle here, 40/25/35% on
# decide), interleaved, so that the median latency falls inside the middle
# block and the tail percentile inside the heavy block on every seed; at a
# gap between two blocks they would jump from run to run.

# (roots, working precision); degree = number of roots + 2 (the tail).
# Three laurent-q templates in ten run at precision 128, so kernel operand
# lengths vary across a length crossover.
ROOTS_LAURENT = [
    ("", 64), ("T0+1", 64), ("m-1 c1 m1 c1", 64), ("m0", 64), ("T-1+2 m1", 64),
    ("m0 c2 m-1", 128), ("m1 c1", 128), ("T-1+2 m1", 128), ("T0+2 m-2 T1+1", 64), ("T0+1", 64),
]
ROOTS_PADIC = [
    "", "m0", "m1 c1", "T0+1", "T-1+2 m1", "m0 c2 m-1", "T0+1 c2 m2",
    "m-1 c1 m1 c1", "T0+2 m-2 T1+1", "T-1+1 m0 c1 T2+1",
]


def _label(field: Field, p, what: str) -> str:
    return f"{field.backend}{'' if p is None else '-' + str(p)}/{what}"


def _roots_ops(rng, group):
    fields = _fields_of(group)
    templates = ROOTS_LAURENT if group == "laurent-q" else [(spec, 64) for spec in ROOTS_PADIC]
    i = 0
    while True:
        spec, prec = templates[i % len(templates)]
        field, p = fields[_rotate(i, len(templates), len(fields))]
        if prec != field.prec:
            field = field.with_prec(prec)
        i += 1
        roots = plant_roots(rng, p, spec)
        # the leading coefficient is +-i, unique in the stream, so no
        # polynomial repeats on this workload
        lead = rng.choice([1, -1]) * i
        g = poly_from_roots(field, roots, lead, [-NON_SQUARE[p], 0, 1])
        yield Op(_label(field, p, f"{spec or 'none'}@{prec}"), str(g), lambda g=g: hqe.field_roots(g),
                 lambda ans, roots=roots, prec=prec: check_roots(ans, roots, prec))


def _digits_match(root, lit: Lit) -> bool:
    """Whether a returned root agrees with a planted one on every digit the
    root claims to know (all of them when it is exact)."""
    if root.is_zero or root.is_small:
        return False
    if lit.p is None:
        if root.v != lit.val():
            return False
        planted = dict(lit.terms)
        known = len(root.unit) if root.rel is None else root.rel
        for i in range(known):
            have = root.unit[i] if i < len(root.unit) else Fraction(0)
            if have != planted.get(root.v + i, Fraction(0)):
                return False
        # an exact root must not stop short of the planted terms
        return root.rel is not None or max(planted) < root.v + known
    q = lit.value()
    if _vp(q, lit.p) != root.v:
        return False
    unit = q / Fraction(lit.p) ** root.v
    if root.rel is None:
        return Fraction(root.unit) == unit
    m = lit.p ** root.rel
    return unit.numerator * pow(unit.denominator, -1, m) % m == root.unit % m


def check_roots(answer, planted, prec) -> list:
    """The returned roots must be the planted ones: same count, each
    matching a distinct planted root on all its known digits, and each
    inexact root known to at least half the working precision."""
    wrong = []
    if len(answer) != len(planted):
        wrong.append(f"{len(answer)} roots returned, {len(planted)} planted {planted}")
    unmatched = list(planted)
    for r in answer:
        if r.rel is not None and r.rel < prec // 2:
            wrong.append(f"root {r} known to only {r.rel} digits")
        hit = next((lit for lit in unmatched if _digits_match(r, lit)), None)
        if hit is None:
            wrong.append(f"root {r} is not a planted root of {planted}")
        else:
            unmatched.remove(hit)
    return wrong


# ---- decompose --------------------------------------------------------------------

# (roots, root-free quadratic factor or not): degrees 1 to 6, mostly with
# a clustered pair, so collisions put derivative roots inside residue
# classes.  The last heavy slot alternates two degree-6 templates.
DECOMP_CYCLE = [
    (("m0", False),), (("m0 c1 m2", False),), (("m0 c1 m-1 c2", False),), (("m0 c1", False),),
    (("T0+1 m1", True),), (("m0 m1 m2", True),), (("m1", True),), (("m1 c1 m0", True),),
    (("m1 m-1 c1 m2", True), ("m0 c1 m1 m2", True)), (("m0 c1 m2", False),),
]


def decompose_grid(field: Field, p):
    """The fixed query points: seven valuations times four units."""
    units = [1, -1, 2, 3] if p is None else ([1, 2, 3, 6] if p == 7 else [1, 3, 5, 7])
    return [field.monomial(c, k) for c in units for k in range(-3, 4)]


def _decompose_ops(rng, group):
    fields = _fields_of(group)
    grids = [decompose_grid(f, p) for f, p in fields]
    i = 0
    n = len(DECOMP_CYCLE)
    while True:
        variants = DECOMP_CYCLE[i % n]
        spec, quad = variants[(i // n) % len(variants)]
        # variants turn every pass, fields every two, orders every four, so
        # over eight passes each template meets every combination
        j = _rotate(i, 2 * n, len(fields))
        field, p = fields[j]
        grid = grids[j]
        delta = _rotate(i, 4 * n, 2)
        i += 1
        roots = plant_roots(rng, p, spec)
        tail = [-NON_SQUARE[p], 0, 1] if quad else [1]
        f = poly_from_roots(field, roots, rng.choice([1, 2, -1]), tail)
        yield Op(
            _label(field, p, f"{spec}{' quad' if quad else ''}"),
            f"{f} at order {delta}",
            lambda f=f, delta=delta, grid=grid: run_decompose(f, delta, grid),
            lambda ans, f=f, delta=delta, grid=grid: check_decompose(ans, f, delta, grid),
            queries=len(grid),
            query_errors=lambda ans: sum(isinstance(item, HQEError) for item in ans[1]),
        )


def run_decompose(f: Poly, delta: int, grid):
    """Build the decomposition, then query every grid point against it."""
    dec = hqe.rv_decompose([f], [delta])
    out = []
    for x in grid:
        try:
            piece = dec.cell_of(x).pieces[0]
            out.append((piece, piece.eval_v(x), piece.eval_rv(x, delta)))
        except HQEError as e:
            out.append(e)
    return dec, out


def check_decompose(answer, f: Poly, delta: int, grid) -> list:
    """Each answered query against direct evaluation of f(x):
    w <= v(f(x)) <= w + severity bound, equality over laurent-q, and the
    leading term from piece data equal to rv_delta(f(x))."""
    wrong = []
    _, out = answer
    laurent = f.field.backend == "laurent-q"
    for x, item in zip(grid, out):
        if isinstance(item, HQEError):
            continue
        piece, w, r = item
        if not piece.contains(x):
            wrong.append(f"cell_of({x}) returned a cell without it")
            continue
        fx = f(x)
        fv = INF if fx.is_zero else fx.val()
        if not (w <= fv <= w + piece.severity_bound) or (laurent and w != fv):
            wrong.append(f"v(f({x})) = {fv} outside the piece bound from {w} for f = {f}")
        if r != rv(fx, delta):
            wrong.append(f"rv_{delta}(f({x})) = {rv(fx, delta)} but the piece gives {r} for f = {f}")
    return wrong


# ---- decide -------------------------------------------------------------------------

# The decide cycle.  Each entry lists variants, taken in turn on successive
# passes: "a" is a family (a) op, (k, verdict) a family (b) op with k binary
# disjunctions (2^k DNF branches), k = 2..10.  Verdicts balance TRUE and
# FALSE over six passes.  Eight cheap slots (family (a), k = 2, 3 and 4
# FALSE) take 40% of a cycle and five slots of similar cost (k = 4 TRUE
# and 5) the next 25%, so the median falls inside that block; the 90th
# percentile falls inside the 7 TRUE / 8 FALSE block, and the widest
# formulas (k = 8 TRUE, 9, 10) share one slot so that they do not swamp
# the run.
DECIDE_CYCLE = [
    ("a",), ((4, True),), ((7, True),), ((2, True),), ((5, False),), ((8, False),), ("a",),
    ((5, True), (5, False)), ((8, True), (9, False), (10, True), (9, True), (10, False), (8, False)),
    ((3, False),), ((6, False),), ((7, False),), ((4, True),), ((4, False),), ((6, True),),
    ((2, False),), ((3, True),), ((7, True),), ("a",), ((5, False), (5, True)),
]
POOL_SHAPES = ("", "m", "mc", "T", "mT", "Tc")  # roots of the pool polynomials
POOL_CENTRES = 8


def _random_spec(rng, shape: str) -> str:
    """A plant_roots spec of the given shape with random valuations."""
    tokens = {
        "m": lambda: f"m{rng.randrange(-2, 3)}",
        "T": lambda: f"T{rng.randrange(-2, 3)}+{rng.randrange(1, 4)}",
        "c": lambda: f"c{rng.randrange(1, 3)}",
    }
    return " ".join(tokens[ch]() for ch in shape)


def _pow_text(p, j) -> str:
    return mono(p, 1, j).text()


def _vatom(var: str, centre: Lit, op: str, j: int, p) -> str:
    return f"v(rv[0]({var} - {centre.text()})) {op} v(rv[0]({_pow_text(p, j)}))"


def _holds(d, op, j) -> bool:
    return {"<": d < j, "<=": d <= j, "=": d == j, "!=": d != j, ">": d > j, ">=": d >= j}[op]


def _true_atom(rng, var, centre, d, p) -> str:
    """A valuation atom that holds where v(x - centre) = d."""
    op = rng.choice(["=", ">=", "<", "<=", "!="])
    j = {"=": d, ">=": d - rng.randrange(0, 3), "<": d + rng.randrange(1, 3),
         "<=": d + rng.randrange(0, 2), "!=": d + rng.choice([-2, -1, 1, 2])}[op]
    if not _holds(d, op, j):
        raise RuntimeError(f"generator built a false atom: {d} {op} {j}")
    return _vatom(var, centre, op, j, p)


def _family_b(rng, p, centres, k, truth):
    """A core conjoined with k binary disjunctions of valuation atoms.

    TRUE: the core pins x to the ball v(x - c0) >= a around a planted
    witness w; the first atom of every disjunction contradicts the core and
    the second holds at w, so w satisfies only the last DNF branch.
    FALSE: the core asks for two balls of radius s around centres c1, c2
    with v(c1 - c2) < s, which are disjoint, whatever the disjunctions say.
    """
    if truth:
        c0 = rng.choice(centres)
        a = rng.randrange(-1, 3)
        while True:
            w = c0 + mono(p, rng.choice(_units(p)), a + rng.randrange(0, 3))
            if all(w.key != c.key for c in centres):
                break
        core = [_vatom("x", c0, ">=", a, p)]
        disj = []
        for _ in range(k):
            bad = _vatom("x", c0, "<", a - rng.randrange(0, 3), p)
            c = rng.choice(centres)
            disj.append((bad, _true_atom(rng, "x", c, (w - c).val(), p)))
    else:
        while True:
            c1, c2 = rng.sample(centres, 2)
            if not (c1 - c2).is_zero():
                break
        s = (c1 - c2).val() + rng.randrange(1, 3)
        core = [_vatom("x", c1, ">=", s, p), _vatom("x", c2, ">=", s, p)]
        ops = ["=", ">=", "<", "<=", "!="]
        disj = [
            tuple(_vatom("x", rng.choice(centres), rng.choice(ops), rng.randrange(-2, 4), p) for _ in range(2))
            for _ in range(k)
        ]
    parts = core + [f"({left} | {right})" for left, right in disj]
    return "EX x:K. " + " & ".join(parts)


def _poly_text(roots, p) -> str:
    factors = [f"(y - {r.text()})" for r in roots]
    factors.append(f"(y^2 - {NON_SQUARE[p]})")
    return "*".join(factors)


def _family_a(rng, p, pool):
    """EX y:K. g(y) = 0, optionally with a side condition whose truth at the
    planted roots is known: a valuation v(y) = j, or a leading term
    rv_0(y) = rv_0(u pi^k)."""
    roots = rng.choice(pool)
    text = f"EX y:K. {_poly_text(roots, p)} = 0"
    side = rng.choice(["none", "val", "rv"])
    if side == "none" or not roots:
        return text, bool(roots)
    want = rng.random() < 0.5
    if side == "val":
        vals = {r.val() for r in roots}
        j = rng.choice(sorted(vals)) if want else rng.choice([j for j in range(-4, 5) if j not in vals])
        return f"{text} & v(rv[0](y)) = v(rv[0]({_pow_text(p, j)}))", want
    # rv_0 of a root is its leading term: coefficient (a residue mod p over
    # padic) at its valuation
    def lead(r):
        if p is None:
            return r.terms[0][1], r.val()
        v = r.val()
        u = r.value() / Fraction(p) ** v
        return u.numerator * pow(u.denominator, -1, p) % p, v
    leads = {lead(r) for r in roots}
    if want:
        c, v = lead(rng.choice(roots))
    else:
        while True:
            c, v = rng.choice(_units(p)), rng.randrange(-3, 4)
            if (c if p is None else c.numerator * pow(c.denominator, -1, p) % p, v) not in leads:
                break
    return f"{text} & rv[0](y) = rv[0]({mono(p, c, v).text()})", want


def _decide_ops(rng, group):
    fields = _fields_of(group)
    pools = []
    for _field, p in fields:
        centres: list = []
        while len(centres) < POOL_CENTRES:
            c = plant_roots(rng, p, _random_spec(rng, rng.choice("mT")))[0]
            if all(c.key != d.key for d in centres):
                centres.append(c)
        polys = [plant_roots(rng, p, _random_spec(rng, shape)) for shape in POOL_SHAPES]
        pools.append((centres, polys))
    n = len(DECIDE_CYCLE)
    i = 0
    while True:
        variants = DECIDE_CYCLE[i % n]
        entry = variants[(i // n) % len(variants)]
        # switch fields every four passes, not every pass, so that each
        # field meets every variant
        j = _rotate(i, 4 * n, len(fields))
        field, p = fields[j]
        centres, polys = pools[j]
        i += 1
        if entry == "a":
            (text, want), branches, what = _family_a(rng, p, polys), 1, "a"
        else:
            k, want = entry
            text, branches, what = _family_b(rng, p, centres, k, want), 2 ** k, f"b{k}{str(want)[0]}"
        yield Op(
            _label(field, p, what),
            text,
            lambda field=field, text=text: hqe.decide(hqe.parse_formula(field, text), field),
            lambda ans, want=want, text=text: check_verdict(ans, want, text),
            dnf_branches=branches,
        )


def check_verdict(answer, want, text) -> list:
    if answer is not want:
        return [f"decide returned {answer}, planted {want}: {text}"]
    return []
