"""Field-quantifier elimination over concrete parameters, the linear
ball-intersection elimination, the decision procedure, and the one-variable
pullback normal form.

With all parameters instantiated, every branch condition of the uniform
procedure is decided rather than disjuncted.  A block of field quantifiers
is decided one variable at a time on a cell partition of K: the balls of
the solution regions of the variable's atoms, with the certified roots of
its equations as points, are nested or disjoint, so every such atom is a
bitmask over the cells.  The variable is fixed at each root and each cell
in turn and the rest of the block is decided on the matrix folded there;
the last variable's matrix is evaluated with &, | and ~.  An atom joining
two variables is taken apart by pinning one of them at the roots of an
equation in it alone.  Around the decided blocks atoms are kept, And and
Or are flattened, and truth constants and double negations are folded."""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_

from .balls import Ball, SwissCheese
from .decomp import coeff_unresolved, rv_decompose
from .errors import (
    NonEffectiveQuantifier,
    PrecisionExhausted,
    PreconditionViolated,
)
from .field import Field, FieldElem, bounded_order, val_diff
from .formula import (
    FALSE,
    TRUE,
    And,
    ExistsF,
    ExistsRV,
    FAdd,
    FLit,
    FMul,
    FNeg,
    ForallF,
    ForallRV,
    Formula,
    FPow,
    FVar,
    FalseF,
    Implies,
    Not,
    OplusA,
    Or,
    PolyZero,
    RVEq,
    RVLitT,
    RVMulT,
    RVOf,
    RVPowT,
    RVProjT,
    RVSumT,
    RVVarT,
    TrueF,
    VComp,
    children,
    conj,
    disj,
    free_vars,
    has_field_quantifier,
    neg,
    print_formula,
    subst,
    with_children,
)
from .hensel import field_roots, is_root, resolution_horizon, same_point
from .poly import Poly, check_degree, poly_gcd
from .regions import (
    Region,
    cell_partition,
    region_all,
    roots_region,
    vcomp_region,
)
from .rv import RVElem, rv
from .semantics import evaluate
from .valq import FLIP, NEG_INF, as_order


# ---- linear systems: the ball intersection elimination ------------------------


def eliminate_linear_exists(constraints, field: Field, case_log=None) -> bool:
    """Decide EX x. /\\ rv[d_i](z_i) = rv[d_i](a_i x - b_i) with a_i != 0.

    Each constraint with z_i != 0 is the ball v(x - c_i - z~_i) > v(z_i/a_i)
    + d_i around c_i = b_i/a_i, z~_i the representative of rv[d_i](z_i/a_i);
    one with z_i = 0 pins x = c_i.  The pairwise analysis runs through the
    four cases of the ball intersection elimination (logged in case_log
    when given), and finitely many pairwise intersecting balls share a
    point.  Where the known digits do not decide a membership or the
    case, PrecisionExhausted is raised.
    """
    balls = []  # (ball, z_i/a_i, c_i, d_i)
    pins = []
    for z, a, b, delta in constraints:
        delta = as_order(delta)
        if a.is_zero or a.is_small:
            raise PreconditionViolated("the coefficient of x must be nonzero")
        if z.is_small:
            raise PrecisionExhausted("leading term of a constraint side unknown")
        center = b / a
        if z.is_zero:
            pins.append(center)
            continue
        zs = z / a
        ball = Ball.more_than(center + rv(zs, delta).rep(), zs.val() + delta)
        balls.append((ball, zs, center, delta))
    if pins:
        # the pins force the witness
        x0 = pins[0]
        others = [Ball.point(p) for p in pins[1:]] + [B for B, *_ in balls]
        return all(B.contains(x0) for B in others)
    return all(_pair_intersects(P1, P2, case_log) for P1, P2 in combinations(balls, 2))


def _pair_intersects(P1, P2, case_log) -> bool:
    """Whether the balls of two constraints, each (ball, z, c, delta), meet."""
    if P1[0].radius > P2[0].radius:
        P1, P2 = P2, P1
    (B1, z1, c1, d1), (B2, z2, c2, d2) = P1, P2
    vz1 = z1.val()
    vcc = val_diff(c1, c2, vz1)
    if vcc is None:
        raise PrecisionExhausted(f"cannot decide v(c_1 - c_2) >= {vz1} at precision")
    if vcc < vz1:
        case = 4
    elif z2.val() < vz1:
        case = 3
    elif d1 <= d2:
        case = 1
    else:
        case = 2
    if case_log is not None:
        case_log.add(case)
    if case == 3:
        # the difference of the defining data has the smaller value outright
        return False
    if case == 4:
        # B1 is the larger ball, so the two meet iff z_1 + (c_1 - c_2) lies
        # within its radius v(z_1) + delta_1 of z_2; comparing rv at the lower
        # order is coarser than that when v(z_2) < v(z_1)
        return Ball.more_than(c1 + z1, vz1 + d1).contains(c2 + z2)
    # cases 1 and 2: the severity criterion on z_1 - z_2 + (c_1 - c_2)
    return B1.contains(B2.center)


# ---- atoms to polynomials ------------------------------------------------------


def term_to_poly(term, var: str, field: Field, memo=None) -> Poly:
    """The field term as a polynomial in var (all other variables must
    already be literals).

    With a dict ``memo``, each distinct (term, var, field) is converted once
    while the dict lives: an equal subterm met again, in this atom or in
    another, reads its polynomial back.  The key carries the field because
    equal literals of fields of different working precision are equal
    terms.  ``witness_box`` and ``normal_form`` each make one memo per call
    and drop it on return."""
    if memo is not None:
        key = (term, var, field)
        out = memo.get(key)
        if out is not None:
            return out
    if isinstance(term, FVar):
        if term.name != var:
            raise NonEffectiveQuantifier(f"free field variable {term.name}")
        out = Poly(field, [field.zero(), field.one()])
    elif isinstance(term, FLit):
        out = Poly(field, [term.value])
    elif isinstance(term, FAdd):
        out = term_to_poly(term.left, var, field, memo) + term_to_poly(term.right, var, field, memo)
    elif isinstance(term, FMul):
        out = term_to_poly(term.left, var, field, memo) * term_to_poly(term.right, var, field, memo)
    elif isinstance(term, FNeg):
        out = -term_to_poly(term.arg, var, field, memo)
    elif isinstance(term, FPow):
        base = term_to_poly(term.base, var, field, memo)
        if base.degree == 0:
            out = Poly(field, [base.coeffs[0] ** term.exp])
        else:
            if term.exp < 0:
                raise NonEffectiveQuantifier("negative power of a non-constant term")
            check_degree(base.degree * term.exp if base.degree else 0)  # before the products
            out = Poly(field, [field.one()])
            for _ in range(term.exp):
                out = out * base
    else:
        raise TypeError(f"not a field term: {term!r}")
    if memo is not None:
        memo[key] = out
    return out


def rvterm_to_poly(term, var: str, field: Field, memo=None):
    """Express an rv term in var as (order, Poly): the term denotes
    rv[order](P(x)).  Multiplication and projection are pushed through the
    quotient map; returns None if the term cannot be so expressed.  ``memo``
    is term_to_poly's."""
    if isinstance(term, RVOf):
        return term.order, term_to_poly(term.arg, var, field, memo)
    if isinstance(term, RVLitT):
        if term.value.is_inf:
            return term.value.order, Poly(field, [])
        return term.value.order, Poly(field, [term.value.rep()])
    if isinstance(term, RVProjT):
        inner = rvterm_to_poly(term.arg, var, field, memo)
        if inner is None:
            return None
        return term.order, inner[1]
    if isinstance(term, RVMulT):
        left = rvterm_to_poly(term.left, var, field, memo)
        right = rvterm_to_poly(term.right, var, field, memo)
        if left is None or right is None:
            return None
        if left[0] != right[0]:
            return None
        return left[0], left[1] * right[1]
    if isinstance(term, RVPowT):
        inner = rvterm_to_poly(term.base, var, field, memo)
        if inner is None or term.exp < 0:
            return None
        out = Poly(field, [field.one()])
        check_degree(inner[1].degree * term.exp if inner[1].degree else 0)
        for _ in range(term.exp):
            out = out * inner[1]
        return inner[0], out
    return None


# ---- literal regions -----------------------------------------------------------


def _atom_sides(atom, var: str, field: Field, memo=None) -> list:
    """Each side of the atom as (order, Poly): an equation's one side and a
    value comparison's two at order 0, an rv equality's two at their common
    order, and oplus's three at its own order.  ``memo`` is term_to_poly's."""
    if isinstance(atom, PolyZero):
        return [(0, term_to_poly(atom.arg, var, field, memo))]
    if isinstance(atom, RVEq):
        what = "leading-term term"
    elif isinstance(atom, VComp):
        what = "value comparison"
    elif isinstance(atom, OplusA):
        what = "oplus operand"
    else:
        raise NonEffectiveQuantifier(f"unsupported atom {print_formula(atom)}")
    out = []
    for side in children(atom):
        data = rvterm_to_poly(side, var, field, memo)
        if data is None:
            raise NonEffectiveQuantifier(f"{what} not polynomial in the variable")
        out.append(data)
    if isinstance(atom, RVEq):
        (d1, _), (d2, _) = out
        if d1 != d2:
            raise NonEffectiveQuantifier(f"comparing leading terms of orders {d1} and {d2}")
        return out
    order = atom.order if isinstance(atom, OplusA) else 0
    return [(order, P) for _, P in out]


def literal_region(atom, var: str, field: Field, memo=None) -> Region:
    """The set of witnesses x satisfying the atom, as a region; ``memo`` is
    term_to_poly's."""
    sides = _atom_sides(atom, var, field, memo)
    polys = [P for _, P in sides]
    if isinstance(atom, PolyZero):
        return _equation_region(polys[0], field)
    if isinstance(atom, RVEq):
        return _rv_eq_polys_region(*polys, sides[0][0], field)
    if isinstance(atom, VComp):
        return _vcomp_polys_region(*polys, atom.op, field)
    return _oplus_polys_region(*polys, atom.order, field)


def _equation_region(P: Poly, field) -> Region:
    if P.is_zero:
        return region_all(field)
    return roots_region(P, field)[0] if P.degree else []


def _rv_eq_polys_region(P1: Poly, P2: Poly, order: int, field) -> Region:
    """{x : rv_order(P1(x)) = rv_order(P2(x))}."""
    if P2.is_zero:
        return _equation_region(P1, field)
    if P1.is_zero:
        return _equation_region(P2, field)
    # equal leading terms <=> v(P1 - P2) > v(P2) + order away from the zeros
    # of P2, and <=> P1 = 0 at them
    diff = P1 + (-P2)
    if diff.is_zero:
        return region_all(field)
    joint = [r for r in field_roots(P2) if is_root(P1, r)]
    reg = vcomp_region(diff, P2, ">", field, order)
    return reg + [SwissCheese.of_ball(Ball.point(r)) for r in joint]


def _vcomp_polys_region(P1: Poly, P2: Poly, op: str, field) -> Region:
    """{x : v(P1(x)) op v(P2(x))}."""
    if P2.is_zero:
        return vcomp_region(P1, None, op, field)
    if P1.is_zero:
        return vcomp_region(P2, None, FLIP[op], field)
    return vcomp_region(P1, P2, op, field)


def _oplus_polys_region(P1: Poly, P2: Poly, P3: Poly, order: int, field) -> Region:
    """oplus[order](P1, P2, P3) holds exactly when v(P3 - P1 - P2) >
    min(v(P1), v(P2)) + order, with the degenerate case of both summands
    vanishing handled pointwise (there the relation asks the third side to
    vanish as well)."""
    S = P3 + (-P1) + (-P2)

    def compare(P_):
        return region_all(field) if S.is_zero else vcomp_region(S, P_, ">", field, order)

    if P1.is_zero and P2.is_zero:
        # oplus(inf, inf, c) asks c = inf
        return _equation_region(P3, field)
    if P1.is_zero:
        # oplus(inf, b, c) asks c = b
        return _rv_eq_polys_region(P3, P2, order, field)
    if P2.is_zero:
        return _rv_eq_polys_region(P3, P1, order, field)
    # the minimum is v(P1) where v(P1) <= v(P2), and v(P2) where v(P2) < v(P1)
    halves = [
        (vcomp_region(P1, P2, "<=", field), compare(P1)),
        (vcomp_region(P2, P1, "<", field), compare(P2)),
    ]
    # points where both summands vanish: there the relation asks the third
    # side to vanish as well
    joint = []
    for r in field_roots(P1) + field_roots(P2):
        if is_root(P1, r) and is_root(P2, r) and not any(same_point(r, s) for s in joint):
            joint.append(r)
    off = [Ball.point(r) for r in joint]
    # intersected cheeses keep their own balls, as cell_partition asks
    reg = [a.intersect(b).minus_balls(off) for low, high in halves for a in low for b in high]
    fixups = [SwissCheese.of_ball(b) for b in off if is_root(P3, b.center)]
    return [d for d in reg if not d.is_empty] + fixups


# ---- the engine ---------------------------------------------------------------


def _fold(phi, leaf, conj=conj, disj=disj, neg=neg):
    """phi's boolean structure rebuilt over leaf(atom) for every atom (truth
    constants and quantified subformulas included), in the boolean algebra
    given by conj, disj and neg."""
    if isinstance(phi, Not):
        return neg(_fold(phi.arg, leaf, conj, disj, neg))
    if isinstance(phi, (And, Or)):
        parts = [_fold(a, leaf, conj, disj, neg) for a in phi.args]
        return conj(parts) if isinstance(phi, And) else disj(parts)
    if isinstance(phi, Implies):
        left = neg(_fold(phi.left, leaf, conj, disj, neg))
        return disj([left, _fold(phi.right, leaf, conj, disj, neg)])
    return leaf(phi)


def _atoms(phi) -> list:
    """The distinct atoms of phi's boolean structure, less truth constants."""
    out = {}

    def note(atom):
        if atom not in (TRUE, FALSE):
            out[atom] = None
        return atom

    _fold(phi, note)
    return list(out)


def _fold_closed(phi, field):
    """phi with every atom free of variables replaced by its truth value."""
    return _fold(phi, lambda a: a if free_vars(a) else TRUE if evaluate(a, {}, field) else FALSE)


def decide_exists_block(varlist, matrix, field: Field) -> bool:
    """Decide EX x1 ... xn : K. matrix, the matrix being free of field
    quantifiers and of parameters."""
    return witness_box(varlist, matrix, field) is not None


def witness_box(varlist, matrix, field: Field):
    """Nonempty swiss cheeses, by variable, such that every choice of points
    from them satisfies the matrix (a variable left out is free), or None.

    One variable x at a time is fixed at each cell of its axis, the roots of
    its equations first, and the other variables are decided on the matrix
    folded there; the last variable is decided on one bitmask over its
    cells.  An atom joining x with other variables is taken apart at the
    roots r of the equations in x alone: x := r there, and off the roots
    those equations are false.  An atom joining variables that no such
    equation pins is not effective."""
    extra = free_vars(matrix) - set(varlist)
    if extra:
        raise NonEffectiveQuantifier(
            f"parameters must be concrete before elimination: {sorted(extra)}"
        )
    memo = {}  # term_to_poly's, for this call only
    return _witness(varlist, _fold_closed(matrix, field), {v: () for v in varlist}, field, memo)


def _witness(varlist, matrix, pinned, field, memo):
    """witness_box, each variable v kept off the points pinned[v]; ``memo``
    is term_to_poly's."""
    atoms = _atoms(matrix)
    names = [(a, free_vars(a)) for a in atoms]  # each atom's variables, read once
    live = [v for v in varlist if any(v in vs for _, vs in names)]
    if not live:
        return {} if matrix == TRUE else None
    joined = {v for _, vs in names if len(vs) > 1 for v in vs}
    if not joined:
        x = live[0]
        equations = _equations(names, x, field, memo)
    else:
        for x in live:
            equations = _equations(names, x, field, memo) if x in joined else None
            if equations:
                break
        else:
            raise NonEffectiveQuantifier("no quantified variable is pinned by an equation of its own")
    rest = [v for v in varlist if v != x]
    of_atom, unknown, cells, roots = _axis(names, x, equations, pinned[x], field, memo)
    for i, r in roots.items():
        if cells[i] is None:
            continue
        # x's own atoms read their bit at the cell of r, the rest get x := r
        at_root = _fold(matrix, lambda a: _bit(of_atom[a], i) if a in of_atom else subst(a, {x: FLit(r)}))
        w = _witness(rest, _fold_closed(at_root, field), pinned, field, memo)
        if w is not None:
            return {x: SwissCheese.of_ball(Ball.point(r)), **w}
    # off the roots the equations in x alone are false
    matrix = _fold(matrix, lambda a: FALSE if a in equations else a)
    pinned = {**pinned, x: pinned[x] + tuple(roots.values())}
    if joined:
        return _witness(varlist, matrix, pinned, field, memo)
    for a in _atoms(matrix):
        if a in unknown:
            raise unknown[a]
    off = [i for i, c in enumerate(cells) if c is not None and i not in roots]
    if len(live) == 1:
        # the last variable: every atom is a bitmask over the cells
        hit = _fold(
            matrix,
            lambda a: -1 if a == TRUE else 0 if a == FALSE else of_atom[a],
            lambda ms: reduce(and_, ms, -1),
            lambda ms: reduce(or_, ms, 0),
            lambda m: ~m,
        )
        cheeses = (SwissCheese(*cells[i]) for i in off if hit >> i & 1)
        return next(({x: c} for c in cheeses if not c.is_empty), None)
    tried = set()
    for i in off:
        cheese = SwissCheese(*cells[i])
        if cheese.is_empty:
            continue
        # cells that fold the matrix alike are tried once
        at_cell = _fold(matrix, lambda a: _bit(of_atom[a], i) if a in of_atom else a)
        if at_cell in tried:
            continue
        tried.add(at_cell)
        w = _witness(rest, at_cell, pinned, field, memo)
        if w is not None:
            return {x: cheese, **w}
    return None


def _bit(mask, i):
    return TRUE if mask >> i & 1 else FALSE


def _equations(names, v, field, memo) -> dict:
    """The nonconstant equations in v alone among the atoms, as polynomials;
    ``names`` pairs each atom with its free variables."""
    out = {}
    for a, vs in names:
        if isinstance(a, PolyZero) and vs == {v}:
            f = term_to_poly(a.arg, v, field, memo)
            if f.degree:
                out[a] = f
    return out


def _axis(names, v, equations, pinned, field, memo):
    """The cells of K for v, cut along the regions of the atoms in v alone
    and at the roots of their ``equations`` (_equations in v): the bitmask
    of each such atom over the cells, the atoms outside the region calculus
    with their errors, the cells (None at the pinned points) and the roots
    by cell.  An equation holds at none but its roots; an atom outside the
    region calculus is evaluated at the roots and not effective off them.
    ``names`` pairs each atom with its free variables."""
    regions, unknown = {}, {}
    for a, vs in names:
        if vs == {v} and a not in equations:
            try:
                regions[a] = literal_region(a, v, field, memo)
            except NonEffectiveQuantifier as e:
                unknown[a] = e
    roots = [(r, f) for f in dict.fromkeys(equations.values()) for r in field_roots(f)]
    masks, cells, at = cell_partition(
        list(regions.values()), [r for r, _ in roots] + list(pinned), field
    )
    of_atom = dict(zip(regions, masks))
    for a, g in equations.items():
        hits = [1 << at[k] for k, (r, f) in enumerate(roots) if _holds_at(g, r, f, field)]
        of_atom[a] = reduce(or_, hits, 0)
    for i in at[len(roots):]:
        cells[i] = None
    return of_atom, unknown, cells, {at[k]: r for k, (r, _) in enumerate(roots)}


def _holds_at(g: Poly, root, source: Poly, field) -> bool:
    """Whether g vanishes at a root of source."""
    if g == source:
        return True
    y = g(root)
    if y.is_zero:
        return True
    if not y.is_small and y.val() < resolution_horizon(field):
        return False
    # vanishing at available precision: an approximated root satisfies a
    # second equation exactly when the two polynomials share the root
    h = poly_gcd(source, g)
    return h.degree is not None and h.degree >= 1 and is_root(h, root)


def _as_literal(v):
    if isinstance(v, FieldElem):
        return FLit(v)
    if isinstance(v, RVElem):
        return RVLitT(v)
    return v


def qe(phi, field: Field, params=None):
    """A field-quantifier-free equivalent of phi (parameters concrete).

    A block of field quantifiers is replaced by its decided truth value,
    innermost first; atoms are kept, And and Or flattened, and truth
    constants and double negations folded.  The output is machine-checked
    to carry no field quantifiers.
    """
    if params:
        phi = subst(phi, {k: _as_literal(v) for k, v in params.items()})
    out = _qe_walk(phi, field)
    assert not has_field_quantifier(out)
    return out


def _qe_walk(phi, field):
    if isinstance(phi, (TrueF, FalseF, PolyZero, RVEq, OplusA, VComp)):
        return phi
    if isinstance(phi, Not):
        return neg(_qe_walk(phi.arg, field))
    if isinstance(phi, And):
        return conj([_qe_walk(a, field) for a in phi.args])
    if isinstance(phi, Or):
        return disj([_qe_walk(a, field) for a in phi.args])
    if isinstance(phi, (ExistsF, ForallF)):
        # flatten a block of like quantifiers, then eliminate the inner rest
        kind = type(phi)
        chain = []
        body = phi
        while isinstance(body, kind):
            chain.append(body.var)
            body = body.body
        body = _qe_walk(body, field)
        if kind is ExistsF:
            result = decide_exists_block(chain, body, field)
        else:
            result = not decide_exists_block(chain, Not(body), field)
        return TRUE if result else FALSE
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    # Implies and the RV quantifiers: the same node over walked subformulas
    kids = []
    for sub in children(phi):
        kids.append(_qe_walk(sub, field))
    return with_children(phi, kids)


def decide(sigma, field: Field, params=None) -> bool:
    """Decide a sentence: eliminate field quantifiers, then evaluate the
    remaining leading-term formula with the effective-pattern evaluator."""
    out = qe(sigma, field, params)
    return evaluate(out, {}, field)


# ---- the one-variable pullback normal form --------------------------------------


class NormalForm:
    """A definable subset of K presented as the pullback, under the map
    x -> (rv[g_1](x - a_1), ..., rv[g_k](x - a_k)), of a leading-term
    formula D in the variables w1..wk."""

    def __init__(self, field, var, centers, orders, names, D):
        self.field = field
        self.var = var
        self.centers = list(centers)
        self.orders = list(orders)
        self.names = list(names)
        self.D = D

    def rv_tuple(self, x0: FieldElem):
        return [rv(x0 - a, g) for a, g in zip(self.centers, self.orders)]

    def member(self, x0: FieldElem) -> bool:
        env = dict(zip(self.names, self.rv_tuple(x0)))
        return evaluate(self.D, env, self.field)

    def __str__(self):
        cs = ", ".join(f"{n}: rv[{g}]({self.var} - ({a}))" for n, g, a in zip(self.names, self.orders, self.centers))
        return f"pullback [{cs}] of {print_formula(self.D)}"


def normal_form(phi, var: str, field: Field, params=None) -> NormalForm:
    """Present {x : phi(x)} as a pullback from the leading-term sorts.

    The polynomials of phi are decomposed simultaneously; on each cell every
    atom becomes a leading-term condition on rv(x - center), membership in
    the cell is itself such a condition, and D is the disjunction over
    cells.  Atoms under a leading-term quantifier are read and decomposed
    alike.  In residue characteristic 0 all emitted orders equal the orders
    appearing in phi (0 for order-0 input)."""
    if params:
        phi = subst(phi, {k: _as_literal(v) for k, v in params.items()})
    extra = free_vars(phi) - {var}
    if extra:
        raise NonEffectiveQuantifier(f"parameters must be concrete: {sorted(extra)}")

    # an atom reads only as polynomials in var, so the variable of a
    # leading-term quantifier may occur in none: the quantifier is vacuous
    def strip(a):
        return _fold(a.body, strip) if isinstance(a, (ExistsRV, ForallRV)) else a

    phi = _fold(_fold_closed(_qe_walk(phi, field), field), strip)
    memo = {}  # term_to_poly's, for this call only
    sides = {a: _atom_sides(a, var, field, memo) for a in _atoms(phi)}
    # each nonconstant polynomial, at the largest order it is read at
    order_of = {}
    for data in sides.values():
        for d, P in data:
            if P.degree:
                order_of[P] = max(order_of.get(P, d), d)
    centers = []
    piece_of, gamma = {}, 0

    def center_index(a: FieldElem) -> int:
        for i, c in enumerate(centers):
            if same_point(a, c):
                return i
        centers.append(a)
        return len(centers) - 1

    def sum_term(P: Poly, delta: int):
        if P.degree is None:
            return RVLitT(RVElem.inf(field, delta))
        if P.degree == 0:
            return RVLitT(rv(P.coeffs[0], delta))
        piece = piece_of[P]
        need = delta + piece.severity_bound
        w = RVVarT(f"w{center_index(piece.center) + 1}", gamma)
        wp = w if need == gamma else RVProjT(need, w)
        terms = []
        for j, cls in piece.rv_terms(need):
            lit = RVLitT(cls)
            terms.append(lit if j == 0 else RVMulT(lit, RVPowT(wp, j)))
        if not terms:
            return RVLitT(RVElem.inf(field, delta))
        return RVSumT(delta, tuple(terms))

    def poly_zero_atom(P: Poly):
        # on this cell v(P) is pinned to the piece line, so P vanishes
        # exactly at the center when the center is a root
        if P.degree is None:
            return TRUE
        if P.degree == 0:
            return TRUE if P.coeffs[0].is_zero else FALSE
        piece = piece_of[P]
        a0 = piece.coeffs[0]
        vanishes = a0.is_zero or coeff_unresolved(field, a0)
        if not vanishes:
            return FALSE
        if piece.m == 0:
            return TRUE
        w = RVVarT(f"w{center_index(piece.center) + 1}", gamma)
        return RVEq(w, RVLitT(RVElem.inf(field, gamma)))

    def rewrite(a):
        # the atom on the cell of piece_of
        if a in (TRUE, FALSE):
            return a
        if isinstance(a, PolyZero):
            return poly_zero_atom(sides[a][0][1])
        return with_children(a, [sum_term(P, d) for d, P in sides[a]])

    if not order_of:
        # no dependence on the variable beyond constant atoms
        return NormalForm(field, var, [field.zero()], [0], ["w1"], _fold(phi, rewrite))
    polys = list(order_of)
    orders = list(order_of.values())
    dec = rv_decompose(polys, orders)
    # D reads w at order gamma, and prints rv[gamma] classes the formula
    # language reads back only below its bound on orders
    needs = [d + piece.severity_bound for cell in dec.cells for d, piece in zip(orders, cell.pieces)]
    gamma = bounded_order(max(needs, default=0))
    disjuncts = []
    for cell in dec.cells:
        piece_of = dict(zip(polys, cell.pieces))
        body = _fold(phi, rewrite)
        if isinstance(body, FalseF):
            continue
        memb = _membership_formula(cell.cheese, center_index, gamma, field)
        disjuncts.append(_absorb_inf(conj([memb, body])))
    D = disj(disjuncts)
    if not centers:
        centers.append(field.zero())
    names = [f"w{i + 1}" for i in range(len(centers))]
    used = free_vars(D)
    keep = [i for i, n in enumerate(names) if n in used]
    if keep and len(keep) < len(names):
        D = subst(D, {names[i]: RVVarT(f"w{j + 1}", gamma) for j, i in enumerate(keep)})
        centers = [centers[i] for i in keep]
        names = [f"w{j + 1}" for j in range(len(keep))]
    if not keep:
        centers, names = centers[:1], names[:1]
    return NormalForm(field, var, centers, [gamma] * len(centers), names, D)


def _membership_formula(cheese: SwissCheese, center_index, gamma, field):
    parts = []
    outer = cheese.outer
    if outer.is_point:
        w = RVVarT(f"w{center_index(outer.center) + 1}", gamma)
        parts.append(RVEq(w, RVLitT(RVElem.inf(field, gamma))))
    elif outer.radius != NEG_INF:
        w = RVVarT(f"w{center_index(outer.center) + 1}", gamma)
        lit = RVLitT(rv(field.monomial(1, outer.radius), gamma))
        parts.append(VComp("<=", lit, w))
    for h in cheese.holes:
        w = RVVarT(f"w{center_index(h.center) + 1}", gamma)
        if h.is_point:
            parts.append(Not(RVEq(w, RVLitT(RVElem.inf(field, gamma)))))
        else:
            lit = RVLitT(rv(field.monomial(1, h.radius), gamma))
            parts.append(VComp("<", w, lit))
    return conj(parts)


def _absorb_inf(phi):
    """Drop radius conditions implied by an equality with inf on the same
    variable within a conjunction."""
    if not isinstance(phi, And):
        return phi
    pinned = set()
    for a in phi.args:
        if (
            isinstance(a, RVEq)
            and isinstance(a.left, RVVarT)
            and isinstance(a.right, RVLitT)
            and a.right.value.is_inf
        ):
            pinned.add(a.left.name)
    if not pinned:
        return phi
    kept = []
    for a in phi.args:
        if (
            isinstance(a, VComp)
            and a.op == "<="
            and isinstance(a.right, RVVarT)
            and a.right.name in pinned
            and isinstance(a.left, RVLitT)
        ):
            continue
        kept.append(a)
    return conj(kept)
