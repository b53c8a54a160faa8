"""Field-quantifier elimination over concrete parameters, the linear
ball-intersection elimination, the decision procedure, and the one-variable
pullback normal form.

With all parameters instantiated, every branch condition of the uniform
procedure is decided rather than disjuncted: an existential with an
equation conjunct is resolved by the certified root list of the equation;
a purely leading-term existential is resolved by intersecting the solution
regions of its literals, which the region calculus expresses as swiss
cheeses.  Formulas with no field quantifiers pass through unchanged."""

from __future__ import annotations

from .balls import Ball, SwissCheese
from .decomp import _int_val, coeff_unresolved, rv_decompose
from .errors import (
    NonEffectiveQuantifier,
    PrecisionExhausted,
    PreconditionViolated,
)
from .field import Field, FieldElem
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
    conj,
    disj,
    free_vars,
    has_field_quantifier,
    neg,
    subst,
    term_vars,
)
from .hensel import field_roots, is_root, resolution_horizon
from .poly import Poly, poly_gcd
from .regions import (
    Region,
    region_all,
    region_intersect,
    region_nonempty,
    region_union,
    region_without_points,
    roots_region,
    vcomp_region,
)
from .rv import RVElem, rv
from .semantics import evaluate
from .valq import FLIP, INF, NEGATED, as_order, holds


# ---- linear systems: the ball intersection elimination ------------------------


def eliminate_linear_exists(constraints, field: Field, case_log=None) -> bool:
    """Decide EX x. /\\ rv[d_i](z_i) = rv[d_i](a_i x - b_i) with a_i != 0.

    Each constraint is the open ball around (b_i + z~_i)/a_i of radius
    v(z_i/a_i) + d_i; the pairwise analysis runs through the four cases of
    the ball intersection elimination (logged in case_log when given), and
    finitely many pairwise intersecting balls share a point.
    """
    balls = []
    singles = []
    for z, a, b, delta in constraints:
        delta = as_order(delta)
        if a.is_zero or a.is_small:
            raise PreconditionViolated("the coefficient of x must be nonzero")
        if z.is_small:
            raise PrecisionExhausted("leading term of a constraint side unknown")
        center = b / a
        if z.is_zero:
            singles.append((center, delta))
            continue
        zs = z / a
        rep = rv(zs, delta).rep()
        balls.append(
            {
                "center": center + rep,
                "radius": zs.val() + delta,
                "z": zs,
                "c": center,
                "delta": delta,
            }
        )
    # singletons force the witness
    for x0, _ in singles:
        for other, _ in singles:
            d = x0 - other
            if not d.is_zero and not (d.is_small and d.rel >= resolution_horizon(x0.field)):
                return False
        for B in balls:
            if not _in_open_ball(x0, B):
                return False
        return True
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not _pair_intersects(balls[i], balls[j], case_log):
                return False
    return True


def _in_open_ball(x, B) -> bool:
    return (x - B["center"]).val_lb() > B["radius"]


def _pair_intersects(B1, B2, case_log) -> bool:
    if B1["radius"] > B2["radius"]:
        B1, B2 = B2, B1
    vz1, vz2 = B1["z"].val(), B2["z"].val()
    dcc = B1["c"] - B2["c"]
    vcc = dcc.val_lb()
    if vcc < vz1:
        case = 4
    elif vz2 < vz1:
        case = 3
    elif B1["delta"] <= B2["delta"]:
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
        return (B1["z"] + dcc - B2["z"]).val_lb() > B1["radius"]
    # cases 1 and 2: the severity criterion on z_1 - z_2 + (c_1 - c_2)
    return (B2["center"] - B1["center"]).val_lb() > B1["radius"]


# ---- atoms to polynomials ------------------------------------------------------


def term_to_poly(term, var: str, field: Field) -> Poly:
    """The field term as a polynomial in var (all other variables must
    already be literals)."""
    if isinstance(term, FVar):
        if term.name != var:
            raise NonEffectiveQuantifier(f"free field variable {term.name}")
        return Poly(field, [field.zero(), field.one()])
    if isinstance(term, FLit):
        return Poly(field, [term.value])
    if isinstance(term, FAdd):
        return term_to_poly(term.left, var, field) + term_to_poly(term.right, var, field)
    if isinstance(term, FMul):
        return term_to_poly(term.left, var, field) * term_to_poly(term.right, var, field)
    if isinstance(term, FNeg):
        return -term_to_poly(term.arg, var, field)
    if isinstance(term, FPow):
        if term.exp < 0:
            base = term_to_poly(term.base, var, field)
            if base.degree != 0:
                raise NonEffectiveQuantifier("negative power of a non-constant term")
            return Poly(field, [base.coeffs[0] ** term.exp])
        out = Poly(field, [field.one()])
        base = term_to_poly(term.base, var, field)
        for _ in range(term.exp):
            out = out * base
        return out
    raise TypeError(f"not a field term: {term!r}")


def rvterm_to_poly(term, var: str, field: Field):
    """Express an rv term in var as (order, Poly): the term denotes
    rv[order](P(x)).  Multiplication and projection are pushed through the
    quotient map; returns None if the term cannot be so expressed."""
    if isinstance(term, RVOf):
        return term.order, term_to_poly(term.arg, var, field)
    if isinstance(term, RVLitT):
        if term.value.is_inf:
            return term.value.order, Poly(field, [])
        return term.value.order, Poly(field, [term.value.rep()])
    if isinstance(term, RVProjT):
        inner = rvterm_to_poly(term.arg, var, field)
        if inner is None:
            return None
        return term.order, inner[1]
    if isinstance(term, RVMulT):
        left = rvterm_to_poly(term.left, var, field)
        right = rvterm_to_poly(term.right, var, field)
        if left is None or right is None:
            return None
        if left[0] != right[0]:
            return None
        return left[0], left[1] * right[1]
    if isinstance(term, RVPowT):
        inner = rvterm_to_poly(term.base, var, field)
        if inner is None or term.exp < 0:
            return None
        out = Poly(field, [field.one()])
        for _ in range(term.exp):
            out = out * inner[1]
        return inner[0], out
    return None


# ---- literal regions -----------------------------------------------------------


def literal_region(atom, positive: bool, var: str, field: Field) -> Region:
    """The set of witnesses x satisfying the literal, as a union of cheeses."""
    if isinstance(atom, PolyZero):
        return _equation_region(term_to_poly(atom.arg, var, field), positive, field)
    if isinstance(atom, RVEq):
        return _rveq_region(atom, positive, var, field)
    if isinstance(atom, VComp):
        return _vcomp_atom_region(atom, positive, var, field)
    if isinstance(atom, OplusA):
        return _oplus_region(atom, positive, var, field)
    raise NonEffectiveQuantifier(f"unsupported atom {atom!r}")


def _equation_region(P: Poly, positive, field) -> Region:
    if P.is_zero:
        return region_all(field) if positive else []
    if P.degree == 0:
        ok = P.coeffs[0].is_zero
        return region_all(field) if ok == positive else []
    reg, roots = roots_region(P, field)
    if positive:
        return reg
    return region_without_points(region_all(field), roots)


def _side_polys(sides, var, field, what):
    """(order, Poly) of every rv-term side of an atom."""
    out = []
    for side in sides:
        data = rvterm_to_poly(side, var, field)
        if data is None:
            raise NonEffectiveQuantifier(f"{what} not polynomial in the variable")
        out.append(data)
    return out


def _rveq_region(atom: RVEq, positive, var, field) -> Region:
    (d1, P1), (d2, P2) = _side_polys((atom.left, atom.right), var, field, "leading-term term")
    if d1 != d2:
        raise NonEffectiveQuantifier(f"comparing leading terms of orders {d1} and {d2}")
    return _rv_eq_polys_region(P1, P2, d1, positive, field)


def _rv_eq_polys_region(P1: Poly, P2: Poly, order: int, positive, field) -> Region:
    """{x : rv_order(P1(x)) = rv_order(P2(x))} or its complement."""
    if P1.is_zero and P2.is_zero:
        return region_all(field) if positive else []
    if P2.is_zero:
        return _equation_region(P1, positive, field)
    if P1.is_zero:
        return _equation_region(P2, positive, field)
    # equal leading terms <=> v(P1 - P2) > v(P2) + order away from the zeros
    # of P2, and <=> P1 = 0 at them
    diff = P1 + (-P2)
    if diff.is_zero:
        return region_all(field) if positive else []
    joint = [r for r in field_roots(P2) if is_root(P1, r)]
    if positive:
        reg = vcomp_region(diff, P2, ">", field, order)
        return reg + [SwissCheese.of_ball(Ball.point(r)) for r in joint]
    reg = vcomp_region(diff, P2, "<=", field, order)
    return region_without_points(reg, joint)


def _vcomp_atom_region(atom: VComp, positive, var, field) -> Region:
    op = atom.op if positive else NEGATED[atom.op]
    (_, P1), (_, P2) = _side_polys((atom.left, atom.right), var, field, "value comparison")
    if P1.is_zero and P2.is_zero:
        return region_all(field) if holds(INF, INF, op) else []
    if P2.is_zero:
        return vcomp_region(P1, None, op, field)
    if P1.is_zero:
        return vcomp_region(P2, None, FLIP[op], field)
    return vcomp_region(P1, P2, op, field)


def _oplus_region(atom: OplusA, positive, var, field) -> Region:
    """oplus holds exactly when v(P3 - P1 - P2) > min(v(P1), v(P2)) + d,
    with the degenerate case of both summands vanishing handled pointwise
    (there the relation asks the third side to vanish as well)."""
    (_, P1), (_, P2), (_, P3) = _side_polys((atom.a, atom.b, atom.c), var, field, "oplus operand")
    d = atom.order
    S = P3 + (-P1) + (-P2)
    op = ">" if positive else "<="

    def compare(S_, P_):
        if S_.is_zero:
            return region_all(field) if positive else []
        if P_.is_zero:
            eff = "=" if positive else "!="
            return vcomp_region(S_, None, eff, field)
        return vcomp_region(S_, P_, op, field, d)

    if P1.is_zero and P2.is_zero:
        # oplus(inf, inf, c) asks c = inf
        return _equation_region(P3, positive, field)
    if P1.is_zero:
        # oplus(inf, b, c) asks c = b
        return _rv_eq_polys_region(P3, P2, atom.order, positive, field)
    if P2.is_zero:
        return _rv_eq_polys_region(P3, P1, atom.order, positive, field)
    low1 = vcomp_region(P1, P2, "<=", field)
    low2 = vcomp_region(P2, P1, "<", field)
    reg = region_union(
        region_intersect(low1, compare(S, P1)),
        region_intersect(low2, compare(S, P2)),
    )
    # points where both summands vanish: there the relation asks the third
    # side to vanish as well
    joint = _dedupe_roots(
        [
            r
            for r in field_roots(P1) + ([] if P1 == P2 else field_roots(P2))
            if is_root(P1, r) and is_root(P2, r)
        ],
        field,
    )
    fixups = [r for r in joint if is_root(P3, r) == positive]
    reg = region_without_points(reg, joint)
    return reg + [SwissCheese.of_ball(Ball.point(r)) for r in fixups]


def _dedupe_roots(roots, field):
    out = []
    for r in roots:
        if not any(
            (r - s).val_lb() >= resolution_horizon(field) for s in out
        ):
            out.append(r)
    return out


# ---- the engine ---------------------------------------------------------------


def _nnf(phi, positive=True):
    if isinstance(phi, Not):
        return _nnf(phi.arg, not positive)
    if isinstance(phi, Implies):
        return _nnf(Or((Not(phi.left), phi.right)), positive)
    if isinstance(phi, And):
        parts = tuple(_nnf(a, positive) for a in phi.args)
        return conj(parts) if positive else disj(parts)
    if isinstance(phi, Or):
        parts = tuple(_nnf(a, positive) for a in phi.args)
        return disj(parts) if positive else conj(parts)
    if isinstance(phi, TrueF):
        return TRUE if positive else FALSE
    if isinstance(phi, FalseF):
        return FALSE if positive else TRUE
    return phi if positive else Not(phi)


def _dnf(phi) -> list[list]:
    """List of conjunctions of (atom-or-opaque, sign) literals."""
    if isinstance(phi, Or):
        out = []
        for a in phi.args:
            out.extend(_dnf(a))
        return out
    if isinstance(phi, And):
        branches = [[]]
        for a in phi.args:
            sub = _dnf(a)
            branches = [br + s for br in branches for s in sub]
            if len(branches) > 4096:
                raise NonEffectiveQuantifier("matrix too large to normalize")
        return branches
    if isinstance(phi, Not):
        return [[(phi.arg, False)]]
    if isinstance(phi, TrueF):
        return [[]]
    if isinstance(phi, FalseF):
        return []
    return [[(phi, True)]]


def _fold_constants(phi, protected, field):
    """Evaluate subformulas involving none of the protected variables."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if not (free_vars(phi) & protected):
        return TRUE if evaluate(phi, {}, field) else FALSE
    if isinstance(phi, Not):
        return neg(_fold_constants(phi.arg, protected, field))
    if isinstance(phi, And):
        return conj([_fold_constants(a, protected, field) for a in phi.args])
    if isinstance(phi, Or):
        return disj([_fold_constants(a, protected, field) for a in phi.args])
    if isinstance(phi, Implies):
        return _fold_constants(Or((Not(phi.left), phi.right)), protected, field)
    return phi


def decide_exists_block(varlist, matrix, field: Field) -> bool:
    """Decide EX x1 ... xn : K. matrix, the matrix being free of field
    quantifiers and of parameters; each branch must pin all but one
    variable through equations, the last one falling to the region path."""
    extra = free_vars(matrix) - set(varlist)
    if extra:
        raise NonEffectiveQuantifier(
            f"parameters must be concrete before elimination: {sorted(extra)}"
        )
    matrix = _fold_constants(matrix, set(varlist), field)
    for branch in _dnf(_nnf(matrix)):
        if _branch_block_satisfiable(branch, list(varlist), field):
            return True
    return False


def _branch_block_satisfiable(branch, varlist, field) -> bool:
    live = [v for v in varlist if any(v in free_vars(lit) for lit, _ in branch)]
    if not live:
        return all(evaluate(lit, {}, field) == sign for lit, sign in branch)
    if len(live) == 1:
        return _branch_satisfiable(branch, live[0], field)
    # pin some variable by an equation involving it alone
    for lit, sign in branch:
        if not (sign and isinstance(lit, PolyZero)):
            continue
        involved = term_vars(lit.arg) & set(live)
        if len(involved) != 1:
            continue
        x = involved.pop()
        f = term_to_poly(lit.arg, x, field)
        if f.degree is None or f.degree == 0:
            continue
        rest = [(l, s) for l, s in branch if l is not lit]
        for root in field_roots(f):
            new_branch = []
            ok = True
            for l, s in rest:
                l2 = subst(l, {x: FLit(root)})
                if free_vars(l2):
                    new_branch.append((l2, s))
                    continue
                if isinstance(l2, PolyZero):
                    holds = _holds_at(l, s, x, root, f, field)
                else:
                    holds = evaluate(l2, {}, field) == s
                if not holds:
                    ok = False
                    break
            if ok and _branch_block_satisfiable(
                new_branch, [v for v in live if v != x], field
            ):
                return True
        return False
    raise NonEffectiveQuantifier(
        "no quantified variable is pinned by an equation of its own"
    )


def _as_literal(v):
    if isinstance(v, FieldElem):
        return FLit(v)
    if isinstance(v, RVElem):
        return RVLitT(v)
    return v


def _branch_satisfiable(branch, var, field) -> bool:
    equations = []
    others = []
    for lit, sign in branch:
        if isinstance(lit, (ExistsRV, ForallRV, ExistsF, ForallF)):
            raise NonEffectiveQuantifier(
                "quantified subformula still involves the field variable"
            )
        if isinstance(lit, PolyZero) and sign:
            f = term_to_poly(lit.arg, var, field)
            if f.is_zero:
                continue
            if f.degree == 0:
                if not f.coeffs[0].is_zero:
                    return False
                continue
            equations.append(f)
        else:
            others.append((lit, sign))
    if equations:
        equations.sort(key=lambda f: f.degree)
        f = equations[0]
        for root in field_roots(f):
            if all(_holds_at(lit, sign, var, root, f, field) for lit, sign in branch):
                return True
        return False
    region = region_all(field)
    for lit, sign in others:
        region = region_intersect(region, literal_region(lit, sign, var, field))
        if not region:
            return False
    return region_nonempty(region)


def _holds_at(lit, sign, var, root, source, field) -> bool:
    if isinstance(lit, PolyZero):
        g = term_to_poly(lit.arg, var, field)
        y = g(root)
        if y.is_zero:
            return sign
        if not y.is_small and y.val() < resolution_horizon(field):
            return not sign
        # vanishing at available precision: an approximated root satisfies a
        # second equation exactly when the two polynomials share the root
        h = poly_gcd(source, g)
        shared = h.degree is not None and h.degree >= 1 and is_root(h, root)
        return shared == sign
    return evaluate(lit, {var: root}, field) == sign


def qe(phi, field: Field, params=None):
    """A field-quantifier-free equivalent of phi (parameters concrete).

    Formulas already free of field quantifiers are returned unchanged; a
    quantified subformula is replaced by its decided truth value, innermost
    first.  The output is machine-checked to carry no field quantifiers.
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
    if isinstance(phi, Implies):
        return Implies(_qe_walk(phi.left, field), _qe_walk(phi.right, field))
    if isinstance(phi, (ExistsRV, ForallRV)):
        body = _qe_walk(phi.body, field)
        return type(phi)(phi.var, phi.order, body)
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
    raise TypeError(f"not a formula: {phi!r}")


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
        from .formula import print_formula

        return f"pullback [{cs}] of {print_formula(self.D)}"


def _atom_polys(phi, var, field, acc):
    """Collect (poly, order) data needed to linearize every atom in var."""
    if isinstance(phi, PolyZero):
        acc.append((term_to_poly(phi.arg, var, field), 0))
        return
    if isinstance(phi, RVEq):
        for d, P in _side_polys((phi.left, phi.right), var, field, "atom"):
            acc.append((P, d))
        return
    if isinstance(phi, VComp):
        for _, P in _side_polys((phi.left, phi.right), var, field, "atom"):
            acc.append((P, 0))
        return
    if isinstance(phi, OplusA):
        for _, P in _side_polys((phi.a, phi.b, phi.c), var, field, "atom"):
            acc.append((P, phi.order))
        return
    for ch in (
        phi.args if isinstance(phi, (And, Or)) else
        (phi.arg,) if isinstance(phi, Not) else
        (phi.left, phi.right) if isinstance(phi, Implies) else
        ()
    ):
        _atom_polys(ch, var, field, acc)


def normal_form(phi, var: str, field: Field, params=None) -> NormalForm:
    """Present {x : phi(x)} as a pullback from the leading-term sorts.

    The polynomials of phi are decomposed simultaneously; on each cell every
    atom becomes a leading-term condition on rv(x - center), membership in
    the cell is itself such a condition, and D is the disjunction over
    cells.  In residue characteristic 0 all emitted orders equal the orders
    appearing in phi (0 for order-0 input)."""
    if params:
        phi = subst(phi, {k: _as_literal(v) for k, v in params.items()})
    extra = free_vars(phi) - {var}
    if extra:
        raise NonEffectiveQuantifier(f"parameters must be concrete: {sorted(extra)}")
    phi = _fold_constants(_qe_walk(phi, field), {var}, field)
    acc = []
    _atom_polys(phi, var, field, acc)
    work = [(P, d) for P, d in acc if P.degree is not None and P.degree >= 1]
    if not work:
        # no dependence on the variable beyond trivial atoms
        return NormalForm(field, var, [field.zero()], [0], ["w1"], phi)
    polys = []
    orders = []
    for P, d in work:
        for i, Q in enumerate(polys):
            if Q == P:
                orders[i] = max(orders[i], d)
                break
        else:
            polys.append(P)
            orders.append(d)
    dec = rv_decompose(polys, orders)
    gamma = 0
    for cell in dec.cells:
        for d, piece in zip(orders, cell.pieces):
            gamma = max(gamma, d + _int_val(field, piece.q))
    centers = []

    def center_index(a: FieldElem) -> int:
        for i, c in enumerate(centers):
            d = a - c
            if d.val_lb() >= resolution_horizon(field):
                return i
        centers.append(a)
        return len(centers) - 1

    disjuncts = []
    for cell in dec.cells:
        piece_by_poly = dict(zip(range(len(polys)), cell.pieces))

        def sum_term(P: Poly, delta: int):
            if P.degree is None:
                return RVLitT(RVElem.inf(field, delta))
            if P.degree == 0:
                return RVLitT(rv(P.coeffs[0], delta))
            idx = polys.index(P)
            piece = piece_by_poly[idx]
            need = delta + _int_val(field, piece.q)
            w = RVVarT(f"w{center_index(piece.center) + 1}", gamma)
            wp = w if need == gamma else RVProjT(need, w)
            terms = []
            for j, a in enumerate(piece.coeffs):
                if a.is_zero or coeff_unresolved(field, a):
                    continue
                lit = RVLitT(rv(a, need))
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
            piece = piece_by_poly[polys.index(P)]
            a0 = piece.coeffs[0]
            vanishes = a0.is_zero or coeff_unresolved(field, a0)
            if not vanishes:
                return FALSE
            if piece.m == 0:
                return TRUE
            w = RVVarT(f"w{center_index(piece.center) + 1}", gamma)
            return RVEq(w, RVLitT(RVElem.inf(field, gamma)))

        def rebuild(node):
            if isinstance(node, (TrueF, FalseF)):
                return node
            if isinstance(node, PolyZero):
                return poly_zero_atom(term_to_poly(node.arg, var, field))
            if isinstance(node, RVEq):
                l = rvterm_to_poly(node.left, var, field)
                r = rvterm_to_poly(node.right, var, field)
                return RVEq(sum_term(l[1], l[0]), sum_term(r[1], r[0]))
            if isinstance(node, VComp):
                l = rvterm_to_poly(node.left, var, field)
                r = rvterm_to_poly(node.right, var, field)
                return VComp(node.op, sum_term(l[1], 0), sum_term(r[1], 0))
            if isinstance(node, OplusA):
                sides = [rvterm_to_poly(s, var, field) for s in (node.a, node.b, node.c)]
                return OplusA(node.order, *(sum_term(s[1], node.order) for s in sides))
            if isinstance(node, Not):
                return neg(rebuild(node.arg))
            if isinstance(node, And):
                return conj([rebuild(a) for a in node.args])
            if isinstance(node, Or):
                return disj([rebuild(a) for a in node.args])
            if isinstance(node, Implies):
                return Implies(rebuild(node.left), rebuild(node.right))
            if isinstance(node, (ExistsRV, ForallRV)):
                return type(node)(node.var, node.order, rebuild(node.body))
            raise NonEffectiveQuantifier(f"unsupported node in normal form: {node!r}")

        body = rebuild(phi)
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
    if outer.kind == "ball":
        w = RVVarT(f"w{center_index(outer.center) + 1}", gamma)
        lit = RVLitT(rv(field.monomial(1, outer.radius_int), gamma))
        parts.append(VComp("<=", lit, w))
    elif outer.kind == "point":
        w = RVVarT(f"w{center_index(outer.center) + 1}", gamma)
        parts.append(RVEq(w, RVLitT(RVElem.inf(field, gamma))))
    for h in cheese.holes:
        w = RVVarT(f"w{center_index(h.center) + 1}", gamma)
        if h.kind == "ball":
            lit = RVLitT(rv(field.monomial(1, h.radius_int), gamma))
            parts.append(VComp("<", w, lit))
        else:
            parts.append(Not(RVEq(w, RVLitT(RVElem.inf(field, gamma)))))
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
