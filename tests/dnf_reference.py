"""Frozen copy of the disjunctive-normal-form decision of one field block.

Before the cell partition, ``hqe.qe.decide_exists_block`` put the matrix
into negation normal form, multiplied it out into at most 4,096
conjunctions of signed literals, and decided each conjunction: by the roots
of one of its equations, or by intersecting the swiss-cheese regions of its
literals pairwise.  This module keeps that path, with the signed literal
regions and the pairwise region intersection it used, so that tests can
check the current decision against it.
"""

from __future__ import annotations

from hqe.balls import Ball, SwissCheese
from hqe.errors import NonEffectiveQuantifier
from hqe.field import Field
from hqe.formula import (
    FALSE,
    TRUE,
    And,
    ExistsF,
    ExistsRV,
    FLit,
    ForallF,
    ForallRV,
    FalseF,
    Implies,
    Not,
    OplusA,
    Or,
    PolyZero,
    RVEq,
    TrueF,
    VComp,
    conj,
    disj,
    free_vars,
    neg,
    subst,
)
from hqe.hensel import field_roots, is_root, resolution_horizon
from hqe.poly import Poly, poly_gcd
from hqe.qe import rvterm_to_poly, term_to_poly
from hqe.regions import region_all, roots_region, vcomp_region
from hqe.semantics import evaluate
from hqe.valq import FLIP, INF, NEGATED, holds
from walker_reference import term_vars

Region = list


def region_union(a: Region, b: Region) -> Region:
    return list(a) + list(b)


def region_intersect(a: Region, b: Region) -> Region:
    out = []
    for x in a:
        for y in b:
            z = x.intersect(y)
            if not z.is_empty:
                out.append(z)
    return out


def region_nonempty(region: Region) -> bool:
    return any(not c.is_empty for c in region)


def region_without_points(region: Region, points) -> Region:
    return [c.minus_balls([Ball.point(p) for p in points]) for c in region]


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
