"""Frozen copy of the pullback normal form with its own formula walk.

Before ``hqe.qe.normal_form`` read its atoms through the decision engine's
atom reader and built each cell's D with the engine's boolean fold, it
scanned the top-level atoms for their (Poly, order) pairs, kept the distinct
nonconstant polynomials in a list, and rebuilt phi on every cell with a
walk of its own (``rebuild``), converting every atom's terms again and
finding each polynomial's piece by its index in that list.  This module
keeps that path so that tests can check the current normal form against it
on formulas both read alike: one variable, no leading-term quantifier, and
rv equalities of equal orders.
"""

from __future__ import annotations

from eval_rv_reference import piece_vq
from hqe.decomp import coeff_unresolved, rv_decompose
from hqe.errors import NonEffectiveQuantifier
from hqe.field import Field, FieldElem
from hqe.formula import (
    FALSE,
    TRUE,
    And,
    ExistsF,
    FalseF,
    ForallF,
    Not,
    OplusA,
    Or,
    PolyZero,
    RVEq,
    RVLitT,
    RVMulT,
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
    neg,
    subst,
    with_children,
)
from hqe.hensel import same_point
from hqe.poly import Poly
from hqe.qe import (
    NormalForm,
    _absorb_inf,
    _as_literal,
    _atoms,
    _fold_closed,
    _membership_formula,
    _qe_walk,
    rvterm_to_poly,
    term_to_poly,
)
from hqe.rv import RVElem, rv


def _side_polys(sides, var, field, what):
    """(order, Poly) of every rv-term side of an atom."""
    out = []
    for side in sides:
        data = rvterm_to_poly(side, var, field)
        if data is None:
            raise NonEffectiveQuantifier(f"{what} not polynomial in the variable")
        out.append(data)
    return out


def normal_form(phi, var: str, field: Field, params=None) -> NormalForm:
    """Present {x : phi(x)} as a pullback from the leading-term sorts."""
    if params:
        phi = subst(phi, {k: _as_literal(v) for k, v in params.items()})
    extra = free_vars(phi) - {var}
    if extra:
        raise NonEffectiveQuantifier(f"parameters must be concrete: {sorted(extra)}")
    phi = _fold_closed(_qe_walk(phi, field), field)
    # (poly, order) data needed to linearize every atom in var
    acc = []
    for a in _atoms(phi):
        if isinstance(a, PolyZero):
            acc.append((term_to_poly(a.arg, var, field), 0))
        elif isinstance(a, RVEq):
            acc += [(P, d) for d, P in _side_polys((a.left, a.right), var, field, "atom")]
        elif isinstance(a, VComp):
            acc += [(P, 0) for _, P in _side_polys((a.left, a.right), var, field, "atom")]
        elif isinstance(a, OplusA):
            acc += [(P, a.order) for _, P in _side_polys((a.a, a.b, a.c), var, field, "atom")]
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
            gamma = max(gamma, d + piece_vq(piece))
    centers = []

    def center_index(a: FieldElem) -> int:
        for i, c in enumerate(centers):
            if same_point(a, c):
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
            need = delta + piece_vq(piece)
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
            if isinstance(node, (ExistsF, ForallF)):
                raise NonEffectiveQuantifier(f"unsupported node in normal form: {node!r}")
            kids = []
            for sub in children(node):
                kids.append(rebuild(sub))
            return with_children(node, kids)

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
