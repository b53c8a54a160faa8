"""Frozen copy of the hand-written formula walks.

Before each formula node declared its subnode fields, ``hqe.formula`` found
subterms with one ``isinstance`` chain per walk: ``term_vars`` and
``free_vars`` collected variables, ``subst_term`` and ``subst`` replaced
them (checking sort and order, with quantifiers shadowing their variable),
and ``has_field_quantifier`` searched for a field quantifier.  This module
keeps those chains so that tests can check the generic walks against them.
"""

from __future__ import annotations

from hqe.errors import OrderMismatch
from hqe.formula import (
    And,
    ExistsF,
    ExistsRV,
    FAdd,
    FalseF,
    FLit,
    FMul,
    FNeg,
    ForallF,
    ForallRV,
    FPow,
    FVar,
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
)


def _children(node):
    if isinstance(node, (And, Or)):
        return node.args
    if isinstance(node, (Not,)):
        return (node.arg,)
    if isinstance(node, Implies):
        return (node.left, node.right)
    if isinstance(node, (ExistsF, ForallF, ExistsRV, ForallRV)):
        return (node.body,)
    return ()


def has_field_quantifier(phi) -> bool:
    if isinstance(phi, (ExistsF, ForallF)):
        return True
    for ch in _children(phi):
        if has_field_quantifier(ch):
            return True
    return False


def term_vars(term, out=None):
    out = set() if out is None else out
    if isinstance(term, FVar):
        out.add(term.name)
    elif isinstance(term, RVVarT):
        out.add(term.name)
    elif isinstance(term, (FAdd, FMul, RVMulT)):
        term_vars(term.left, out)
        term_vars(term.right, out)
    elif isinstance(term, (FNeg,)):
        term_vars(term.arg, out)
    elif isinstance(term, (FPow, RVPowT)):
        term_vars(term.base, out)
    elif isinstance(term, (RVOf, RVProjT)):
        term_vars(term.arg, out)
    elif isinstance(term, RVSumT):
        for a in term.args:
            term_vars(a, out)
    return out


def free_vars(phi, bound=frozenset()):
    if isinstance(phi, (TrueF, FalseF)):
        return set()
    if isinstance(phi, PolyZero):
        return term_vars(phi.arg) - bound
    if isinstance(phi, RVEq):
        return (term_vars(phi.left) | term_vars(phi.right)) - bound
    if isinstance(phi, OplusA):
        return (term_vars(phi.a) | term_vars(phi.b) | term_vars(phi.c)) - bound
    if isinstance(phi, VComp):
        return (term_vars(phi.left) | term_vars(phi.right)) - bound
    if isinstance(phi, (ExistsF, ForallF)):
        return free_vars(phi.body, bound | {phi.var})
    if isinstance(phi, (ExistsRV, ForallRV)):
        return free_vars(phi.body, bound | {phi.var})
    out = set()
    for ch in _children(phi):
        out |= free_vars(ch, bound)
    return out


_FIELD_TERMS = (FVar, FLit, FAdd, FMul, FNeg, FPow)


def _rv_order(term):
    while isinstance(term, (RVMulT, RVPowT)):
        term = term.left if isinstance(term, RVMulT) else term.base
    if isinstance(term, RVLitT):
        return term.value.order
    if isinstance(term, (RVVarT, RVOf, RVProjT, RVSumT)):
        return term.order
    return None


def subst_term(term, env):
    if isinstance(term, FVar):
        new = env.get(term.name, term)
        if not isinstance(new, _FIELD_TERMS):
            raise OrderMismatch(f"{term.name} is not field-sorted")
        return new
    if isinstance(term, RVVarT):
        new = env.get(term.name, term)
        order = _rv_order(new)
        if order is None:
            raise OrderMismatch(f"{term.name} is not RV-sorted")
        if order != term.order:
            raise OrderMismatch(f"{term.name} has order {order}, expected {term.order}")
        return new
    if isinstance(term, FAdd):
        return FAdd(subst_term(term.left, env), subst_term(term.right, env))
    if isinstance(term, FMul):
        return FMul(subst_term(term.left, env), subst_term(term.right, env))
    if isinstance(term, FNeg):
        return FNeg(subst_term(term.arg, env))
    if isinstance(term, FPow):
        return FPow(subst_term(term.base, env), term.exp)
    if isinstance(term, RVOf):
        return RVOf(term.order, subst_term(term.arg, env))
    if isinstance(term, RVMulT):
        return RVMulT(subst_term(term.left, env), subst_term(term.right, env))
    if isinstance(term, RVPowT):
        return RVPowT(subst_term(term.base, env), term.exp)
    if isinstance(term, RVProjT):
        return RVProjT(term.order, subst_term(term.arg, env))
    if isinstance(term, RVSumT):
        return RVSumT(term.order, tuple(subst_term(a, env) for a in term.args))
    return term


def subst(phi, env):
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, PolyZero):
        return PolyZero(subst_term(phi.arg, env))
    if isinstance(phi, RVEq):
        return RVEq(subst_term(phi.left, env), subst_term(phi.right, env))
    if isinstance(phi, OplusA):
        return OplusA(
            phi.order, subst_term(phi.a, env), subst_term(phi.b, env), subst_term(phi.c, env)
        )
    if isinstance(phi, VComp):
        return VComp(phi.op, subst_term(phi.left, env), subst_term(phi.right, env))
    if isinstance(phi, Not):
        return Not(subst(phi.arg, env))
    if isinstance(phi, And):
        return And(tuple(subst(a, env) for a in phi.args))
    if isinstance(phi, Or):
        return Or(tuple(subst(a, env) for a in phi.args))
    if isinstance(phi, Implies):
        return Implies(subst(phi.left, env), subst(phi.right, env))
    if isinstance(phi, (ExistsF, ForallF)):
        inner = {k: v for k, v in env.items() if k != phi.var}
        return type(phi)(phi.var, subst(phi.body, inner))
    if isinstance(phi, (ExistsRV, ForallRV)):
        inner = {k: v for k, v in env.items() if k != phi.var}
        return type(phi)(phi.var, phi.order, subst(phi.body, inner))
    raise TypeError(f"not a formula: {phi!r}")
