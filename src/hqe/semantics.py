"""Evaluation of formulas over concrete field and leading-term values.

Quantifiers over the field sort are eliminated by the engine under the
assignment; quantifiers over leading-term sorts are evaluated only for the
effective patterns the engine itself emits: the two-witness severity
pattern (the collision test chi) and the guarded universal pattern from the
ball intersection analysis.  Everything else raises NonEffectiveQuantifier.
"""

from __future__ import annotations

from .errors import NonEffectiveQuantifier, OrderMismatch, PrecisionExhausted
from .field import Field, FieldElem
from .formula import (
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
    free_vars,
)
from .rv import RVElem, oplus_holds, rv, rv_sum_analyze
from .valq import INF, holds


def eval_field_term(term, env, field: Field) -> FieldElem:
    if isinstance(term, FVar):
        try:
            val = env[term.name]
        except KeyError:
            raise NonEffectiveQuantifier(f"unassigned field variable {term.name}") from None
        if not isinstance(val, FieldElem):
            raise OrderMismatch(f"{term.name} is not field-sorted")
        return val
    if isinstance(term, FLit):
        return term.value
    if isinstance(term, FAdd):
        return eval_field_term(term.left, env, field) + eval_field_term(term.right, env, field)
    if isinstance(term, FMul):
        return eval_field_term(term.left, env, field) * eval_field_term(term.right, env, field)
    if isinstance(term, FNeg):
        return -eval_field_term(term.arg, env, field)
    if isinstance(term, FPow):
        return eval_field_term(term.base, env, field) ** term.exp
    raise TypeError(f"not a field term: {term!r}")


def eval_rv_term(term, env, field: Field) -> RVElem:
    if isinstance(term, RVVarT):
        try:
            val = env[term.name]
        except KeyError:
            raise NonEffectiveQuantifier(f"unassigned variable {term.name}") from None
        if not isinstance(val, RVElem):
            raise OrderMismatch(f"{term.name} is not RV-sorted")
        if val.order != term.order:
            raise OrderMismatch(f"{term.name} has order {val.order}, expected {term.order}")
        return val
    if isinstance(term, RVLitT):
        return term.value
    if isinstance(term, RVOf):
        return rv(eval_field_term(term.arg, env, field), term.order)
    if isinstance(term, RVMulT):
        return eval_rv_term(term.left, env, field) * eval_rv_term(term.right, env, field)
    if isinstance(term, RVPowT):
        return eval_rv_term(term.base, env, field) ** term.exp
    if isinstance(term, RVProjT):
        return eval_rv_term(term.arg, env, field).project(term.order)
    if isinstance(term, RVSumT):
        args = [eval_rv_term(a, env, field) for a in term.args]
        orders = {a.order for a in args}
        if len(orders) != 1:
            raise OrderMismatch("sum over mixed orders")
        gamma = orders.pop()
        if term.order > gamma:
            raise OrderMismatch(f"cannot project a sum of order {gamma} up to {term.order}")
        analysis = rv_sum_analyze(args)
        if analysis.well_defined:
            return analysis.result.project(term.order)
        if analysis.severity <= gamma - term.order:
            total = field.zero()
            for a in args:
                total = total + a.rep()
            return rv(total, term.order)
        raise PrecisionExhausted(
            f"sum of severity {analysis.severity} is not determined at order {term.order}"
        )
    raise TypeError(f"not an rv term: {term!r}")


def evaluate(phi, env, field: Field) -> bool:
    """Truth value of a formula under a concrete assignment."""
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, PolyZero):
        y = eval_field_term(phi.arg, env, field)
        if y.is_zero:
            return True
        if y.is_small:
            raise PrecisionExhausted("equation undecided at available precision")
        return False
    if isinstance(phi, RVEq):
        a = eval_rv_term(phi.left, env, field)
        b = eval_rv_term(phi.right, env, field)
        if a.order != b.order:
            raise OrderMismatch(f"comparing orders {a.order} and {b.order}")
        return a == b
    if isinstance(phi, OplusA):
        a = eval_rv_term(phi.a, env, field)
        b = eval_rv_term(phi.b, env, field)
        c = eval_rv_term(phi.c, env, field)
        for x in (a, b, c):
            if x.order != phi.order:
                raise OrderMismatch(f"oplus operand of order {x.order}, expected {phi.order}")
        return oplus_holds(a, b, c)
    if isinstance(phi, VComp):
        va = eval_rv_term(phi.left, env, field).val()
        vb = eval_rv_term(phi.right, env, field).val()
        return holds(va, vb, phi.op)
    if isinstance(phi, Not):
        return not evaluate(phi.arg, env, field)
    if isinstance(phi, And):
        return all(evaluate(a, env, field) for a in phi.args)
    if isinstance(phi, Or):
        return any(evaluate(a, env, field) for a in phi.args)
    if isinstance(phi, Implies):
        return (not evaluate(phi.left, env, field)) or evaluate(phi.right, env, field)
    if isinstance(phi, (ExistsF, ForallF)):
        from .qe import qe

        return evaluate(qe(phi, field, env), env, field)
    if isinstance(phi, (ExistsRV, ForallRV)):
        return _eval_rv_quantifier(phi, env, field)
    raise TypeError(f"not a formula: {phi!r}")


# ---- effective leading-term quantifier patterns ------------------------------


def two_witness_pattern(terms, gamma: int, w1="_w1", w2="_w2"):
    """EX w1 w2 : RV[gamma]. sum(terms) ~ w1 and ~ w2 with v(w1) != v(w2).

    True exactly when the severity of the sum exceeds gamma: the collision
    test chi, decided by severity analysis rather than search.
    """
    body = conj(
        [
            _sum_chain(terms, gamma, w1, 0),
            _sum_chain(terms, gamma, w2, 1),
            VComp("!=", RVVarT(w1, gamma), RVVarT(w2, gamma)),
        ]
    )
    return ExistsRV(w1, gamma, ExistsRV(w2, gamma, body))


def _sum_chain(terms, gamma, target: str, tag: int):
    terms = list(terms)
    if len(terms) == 1:
        return RVEq(RVVarT(target, gamma), terms[0])
    if len(terms) == 2:
        return OplusA(gamma, terms[0], terms[1], RVVarT(target, gamma))
    aux = f"_u{tag}_{len(terms)}"
    rest = [RVVarT(aux, gamma)] + terms[2:]
    return ExistsRV(
        aux,
        gamma,
        conj([OplusA(gamma, terms[0], terms[1], RVVarT(aux, gamma)), _sum_chain(rest, gamma, target, tag)]),
    )


def guarded_forall_pattern(var: str, gamma: int, proj_order: int, guard_value, body):
    """ALL var : RV[gamma]. (proj[d](var) = guard -> body): the ball
    analysis' universal pattern, evaluated at one lift of the guard."""
    return ForallRV(
        var,
        gamma,
        Implies(RVEq(RVProjT(proj_order, RVVarT(var, gamma)), guard_value), body),
    )


def _match_chain(phi, target: str, gamma: int, bound):
    """If phi asserts sum(terms) ~ target through an oplus chain, return the
    terms; the auxiliary variables must be existentially bound in ``bound``."""
    if isinstance(phi, RVEq) and isinstance(phi.left, RVVarT) and phi.left.name == target:
        return [phi.right]
    if isinstance(phi, OplusA) and isinstance(phi.c, RVVarT) and phi.c.name == target:
        return [phi.a, phi.b]
    if isinstance(phi, ExistsRV) and phi.order == gamma:
        aux = phi.var
        inner = phi.body
        if not isinstance(inner, And) or len(inner.args) != 2:
            return None
        first, rest = inner.args
        if not (
            isinstance(first, OplusA)
            and isinstance(first.c, RVVarT)
            and first.c.name == aux
        ):
            return None
        tail = _match_chain(rest, target, gamma, bound | {aux})
        if tail is None or not tail or not (
            isinstance(tail[0], RVVarT) and tail[0].name == aux
        ):
            return None
        return [first.a, first.b] + tail[1:]
    return None


def _match_two_witness(phi):
    """Recognize the two-witness severity pattern; returns (terms, gamma)."""
    if not isinstance(phi, ExistsRV):
        return None
    w1, gamma = phi.var, phi.order
    inner = phi.body
    if not (isinstance(inner, ExistsRV) and inner.order == gamma):
        return None
    w2 = inner.var
    body = inner.body
    if not isinstance(body, And) or len(body.args) != 3:
        return None
    chain1, chain2, comp = body.args
    if not (
        isinstance(comp, VComp)
        and comp.op == "!="
        and isinstance(comp.left, RVVarT)
        and isinstance(comp.right, RVVarT)
        and {comp.left.name, comp.right.name} == {w1, w2}
    ):
        return None
    t1 = _match_chain(chain1, w1, gamma, frozenset())
    t2 = _match_chain(chain2, w2, gamma, frozenset())
    if t1 is None or t2 is None or t1 != t2:
        return None
    return t1, gamma


def _eval_rv_quantifier(phi, env, field: Field) -> bool:
    if phi.var not in free_vars(phi.body):
        return evaluate(phi.body, env, field)
    matched = _match_two_witness(phi)
    if matched is not None:
        terms, gamma = matched
        values = [eval_rv_term(t, env, field) for t in terms]
        analysis = rv_sum_analyze(values)
        return (not analysis.well_defined) and analysis.severity > gamma
    if isinstance(phi, ForallRV) and isinstance(phi.body, Implies):
        guard, body = phi.body.left, phi.body.right
        # the guarded body must itself be a severity pattern for evaluation
        # at a single lift of the guard to be justified
        matched = None
        if (
            isinstance(guard, RVEq)
            and isinstance(guard.left, RVProjT)
            and isinstance(guard.left.arg, RVVarT)
            and guard.left.arg.name == phi.var
            and phi.var not in free_vars(guard.right)
        ):
            matched = _match_two_witness(body)
        if matched is not None:
            terms, gamma = matched
            target = eval_rv_term(guard.right, env, field)
            if target.is_inf:
                # the guard admits only the zero class
                lift = RVElem.inf(field, phi.order)
                return evaluate(body, {**env, phi.var: lift}, field)
            lift = rv(target.rep(), phi.order)
            values = [eval_rv_term(t, {**env, phi.var: lift}, field) for t in terms]
            low = min((v.val() for v in values), default=INF)
            # varying the bound variable inside the guard class moves the sum
            # by elements of value > v(guard) + guard order; for the severity
            # comparison against gamma to be choice-independent this must
            # reach past the witness threshold
            if not target.val() + guard.left.order >= low + gamma:
                raise NonEffectiveQuantifier(
                    "guard does not pin the variable deeply enough"
                )
            analysis = rv_sum_analyze(values)
            return (not analysis.well_defined) and analysis.severity > gamma
    raise NonEffectiveQuantifier(
        "leading-term quantifier outside the effective patterns"
    )

