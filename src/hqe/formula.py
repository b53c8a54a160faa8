"""The multi-sorted formula language over the field sort K and the leading
term sorts RV[d], with its parser and canonical printer.

Grammar (canonical print mirrors it); the one specification of every text
the toolkit reads:

    formula := implies
    implies := or ["->" implies]
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | quant | atom
    quant   := ("EX" | "ALL") ident ":" ("K" | "RV[" d "]") "." formula
    atom    := "true" | "false" | "(" formula ")"
             | "oplus[" d "](" rvterm "," rvterm "," rvterm ")"
             | "v(" rvterm ")" ("<" | "<=" | "=" | "!=" | ">" | ">=") "v(" rvterm ")"
             | rvterm "=" rvterm
             | fterm ["=" fterm]          (an equation, moved to ... = 0)

    rvterm  := rvfac ("*" rvfac)*         rvfac := rvprim ["^" int]
    rvprim  := "rv[" d "](" fterm ")" | rvlit | "(" rvterm ")"
             | "proj[" d "](" rvterm ")" | "sum[" d "](" rvterm ("," rvterm)* ")"
             | rv-sorted variable
    rvlit   := "rv[" d "]{inf}" | "rv[" d "]{v=" int "; unit=" rat ("," rat)* "}"
                                          (d + 1 digits, the first nonzero;
                                           integers over padic)

    fterm   := ["-"] fprod (("+" | "-") fprod)*
    fprod   := ffac ("*" ffac)*           ffac := fprim ["^" int]
    fprim   := "(" fterm ")" | rat | "t" | "O(t^" int ")" | "O(" p "^" int ")"
             | field variable             ("t" and "O(t^k)" over laurent-q,
                                           "O(p^k)" over padic)

    rat     := int ["/" int]              (a positive denominator; in a
                                           term, no "+" sign)
    int     := ["+" | "-"] digits         d := int, 0 <= d < MAX_DIGIT_SPAN
    ident   := a run of letters, digits and "_"

Whitespace separates tokens and is otherwise ignored; the input is lexed
once (``field._Tokens``).  A sign belongs to a number only right before its
digits, so ``x-1`` is a subtraction and ``(-588)`` a literal.  ``O(t^k)``
is an element known only to have valuation at least k, so ``1 + t + O(t^3)``
is 1 + t known to three digits.  A field literal, as ``Field.parse`` reads
it, is a field term with no variables: ``1 + -1*t^2 + O(t^8)``,
``3/2 + O(7^10)``, ``(1 + t)^-1``.

Variables bound by a quantifier carry its sort; free identifiers are field
sorted unless declared via the parser's rv_vars argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaSyntaxError, OrderMismatch
from .field import LAURENT, Field, FieldElem, _Tokens
from .rv import RVElem, parse_rv_scan

# ---- terms --------------------------------------------------------------


@dataclass(frozen=True)
class FVar:
    name: str


@dataclass(frozen=True)
class FLit:
    value: FieldElem


@dataclass(frozen=True)
class FAdd:
    left: object
    right: object


@dataclass(frozen=True)
class FMul:
    left: object
    right: object


@dataclass(frozen=True)
class FNeg:
    arg: object


@dataclass(frozen=True)
class FPow:
    base: object
    exp: int


@dataclass(frozen=True)
class RVVarT:
    name: str
    order: int


@dataclass(frozen=True)
class RVLitT:
    value: RVElem


@dataclass(frozen=True)
class RVOf:
    order: int
    arg: object  # field term


@dataclass(frozen=True)
class RVMulT:
    left: object
    right: object


@dataclass(frozen=True)
class RVPowT:
    base: object
    exp: int


@dataclass(frozen=True)
class RVProjT:
    order: int
    arg: object


@dataclass(frozen=True)
class RVSumT:
    """Sum of leading terms, projected to ``order``: evaluates through any
    witness of the sum of the arguments (well-defined when the severity is
    at most the argument order minus ``order``)."""

    order: int
    args: tuple


# ---- formulas -------------------------------------------------------------


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class PolyZero:
    arg: object  # field term, asserted = 0


@dataclass(frozen=True)
class RVEq:
    left: object
    right: object


@dataclass(frozen=True)
class OplusA:
    order: int
    a: object
    b: object
    c: object


@dataclass(frozen=True)
class VComp:
    op: str  # "<", "<=", "=", "!=", ">", ">="
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class And:
    args: tuple


@dataclass(frozen=True)
class Or:
    args: tuple


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsF:
    var: str
    body: object


@dataclass(frozen=True)
class ForallF:
    var: str
    body: object


@dataclass(frozen=True)
class ExistsRV:
    var: str
    order: int
    body: object


@dataclass(frozen=True)
class ForallRV:
    var: str
    order: int
    body: object


TRUE = TrueF()
FALSE = FalseF()


def conj(args):
    args = [a for a in args if not isinstance(a, TrueF)]
    if any(isinstance(a, FalseF) for a in args):
        return FALSE
    flat = []
    for a in args:
        flat.extend(a.args if isinstance(a, And) else [a])
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(args):
    args = [a for a in args if not isinstance(a, FalseF)]
    if any(isinstance(a, TrueF) for a in args):
        return TRUE
    flat = []
    for a in args:
        flat.extend(a.args if isinstance(a, Or) else [a])
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(a):
    if isinstance(a, TrueF):
        return FALSE
    if isinstance(a, FalseF):
        return TRUE
    if isinstance(a, Not):
        return a.arg
    return Not(a)


# ---- traversal helpers -----------------------------------------------------


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
    # a loop, not any() over a generator: one stack frame per nesting level
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
    """The order of an rv term, None for a term of another sort."""
    while isinstance(term, (RVMulT, RVPowT)):
        term = term.left if isinstance(term, RVMulT) else term.base
    if isinstance(term, RVLitT):
        return term.value.order
    if isinstance(term, (RVVarT, RVOf, RVProjT, RVSumT)):
        return term.order
    return None


def subst_term(term, env):
    """Substitute variables by literal terms in a field/rv term; a term of
    the wrong sort or order raises OrderMismatch."""
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
    """Substitute variables by FLit / RVLitT terms throughout a formula."""
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


# ---- printing ---------------------------------------------------------------


def _print_fterm(t, prec=0):
    if isinstance(t, FVar):
        return t.name
    if isinstance(t, FLit):
        s, level = _flit_text(t.value)
        return f"({s})" if level < prec else s
    if isinstance(t, FAdd):
        right = t.right
        if isinstance(right, FNeg):
            s = f"{_print_fterm(t.left, 1)} - {_print_fterm(right.arg, 2)}"
        else:
            s = f"{_print_fterm(t.left, 1)} + {_print_fterm(right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, FNeg):
        s = f"-{_print_fterm(t.arg, 3)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, FMul):
        s = f"{_print_fterm(t.left, 2)}*{_print_fterm(t.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(t, FPow):
        return f"{_print_fterm(t.base, 4)}^{t.exp}"
    raise TypeError(f"not a field term: {t!r}")


def _flit_text(x: FieldElem):
    """Literal text in term syntax with its precedence level (1 sum, 2
    product, 3 power, 4 atom); chosen so printing is a fixpoint."""
    if x.is_zero:
        return "0", 4
    if x.field.backend == LAURENT and x.is_exact and not x.is_small and len(x.unit) == 1:
        c, k = x.unit[0], x.v
        cs = str(c)
        if k == 0:
            return cs, (1 if c < 0 else 4)
        base = "t" if k == 1 else f"t^{k}"
        level = 4 if k == 1 else 3
        if c == 1:
            return base, level
        return f"{cs}*{base}", 2
    if x.field.backend != LAURENT and not x.is_small and x.is_exact:
        s = str(x)
        return s, (1 if s.startswith("-") else 4)
    return str(x), 1


def _print_rvterm(t, prec=0):
    if isinstance(t, RVVarT):
        return t.name
    if isinstance(t, RVLitT):
        return str(t.value)
    if isinstance(t, RVOf):
        return f"rv[{t.order}]({_print_fterm(t.arg)})"
    if isinstance(t, RVProjT):
        return f"proj[{t.order}]({_print_rvterm(t.arg)})"
    if isinstance(t, RVSumT):
        return f"sum[{t.order}](" + ", ".join(_print_rvterm(a) for a in t.args) + ")"
    if isinstance(t, RVMulT):
        s = f"{_print_rvterm(t.left, 1)}*{_print_rvterm(t.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, RVPowT):
        return f"{_print_rvterm(t.base, 3)}^{t.exp}"
    raise TypeError(f"not an rv term: {t!r}")


def print_formula(phi, prec=0) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, PolyZero):
        return f"{_print_fterm(phi.arg)} = 0"
    if isinstance(phi, RVEq):
        return f"{_print_rvterm(phi.left)} = {_print_rvterm(phi.right)}"
    if isinstance(phi, OplusA):
        return (
            f"oplus[{phi.order}]({_print_rvterm(phi.a)}, "
            f"{_print_rvterm(phi.b)}, {_print_rvterm(phi.c)})"
        )
    if isinstance(phi, VComp):
        return f"v({_print_rvterm(phi.left)}) {phi.op} v({_print_rvterm(phi.right)})"
    if isinstance(phi, Implies):
        s = f"{print_formula(phi.left, 2)} -> {print_formula(phi.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, Or):
        s = " | ".join(print_formula(a, 3) for a in phi.args)
        return f"({s})" if prec > 2 else s
    if isinstance(phi, And):
        s = " & ".join(print_formula(a, 4) for a in phi.args)
        return f"({s})" if prec > 3 else s
    if isinstance(phi, Not):
        return f"!{print_formula(phi.arg, 5)}"
    if isinstance(phi, ExistsF):
        s = f"EX {phi.var}:K. {print_formula(phi.body, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, ForallF):
        s = f"ALL {phi.var}:K. {print_formula(phi.body, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, ExistsRV):
        s = f"EX {phi.var}:RV[{phi.order}]. {print_formula(phi.body, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, ForallRV):
        s = f"ALL {phi.var}:RV[{phi.order}]. {print_formula(phi.body, 1)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a formula: {phi!r}")


# ---- parsing ----------------------------------------------------------------


class _FormulaParser:
    def __init__(self, field: Field, text: str, rv_vars=None):
        self.field = field
        self.sc = _Tokens(text)
        self.sorts = dict(rv_vars or {})  # name -> order for RV, None for K

    def fail(self, msg):
        raise FormulaSyntaxError(msg, self.sc.pos)

    # formulas ---------------------------------------------------------------

    def formula(self):
        left = self.or_()
        if self.sc.eat("->"):
            return Implies(left, self.formula())
        return left

    def or_(self):
        args = [self.and_()]
        while self.sc.eat("|"):
            args.append(self.and_())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def and_(self):
        args = [self.unary()]
        while self.sc.eat("&"):
            args.append(self.unary())
        return args[0] if len(args) == 1 else And(tuple(args))

    def unary(self):
        sc = self.sc
        if sc.eat("!"):
            return Not(self.unary())
        quant = sc.peek()
        if quant in ("EX", "ALL"):
            sc.eat(quant)
            exists = quant == "EX"
            var = sc.word()
            sc.expect(":")
            if sc.peek() == "K":
                sc.eat("K")
                sc.expect(".")
                old = self.sorts.get(var, "absent")
                self.sorts[var] = None
                body = self.formula()
                self._restore(var, old)
                return ExistsF(var, body) if exists else ForallF(var, body)
            sc.expect("RV[")
            order = sc.order()
            sc.expect("]")
            sc.expect(".")
            old = self.sorts.get(var, "absent")
            self.sorts[var] = order
            body = self.formula()
            self._restore(var, old)
            return ExistsRV(var, order, body) if exists else ForallRV(var, order, body)
        return self.atom()

    def _restore(self, var, old):
        if old == "absent":
            self.sorts.pop(var, None)
        else:
            self.sorts[var] = old

    def atom(self):
        sc = self.sc
        word = sc.peek()
        if word in ("true", "false"):
            sc.eat(word)
            return TRUE if word == "true" else FALSE
        save = sc.pos
        if sc.eat("("):
            try:
                inner = self.formula()
                sc.expect(")")
                return inner
            except FormulaSyntaxError:
                sc.pos = save  # a parenthesized field term instead
        if sc.eat("oplus["):
            order = sc.order()
            sc.expect("]")
            sc.expect("(")
            a = self.rvterm()
            sc.expect(",")
            b = self.rvterm()
            sc.expect(",")
            c = self.rvterm()
            sc.expect(")")
            return OplusA(order, a, b, c)
        if sc.eat("v("):
            left = self.rvterm()
            sc.expect(")")
            op = self._vop()
            sc.expect("v(")
            right = self.rvterm()
            sc.expect(")")
            return self._vcomp(op, left, right)
        if self._at_rvterm():
            left = self.rvterm()
            sc.expect("=")
            right = self.rvterm()
            return RVEq(left, right)
        left = self.fterm()
        if sc.eat("="):
            right = self.fterm()
            if isinstance(right, FLit) and right.value.is_zero:
                return PolyZero(left)
            return PolyZero(FAdd(left, FNeg(right)))
        self.fail("expected an atom")

    def _vop(self):
        for op in ("<=", "!=", "=", "<", ">=", ">"):
            if self.sc.eat(op):
                return op
        self.fail("expected a value comparison")

    @staticmethod
    def _vcomp(op, left, right):
        if op == ">":
            return VComp("<", right, left)
        if op == ">=":
            return VComp("<=", right, left)
        return VComp(op, left, right)

    def _at_rvterm(self):
        sc = self.sc
        if sc.at("rv[") or sc.at("proj[") or sc.at("sum["):
            return True
        # an identifier bound to an RV sort
        name = sc.peek()
        return bool(name) and self.sorts.get(name, None) is not None and not name[0].isdigit()

    # rv terms -----------------------------------------------------------------

    def rvterm(self):
        left = self.rvfactor()
        while self.sc.eat("*"):
            left = RVMulT(left, self.rvfactor())
        return left

    def rvfactor(self):
        base = self.rvprimary()
        if self.sc.eat("^"):
            return RVPowT(base, self.sc.integer())
        return base

    def rvprimary(self):
        sc = self.sc
        save = sc.pos
        if sc.eat("rv["):
            order = sc.order()
            sc.expect("]")
            if sc.at("{"):
                sc.pos = save
                return RVLitT(parse_rv_scan(self.field, sc))
            sc.expect("(")
            arg = self.fterm()
            sc.expect(")")
            return RVOf(order, arg)
        if sc.eat("proj["):
            order = sc.order()
            sc.expect("]")
            sc.expect("(")
            arg = self.rvterm()
            sc.expect(")")
            return RVProjT(order, arg)
        if sc.eat("sum["):
            order = sc.order()
            sc.expect("]")
            sc.expect("(")
            args = [self.rvterm()]
            while sc.eat(","):
                args.append(self.rvterm())
            sc.expect(")")
            return RVSumT(order, tuple(args))
        if sc.eat("("):
            inner = self.rvterm()
            sc.expect(")")
            return inner
        name = sc.word()
        order = self.sorts.get(name)
        if order is None:
            self.fail(f"{name} is not an RV-sorted variable")
        return RVVarT(name, order)

    # field terms ----------------------------------------------------------------

    def fterm(self):
        sc = self.sc
        negate = not sc.number_next() and sc.eat("-")
        left = self.fprod()
        if negate:
            left = FNeg(left)
        while True:
            if sc.eat("+"):
                left = FAdd(left, self.fprod())
            elif sc.at("->"):
                return left
            elif sc.eat("-"):
                left = FAdd(left, FNeg(self.fprod()))
            else:
                return left

    def fprod(self):
        left = self.ffactor()
        while self.sc.eat("*"):
            left = FMul(left, self.ffactor())
        return left

    def ffactor(self):
        base = self.fprimary()
        if self.sc.eat("^"):
            return FPow(base, self.sc.integer())
        return base

    def fprimary(self):
        sc = self.sc
        if sc.eat("("):
            inner = self.fterm()
            sc.expect(")")
            return inner
        if sc.eat("O("):
            if self.field.backend == LAURENT:
                sc.expect("t")
            else:
                base = sc.integer()
                if base != self.field.p:
                    self.fail(f"precision base {base} differs from p = {self.field.p}")
            sc.expect("^")
            k = sc.integer()
            sc.expect(")")
            return FLit(self.field.small(k))
        if sc.number_next():
            return FLit(self.field.from_rational(sc.rational()))
        name = sc.word()
        if name == "t" and self.field.backend == LAURENT and name not in self.sorts:
            return FLit(self.field.uniformizer())
        if self.sorts.get(name, None) is not None:
            self.fail(f"{name} is RV-sorted, expected a field term")
        return FVar(name)


def _parse(field: Field, text: str, rv_vars, rule, what: str):
    p = _FormulaParser(field, text, rv_vars)
    try:
        out = rule(p)
    except RecursionError:
        raise FormulaSyntaxError(f"{what} nested too deeply") from None
    if not p.sc.done():
        raise FormulaSyntaxError(f"trailing input after {what}", p.sc.pos)
    return out


def parse_formula(field: Field, text: str, rv_vars=None):
    return _parse(field, text, rv_vars, _FormulaParser.formula, "formula")


def parse_field_term(field: Field, text: str):
    return _parse(field, text, None, _FormulaParser.fterm, "term")


def normalize(field: Field, text: str, rv_vars=None) -> str:
    """The canonical print of the parse; a fixpoint of print . parse."""
    return print_formula(parse_formula(field, text, rv_vars))
