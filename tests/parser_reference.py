"""Frozen copy of the character-at-a-time parsers as they were before the
input was lexed once with one regular expression, kept as an oracle:
``field._Scanner`` and ``field.parse_elem`` (the second grammar for field
literals), ``rv.parse_rv``/``parse_rv_scan`` and ``formula._FormulaParser``
with ``parse_formula`` and ``parse_field_term``.

The differential test in ``test_parser.py`` checks that the token-stream
parsers build the same trees, elements and classes and raise the same
errors as these did; do not optimise this file.  Classes are built as
``hqe.rv.RVElem`` and trees from the ``hqe.formula`` node types, so that
results compare equal across the two implementations.
"""

from __future__ import annotations

from fractions import Fraction

from hqe.errors import FormulaSyntaxError
from hqe.field import LAURENT, Field, FieldElem, bounded_order
from hqe.formula import (
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
    VComp,
)
from hqe.rv import RVElem

# ---- field.py -----------------------------------------------------------------

class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, s):
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s):
        if not self.eat(s):
            raise FormulaSyntaxError(f"expected {s!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise FormulaSyntaxError("expected integer", start)
        return int(self.text[start:self.pos])

    def order(self) -> int:
        return bounded_order(self.integer())

    def rational(self) -> Fraction:
        num = self.integer()
        save = self.pos
        if self.eat("/"):
            try:
                den = self.integer()
            except FormulaSyntaxError:
                self.pos = save
                return Fraction(num)
            if den <= 0:
                raise FormulaSyntaxError("denominator must be positive", save)
            return Fraction(num, den)
        return Fraction(num)

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_elem(field: Field, text: str) -> FieldElem:
    """Parse a series / p-adic literal, e.g. ``1 + -1*t^2 + O(t^8)`` or ``3/2 + O(7^10)``."""
    sc = _Scanner(text)
    x = _parse_elem_body(field, sc)
    if not sc.done():
        raise FormulaSyntaxError("trailing input in literal", sc.pos)
    return x


def _parse_elem_body(field: Field, sc: _Scanner) -> FieldElem:
    terms = []
    bound = None
    first = True
    while True:
        if not first and not (sc.eat("+") or sc.peek() == "-"):
            break
        if sc.eat("O("):
            if field.backend == LAURENT:
                sc.expect("t")
                sc.expect("^")
                bound = sc.integer()
            else:
                base = sc.integer()
                if base != field.p:
                    raise FormulaSyntaxError(f"precision base {base} != p = {field.p}", sc.pos)
                sc.expect("^")
                bound = sc.integer()
            sc.expect(")")
            break
        terms.append(_parse_term(field, sc))
        first = False
    x = field.from_terms(terms)
    if bound is None:
        return x
    if x.is_zero or x.val() >= bound:
        return field.small(bound)
    return x.truncate_rel(bound - x.v)


def _parse_term(field: Field, sc: _Scanner):
    # term = rat ["*t^" int] | ["-"] "t" ["^" int]     (padic: rat only)
    sc.skip_ws()
    if field.backend == LAURENT:
        neg = False
        save = sc.pos
        if sc.eat("-") and sc.peek() == "t":
            neg = True
        elif sc.pos != save:
            sc.pos = save
        if sc.eat("t"):
            k = sc.integer() if sc.eat("^") else 1
            return (k, Fraction(-1 if neg else 1))
        c = sc.rational()
        if sc.eat("*"):
            sc.expect("t")
            k = sc.integer() if sc.eat("^") else 1
            return (k, c)
        return (0, c)
    return (0, sc.rational())


# ---- rv.py --------------------------------------------------------------------


def parse_rv(field: Field, text: str) -> RVElem:
    """Parse the textual form rv[d]{v=k; unit=c0,...,cd} or rv[d]{inf}."""
    sc = _Scanner(text)
    a = parse_rv_scan(field, sc)
    if not sc.done():
        raise FormulaSyntaxError("trailing input in rv literal", sc.pos)
    return a


def parse_rv_scan(field: Field, sc: _Scanner) -> RVElem:
    sc.expect("rv[")
    order = sc.order()
    sc.expect("]")
    sc.expect("{")
    if sc.eat("inf"):
        sc.expect("}")
        return RVElem.inf(field, order)
    sc.expect("v=")
    value = sc.integer()
    sc.expect(";")
    sc.expect("unit=")
    sc.skip_ws()
    start = sc.pos
    unit = [sc.rational()]
    while sc.eat(","):
        unit.append(sc.rational())
    sc.expect("}")
    if len(unit) != order + 1:
        raise FormulaSyntaxError(f"expected {order + 1} unit digits, got {len(unit)}", start)
    if field.backend != LAURENT:
        if any(d.denominator != 1 for d in unit):
            raise FormulaSyntaxError("padic unit digits must be integers", start)
        unit = sum(int(d) * field.p**i for i, d in enumerate(unit)) % field.p ** (order + 1)
    try:
        rep = field.from_unit(value, unit, None)
    except ValueError:
        raise FormulaSyntaxError("leading unit digit must be nonzero", start) from None
    return RVElem(order, rep)


# ---- formula.py ---------------------------------------------------------------


class _FormulaParser:
    def __init__(self, field: Field, text: str, rv_vars=None):
        self.field = field
        self.sc = _Scanner(text)
        self.sorts = dict(rv_vars or {})  # name -> order for RV, None for K

    def fail(self, msg):
        raise FormulaSyntaxError(msg, self.sc.pos)

    def ident(self):
        self.sc.skip_ws()
        start = self.sc.pos
        text = self.sc.text
        while self.sc.pos < len(text) and (text[self.sc.pos].isalnum() or text[self.sc.pos] == "_"):
            self.sc.pos += 1
        if self.sc.pos == start:
            self.fail("expected identifier")
        return text[start : self.sc.pos]

    def peek_word(self, w):
        self.sc.skip_ws()
        t = self.sc.text
        p = self.sc.pos
        if not t.startswith(w, p):
            return False
        end = p + len(w)
        return end >= len(t) or not (t[end].isalnum() or t[end] == "_")

    def eat_word(self, w):
        if self.peek_word(w):
            self.sc.pos += len(w)
            return True
        return False

    # formulas ---------------------------------------------------------------

    def formula(self):
        left = self.or_()
        if self.sc.eat("->"):
            return Implies(left, self.formula())
        return left

    def or_(self):
        args = [self.and_()]
        while True:
            self.sc.skip_ws()
            if self.sc.text.startswith("|", self.sc.pos):
                self.sc.pos += 1
                args.append(self.and_())
            else:
                break
        return args[0] if len(args) == 1 else Or(tuple(args))

    def and_(self):
        args = [self.unary()]
        while self.sc.eat("&"):
            args.append(self.unary())
        return args[0] if len(args) == 1 else And(tuple(args))

    def unary(self):
        if self.sc.eat("!"):
            return Not(self.unary())
        if self.peek_word("EX") or self.peek_word("ALL"):
            exists = self.eat_word("EX")
            if not exists:
                self.eat_word("ALL")
            var = self.ident()
            self.sc.expect(":")
            if self.eat_word("K"):
                self.sc.expect(".")
                old = self.sorts.get(var, "absent")
                self.sorts[var] = None
                body = self.formula()
                self._restore(var, old)
                return ExistsF(var, body) if exists else ForallF(var, body)
            self.sc.expect("RV[")
            order = self.sc.order()
            self.sc.expect("]")
            self.sc.expect(".")
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
        if self.eat_word("true"):
            return TRUE
        if self.eat_word("false"):
            return FALSE
        self.sc.skip_ws()
        if self.sc.text.startswith("(", self.sc.pos):
            save = self.sc.pos
            self.sc.pos += 1
            try:
                inner = self.formula()
                self.sc.expect(")")
                return inner
            except FormulaSyntaxError:
                self.sc.pos = save  # a parenthesized field term instead
        if self.sc.text.startswith("oplus[", self.sc.pos):
            self.sc.expect("oplus[")
            order = self.sc.order()
            self.sc.expect("]")
            self.sc.expect("(")
            a = self.rvterm()
            self.sc.expect(",")
            b = self.rvterm()
            self.sc.expect(",")
            c = self.rvterm()
            self.sc.expect(")")
            return OplusA(order, a, b, c)
        if self.sc.text.startswith("v(", self.sc.pos):
            self.sc.expect("v(")
            left = self.rvterm()
            self.sc.expect(")")
            op = self._vop()
            self.sc.expect("v(")
            right = self.rvterm()
            self.sc.expect(")")
            return self._vcomp(op, left, right)
        if self._at_rvterm():
            left = self.rvterm()
            self.sc.expect("=")
            right = self.rvterm()
            return RVEq(left, right)
        left = self.fterm()
        if self.sc.eat("="):
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
        self.sc.skip_ws()
        t, p = self.sc.text, self.sc.pos
        for kw in ("rv[", "proj[", "sum["):
            if t.startswith(kw, p):
                return True
        # an identifier bound to an RV sort
        q = p
        while q < len(t) and (t[q].isalnum() or t[q] == "_"):
            q += 1
        name = t[p:q]
        return bool(name) and self.sorts.get(name, None) is not None and not name[0].isdigit()

    # rv terms -----------------------------------------------------------------

    def rvterm(self):
        left = self.rvfactor()
        while True:
            self.sc.skip_ws()
            if self.sc.text.startswith("*", self.sc.pos):
                self.sc.pos += 1
                left = RVMulT(left, self.rvfactor())
            else:
                return left

    def rvfactor(self):
        base = self.rvprimary()
        if self.sc.eat("^"):
            return RVPowT(base, self.sc.integer())
        return base

    def rvprimary(self):
        self.sc.skip_ws()
        t, p = self.sc.text, self.sc.pos
        if t.startswith("rv[", p):
            save = self.sc.pos
            self.sc.expect("rv[")
            order = self.sc.order()
            self.sc.expect("]")
            self.sc.skip_ws()
            if self.sc.text.startswith("{", self.sc.pos):
                self.sc.pos = save
                return RVLitT(parse_rv_scan(self.field, self.sc))
            self.sc.expect("(")
            arg = self.fterm()
            self.sc.expect(")")
            return RVOf(order, arg)
        if t.startswith("proj[", p):
            self.sc.expect("proj[")
            order = self.sc.order()
            self.sc.expect("]")
            self.sc.expect("(")
            arg = self.rvterm()
            self.sc.expect(")")
            return RVProjT(order, arg)
        if t.startswith("sum[", p):
            self.sc.expect("sum[")
            order = self.sc.order()
            self.sc.expect("]")
            self.sc.expect("(")
            args = [self.rvterm()]
            while self.sc.eat(","):
                args.append(self.rvterm())
            self.sc.expect(")")
            return RVSumT(order, tuple(args))
        if t.startswith("(", p):
            self.sc.pos += 1
            inner = self.rvterm()
            self.sc.expect(")")
            return inner
        name = self.ident()
        order = self.sorts.get(name)
        if order is None:
            raise FormulaSyntaxError(f"{name} is not an RV-sorted variable", self.sc.pos - len(name))
        return RVVarT(name, order)

    # field terms ----------------------------------------------------------------

    def fterm(self):
        self.sc.skip_ws()
        negate = False
        if self.sc.text.startswith("-", self.sc.pos) and not self._digit_next(self.sc.pos + 1):
            self.sc.pos += 1
            negate = True
        left = self.fprod()
        if negate:
            left = FNeg(left)
        while True:
            self.sc.skip_ws()
            t, p = self.sc.text, self.sc.pos
            if t.startswith("+", p):
                self.sc.pos += 1
                left = FAdd(left, self.fprod())
            elif t.startswith("->", p):
                return left
            elif t.startswith("-", p):
                self.sc.pos += 1
                left = FAdd(left, FNeg(self.fprod()))
            else:
                return left

    def _digit_next(self, pos):
        t = self.sc.text
        return pos < len(t) and t[pos].isdigit()

    def fprod(self):
        left = self.ffactor()
        while True:
            self.sc.skip_ws()
            if self.sc.text.startswith("*", self.sc.pos):
                self.sc.pos += 1
                left = FMul(left, self.ffactor())
            else:
                return left

    def ffactor(self):
        base = self.fprimary()
        if self.sc.eat("^"):
            return FPow(base, self.sc.integer())
        return base

    def fprimary(self):
        self.sc.skip_ws()
        t, p = self.sc.text, self.sc.pos
        if t.startswith("(", p):
            self.sc.pos += 1
            inner = self.fterm()
            self.sc.expect(")")
            return inner
        if t.startswith("O(", p):
            self.sc.expect("O(")
            if self.field.backend == LAURENT:
                self.sc.expect("t")
            else:
                base = self.sc.integer()
                if base != self.field.p:
                    self.fail(f"precision base {base} differs from p = {self.field.p}")
            self.sc.expect("^")
            k = self.sc.integer()
            self.sc.expect(")")
            return FLit(self.field.small(k))
        if p < len(t) and (t[p].isdigit() or (t[p] == "-" and self._digit_next(p + 1))):
            return FLit(self.field.from_rational(self.sc.rational()))
        name = self.ident()
        if name == "t" and self.field.backend == LAURENT and name not in self.sorts:
            return FLit(self.field.uniformizer())
        if self.sorts.get(name, None) is not None:
            raise FormulaSyntaxError(f"{name} is RV-sorted, expected a field term", self.sc.pos - len(name))
        return FVar(name)


def _parse(field: Field, text: str, rv_vars, rule, what: str):
    p = _FormulaParser(field, text, rv_vars)
    try:
        out = rule(p)
    except RecursionError:
        raise FormulaSyntaxError(f"{what} nested too deeply") from None
    p.sc.skip_ws()
    if not p.sc.done():
        raise FormulaSyntaxError(f"trailing input after {what}", p.sc.pos)
    return out


def parse_formula(field: Field, text: str, rv_vars=None):
    return _parse(field, text, rv_vars, _FormulaParser.formula, "formula")


def parse_field_term(field: Field, text: str):
    return _parse(field, text, None, _FormulaParser.fterm, "term")
