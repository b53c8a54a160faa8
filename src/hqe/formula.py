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

Each node class names its subnode fields once, in its ``kids`` class
keyword (``class FAdd(Node, kids=("left", "right"))``), and every walk over
subterms (free variables, substitution, the search for a field quantifier,
the elimination's pass-through) reads them through ``children`` and
``with_children``.

A node keeps two things it would otherwise recompute, each for as long as
the node lives.  Its hash is computed once, in ``__post_init__`` when the
node is built, from its class and fields; a subnode's hash is already
stored there, so this is one step per node, and every node class uses it
in place of the dataclass's recursive ``__hash__``.  Its free variables
are computed by the first ``free_vars`` call that reaches it, one stack
frame per nesting level, and kept.  No table of nodes is kept: equal
nodes built apart stay distinct objects that hash and compare alike.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from operator import attrgetter, is_

from .errors import FormulaSyntaxError, OrderMismatch
from .field import LAURENT, Field, FieldElem, _Tokens
from .rv import RVElem, parse_rv_scan

# ---- nodes ----------------------------------------------------------------


class Node:
    """A term or formula node: a frozen dataclass whose fields named by the
    class keyword ``kids`` hold its subnodes, each a node or a tuple of
    nodes; its other fields are data.

    Its hash is computed once, when it is built, from its class and fields:
    a subnode's hash is already stored on the subnode, so this costs one
    step per node and no walk."""

    _kids = ()

    def __init_subclass__(cls, kids=(), **kw):
        super().__init_subclass__(**kw)
        cls._kids = kids
        # the class and the fields @dataclass makes of the class body's
        # annotations; a __hash__ of the class's own keeps @dataclass from
        # adding its recursive one
        cls._key = attrgetter("__class__", *cls.__dict__.get("__annotations__", ()))
        cls.__hash__ = Node.__hash__

    def __post_init__(self):
        self.__dict__["_hash"] = hash(self._key(self))

    def __hash__(self):
        return self._hash


class Formula(Node):
    """A formula node; the other nodes are terms."""


# ---- terms --------------------------------------------------------------


@dataclass(frozen=True)
class FVar(Node):
    name: str


@dataclass(frozen=True)
class FLit(Node):
    value: FieldElem


@dataclass(frozen=True)
class FAdd(Node, kids=("left", "right")):
    left: object
    right: object


@dataclass(frozen=True)
class FMul(Node, kids=("left", "right")):
    left: object
    right: object


@dataclass(frozen=True)
class FNeg(Node, kids=("arg",)):
    arg: object


@dataclass(frozen=True)
class FPow(Node, kids=("base",)):
    base: object
    exp: int


@dataclass(frozen=True)
class RVVarT(Node):
    name: str
    order: int


@dataclass(frozen=True)
class RVLitT(Node):
    value: RVElem


@dataclass(frozen=True)
class RVOf(Node, kids=("arg",)):
    order: int
    arg: object  # field term


@dataclass(frozen=True)
class RVMulT(Node, kids=("left", "right")):
    left: object
    right: object


@dataclass(frozen=True)
class RVPowT(Node, kids=("base",)):
    base: object
    exp: int


@dataclass(frozen=True)
class RVProjT(Node, kids=("arg",)):
    order: int
    arg: object


@dataclass(frozen=True)
class RVSumT(Node, kids=("args",)):
    """Sum of leading terms, projected to ``order``: evaluates through any
    witness of the sum of the arguments (well-defined when the severity is
    at most the argument order minus ``order``)."""

    order: int
    args: tuple


# ---- formulas -------------------------------------------------------------


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class PolyZero(Formula, kids=("arg",)):
    arg: object  # field term, asserted = 0


@dataclass(frozen=True)
class RVEq(Formula, kids=("left", "right")):
    left: object
    right: object


@dataclass(frozen=True)
class OplusA(Formula, kids=("a", "b", "c")):
    order: int
    a: object
    b: object
    c: object


@dataclass(frozen=True)
class VComp(Formula, kids=("left", "right")):
    op: str  # "<", "<=", "=", "!=", ">", ">="
    left: object
    right: object


@dataclass(frozen=True)
class Not(Formula, kids=("arg",)):
    arg: object


@dataclass(frozen=True)
class And(Formula, kids=("args",)):
    args: tuple


@dataclass(frozen=True)
class Or(Formula, kids=("args",)):
    args: tuple


@dataclass(frozen=True)
class Implies(Formula, kids=("left", "right")):
    left: object
    right: object


@dataclass(frozen=True)
class ExistsF(Formula, kids=("body",)):
    var: str
    body: object


@dataclass(frozen=True)
class ForallF(Formula, kids=("body",)):
    var: str
    body: object


@dataclass(frozen=True)
class ExistsRV(Formula, kids=("body",)):
    var: str
    order: int
    body: object


@dataclass(frozen=True)
class ForallRV(Formula, kids=("body",)):
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


# ---- traversal -------------------------------------------------------------

_BINDERS = (ExistsF, ForallF, ExistsRV, ForallRV)


def children(node) -> list:
    """node's subnodes in field order, a tuple field giving its items."""
    out = []
    for name in node._kids:
        sub = getattr(node, name)
        if type(sub) is tuple:
            out.extend(sub)
        else:
            out.append(sub)
    return out


def with_children(node, kids):
    """node with its subnodes replaced by kids, taken in children() order;
    node itself when each kid is the subnode it replaces."""
    if all(map(is_, kids, children(node))):
        return node
    kids = iter(kids)
    changes = {}
    for name in node._kids:
        old = getattr(node, name)
        changes[name] = tuple(next(kids) for _ in old) if type(old) is tuple else next(kids)
    return replace(node, **changes)


# The walks below recurse through a plain loop over children(), one stack
# frame per nesting level (a callback or a generator per level would double
# it), so that they reach as deep as the parser does.


def has_field_quantifier(phi) -> bool:
    if isinstance(phi, (ExistsF, ForallF)):
        return True
    for sub in children(phi):
        if has_field_quantifier(sub):
            return True
    return False


def free_vars(node, bound=frozenset(), out=None) -> set:
    """The free variables of a term or formula outside bound, added to out
    when it is given."""
    names = _free(node) - bound
    if out is None:
        return set(names)
    out |= names
    return out


_NO_VARS = frozenset()


def _free(node) -> frozenset:
    """node's free variables: computed by the first call on node or on a
    node above it, then kept on node.  A node whose subnodes add no
    variable shares their set."""
    names = node.__dict__.get("_free")
    if names is not None:
        return names
    if isinstance(node, (FVar, RVVarT)):
        names = frozenset((node.name,))
    else:
        names = _NO_VARS
        for sub in children(node):
            more = _free(sub)
            if not more <= names:
                names = more if names <= more else names | more
        if isinstance(node, _BINDERS) and node.var in names:
            names = names - {node.var}
    node.__dict__["_free"] = names
    return names


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


def subst(node, env):
    """A term or formula with its free variables replaced by the terms env
    gives them (literals, as a rule); a term of the wrong sort or order
    raises OrderMismatch."""
    if isinstance(node, FVar):
        new = env.get(node.name, node)
        if not isinstance(new, _FIELD_TERMS):
            raise OrderMismatch(f"{node.name} is not field-sorted")
        return new
    if isinstance(node, RVVarT):
        new = env.get(node.name, node)
        order = _rv_order(new)
        if order is None:
            raise OrderMismatch(f"{node.name} is not RV-sorted")
        if order != node.order:
            raise OrderMismatch(f"{node.name} has order {order}, expected {node.order}")
        return new
    if not isinstance(node, Node):
        raise TypeError(f"not a term or formula: {node!r}")
    if isinstance(node, _BINDERS):
        env = {k: v for k, v in env.items() if k != node.var}
    kids = []
    for sub in children(node):
        kids.append(subst(sub, env))
    return with_children(node, kids)


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


# A chain a + b + ... (or a * b * ..., or an RV product) is read in a loop
# but builds a left-nested tree, which every later walk recurses through,
# at most two frames a level.  So each link on a term's deepest path counts
# as _LINK_FRAMES frames toward the recursion bound that limits nesting,
# and a chain past that bound is nested too deeply, as deep parentheses are.
_LINK_FRAMES = 3


def _stack_depth() -> int:
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


class _FormulaParser:
    def __init__(self, field: Field, text: str, rv_vars=None):
        self.field = field
        self.sc = _Tokens(text)
        self.sorts = dict(rv_vars or {})  # name -> order for RV, None for K
        self.links = 0  # chain links on the deepest path of the last term read

    def _chain(self, links: int, frames: int | None) -> tuple:
        """(links + 1, frames): one more link on a chain whose deepest path
        had ``links`` links, read at stack depth ``frames`` (None: not yet
        measured); RecursionError once the links pass the bound."""
        if frames is None:
            frames = _stack_depth()
        if frames + _LINK_FRAMES * (links + 1) > sys.getrecursionlimit():
            raise RecursionError("chain nested too deeply")
        return links + 1, frames

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
        links, frames = self.links, None
        while self.sc.eat("*"):
            left = RVMulT(left, self.rvfactor())
            links, frames = self._chain(max(links, self.links), frames)
        self.links = links
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
                self.links = 0
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
            links = self.links
            while sc.eat(","):
                args.append(self.rvterm())
                links = max(links, self.links)
            sc.expect(")")
            self.links = links
            return RVSumT(order, tuple(args))
        if sc.eat("("):
            inner = self.rvterm()
            sc.expect(")")
            return inner
        name = sc.word()
        order = self.sorts.get(name)
        if order is None:
            self.fail(f"{name} is not an RV-sorted variable")
        self.links = 0
        return RVVarT(name, order)

    # field terms ----------------------------------------------------------------

    def fterm(self):
        # each loop reads the character at the cursor once, and probes only
        # the strings that start with it
        sc = self.sc
        negate = sc.char() == "-" and not sc.number_next() and sc.eat("-")
        left = self.fprod()
        if negate:
            left = FNeg(left)
        links, frames = self.links, None
        while True:
            c = sc.char()
            if c == "+":
                sc.eat("+")
                left = FAdd(left, self.fprod())
            elif c == "-" and not sc.at("->"):
                sc.eat("-")
                left = FAdd(left, FNeg(self.fprod()))
            else:
                break
            links, frames = self._chain(max(links, self.links), frames)
        self.links = links
        return left

    def fprod(self):
        sc = self.sc
        left = self.ffactor()
        links, frames = self.links, None
        while sc.char() == "*":
            sc.eat("*")
            left = FMul(left, self.ffactor())
            links, frames = self._chain(max(links, self.links), frames)
        self.links = links
        return left

    def ffactor(self):
        sc = self.sc
        base = self.fprimary()
        if sc.char() == "^":
            sc.eat("^")
            return FPow(base, sc.integer())
        return base

    def fprimary(self):
        sc = self.sc
        c = sc.char()
        if c == "(":
            sc.eat("(")
            inner = self.fterm()
            sc.expect(")")
            return inner
        if c == "O" and sc.eat("O("):
            if self.field.backend == LAURENT:
                sc.expect("t")
            else:
                base = sc.integer()
                if base != self.field.p:
                    self.fail(f"precision base {base} differs from p = {self.field.p}")
            sc.expect("^")
            k = sc.integer()
            sc.expect(")")
            self.links = 0
            return FLit(self.field.small(k))
        self.links = 0
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
