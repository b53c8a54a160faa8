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

Whitespace separates tokens and is otherwise ignored.  The parser lexes the
input once into a flat token list and reads each token once, terms by
precedence climbing; a "(" that starts an atom is settled by the token after
its ")", and one explicit count bounds nesting.  A sign belongs to a number
only right before its digits, so ``x-1`` is a subtraction and ``(-588)`` a
literal.  ``O(t^k)``
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

import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, repeat
from operator import attrgetter, is_

from .errors import FormulaSyntaxError, OrderMismatch, PreconditionViolated
from .field import LAURENT, Field, FieldElem, bounded_order
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
    if x.field.backend == LAURENT and x.is_exact and not x.is_small and len(x.u) == 1:
        # the digit over den, which share no factor: no Fraction is built
        c, k = x.u[0], x.v
        cs = str(c) if x.den == 1 else f"{c}/{x.den}"
        if k == 0:
            return cs, (1 if c < 0 else 4)
        base = "t" if k == 1 else f"t^{k}"
        level = 4 if k == 1 else 3
        if c == x.den:
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

# The lexer: one regular expression splits the text into a flat list of
# tokens (a run of decimal digits, any other run of word characters, or one
# other character, the grammar's own tried first) and the whitespace between
# them.  A string read as a unit (``rv[``, ``->``, a number with its sign) is
# tokens with no whitespace between them.
_TOKEN = re.compile(r"([-+*^/()<>=!&|.,:;\[\]{}]|\d+|\w+|\S)")
_WORD = re.compile(r"\w").match

# An atom that starts with "(" and is no "(v(" is read as a field term, not
# tried as a formula first, when the token after its ")" goes on with a term
# (none after a formula does) and nothing inside could start a formula: no
# equation, bracket, quantifier, negation, truth value or RV-sorted variable.
_TERM_GOES_ON = frozenset("+-*^=")
_NOT_IN_TERMS = frozenset(("=", "[", ":", "!", "true", "false"))

# Nesting is bounded by one explicit count, ``depth``: the cost of the
# constructs open at the cursor.  A chain a + b + ... (or a * b * ..., or an
# RV product) builds a left-nested tree, which every later walk recurses
# through, so each link on a term's deepest path (its ``height``) costs
# _LINK on top, and a walk that reaches an atom needs _ATOM more below it.  A
# parse may spend the frames that the recursion limit leaves below its
# caller, less _MARGIN for the walks that follow it.
_LINK, _ATOM, _QUANT, _PARENS, _FIELD_PARENS, _RV_PARENS, _MARGIN = 3, 12, 4, 5, 4, 3, 6


class _Parser:
    """Reads each token once, from a flat list: ``toks[i]`` is token i and
    ``gaps[i]`` the whitespace before it, and a last token "" ends the text."""

    def __init__(self, field: Field, text: str, rv_vars=None):
        self.field = field
        self.split = _TOKEN.split(text)
        self.gaps, self.toks = self.split[::2], self.split[1::2] + [""]
        self.i = self.depth = self.room = self.height = 0
        self.sorts = dict(rv_vars or {})  # name -> order for RV, None for K
        self.vterms = {}  # this scope's v(...) source texts -> (node, depth, height)
        self.levels = None  # the parenthesis depth after each token, once asked
        self.starts = None  # where each gap and token starts, once asked

    def pos(self, k=None) -> int:
        """Where token k (by default the current one) starts in the text."""
        if self.starts is None:
            self.starts = list(accumulate(map(len, self.split), initial=0))
        return self.starts[2 * (self.i if k is None else k) + 1]

    def fail(self, msg, k=None):
        raise FormulaSyntaxError(msg, self.pos(k))

    def at(self, first: str, second: str, i=None) -> bool:
        """Whether first + second starts at token i (by default the current one)."""
        i = self.i if i is None else i
        return self.toks[i] == first and self.toks[i + 1] == second and not self.gaps[i + 1]

    def expect(self, first: str, second=""):
        """Read first, or the string first + second."""
        if not (self.at(first, second) if second else self.toks[self.i] == first):
            self.fail(f"expected {first + second!r}")
        self.i += 2 if second else 1

    def deeper(self, cost: int):
        self.depth += cost
        if self.depth > self.room:
            raise RecursionError("nested too deeply")

    def link(self, height: int) -> int:
        """The height of a chain one link longer, its new operand the last term read."""
        height = max(height, self.height) + 1
        if self.depth + _LINK * height > self.room:
            raise RecursionError("chain nested too deeply")
        return height

    def number(self, i: int) -> int:
        """How many tokens the integer at token i spans, 0 if none starts there."""
        if self.toks[i].isdecimal():
            return 1
        return 2 if self.toks[i] in ("-", "+") and self.toks[i + 1].isdecimal() and not self.gaps[i + 1] else 0

    def integer(self) -> int:
        i = self.i
        n = 1 if self.toks[i].isdecimal() else self.number(i)
        if not n:
            self.fail("expected integer")
        text = "".join(self.toks[i : i + n])
        self.i = i + n
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise PreconditionViolated(f"integer literal of {len(text)} characters is too long") from None

    def rational(self):
        """An int, or a Fraction when a denominator follows."""
        num, i = self.integer(), self.i
        if self.toks[i] != "/" or not self.number(i + 1):
            return num
        self.i = i + 1
        den = self.integer()
        if den <= 0:
            raise FormulaSyntaxError("denominator must be positive", self.pos(i))
        return Fraction(num, den)

    def word(self) -> str:
        """An identifier: a run of word characters (digits included)."""
        toks, i = self.toks, self.i
        if not _WORD(toks[i]):
            self.fail("expected identifier")
        self.i += 2 if toks[i].isdecimal() and _WORD(toks[i + 1]) and not self.gaps[i + 1] else 1
        return "".join(toks[i : self.i])

    def closing(self, i: int):
        """The index of the ")" that closes the "(" at token i, None if none does."""
        if self.levels is None:
            self.levels = list(accumulate(map({"(": 1, ")": -1}.get, self.toks, repeat(0))))
        try:
            return self.levels.index(self.levels[i] - 1, i + 1)
        except ValueError:
            return None

    # formulas ---------------------------------------------------------------

    def formula(self):
        """One loop over "->", "|" and "&"; an implication nests to the right."""
        toks, sides = self.toks, []
        while True:
            ors = []
            while True:
                ands = [self.unary()]
                while toks[self.i] == "&":
                    self.i += 1
                    ands.append(self.unary())
                ors.append(ands[0] if len(ands) == 1 else And(tuple(ands)))
                if toks[self.i] != "|":
                    break
                self.i += 1
            sides.append(ors[0] if len(ors) == 1 else Or(tuple(ors)))
            if not self.at("-", ">"):
                break
            self.i += 2
            self.deeper(1)
        self.depth -= len(sides) - 1
        out = sides.pop()
        while sides:
            out = Implies(sides.pop(), out)
        return out

    def unary(self):
        toks, start = self.toks, self.i
        while toks[self.i] == "!":
            self.i += 1
        bangs = self.i - start
        self.deeper(bangs)
        out = self.quant() if toks[self.i] in ("EX", "ALL") else self.atom()
        self.depth -= bangs
        for _ in range(bangs):
            out = Not(out)
        return out

    def quant(self):
        exists, order = self.toks[self.i] == "EX", None
        self.i += 1
        var = self.word()
        self.expect(":")
        if self.toks[self.i] == "K":
            self.i += 1
        else:
            self.expect("RV", "[")
            order = bounded_order(self.integer())
            self.expect("]")
        self.expect(".")
        outer, outer_vterms = self.sorts, self.vterms
        self.sorts, self.vterms = {**outer, var: order}, {}
        self.deeper(_QUANT)
        body = self.formula()
        self.depth -= _QUANT
        self.sorts, self.vterms = outer, outer_vterms
        if order is None:
            return ExistsF(var, body) if exists else ForallF(var, body)
        return ExistsRV(var, order, body) if exists else ForallRV(var, order, body)

    def atom(self):
        toks, i = self.toks, self.i
        tok = toks[i]
        if self.depth + _ATOM > self.room:
            raise RecursionError("nested too deeply")
        if tok == "true" or tok == "false":
            self.i = i + 1
            return TRUE if tok == "true" else FALSE
        if tok == "(" and (self.at("v", "(", i + 1) or not self.term_in_parens(i)):
            depth = self.depth
            try:  # a parenthesized formula, or else a field term
                self.i = i + 1
                self.deeper(_PARENS)
                inner = self.formula()
                self.expect(")")
                self.depth = depth
                return inner
            except FormulaSyntaxError:
                self.i, self.depth = i, depth
        if tok == "v" and self.at("v", "("):
            left, op, right = self.vterm(), self.vop(), self.vterm()
            return VComp("<" + op[1:], right, left) if op[0] == ">" else VComp(op, left, right)
        if tok == "oplus" and self.at("oplus", "["):
            self.i += 2
            order = bounded_order(self.integer())
            self.expect("]")
            args = []
            for sep in "(,,":
                self.expect(sep)
                args.append(self.rvterm())
            self.expect(")")
            return OplusA(order, *args)
        if self.at_rvterm():
            left = self.rvterm()
            self.expect("=")
            return RVEq(left, self.rvterm())
        left = self.fterm()
        if toks[self.i] != "=":
            self.fail("expected an atom")
        self.i += 1
        right = self.fterm()
        if isinstance(right, FLit) and right.value.is_zero:
            return PolyZero(left)
        return PolyZero(FAdd(left, FNeg(right)))

    def term_in_parens(self, i: int) -> bool:
        j = self.closing(i)
        if j is None or self.toks[j + 1] not in _TERM_GOES_ON or self.at("-", ">", j + 1):
            return False
        inside, sorts = self.toks[i + 1 : j], self.sorts
        return _NOT_IN_TERMS.isdisjoint(inside) and not (sorts and any(sorts.get(t) is not None for t in inside))

    def vterm(self):
        """v(rvterm), read once per scope: a repeat of the same source text
        at no greater depth is the node read first, since the same text in
        the same scope reads the same way, and where it was read the depth
        room sufficed."""
        i = self.i
        self.expect("v", "(")
        j = self.closing(i + 1)
        key = j and "".join(self.split[2 * i + 1 : 2 * j + 2])
        seen = self.vterms.get(key)
        if seen is not None and self.depth <= seen[1]:
            out, _, self.height = seen
            self.i = j + 1
            return out
        out = self.rvterm()
        self.expect(")")
        if self.i - 1 == j:
            self.vterms[key] = out, self.depth, self.height
        return out

    def vop(self) -> str:
        tok = self.toks[self.i]
        n = 2 if tok in ("<", ">", "!") and self.at(tok, "=") else int(tok in ("<", ">", "="))
        if not n:
            self.fail("expected a value comparison")
        self.i += n
        return tok + "=" * (n - 1)

    def at_rvterm(self) -> bool:
        tok = self.toks[self.i]
        if tok in ("rv", "proj", "sum") and self.at(tok, "["):
            return True
        # an identifier bound to an RV sort
        return self.sorts.get(tok) is not None and _WORD(tok) and not tok[0].isdigit()

    # rv terms -----------------------------------------------------------------

    def rvterm(self):
        """rvterm := rvfac ("*" rvfac)*: one loop."""
        left = self.rvfactor()
        height = self.height
        while self.toks[self.i] == "*":
            self.i += 1
            left = RVMulT(left, self.rvfactor())
            height = self.link(height)
        self.height = height
        return left

    def rvfactor(self):
        toks, i = self.toks, self.i
        tok = toks[i]
        self.height = 0
        if tok in ("rv", "proj", "sum") and self.at(tok, "["):
            self.i = i + 2
            order = bounded_order(self.integer())
            self.expect("]")
            if tok == "rv" and toks[self.i] == "{":
                base = RVLitT(parse_rv_scan(self, order))
            elif tok == "rv":
                self.expect("(")
                base = RVOf(order, self.fterm())
                self.expect(")")
            else:
                self.expect("(")
                self.deeper(_RV_PARENS)
                args, height = [self.rvterm()], self.height
                while tok == "sum" and toks[self.i] == ",":
                    self.i += 1
                    args.append(self.rvterm())
                    height = max(height, self.height)
                self.depth -= _RV_PARENS
                self.height = height
                self.expect(")")
                base = RVProjT(order, args[0]) if tok == "proj" else RVSumT(order, tuple(args))
        elif tok == "(":
            self.i = i + 1
            self.deeper(_RV_PARENS)
            base = self.rvterm()
            self.depth -= _RV_PARENS
            self.expect(")")
        else:
            name = self.word()
            if self.sorts.get(name) is None:
                self.fail(f"{name} is not an RV-sorted variable", i)
            base = RVVarT(name, self.sorts[name])
        if toks[self.i] == "^":
            self.i += 1
            return RVPowT(base, self.integer())
        return base

    # field terms ----------------------------------------------------------------

    def fterm(self):
        """fterm := ["-"] fprod (("+" | "-") fprod)*, fprod := ffac ("*" ffac)*:
        one loop, a product at a time."""
        toks, gaps = self.toks, self.gaps
        negate = toks[self.i] == "-" and not self.number(self.i)
        self.i += negate
        total = None
        while True:
            prod = self.ffactor()
            prod_height = self.height
            while toks[self.i] == "*":
                self.i += 1
                prod = FMul(prod, self.ffactor())
                prod_height = self.link(prod_height)
            if negate:
                prod = FNeg(prod)
            if total is None:
                total, height = prod, prod_height
            else:
                total, self.height = FAdd(total, prod), prod_height
                height = self.link(height)
            i = self.i
            if toks[i] == "+":
                negate = False
            elif toks[i] == "-" and (toks[i + 1] != ">" or gaps[i + 1]):
                negate = True
            else:
                self.height = height
                return total
            self.i = i + 1

    def ffactor(self):
        toks, i, field = self.toks, self.i, self.field
        tok = toks[i]
        self.height = 0
        if tok == "(":
            self.i = i + 1
            self.deeper(_FIELD_PARENS)
            base = self.fterm()
            self.depth -= _FIELD_PARENS
            self.expect(")")
        elif tok.isdecimal() or tok == "-" and self.number(i):
            base = FLit(field.from_rational(self.rational()))
        elif tok == "O" and self.at("O", "("):
            self.i = i + 2
            if field.backend == LAURENT:
                if toks[self.i] != "t" and toks[self.i][:1] == "t":  # "t" matches, then "^" is missing
                    raise FormulaSyntaxError("expected '^'", self.pos() + 1)
                self.expect("t")
            else:
                p = self.integer()
                if p != field.p:
                    self.fail(f"precision base {p} differs from p = {field.p}")
            self.expect("^")
            k = self.integer()
            self.expect(")")
            base = FLit(field.small(k))
        else:
            name = self.word()
            if name == "t" and field.backend == LAURENT and name not in self.sorts:
                base = FLit(field.uniformizer())
            elif self.sorts.get(name) is not None:
                self.fail(f"{name} is RV-sorted, expected a field term", i)
            else:
                base = FVar(name)
        if toks[self.i] == "^":
            self.i += 1
            return FPow(base, self.integer())
        return base


def _parse(field: Field, text: str, rv_vars, rule, what: str, where="after"):
    p = _Parser(field, text, rv_vars)
    frame, p.room = sys._getframe(), sys.getrecursionlimit() - _MARGIN
    while frame is not None:
        frame, p.room = frame.f_back, p.room - 1
    try:
        out = rule(p)
    except RecursionError:
        raise FormulaSyntaxError(f"{what} nested too deeply") from None
    if p.toks[p.i]:
        raise FormulaSyntaxError(f"trailing input {where} {what}", p.pos())
    return out


def parse_formula(field: Field, text: str, rv_vars=None):
    return _parse(field, text, rv_vars, _Parser.formula, "formula")


def parse_field_term(field: Field, text: str):
    return _parse(field, text, None, _Parser.fterm, "term")


def parse_rv_class(field: Field, text: str):
    """A leading-term class, rv[d]{...}, as ``rv.parse_rv`` reads it."""
    return _parse(field, text, None, parse_rv_scan, "rv literal", "in")


def normalize(field: Field, text: str, rv_vars=None) -> str:
    """The canonical print of the parse; a fixpoint of print . parse."""
    return print_formula(parse_formula(field, text, rv_vars))
