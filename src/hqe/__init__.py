"""Exact leading-term arithmetic for henselian valued fields of
characteristic zero: truncated Laurent series over Q and p-adic numbers,
leading-term structures RV_d with partial addition, Hensel lifting, the
collision-driven swiss-cheese decomposition, field-quantifier elimination
over concrete parameters, and the one-variable pullback normal form.

Valuations are plain numbers: ``int`` in the value group Z, ``Fraction``
for ball radii delta/n, and ``INF`` / ``NEG_INF`` for +/-infinity."""

from fractions import Fraction

from .balls import Ball, SwissCheese
from .decomp import Cell, Piece, RVDecomposition, decompose, m_bound, rv_decompose
from .errors import (
    DivisionByZero,
    FormulaSyntaxError,
    HQEError,
    NegativeValue,
    NonEffectiveQuantifier,
    NotInPiece,
    OrderMismatch,
    OrderViolation,
    PreconditionViolated,
    PrecisionExhausted,
    RecursionBound,
)
from .field import Field, FieldElem, Residue
from .formula import parse_field_term, parse_formula, print_formula
from .hensel import (
    LiftCertificate,
    collision_classes,
    collision_root,
    derivative_roots,
    field_roots,
    newton_lift,
)
from .poly import (
    Poly,
    derivative,
    poly_divmod,
    poly_gcd,
    poly_pseudo_divmod,
    residue_roots,
    squarefree_part,
    taylor_shift,
)
from .qe import NormalForm, decide, eliminate_linear_exists, normal_form, qe
from .rv import (
    RVElem,
    SumAnalysis,
    oplus_holds,
    parse_rv,
    residue_of,
    rv,
    rv_sum_analyze,
)
from .semantics import evaluate, guarded_forall_pattern, two_witness_pattern
from .valq import INF, NEG_INF

# values are plain numbers; ValQ(n) and ValQ(a, b) still build them
ValQ = Fraction

__all__ = [
    "Ball",
    "Cell",
    "DivisionByZero",
    "Field",
    "FieldElem",
    "FormulaSyntaxError",
    "HQEError",
    "INF",
    "LiftCertificate",
    "NEG_INF",
    "NegativeValue",
    "NonEffectiveQuantifier",
    "NormalForm",
    "NotInPiece",
    "OrderMismatch",
    "OrderViolation",
    "Piece",
    "Poly",
    "PreconditionViolated",
    "PrecisionExhausted",
    "RVDecomposition",
    "RVElem",
    "RecursionBound",
    "Residue",
    "SumAnalysis",
    "SwissCheese",
    "ValQ",
    "collision_classes",
    "collision_root",
    "decide",
    "decompose",
    "derivative",
    "derivative_roots",
    "eliminate_linear_exists",
    "evaluate",
    "guarded_forall_pattern",
    "field_roots",
    "m_bound",
    "newton_lift",
    "normal_form",
    "oplus_holds",
    "parse_field_term",
    "parse_formula",
    "parse_rv",
    "poly_divmod",
    "poly_gcd",
    "poly_pseudo_divmod",
    "print_formula",
    "qe",
    "residue_of",
    "residue_roots",
    "rv",
    "rv_decompose",
    "rv_sum_analyze",
    "squarefree_part",
    "taylor_shift",
    "two_witness_pattern",
]
