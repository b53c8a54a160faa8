import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walker_reference as ref
from hqe.errors import FormulaSyntaxError, OrderMismatch
from hqe.field import Field
from hqe.formula import (
    ExistsF,
    ExistsRV,
    FAdd,
    Formula,
    Node,
    FVar,
    PolyZero,
    RVEq,
    RVLitT,
    RVMulT,
    RVOf,
    RVPowT,
    RVSumT,
    RVVarT,
    children,
    free_vars,
    has_field_quantifier,
    normalize,
    parse_field_term,
    parse_formula,
    print_formula,
    subst,
    with_children,
    FLit,
    _flit_text,
)
from hqe.rv import rv
from test_parser import _FIELD_NAMES, _FIELDS, _RV_NAMES, _element, _formulas, _fterms, _outcome, _rv_class, _rvterms

GOLDEN_LAURENT = [
    "EX x:K. rv[0](x^2 - t^2) = rv[0](0)",
    "EX y:K. y^2 - t^2 = 0",
    "EX w:RV[0]. oplus[0](rv[0](t), rv[0](1), w)",
    "v(rv[0](t)) < v(rv[0](1 + t))",
    "v(rv[1](x)) != v(rv[1](y))",
    "true & !false | false -> true",
    "ALL x:K. x = 0 -> rv[1](x + 1) = rv[1]{v=0; unit=1,0}",
    "EX x:K. EX w:RV[2]. rv[2](x)*w^2 = proj[2](rv[3](t)) & v(w) = v(rv[2](t))",
    "rv[0](t^2) = rv[0](2*t^2)",
    "sum[0](rv[1](t), rv[1](t^2)) = rv[0](t + t^2)",
    "x*y - t*x + 5 = 0",
    "-3*x^2 + 1/2*t = 0",
]


@pytest.mark.parametrize("text", GOLDEN_LAURENT)
def test_roundtrip_is_fixpoint(laurent, text):
    once = normalize(laurent, text)
    assert normalize(laurent, once) == once


def test_ast_structure(laurent):
    phi = parse_formula(laurent, "EX x:K. rv[0](x^2 - t^2) = rv[0](0)")
    assert isinstance(phi, ExistsF)
    assert has_field_quantifier(phi)
    body = phi.body
    assert isinstance(body, RVEq)


def test_equation_sugar(laurent):
    phi = parse_formula(laurent, "EX y:K. y^2 = t^2")
    assert isinstance(phi.body, PolyZero)
    same = parse_formula(laurent, print_formula(phi))
    assert print_formula(same) == print_formula(phi)


def test_sort_tracking(laurent):
    phi = parse_formula(laurent, "EX w:RV[0]. w = rv[0](1)")
    assert isinstance(phi, ExistsRV) and phi.order == 0
    with pytest.raises(FormulaSyntaxError):
        parse_formula(laurent, "EX w:RV[0]. w + 1 = 0")


def test_free_vars_and_subst(laurent):
    phi = parse_formula(laurent, "rv[0](x - c) = rv[0](t)")
    assert free_vars(phi) == {"x", "c"}
    bound = subst(phi, {"c": FLit(laurent.one())})
    assert free_vars(bound) == {"x"}


def test_rv_free_vars_with_declared_sorts(laurent):
    D = parse_formula(laurent, "v(w1) < v(w2) | w1 = rv[0]{inf}", rv_vars={"w1": 0, "w2": 0})
    assert free_vars(D) == {"w1", "w2"}
    out = print_formula(D)
    assert parse_formula(laurent, out, rv_vars={"w1": 0, "w2": 0}) == D


def test_padic_formulas(padic2):
    phi = parse_formula(padic2, "EX y:K. y^2 = 17")
    assert isinstance(phi, ExistsF)
    assert normalize(padic2, "EX y:K. y^2 = 17") == "EX y:K. y^2 - 17 = 0"


def test_field_term_parser(laurent):
    term = parse_field_term(laurent, "t * t^-1")
    from hqe.semantics import eval_field_term

    assert eval_field_term(term, {}, laurent) == laurent.one()
    term2 = parse_field_term(laurent, "(1 + t)^2 - 2*t")
    assert eval_field_term(term2, {}, laurent) == laurent.parse("1 + t^2")


def test_syntax_error_position(laurent):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(laurent, "EX x:K. rv[0](x = 0")
    with pytest.raises(FormulaSyntaxError):
        parse_formula(laurent, "x + = 0")


# ---- the generic walks against the frozen isinstance chains ------------------


def _substitute(field):
    """A term to put for a variable: of either sort and of any order, so
    that wrong-sort and wrong-order substitutions occur."""
    orders = st.integers(0, 3)
    rv_leaf = st.one_of(_rv_class(field).map(RVLitT), st.builds(RVVarT, st.sampled_from(_RV_NAMES), orders))
    return st.one_of(
        _element(field).map(FLit),
        st.sampled_from(_FIELD_NAMES).map(FVar),
        st.builds(FAdd, st.sampled_from(_FIELD_NAMES).map(FVar), _element(field).map(FLit)),
        rv_leaf,
        st.builds(RVMulT, rv_leaf, rv_leaf),
        st.builds(RVPowT, rv_leaf, st.integers(-2, 3)),
        st.builds(RVOf, orders, st.sampled_from(_FIELD_NAMES).map(FVar)),
    )


def _walk_cases(field):
    nodes = st.one_of(_formulas(field), _fterms(field), _rvterms(field))
    names = st.sampled_from(_FIELD_NAMES + _RV_NAMES)
    return st.tuples(nodes, st.dictionaries(names, _substitute(field), max_size=3), st.frozensets(names, max_size=2))


# built once: a strategy built per example is validated per example
_WALK_CASES = st.one_of([_walk_cases(field) for field in _FIELDS])


@settings(max_examples=400, deadline=None)
@given(case=_WALK_CASES)
def test_walks_match_the_isinstance_reference(case):
    node, env, bound = case
    if isinstance(node, Formula):
        assert free_vars(node) == ref.free_vars(node)
        assert free_vars(node, bound) == ref.free_vars(node, bound)
        assert has_field_quantifier(node) == ref.has_field_quantifier(node)
        assert _outcome(subst, node, env) == _outcome(ref.subst, node, env)
    else:
        assert free_vars(node) == ref.term_vars(node)
        assert _outcome(subst, node, env) == _outcome(ref.subst_term, node, env)


def _inner_nodes(node):
    stack, out = [node], []
    while stack:
        n = stack.pop()
        kids = children(n)
        if kids:
            out.append(n)
            stack.extend(kids)
    return out


@settings(max_examples=300, deadline=None)
@given(case=_WALK_CASES)
def test_nodes_built_apart_hash_alike_and_walk_as_the_reference(case):
    """The reference's substitution rebuilds every inner node: the copy is
    equal and hashes alike, with_children rebuilds as the reference's
    constructors do, and the walks agree with the reference on both, on
    the first read of the free variables kept on nodes and on later ones."""
    node, env, bound = case
    vars_ref = ref.free_vars if isinstance(node, Formula) else ref.term_vars
    rebuild = ref.subst if isinstance(node, Formula) else ref.subst_term
    apart = rebuild(node, {})
    assert apart == node and hash(apart) == hash(node)
    for copy, orig in zip(_inner_nodes(apart), _inner_nodes(node)):
        assert copy is not orig and copy == orig and hash(copy) == hash(orig)
        assert with_children(orig, children(orig)) is orig
        assert with_children(orig, children(copy)) == copy
    for n in (node, apart):
        assert free_vars(n) == vars_ref(n)
        if isinstance(n, Formula):
            assert free_vars(n, bound) == ref.free_vars(n, bound)
        assert free_vars(n, bound, {"z"}) == (vars_ref(n) - bound) | {"z"}
        assert _outcome(subst, n, env) == _outcome(ref.subst if isinstance(n, Formula) else ref.subst_term, n, env)


def _node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


def test_every_node_class_is_a_frozen_dataclass_hashed_at_construction():
    """A node class that is not a frozen dataclass, or that falls back to
    the recursive dataclass hash, fails here."""
    classes = [cls for cls in _node_classes() if cls is not Formula]  # Formula only marks
    assert {FAdd, RVSumT, PolyZero, ExistsRV} <= set(classes)
    for cls in classes:
        params = getattr(cls, "__dataclass_params__", None)
        assert params is not None and params.frozen and params.eq, cls
        assert cls.__hash__ is Node.__hash__, cls
        # the stored hash is read from every field: equal fields hash alike,
        # and a change to any one field changes it
        values = [object() for _ in dataclasses.fields(cls)]
        node = cls(*values)
        assert hash(cls(*values)) == hash(node) == node._hash, cls
        for i in range(len(values)):
            other = values[:i] + [object()] + values[i + 1 :]
            assert hash(cls(*other)) != hash(node), (cls, i)


def test_subst_checks_sorts_and_keeps_bound_variables(laurent):
    one, t = FLit(laurent.one()), laurent.uniformizer()
    phi = parse_formula(laurent, "EX x:K. x = c & rv[0](x) = w", rv_vars={"w": 0})
    out = subst(phi, {"x": one, "c": one, "w": RVLitT(rv(t, 0))})
    assert print_formula(out) == "EX x:K. x - 1 = 0 & rv[0](x) = rv[0]{v=1; unit=1}"
    assert out == ref.subst(phi, {"x": one, "c": one, "w": RVLitT(rv(t, 0))})
    with pytest.raises(OrderMismatch, match="^c is not field-sorted$"):
        subst(phi, {"c": RVLitT(rv(t, 0))})
    with pytest.raises(OrderMismatch, match="^w is not RV-sorted$"):
        subst(phi, {"w": one})
    with pytest.raises(OrderMismatch, match="^w has order 1, expected 0$"):
        subst(phi, {"w": RVLitT(rv(t, 1))})
    # a quantifier shadows its variable: no check, no substitution inside
    assert subst(phi, {"x": RVLitT(rv(t, 1))}) == phi


def _flit_text_with_fractions(x):
    """The laurent-q single-digit branch of the literal printer as it read
    the unit through Fraction digits."""
    c, k = x.unit[0], x.v
    cs = str(c)
    if k == 0:
        return cs, (1 if c < 0 else 4)
    base = "t" if k == 1 else f"t^{k}"
    level = 4 if k == 1 else 3
    if c == 1:
        return base, level
    return f"{cs}*{base}", 2


def test_literal_text_reads_the_digit_and_den_as_the_fractions_did(laurent):
    t = laurent.uniformizer()
    elems = [laurent.monomial(Fraction(n, d), k) for n in range(-7, 8) if n for d in range(1, 7) for k in range(-2, 4)]
    # built by arithmetic rather than from a reduced fraction
    elems += [laurent.monomial(6, 1) / laurent.from_rational(4), t * t / laurent.from_rational(-9), -(t / 3) * 6]
    for x in elems:
        assert len(x.u) == 1
        assert _flit_text(x) == _flit_text_with_fractions(x), str(x)
