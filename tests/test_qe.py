import gc
import importlib
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnf_reference
import normal_form_reference
from hqe import selftest
from hqe.errors import FormulaSyntaxError, HQEError, NonEffectiveQuantifier, PrecisionExhausted
from hqe.field import Field
from hqe.formula import (
    FALSE,
    TRUE,
    FLit,
    FVar,
    RVOf,
    free_vars,
    parse_formula,
    print_formula,
    has_field_quantifier,
)
from hqe.hensel import field_roots
from hqe.poly import Poly
from hqe.qe import decide, decide_exists_block, eliminate_linear_exists, normal_form, qe
from hqe.rv import rv
from hqe.semantics import evaluate


def test_discriminating_pair(laurent):
    assert decide(parse_formula(laurent, "EX y:K. y^2 = t^2"), laurent)
    assert not decide(parse_formula(laurent, "EX y:K. y^2 = 2*t^2"), laurent)


def test_qe_passes_through_implications_and_rv_quantifiers(laurent):
    phi = parse_formula(laurent, "ALL w:RV[0]. (EX x:K. x^2 = t^2) -> (EX u:RV[1]. proj[0](u) = w & ALL y:K. y = 1)")
    assert print_formula(qe(phi, laurent)) == "ALL w:RV[0]. true -> EX u:RV[1]. false"
    for term in (FVar("x"), RVOf(0, FLit(laurent.one())), "x = 1"):
        with pytest.raises(TypeError, match="^not a formula"):
            qe(term, laurent)


def test_padic_squares(padic2):
    assert decide(parse_formula(padic2, "EX y:K. y^2 = 17"), padic2)
    assert not decide(parse_formula(padic2, "EX y:K. y^2 = 3"), padic2)
    # independent oracle: a 2-adic unit is a square iff it is 1 mod 8
    for u in (9, 25, 33, 41, 17, 3, 5, 7, 11, 15):
        want = u % 8 == 1
        got = decide(parse_formula(padic2, f"EX y:K. y^2 = {u}"), padic2)
        assert got == want, u


def test_hensel_sentences(laurent):
    assert decide(parse_formula(laurent, "EX y:K. y^2 = 1 + t"), laurent)
    assert decide(parse_formula(laurent, "EX y:K. y = 0"), laurent)
    assert not decide(parse_formula(laurent, "EX y:K. y^2 = t"), laurent)
    assert decide(parse_formula(laurent, "EX y:K. y^3 = t^3 & rv[0](y) = rv[0](t)"), laurent)
    assert not decide(parse_formula(laurent, "EX y:K. y^2 = t^2 & rv[0](y - t) = rv[0](t)"), laurent)


def test_forall(laurent):
    assert decide(parse_formula(laurent, "ALL y:K. y^2 = t^2 -> rv[1](y^2) = rv[1](t^2)"), laurent)
    assert not decide(parse_formula(laurent, "ALL y:K. y^2 = t^2"), laurent)


def test_qe_is_identity_on_quantifier_free(laurent):
    phi = parse_formula(laurent, "rv[0](t) = rv[0](t) & v(rv[0](1)) < v(rv[0](t))")
    assert qe(phi, laurent) == phi


def test_qe_output_is_field_quantifier_free(laurent):
    for text in (
        "EX y:K. y^2 = t^2",
        "EX y:K. (y^2 = 1 + t & rv[0](y) = rv[0](1))",
        "!(EX y:K. y^2 = 2*t^2) | EX z:K. z = t",
        "EX y:K. EX z:K. y = z & z^2 = t^2",
    ):
        out = qe(parse_formula(laurent, text), laurent)
        assert not has_field_quantifier(out)
        # output is evaluable (closed)
        evaluate(out, {}, laurent)


def test_nested_block_same_answer_everywhere(laurent):
    """qe, evaluate and normal_form eliminate a nested block alike."""
    for text, want in (
        ("EX y:K. EX z:K. y^2 = t^2 & z = y", True),
        ("EX y:K. EX z:K. y^2 = 2*t^2 & z = y", False),
    ):
        phi = parse_formula(laurent, text)
        assert qe(phi, laurent) == (TRUE if want else FALSE)
        assert evaluate(phi, {}, laurent) == want
        nf = normal_form(parse_formula(laurent, f"x = t & ({text})"), "x", laurent)
        t = laurent.uniformizer()
        assert nf.member(t) == want
        assert not nf.member(2 * t)


def test_normal_form_rejects_quantifier_over_its_variable(laurent):
    phi = parse_formula(laurent, "EX y:K. y^2 = x")
    with pytest.raises(NonEffectiveQuantifier):
        normal_form(phi, "x", laurent)


def test_qe_with_params(laurent):
    phi = parse_formula(laurent, "EX y:K. y^2 = c")
    assert decide(phi, laurent, params={"c": laurent.parse("t^2")})
    assert not decide(phi, laurent, params={"c": laurent.parse("2*t^2")})
    with pytest.raises(NonEffectiveQuantifier):
        qe(phi, laurent)


def test_region_path_sentences(laurent):
    # no equation conjunct: the region calculus decides
    t = laurent.uniformizer()
    cases = [
        ("EX x:K. rv[0](x) = rv[0](t)", True),
        ("EX x:K. rv[0](x) = rv[0](t) & v(rv[0](x - t)) < v(rv[0](t^3))", True),
        ("EX x:K. rv[0](x) = rv[0](t) & rv[0](x) = rv[0](2*t)", False),
        ("EX x:K. rv[0](x^2 - t^2) = rv[0](t^5)", True),
        ("EX x:K. rv[0](x^2) = rv[0](2*t^2)", False),
        ("EX x:K. v(rv[0](x^2 - t^2)) = v(rv[0](t^7))", True),
        ("EX x:K. !(rv[0](x) = rv[0](x))", False),
        ("EX x:K. oplus[0](rv[0](x), rv[0](-t), rv[0](t^4))", True),
    ]
    for text, want in cases:
        assert decide(parse_formula(laurent, text), laurent) == want, text


def test_verdict_does_not_depend_on_disjunct_order(laurent):
    pinned = ("(v(rv[0](y)) > v(rv[0](1)) & y = z)", "(y = t & z = t)")
    unordered = ("v(rv[0](x)) > v(rv[0](1))", "rv[0](x) = rv[1](x)")
    for left, right in (pinned, pinned[::-1]):
        assert decide(parse_formula(laurent, f"EX y:K. EX z:K. {left} | {right}"), laurent)
    # every atom is read, so an atom outside the region calculus is found in
    # either order
    for left, right in (unordered, unordered[::-1]):
        with pytest.raises(NonEffectiveQuantifier):
            decide(parse_formula(laurent, f"EX x:K. {left} | {right}"), laurent)


def test_atoms_at_approximated_roots(padic7):
    # sqrt(2) is known to 64 digits only; the leading terms of x^2 - 2 at it
    # are read off the cells, not evaluated
    for text in (
        "!(x^2 = 2) & rv[0](x^2 - 2) = rv[0](7)",
        "x^2 = 2 | rv[0](x^2 - 2) = rv[0](7)",
        "!(x^2 = 2) & v(rv[0](x^2 - 2)) > v(rv[0](7^3))",
        "x^2 = 2 & v(rv[0](x^2 - 2)) > v(rv[0](7^3))",
    ):
        assert decide(parse_formula(padic7, f"EX x:K. {text}"), padic7), text
    assert not decide(parse_formula(padic7, "EX x:K. x^2 = 2 & v(rv[0](x^2 - 2)) < v(rv[0](7^3))"), padic7)


def test_pinned_points_stay_excluded(laurent):
    # rv(y - x) = rv(5) pins x at 1; off that root x = 1 is folded to false,
    # so x must stay off 1, the only point where rv(x - 1) = rv(0)
    text = "(x = 1 & rv[0](y - x) = rv[0](5) & y = 1) | (rv[0](x - 1) = rv[0](0) & !(x = 1))"
    assert not decide(parse_formula(laurent, f"EX x:K. EX y:K. {text}"), laurent)


@pytest.mark.parametrize("join", [" | ", " & "])
def test_separated_variables_decide_one_at_a_time(laurent, join):
    """Forty variables, each in atoms of its own: they are fixed one cell at
    a time, so nothing grows with the product of their cell counts."""
    block = "".join(f"EX x{i}:K. " for i in range(40))
    atoms = [f"v(rv[0](x{i})) > v(rv[0](1))" for i in range(40)]
    assert decide(parse_formula(laurent, block + join.join(atoms)), laurent)
    off = f"{join}v(rv[0](x39)) < v(rv[0](1))"
    want = join == " | "
    assert decide(parse_formula(laurent, block + join.join(atoms) + off), laurent) is want


def test_atom_outside_the_regions_is_read_at_the_roots(laurent):
    # sum[0] has no region; x = 1 pins it, and off that root it is not needed
    atom = "sum[0](rv[0](x), rv[0](1)) = rv[0]({})"
    assert decide(parse_formula(laurent, f"EX x:K. x = 1 & {atom.format(2)}"), laurent)
    assert not decide(parse_formula(laurent, f"EX x:K. x = 1 & {atom.format(3)}"), laurent)
    assert decide(parse_formula(laurent, f"EX x:K. {atom.format(3)} | x = 1"), laurent)
    with pytest.raises(NonEffectiveQuantifier):
        decide(parse_formula(laurent, f"EX x:K. !(x = 1) & {atom.format(2)}"), laurent)


def _family_b(field, k, truth):
    """EX x:K. core & (a_1 | b_1) & ... & (a_k | b_k), whose disjunctive
    normal form has 2^k branches.  TRUE: the core is a ball around c0, every
    a_i contradicts it and every b_i holds at a point w of the ball.  FALSE:
    the core asks for two disjoint balls."""
    centres = [_lit(field, c, j) for c, j in ((1, 0), (2, -1), (3, 1), (-1, 2))]

    def vatom(c, op, j):
        return f"v(rv[0](x - ({c}))) {op} v(rv[0]({_lit(field, 1, j)}))"

    if truth:
        w = field.parse(centres[0]) + field.monomial(1, 2)
        core = [vatom(centres[0], ">=", 1)]
        disj = []
        for i in range(k):
            c = centres[i % 4]
            d = (w - field.parse(c)).val()
            op, j = (("=", d), (">=", d - 1), ("<", d + 1), ("!=", d + 2))[i % 4]
            disj.append((vatom(centres[0], "<", 0), vatom(c, op, j)))
    else:
        # v(c0 - c1) = -1, so the balls of radius 0 around them are disjoint
        core = [vatom(centres[0], ">=", 0), vatom(centres[1], ">=", 0)]
        ops = ("=", ">=", "<", "<=", "!=")
        disj = [
            (vatom(centres[i % 4], ops[i % 5], i % 4 - 1), vatom(centres[(i + 1) % 4], ops[(i + 2) % 5], i % 3))
            for i in range(k)
        ]
    return "EX x:K. " + " & ".join(core + [f"({a} | {b})" for a, b in disj])


@pytest.mark.parametrize("k", [13, 20])
@pytest.mark.parametrize("truth", [True, False])
@pytest.mark.parametrize("name", ["laurent-q", "padic-7"])
def test_wide_disjunctions_decide(k, truth, name):
    """More than 4,096 DNF branches: the cell partition has no branch cap."""
    field = Field.laurent() if name == "laurent-q" else Field.padic(7)
    assert decide(parse_formula(field, _family_b(field, k, truth)), field) is truth


_DNF_FIELDS = [Field.laurent(), Field.padic(7), Field.padic(2)]


@st.composite
def matrices(draw, names=("x",)):
    field = draw(st.sampled_from(_DNF_FIELDS))
    units = [1, 2, -1, 3] if field.backend == "laurent-q" else [u for u in (1, 2, 3, 5, -1) if u % field.p]

    def const():
        return f"({_lit(field, draw(st.sampled_from(units)), draw(st.integers(-2, 2)))})"

    # atoms share centres, so that equations and leading terms meet at
    # the same (approximated) roots
    centres = [const(), const()]
    joint = ["x - y", "x^2 - y"] if len(names) > 1 else []

    def atom():
        kind = draw(st.sampled_from(["v", "rv", "rv2", "oplus", "eq", "eq2"] + ["joint"] * len(joint)))
        x, a, b = draw(st.sampled_from(names)), draw(st.sampled_from(centres)), const()
        if kind == "v":
            op = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
            return f"v(rv[0]({x} - {a})) {op} v(rv[0]({b}))"
        if kind == "rv":
            return f"rv[0]({x} - {a}) = rv[0]({b})"
        if kind == "rv2":
            return f"rv[1]({x}^2 - {a}) = rv[1]({b})"
        if kind == "oplus":
            return f"oplus[1](rv[1]({x}), rv[1](-{a}), rv[1]({b}))"
        if kind == "joint":
            f = draw(st.sampled_from(joint))
            return f"{f} = 0" if draw(st.booleans()) else f"rv[0]({f}) = rv[0]({b})"
        return f"{x} = {a}" if kind == "eq" else f"{x}^2 = {a}"

    def formula(depth):
        if depth == 0 or draw(st.booleans()):
            return atom()
        op = draw(st.sampled_from(["&", "|", "!", "->"]))
        if op == "!":
            return f"!({formula(depth - 1)})"
        return f"({formula(depth - 1)}) {op} ({formula(depth - 1)})"

    return field, list(names), formula(3)


def _agrees_with_dnf_reference(case):
    """Same verdict as the frozen DNF path; where that raised, the cell
    partition may answer."""
    field, names, text = case
    matrix = parse_formula(field, text)
    try:
        want = dnf_reference.decide_exists_block(names, matrix, field)
    except HQEError:
        return
    try:
        got = decide_exists_block(names, matrix, field)
    except NonEffectiveQuantifier as e:
        # every atom is read: an atom joining variables that no equation
        # pins is not effective, even where the DNF path met a satisfiable
        # branch first
        assert want and "pinned" in str(e), text
        return
    assert got == want, text


@settings(max_examples=300, deadline=None)
@given(case=matrices())
def test_cell_partition_matches_dnf_reference(case):
    _agrees_with_dnf_reference(case)


@settings(max_examples=200, deadline=None)
@given(case=matrices())
def test_normal_form_matches_reference(case):
    """One variable, no leading-term quantifier, rv equalities of equal
    orders: the same centres, orders, names and D as the frozen walk, or the
    same error."""
    field, _, text = case
    phi = parse_formula(field, text)

    def run(normal_form):
        try:
            nf = normal_form(phi, "x", field)
        except Exception as e:
            return type(e)
        return [str(c) for c in nf.centers], nf.orders, nf.names, print_formula(nf.D)

    assert run(normal_form) == run(normal_form_reference.normal_form), text


@settings(max_examples=200, deadline=None)
@given(case=matrices(("x", "y")))
def test_two_variable_blocks_match_dnf_reference(case):
    """Each variable fixed in turn at its cells and roots: where the DNF
    path pinned or separated the variables, the verdict is the same."""
    _agrees_with_dnf_reference(case)


@pytest.mark.parametrize("square", [2, 98])
@pytest.mark.parametrize("names", [("x", "y"), ("y", "x")])
def test_atom_at_an_approximated_root_matches_dnf_reference(padic7, square, names):
    """The matrices hypothesis found at --hypothesis-seed=16 and 47: the cell
    partition builds the region of rv[0](x^2 - y) at the approximated root
    of x^2 = square, which the DNF path never reached; both answer TRUE."""
    matrix = parse_formula(
        padic7,
        f"(rv[0](x - (1)) = rv[0]((1))) | ((!(rv[0](x - (1)) = rv[0]((1)))) & "
        f"((x^2 = ({square})) & (rv[0](x^2 - y) = rv[0]((1)))))",
    )
    assert dnf_reference.decide_exists_block(list(names), matrix, padic7) is True
    assert decide_exists_block(list(names), matrix, padic7) is True


def test_region_vs_sampling(any_field):
    """Sampled witnesses imply the eliminated formula is true."""
    field = any_field
    rng = random.Random(31)
    units = (
        [1, 2, -1, 3, -2]
        if field.backend == "laurent-q"
        else [u for u in (1, 2, 3, 5, -1) if u % field.p]
    )
    pts = [field.monomial(c, k) for c in units for k in range(-3, 4)]
    atoms = []
    for c in units[:3]:
        for k in (-1, 0, 1, 2):
            atoms.append(f"rv[0](x - {_lit(field, c, k)}) = rv[0]({_lit(field, c, k + 1)})")
            atoms.append(f"v(rv[0](x)) <= v(rv[0]({_lit(field, c, k)}))")
    for _ in range(30):
        chosen = rng.sample(atoms, 2)
        text = f"EX x:K. {chosen[0]} & {chosen[1]}"
        phi = parse_formula(field, text)
        got = decide(phi, field)
        witnessed = False
        for x in pts:
            try:
                if evaluate(phi.body, {"x": x}, field):
                    witnessed = True
                    break
            except PrecisionExhausted:
                continue
        if witnessed:
            assert got, text


def _lit(field, c, k):
    if field.backend == "laurent-q":
        if k == 0:
            return str(c)
        return f"{c}*t^{k}"
    val = Fraction(c) * Fraction(field.p) ** k
    return str(val.numerator) if val.denominator == 1 else f"{val.numerator}/{val.denominator}"


# ---- linear elimination vs brute-force ball oracle -----------------------------


def brute_force_linear(constraints, field):
    """Independent oracle: if the system is satisfiable, the center of the
    smallest ball satisfies every constraint; check it by direct leading
    term arithmetic."""
    candidates = []
    for z, a, b, delta in constraints:
        if z.is_zero:
            candidates.append((b / a, True))
            continue
        zs = z / a
        candidates.append(((b / a) + rv(zs, delta).rep(), zs.val() + delta))
    best = None
    for x0, r in candidates:
        if r is True or best is None or (best[1] is not True and r > best[1]):
            best = (x0, r)
            if r is True:
                break
    x0 = best[0]
    for z, a, b, delta in constraints:
        lhs = rv(z, delta) if not z.is_zero else None
        val = a * x0 - b
        rhs = rv(val, delta) if not val.is_zero else None
        if (lhs is None) != (rhs is None):
            if lhs is None and rhs is not None:
                return False
            if rhs is None and lhs is not None:
                return False
        elif lhs is not None and lhs != rhs:
            return False
    return True


def test_linear_elimination_examples(laurent):
    t = laurent.uniformizer()
    one = laurent.one()
    log = set()
    assert eliminate_linear_exists(
        [(t, one, laurent.zero(), 0), (t, one, -(t**3), 0)], laurent, log
    )
    assert not eliminate_linear_exists(
        [(t, one, laurent.zero(), 0), (2 * t, one, laurent.zero(), 0)], laurent
    )
    assert eliminate_linear_exists([(t, one, laurent.zero(), 0)], laurent)


def test_linear_elimination_case4_disjoint_balls(padic2):
    """Case 4 with v(z_2) < v(z_1): the balls v(x - 94/13) >= 2 and
    v(x - 16/9) >= 3 are disjoint, since v(94/13 - 16/9) = v(638/117) = 1,
    although rv(z_1 + (c_1 - c_2)) and rv(z_2) agree at order 0."""
    q = padic2.from_rational
    constraints = [
        (q(7), q(Fraction(13, 2)), q(40), 0),
        (q(2), q(18), q(30), 2),
    ]
    log = set()
    assert not eliminate_linear_exists(constraints, padic2, log)
    assert log == {4}
    assert not brute_force_linear(constraints, padic2)


@pytest.mark.parametrize("seed", range(12))
def test_linear_elimination_suite_seeds(seed):
    """The linear-elimination suite on more seeds than the acceptance seed,
    so a seed-dependent soundness fault fails here."""
    result = selftest.suite_linear_elimination(seed)
    assert result.ok, result.failures[:3]


def test_linear_elimination_vs_oracle(any_field):
    field = any_field
    rng = random.Random(field.p or 99)
    units = [1, 2, 3, -1, -2, 5]
    if field.backend == "padic":
        units = [u for u in units if u % field.p]
    cases_seen = set()
    for _ in range(150):
        n = rng.randrange(1, 5)
        constraints = []
        for _ in range(n):
            z = field.monomial(rng.choice(units), rng.randrange(-3, 4))
            if rng.random() < 0.1:
                z = field.zero()
            a = field.monomial(rng.choice(units), rng.randrange(-1, 2))
            b = field.monomial(rng.choice(units), rng.randrange(-3, 4))
            if rng.random() < 0.3:
                b = field.zero()
            constraints.append((z, a, b, rng.randrange(0, 4)))
        got = eliminate_linear_exists(constraints, field, cases_seen)
        want = brute_force_linear(constraints, field)
        assert got == want, constraints
    assert {1, 3, 4} <= cases_seen


# ---- normal form ----------------------------------------------------------------


def test_normal_form_x2_t2(laurent):
    t = laurent.uniformizer()
    nf = normal_form(parse_formula(laurent, "x^2 = t^2"), "x", laurent)
    assert len(nf.centers) == 2
    assert sorted(str(c) for c in nf.centers) == ["-1*t^1", "1*t^1"]
    assert nf.orders == [0, 0]
    # D is the two-point condition at infinity
    assert print_formula(nf.D) == "w1 = rv[0]{inf} | w2 = rv[0]{inf}"
    for x0, want in [(t, True), (-t, True), (2 * t, False), (laurent.zero(), False)]:
        assert nf.member(x0) == want


def test_normal_form_ball(laurent):
    nf = normal_form(parse_formula(laurent, "v(rv[0](x - 1)) > v(rv[0](1))"), "x", laurent)
    assert len(nf.centers) == 1 and (nf.centers[0] - laurent.one()).is_zero
    assert nf.orders == [0]
    for c, k, want in [(1, 1, True), (1, 0, False), (2, 3, True), (3, -1, False)]:
        x0 = laurent.one() + laurent.monomial(c, k)
        assert nf.member(x0) == want


def test_normal_form_trivial(laurent):
    nf = normal_form(parse_formula(laurent, "true"), "x", laurent)
    assert len(nf.centers) == 1
    assert (nf.centers[0]).is_zero
    assert evaluate(nf.D, {}, laurent)


def test_normal_form_matches_direct_evaluation(any_field):
    field = any_field
    rng = random.Random(field.p or 7)
    units = [1, 2, 3, -1] if field.backend == "laurent-q" else [u for u in (1, 2, 3, 5) if u % field.p]
    pts = [field.monomial(c, k) for c in units for k in range(-3, 4)]
    formulas = [
        "x^2 = {a}",
        "rv[0](x^2 - {a}) = rv[0]({b})",
        "v(rv[0](x - {a})) <= v(rv[0]({b}))",
        "x = {a} | v(rv[0](x)) < v(rv[0]({b}))",
        "!(rv[0](x) = rv[0]({a}))",
        # atoms under a leading-term quantifier are decomposed too
        "x = {a} | (EX w:RV[0]. v(rv[0](x^2 - {a})) > v(rv[0]({b})))",
        "ALL w:RV[1]. rv[1](x^2) = rv[1]({a}) & x = {b}",
    ]
    for i in range(2 * len(formulas)):
        tmpl = formulas[i % len(formulas)]
        text = tmpl.format(
            a=_lit(field, rng.choice(units), rng.randrange(-2, 3)),
            b=_lit(field, rng.choice(units), rng.randrange(-2, 3)),
        )
        phi = parse_formula(field, text)
        nf = normal_form(phi, "x", field)
        # D is a leading-term formula in the pullback's variables alone
        assert free_vars(nf.D) <= set(nf.names), text
        if field.backend == "laurent-q":
            # residue characteristic 0: the orders are phi's own
            assert all(g == (1 if "RV[1]" in tmpl else 0) for g in nf.orders)
        for x0 in pts:
            try:
                want = evaluate(phi, {"x": x0}, field)
            except PrecisionExhausted:
                continue
            assert nf.member(x0) == want, (text, str(x0))


def test_normal_form_builds_each_term_once(laurent, monkeypatch):
    """Each atom is read once, with one term_to_poly memo for the call: no
    field term is converted twice, neither for another cell nor for an
    equal subterm elsewhere."""
    qe_module = importlib.import_module("hqe.qe")  # the package exports qe() by that name
    real = qe_module.term_to_poly
    built = []

    def spy(term, var, field, memo=None):
        if memo is None or (term, var, field) not in memo:
            built.append(term)
        return real(term, var, field, memo)

    monkeypatch.setattr(qe_module, "term_to_poly", spy)
    text = (
        "(v(rv[0](x^2 - t^2)) > v(rv[0](t^3)) | rv[0](x - 1) = rv[0](t))"
        " & !(x^3 - t = 0) & v(rv[1](x - t)) <= v(rv[1](t^2))"
    )
    normal_form(parse_formula(laurent, text), "x", laurent)
    assert built and len(built) == len(set(built))


_DEEP_SHAPES = [
    lambda n: "EX x:K. " + "!" * n + "x = 1",
    lambda n: " -> ".join(["1 = 1"] * n),
    lambda n: "EX x:K. " + " -> ".join(["v(rv[0](x)) > v(rv[0](1))"] * n),
    lambda n: "EX x:K. " + "(v(rv[0](x)) > v(rv[0](1)) | " * n + "x = 1" + ")" * n,
    lambda n: "".join(f"EX x{i}:K. " for i in range(n)) + "x0 = 1",
    # the longest field-term chains: every walk over them (hash, free
    # variables, polynomial) runs at one frame a link or none
    lambda n: "EX x:K. v(rv[0](x" + " - 1" * n + ")) >= v(rv[0](1))",
    lambda n: "EX x:K. " + "x + " * n + "1 = 0",
    # parentheses around a field term, which build no node
    lambda n: "EX x:K. " + "(" * n + "x" + ")" * n + " = 0",
]


@pytest.mark.parametrize("shape", range(len(_DEEP_SHAPES)))
def test_deepest_parsed_formula_decides(laurent, shape):
    """The parser gives up first: whatever parses, decide, the printer and
    normal_form walk without a RecursionError."""
    make = _DEEP_SHAPES[shape]
    lo, hi = 1, 4000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse_formula(laurent, make(mid))
            lo = mid
        except FormulaSyntaxError:
            hi = mid - 1
    assert lo < 4000
    phi = parse_formula(laurent, make(lo))
    assert isinstance(decide(phi, laurent), bool)
    assert print_formula(phi)
    assert normal_form(phi, "x", laurent) is not None


_FRESH_DEEPEST_PRINT = """
import sys

from hqe.errors import FormulaSyntaxError
from hqe.field import Field
from hqe.formula import parse_formula, print_formula

field = Field.laurent()
make = lambda n: "EX x:K. " + "!" * n + "x = 1"
lo, hi = 1, 4000
while lo < hi:
    mid = (lo + hi + 1) // 2
    try:
        parse_formula(field, make(mid))
        lo = mid
    except FormulaSyntaxError:
        hi = mid - 1
phi = parse_formula(field, make(lo))


def deepest_print():
    # Python frames below print_formula at the deepest point of the walk
    depth, deepest = [0], [0]

    def count(frame, event, arg):
        if event == "call":
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
        elif event == "return":
            depth[0] -= 1

    sys.setprofile(count)
    try:
        text = print_formula(phi)
    finally:
        sys.setprofile(None)
    return text, deepest[0]


text, first = deepest_print()
_, again = deepest_print()
print(lo, first, again)
print(text)
"""


def test_deepest_negation_chain_prints_in_a_fresh_interpreter():
    """The first literal printed in a process costs no more stack than a
    later one, so the deepest parsable chain of negations prints without a
    RecursionError before anything else has warmed the interpreter up."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_DEEPEST_PRINT], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    counts, text = done.stdout.splitlines()
    depth, first, again = map(int, counts.split())
    assert 1 < depth < 4000
    assert text == "EX x:K. " + "!" * depth + "x - 1 = 0"
    assert first == again


# ---- one polynomial per distinct field term, for one decision -------------------


def test_a_repeated_centre_builds_its_polynomial_once_per_decide(laurent, monkeypatch):
    """The polynomial of x - c is built once however many atoms ask for it,
    and nothing of the decision is kept once it returns."""
    qe_module = sys.modules["hqe.qe"]  # the module; hqe.qe is also the function

    k = 6
    text = "EX x:K. " + " | ".join(f"v(rv[0](x - (1/3 + t))) = v(rv[0](t^{j}))" for j in range(2, 2 + k))
    built = []  # the polynomials handed out for x - c, kept so no id is reused
    convert = qe_module.term_to_poly

    def spy(term, *rest):
        out = convert(term, *rest)
        if term == centre:
            built.append(out)
        return out

    monkeypatch.setattr(qe_module, "term_to_poly", spy)
    for _ in range(2):
        sentence = parse_formula(laurent, text)
        centre = sentence.body.args[0].left.arg  # x - (1/3 + t), k equal copies
        assert decide(sentence, laurent) is True
        assert len(built) >= k and len({id(P) for P in built}) == 1
        gone = weakref.ref(centre)
        del sentence, centre
        built.clear()
        gc.collect()
        assert gone() is None


# the first is exhausted at the default 64 digits and answered at 128
_PRECISION_TEXTS = [
    "EX x:K. rv[0](x - 1) = rv[0](t^70) & x^2 = 1 + 2*t^70 + t^140",
    "EX x:K. (x - 1)^2 = t^100 & v(rv[0](x - 1)) = v(rv[0](t^50))",
    "EX x:K. v(rv[0](x - 1)) > v(rv[0](t^80)) & (x - 1)*(x - 1 - t^90) = 0",
]


def _verdict(field, text):
    try:
        return decide(parse_formula(field, text), field)
    except HQEError as e:
        return type(e).__name__


@pytest.mark.parametrize("first", [64, 128])
def test_one_text_under_two_precisions_answers_as_before(first):
    """Equal terms of fields of different working precision are equal, so
    polynomials are never shared between the two; either order of the
    decisions gives the answers each precision gives alone."""
    want = {64: ["PrecisionExhausted", True, True], 128: [True, True, True]}
    for prec in (first, 192 - first):
        field = Field.laurent(prec)
        assert [_verdict(field, text) for text in _PRECISION_TEXTS] == want[prec]
