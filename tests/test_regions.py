"""The value-comparison memo of regions.vcomp_region: what it hands out and
how decisions that share its entries answer."""

import random

import pytest

from hqe.errors import NonEffectiveQuantifier
from hqe.field import Field
from hqe.formula import parse_formula
from hqe.poly import Poly
from hqe.qe import decide, witness_box
from hqe.regions import _vcomp_region, vcomp_region


def _line(field, c):
    """x - c"""
    return Poly(field, [-field.parse(c), field.one()])


def test_warm_region_equals_a_cold_one(any_field):
    u = "t" if any_field.backend == "laurent-q" else str(any_field.p)
    H = _line(any_field, f"1/3 + {u}") * _line(any_field, f"2 - {u}^2")
    G = Poly(any_field, [any_field.parse(f"{u}^3")])
    for op in ("=", "<", ">=", "!="):
        _vcomp_region.cache_clear()
        cold = vcomp_region(H, G, op, any_field, 1)
        warm = vcomp_region(H, G, op, any_field, 1)
        assert _vcomp_region.cache_info().hits == 1
        assert warm == cold and warm is not cold


def test_a_returned_region_is_the_callers_own(laurent):
    H, G = _line(laurent, "1 + t"), Poly(laurent, [laurent.parse("t^2")])
    first = vcomp_region(H, G, ">", laurent)
    want = list(first)
    hits = _vcomp_region.cache_info().hits
    first.append(first[0])
    again = vcomp_region(H, G, ">", laurent)
    assert _vcomp_region.cache_info().hits == hits + 1
    assert _vcomp_region.cache_info().maxsize == 2048
    assert again == want and again is not first


def test_a_zero_side_raises_on_every_call(laurent):
    zero, H = Poly(laurent, []), _line(laurent, "t")
    for left, right in ((zero, H), (H, zero)):
        for _ in range(2):
            with pytest.raises(NonEffectiveQuantifier, match="zero polynomial"):
                vcomp_region(left, right, "<", laurent)


def _shared(u):
    """An oplus atom O whose regions include those of an rv equation A,
    vcomp_region(x - 1 - 2u, u, ">"), and of a valuation comparison B,
    vcomp_region(u, x - 1 - 2u, "<"), in blocks with either."""
    a = f"rv[0](x - (1 + {u})) = rv[0]({u})"
    b = f"v(rv[0]({u})) < v(rv[0](x - 1 - 2*{u}))"
    o = f"oplus[0](rv[0](x - 1 - 2*{u}), rv[0]({u}), rv[0](2*x - 2 - 3*{u}))"
    c = f"v(rv[0](x - (1 + {u}))) = v(rv[0]({u}))"
    return [
        f"{a} & {o}",
        f"{a} & !({o})",
        f"{o} & {b}",
        f"!({b}) & {o}",
        f"({a} | {c}) & !({o})",
        f"{a} & {o} & !({b})",
        f"({o} | {c}) & !({a})",
    ]


# the witness of each _shared sentence, or None, as the region calculus gave
# it before the memo (a ball prints with whichever centre reached the cell
# forest first; any point of the ball would name the same set)
_SHARED = {
    "laurent-q": (
        "t",
        [
            {"x": "B[>=2](1 + 2*t^1)"},
            None,
            {"x": "B[>=2](1 + 2*t^1)"},
            None,
            {"x": "B[>=1](1 + 1*t^1) \\ (B[>=2](1 + 2*t^1) u B[>=2](1 + 1*t^1))"},
            None,
            {"x": "B[>=1](1 + 1*t^1) \\ (B[>=2](1 + 2*t^1) u B[>=2](1 + 1*t^1))"},
        ],
    ),
    "padic-7": (
        "7",
        [
            {"x": "B[>=2](15)"},
            None,
            {"x": "B[>=2](15)"},
            None,
            {"x": "B[>=1](8) \\ (B[>=2](15) u B[>=2](8))"},
            None,
            {"x": "B[>=1](8) \\ (B[>=2](15) u B[>=2](8))"},
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(_SHARED))
@pytest.mark.parametrize("warm", [False, True])
def test_atoms_sharing_one_region_in_a_block(name, warm):
    """The cell partition indexes balls by identity; the balls of one cached
    region reached by two atoms still land in one node."""
    field = Field.laurent() if name == "laurent-q" else Field.padic(7)
    u, want = _SHARED[name]
    for text, box in zip(_shared(u), want):
        if not warm:
            _vcomp_region.cache_clear()
        sentence = parse_formula(field, "EX x:K. " + text)
        hits = _vcomp_region.cache_info().hits
        got = witness_box(["x"], sentence.body, field)
        assert _vcomp_region.cache_info().hits > hits, text
        assert (got if got is None else {k: str(v) for k, v in got.items()}) == box, text
        assert decide(sentence, field) is (box is not None), text


def _valuation_disjunctions(rng, field, centres, k, truth):
    """EX x:K. core & (a_1 | b_1) & ... & (a_k | b_k) on shared centres.
    TRUE: the core is a ball around c0, every a_i contradicts it and every
    b_i holds at a planted point w of the ball.  FALSE: the core asks for
    two disjoint balls."""
    u = "t" if field.backend == "laurent-q" else str(field.p)

    def vatom(c, op, j):
        return f"v(rv[0](x - ({c}))) {op} v(rv[0]({u}^{j}))"

    if truth:
        c0 = rng.choice(centres)
        a = rng.randrange(0, 3)
        w = field.parse(c0) + field.monomial(rng.randrange(1, 3), a + rng.randrange(0, 2))
        core = [vatom(c0, ">=", a)]
        disj = []
        for _ in range(k):
            c = rng.choice(centres)
            d = (w - field.parse(c)).val()
            op, j = rng.choice([("=", d), (">=", d - 1), ("<", d + 1), ("<=", d), ("!=", d + 2)])
            disj.append((vatom(c0, "<", a - rng.randrange(0, 2)), vatom(c, op, j)))
    else:
        c1, c2 = centres[0], centres[1]  # v(c1 - c2) = 0
        core = [vatom(c1, ">=", 1), vatom(c2, ">=", 1)]
        ops = ["=", ">=", "<", "<=", "!="]
        disj = [
            tuple(vatom(rng.choice(centres), rng.choice(ops), rng.randrange(0, 4)) for _ in range(2))
            for _ in range(k)
        ]
    return "EX x:K. " + " & ".join(core + [f"({a} | {b})" for a, b in disj])


def _sentences():
    rng = random.Random(23)
    out = []
    for field, u in ((Field.laurent(), "t"), (Field.padic(7), "7")):
        centres = ["1", f"2 + {u}", f"1/3 + {u}^2", f"-1 + 2*{u}", f"3 - {u}^3"]
        for i in range(75):
            truth = i % 2 == 0
            out.append((field, _valuation_disjunctions(rng, field, centres, 2 + i % 4, truth), truth))
    return out


def test_memo_answers_as_a_cold_region_calculus():
    """About 150 decisions on shared centres answer alike whether every
    region is built afresh or read from the memo, and as planted."""
    cases = _sentences()
    cold = []
    for field, text, _ in cases:
        _vcomp_region.cache_clear()
        cold.append(decide(parse_formula(field, text), field))
    _vcomp_region.cache_clear()
    warm = [decide(parse_formula(field, text), field) for field, text, _ in cases]
    assert _vcomp_region.cache_info().hits > _vcomp_region.cache_info().misses
    assert warm == cold == [truth for _, _, truth in cases]
