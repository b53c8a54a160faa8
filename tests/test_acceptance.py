"""Acceptance gate: every property suite runs at its stated size and
tolerance and must pass within its time budget.  One line per criterion."""

from pathlib import Path

from hqe.selftest import SUITES

SEED = 0
# the stdout of `hqe selftest --seed 0`
GOLDEN = Path(__file__).parent / "golden" / "selftest_seed0.txt"
_RESULTS = {}


def _result(name):
    if name not in _RESULTS:
        _RESULTS[name] = SUITES[name](SEED)
    return _RESULTS[name]


def _run(name):
    result = _result(name)
    print()
    print(result.line())
    assert result.ok, f"{result.name}: {result.failures[:3]}"
    assert result.duration < result.limit, (
        f"{result.name} took {result.duration:.1f}s, budget {result.limit:.0f}s"
    )
    return result


def test_c1_rv_equivalence_suite():
    r = _run("rv-equivalence")
    assert r.cases >= 1500


def test_c2_partial_addition_suite():
    r = _run("partial-addition")
    assert r.cases >= 1500


def test_c3_hensel_suite():
    r = _run("hensel-lifting")
    assert r.cases >= 600


def test_c4_collision_suite():
    r = _run("collision-roots")
    assert r.cases >= 100


def test_c5_decomposition_suite():
    r = _run("decomposition")
    assert r.cases >= 100


def test_c6_linear_elimination_suite():
    r = _run("linear-elimination")
    assert r.cases >= 500


def test_c7_qe_end_to_end_suite():
    r = _run("qe-end-to-end")
    assert r.cases >= 50


def test_c8_normal_form_suite():
    r = _run("normal-form")
    assert r.cases >= 30


def test_selftest_stdout_matches_golden():
    """The selftest's stdout, one untimed line per suite in suite order, is
    pinned across commits; the suites run above are not run again."""
    out = "".join(_result(name).line(with_timing=False) + "\n" for name in SUITES)
    assert out == GOLDEN.read_text()
