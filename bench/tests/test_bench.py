"""Tests of the benchmark itself: seeded inputs, the answer checkers and the
tracer.  Run from the root of a checkout:

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hqe  # noqa: E402
import workloads as W  # noqa: E402

# answers of the first operations of every stream, computed in a fresh
# interpreter so that no module memo is warm, with or without the tracer
ANSWERS_CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads as W
from itertools import islice
if {trace}:
    from tracer import Tracer
    tracer = Tracer(); tracer.install(); tracer.enabled = True
def show(ans):
    if isinstance(ans, (list, tuple)):
        return [show(a) for a in ans]
    if hasattr(ans, "to_json"):
        return ans.to_json()
    return str(ans)
out = {{}}
for w in W.WORKLOADS:
    for g in W.GROUPS:
        n = 4 if w == "decompose" and g == "laurent-q" else 8
        out[w + "/" + g] = [show(op.call()) for op in islice(W.stream(w, g, 5), n)]
if {trace}:
    assert tracer.calls["hensel.field_roots"] and tracer.calls["decomp.decompose"]
    assert tracer.calls["qe.decide"] and tracer.field_ops["laurent-q"]
print(json.dumps(out))
"""


def _inputs(workload, group, seed, n=12):
    """A printable fingerprint of the first n inputs of a stream."""
    return [(op.label, op.input) for op in islice(W.stream(workload, group, seed), n)]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in W.WORKLOADS:
            for g in W.GROUPS:
                self.assertEqual(_inputs(w, g, 3), _inputs(w, g, 3), (w, g))

    def test_other_seed_other_inputs(self):
        for w in W.WORKLOADS:
            for g in W.GROUPS:
                self.assertNotEqual(_inputs(w, g, 3), _inputs(w, g, 4), (w, g))

    def test_roots_inputs_never_repeat(self):
        for g in W.GROUPS:
            polys = [op.input for op in islice(W.stream("roots", g, 1), 200)]
            self.assertEqual(len(set(polys)), len(polys))


class Checkers(unittest.TestCase):
    def test_planted_roots_pass_and_a_dropped_root_fails(self):
        for g in W.GROUPS:
            checked = 0
            for op in islice(W.stream("roots", g, 2), 12):
                answer = op.call()
                self.assertEqual(op.check(answer), [], op.label)
                if answer:
                    self.assertNotEqual(op.check(answer[1:]), [], op.label)
                    checked += 1
            self.assertGreater(checked, 3)

    def test_a_perturbed_root_fails(self):
        for op in W.stream("roots", "laurent-q", 2):
            answer = op.call()
            if answer:
                break
        root = answer[0]
        moved = [root + root.field.monomial(1, root.v + 1)] + answer[1:]
        self.assertNotEqual(op.check(moved), [])

    def test_verdicts_pass_and_a_flipped_verdict_fails(self):
        for g in W.GROUPS:
            seen = set()
            for op in islice(W.stream("decide", g, 2), 12):
                verdict = op.call()
                seen.add(verdict)
                self.assertEqual(op.check(verdict), [], op.label)
                self.assertNotEqual(op.check(not verdict), [], op.label)
            self.assertEqual(seen, {True, False})

    def test_decompose_checker_rejects_a_wrong_valuation(self):
        op = next(islice(W.stream("decompose", "padic", 2), 3, None))
        dec, out = op.call()
        self.assertEqual(op.check((dec, out)), [])
        i = next(i for i, item in enumerate(out) if not isinstance(item, hqe.HQEError))
        piece, w, r = out[i]
        bad = list(out)
        bad[i] = (piece, w + hqe.ValQ(1) if w != hqe.INF else hqe.ValQ(0), r)
        self.assertNotEqual(op.check((dec, bad)), [])


class TraceWrappers(unittest.TestCase):
    def _answers(self, trace: int):
        code = ANSWERS_CHILD.format(src=str(ROOT / "src"), bench=str(BENCH), trace=trace)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout)

    def test_tracing_leaves_every_answer_unchanged(self):
        self.assertEqual(self._answers(0), self._answers(1))

    def test_uninstall_restores_the_package(self):
        from tracer import Tracer

        # the package exports a function named qe, which hides the submodule
        qe_mod, hensel_mod = sys.modules["hqe.qe"], sys.modules["hqe.hensel"]

        def bindings():
            return (hqe.field_roots, qe_mod.field_roots, hensel_mod.field_roots,
                    hqe.FieldElem.__add__, hqe.Poly.__call__)

        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(qe_mod.field_roots, before[1])
            self.assertIs(qe_mod.field_roots, hensel_mod.field_roots)
            self.assertIs(hqe.field_roots, hensel_mod.field_roots)
        finally:
            tracer.uninstall()
        self.assertEqual(before, bindings())


if __name__ == "__main__":
    unittest.main()
