"""Layer tracing for the hqe benchmark, from outside the package.

``Tracer.install()`` replaces the public functions of each layer module in
every ``hqe.*`` namespace that binds them (``qe`` imports ``field_roots``
from ``hensel``, say) and the public methods of its public classes on the
class itself, with wrappers that record a span (name, start, end, parent)
and per-layer counters.  Self time is a span's duration minus the time its
child spans cover; the benchmark is single-threaded and has no queue, so
there is no wait time to record.  ``uninstall()`` puts the originals back.

Only ``FieldElem``'s arithmetic operators are wrapped in the ``field``
layer: its accessors (``val``, ``is_zero`` ...) run millions of times and
would drown the numbers in tracing cost.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("field", "poly", "hensel", "rv", "balls", "decomp", "regions", "formula", "semantics", "qe")
GROUPS = ("laurent-q", "padic")
SPAN_CAP = 50_000  # spans kept in memory per run

FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
# dunders that count as public operations of the other layers' classes
OPERATORS = ("__call__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__")
DECOMP_QUERIES = ("cell_of", "eval_v", "eval_rv", "contains", "piece_eval_v", "piece_eval_rv")
REGION_OUTPUTS = (
    "region_all", "region_union", "region_intersect", "region_without_points",
    "vcomp_region",
)


def _group(backend: str) -> str:
    return "laurent-q" if backend == "laurent-q" else "padic"


def _unit_len(x) -> int | None:
    """Digits in an operand's unit part: the unit's length over laurent-q,
    its known p-adic digits (or the digits of its exact rational) over
    padic.  None for zero and order bounds."""
    if x.kind != "n":
        return None
    if x.field.backend == "laurent-q":
        return len(x.unit)
    if x.rel is not None:
        return x.rel
    p, u = x.field.p, x.unit
    big = max(abs(u.numerator), u.denominator)
    n = 1
    while big >= p:
        big //= p
        n += 1
    return n


def _percentile(hist: Counter, q: float) -> float:
    """The q-quantile of a {value: count} histogram (0 when empty)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    rank, seen = q * (total - 1), 0
    for value in sorted(hist):
        seen += hist[value]
        if seen > rank:
            return float(value)
    return float(max(hist))


class Tracer:
    """Spans and counters for one benchmark run.

    Spans beyond ``SPAN_CAP`` are counted but not kept, so memory stays
    bounded on long runs; counters and self times cover every call.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.spans_dropped = 0
        self._stack: list = []
        self._next_id = 1
        self._op_id = 0
        self._patches: list = []
        self.calls = Counter()      # per layer, and per "layer.name"
        self.self_s = Counter()     # per layer, and per special key
        self.raised = Counter()     # per layer
        self.field_ops = Counter()  # per backend group
        self.unit_lens = {g: Counter() for g in GROUPS}
        self.roots_seen: set = set()
        self.roots_repeats = 0
        self.cells_seen: set = set()
        self.cells_repeats = 0
        self.newton_iterations = 0
        self.pieces = 0
        self.cheeses_out = 0
        self._hooks = self._after_hooks()

    # ---- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer's public callables; idempotent per instance."""
        if self._patches:
            return
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "hqe" or name.startswith("hqe."))}
        for layer in LAYERS:
            mod = modules[f"hqe.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and layer != "field":
                    wrapper = self._wrap(layer, name, obj)
                    for other in modules.values():
                        for attr, val in list(vars(other).items()):
                            if val is obj:
                                self._patch(other, attr, val, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val):
                continue
            if layer == "field":
                wanted = cls.__name__ == "FieldElem" and attr in FIELD_OPS
            else:
                wanted = not attr.startswith("_") or attr in OPERATORS
            if wanted:
                self._patch(cls, attr, val, self._wrap(layer, attr, val))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- the wrapper ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        key = f"{layer}.{name}"
        if layer == "decomp":
            self_key = "decomp.query" if name in DECOMP_QUERIES else "decomp.build"
        elif layer == "formula" and name.startswith("parse"):
            self_key = "formula.parse"
        else:
            self_key = None
        after = self._hooks.get(key)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if layer == "field":
                group = tracer._field_enter(args)
                sk = "field." + group
            else:
                sk = self_key
                if key == "hensel.field_roots" or key == "regions.exact_cells":
                    tracer._note_repeat(key, args)
            frame = tracer._enter(layer, key, sk)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.raised[layer] += 1
                raise
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _after_hooks(self):
        def newton(cert):
            self.newton_iterations += cert.iterations

        def pieces(result):
            self.pieces += len(result)

        def cheeses(result):
            self.cheeses_out += len(result)

        def roots_region(result):
            self.cheeses_out += len(result[0])

        hooks = {
            "hensel.newton_lift": newton,
            "decomp.decompose": pieces,
            "regions.roots_region": roots_region,
        }
        for name in REGION_OUTPUTS:
            hooks[f"regions.{name}"] = cheeses
        return hooks

    def _field_enter(self, args) -> str:
        x = args[0]
        group = _group(x.field.backend)
        self.field_ops[group] += 1
        lens = self.unit_lens[group]
        for operand in args[:2]:
            if hasattr(operand, "kind"):
                n = _unit_len(operand)
                if n is not None:
                    lens[n] += 1
        return group

    def _note_repeat(self, key, args):
        poly = args[0]
        h = hash((poly.field, poly.coeffs))
        if key == "hensel.field_roots":
            seen, attr = self.roots_seen, "roots_repeats"
        else:
            seen, attr = self.cells_seen, "cells_repeats"
        if h in seen:
            setattr(self, attr, getattr(self, attr) + 1)
        else:
            seen.add(h)

    def _enter(self, layer, key, self_key):
        self.calls[layer] += 1
        self.calls[key] += 1
        parent = self._stack[-1][4] if self._stack else 0
        span_id = self._next_id
        self._next_id += 1
        frame = [layer, self_key, time.perf_counter(), 0.0, span_id, parent, key]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        layer, self_key, start, child, span_id, parent, key = frame
        dur = end - start
        own = dur - child
        self._stack.pop()
        if self._stack:
            self._stack[-1][3] += dur
        self.self_s[layer] += own
        if self_key is not None:
            self.self_s[self_key] += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self._op_id, key, start, end))
        else:
            self.spans_dropped += 1

    # ---- benchmark-level spans ---------------------------------------------------

    def begin_op(self, op_id: int, label: str):
        """Open the root span of one timed operation and enable tracing."""
        self._op_id = op_id
        self.enabled = True
        return self._enter("bench", f"op:{label}", None)

    def end_op(self, frame):
        self._exit(frame)
        self.enabled = False

    # ---- results -------------------------------------------------------------------

    def metrics(self, ops: dict) -> dict:
        """The per-layer metrics, by name, as (value, unit) pairs.

        ``ops`` holds the benchmark operations run per backend group.  Counts
        and self times are per operation -- of that group for the field
        metrics, of the whole run otherwise -- so a faster commit, which runs
        more operations in the same time, reads the same where it does the
        same work per operation."""
        c, s = self.calls, self.self_s
        total = sum(ops.values()) or 1
        out = {}
        for g in GROUPS:
            n = ops.get(g) or 1
            out[f"field.ops.{g}"] = (self.field_ops[g] / n, "count/op")
            out[f"field.self_s.{g}"] = (s["field." + g] / n, "s/op")
            out[f"field.unit_len_p50.{g}"] = (_percentile(self.unit_lens[g], 0.5), "digits")
        out["field.unit_len_p90.laurent-q"] = (_percentile(self.unit_lens["laurent-q"], 0.9), "digits")

        def per_op(value, unit):
            return (value / total, unit + "/op")

        out["poly.evals"] = per_op(c["poly.__call__"], "count")
        out["poly.self_s"] = per_op(s["poly"], "s")
        roots_calls = c["hensel.field_roots"]
        out["hensel.field_roots_calls"] = per_op(roots_calls, "count")
        out["hensel.newton_lifts"] = per_op(c["hensel.newton_lift"], "count")
        out["hensel.newton_iterations"] = per_op(self.newton_iterations, "count")
        out["hensel.self_s"] = per_op(s["hensel"], "s")
        out["hensel.repeat_share"] = (self.roots_repeats / roots_calls if roots_calls else 0.0, "share")
        out["rv.calls"] = per_op(c["rv"], "count")
        out["rv.self_s"] = per_op(s["rv"], "s")
        out["balls.contains_calls"] = per_op(c["balls.contains"] + c["balls.contains_ball"], "count")
        out["balls.intersect_calls"] = per_op(c["balls.intersect"] + c["balls.intersects"], "count")
        out["balls.self_s"] = per_op(s["balls"], "s")
        builds = c["decomp.decompose"]
        out["decomp.builds"] = per_op(builds, "count")
        out["decomp.pieces_per_build"] = (self.pieces / builds if builds else 0.0, "count")
        out["decomp.build_self_s"] = per_op(s["decomp.build"], "s")
        out["decomp.query_self_s"] = per_op(s["decomp.query"], "s")
        cells = c["regions.exact_cells"]
        out["regions.exact_cells_calls"] = per_op(cells, "count")
        out["regions.intersect_calls"] = per_op(c["regions.region_intersect"], "count")
        out["regions.cheeses_out"] = per_op(self.cheeses_out, "count")
        out["regions.self_s"] = per_op(s["regions"], "s")
        out["regions.repeat_share"] = (self.cells_repeats / cells if cells else 0.0, "share")
        out["formula.parse_self_s"] = per_op(s["formula.parse"], "s")
        out["formula.self_s"] = per_op(s["formula"], "s")
        out["semantics.self_s"] = per_op(s["semantics"], "s")
        out["qe.self_s"] = per_op(s["qe"], "s")
        out["bench.self_s"] = per_op(s["bench"], "s")
        for layer in LAYERS:
            out[f"{layer}.raised"] = per_op(self.raised[layer], "count")
        out["trace.spans"] = (len(self.spans) + self.spans_dropped, "count")
        return out

    def unit_len_distribution(self, group: str) -> dict:
        hist = self.unit_lens[group]
        return {
            "samples": sum(hist.values()),
            **{f"p{q}": _percentile(hist, q / 100) for q in (10, 50, 90, 99)},
            "max": max(hist) if hist else 0,
        }

    def write_spans(self, path):
        """One JSON object per span: id, parent, op, name, start, end."""
        with open(path, "w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
