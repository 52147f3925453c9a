"""Per-layer tracing by rebinding module-level functions.

Inside the ``with Tracer():`` block every name that binds a traced function
in a ``partialpref`` module (``engine.decompose`` and ``casetable.decompose``
as well as ``lottery.decompose``) points to a wrapper that records a span:
name, start, end and the span that was open when it started.  Spans stay in
memory; ``layer_metrics`` turns them into self times, call counts and
ratios.  ``Lottery.__hash__`` is only counted, because a span per hash would
cost more than the hash.  Leaving the block puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name; a layer is named after its module.
# engine._max_flow is the one private name, kept because max-flow is a layer.
TARGETS = {
    ("partialpref.cli", "run"): "cli.run",
    ("partialpref.dsl", "parse_prefs"): "dsl.parse",
    ("partialpref.dsl", "parse_lotteries"): "dsl.parse",
    ("partialpref.dsl", "parse_model"): "dsl.parse",
    ("partialpref.relation", "build_base_relation"): "relation.build",
    ("partialpref.lottery", "decompose"): "lottery.decompose",
    ("partialpref.engine", "compare"): "engine.compare",
    ("partialpref.engine", "cross_profile"): "engine.cross_profile",
    ("partialpref.engine", "shift_reachable"): "engine.shift_reachable",
    ("partialpref.engine", "_max_flow"): "engine.max_flow",
    ("partialpref.engine", "saturate"): "engine.saturate",
    ("partialpref.engine", "maximal_filter"): "engine.maximal_filter",
    ("partialpref.casetable", "check_axioms"): "casetable.check_axioms",
    ("partialpref.casetable", "regenerate_table"): "casetable.regenerate_table",
}

AXIOM_TAGS = {"A1'": "A1p", "A2": "A2", "A3": "A3", "A4": "A4", "A5": "A5", "A6": "A6"}

# per-layer metric -> unit; counts and times are per traced request
METRIC_UNITS = {
    "cli.run.self_ms": "ms",
    "dsl.parse_ms": "ms",
    "dsl.lines": "count",
    "relation.build_ms": "ms",
    "relation.closure_pairs": "count",
    "lottery.hash_calls": "count",
    "lottery.decompose.calls": "count",
    "lottery.decompose.ms": "ms",
    "lottery.decompose.hit_ratio": "ratio",
    "engine.compare.calls": "count",
    "engine.compare.self_ms": "ms",
    "engine.cross_profile.ms": "ms",
    "engine.shift_reachable.calls": "count",
    "engine.shift_reachable.self_ms": "ms",
    "engine.shift_reachable.hit_ratio": "ratio",
    "engine.max_flow.calls": "count",
    "engine.max_flow.ms": "ms",
    "engine.maximal_filter.compares_per_offer": "count",
    "engine.maximal_filter.drop_ratio": "ratio",
    "engine.saturate.ms": "ms",
    "engine.saturate.facts_out": "count",
    "engine.saturate.shift_reachable_calls": "count",
    "casetable.check_axioms.ms": "ms",
    "casetable.check_axioms.violations": "count",
    **{f"casetable.violations.{tag}": "count" for tag in AXIOM_TAGS.values()},
    "casetable.regenerate_table.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _note(name, args, result):
    """What a span keeps of its call, for the layer counts and ratios."""
    if name == "dsl.parse":
        return len(args[0].splitlines())
    if name == "relation.build":
        return len(result.weak)
    if name in ("lottery.decompose", "engine.shift_reachable"):
        return result is not None
    if name == "engine.saturate":
        return sum(1 for x, y in result.weak if x != y)
    if name == "engine.maximal_filter":
        return (len(args[1]), len(result))
    if name == "casetable.check_axioms":
        return [v.axiom for v in result]
    return None


class Tracer:
    """Context manager that records spans while the program runs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self.hash_calls = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _note(name, args, result)
            return result

        return traced

    def _rebind(self, owner, key, replacement):
        self._bindings.append((owner, key, vars(owner)[key]))
        setattr(owner, key, replacement)

    def __enter__(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "partialpref" or n.startswith("partialpref.")
        ]
        for (module_name, attr), name in TARGETS.items():
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, wrapper)
        lottery_cls = sys.modules["partialpref.lottery"].Lottery
        original_hash = lottery_cls.__dict__["__hash__"]

        def counted_hash(obj):
            self.hash_calls += 1
            return original_hash(obj)

        self._rebind(lottery_cls, "__hash__", counted_hash)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        for owner, key, original in self._bindings:
            if vars(owner)[key] is not original:
                raise RuntimeError(f"tracer left a wrapper on {owner!r}.{key}")
        self._bindings.clear()
        return False

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics, as totals per traced request."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        under = [""] * len(spans)  # the saturate/filter span a span runs under
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                pname = spans[parent][0]
                under[i] = pname if pname in ("engine.saturate", "engine.maximal_filter") else under[parent]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        hits = Counter()
        dsl_lines = closure = facts = offers = dropped = 0
        filter_compares = saturate_shifts = 0
        axioms = Counter()
        for i, (name, start, end, parent, note) in enumerate(spans):
            nested_parse = name == "dsl.parse" and parent >= 0 and spans[parent][0] == "dsl.parse"
            if not nested_parse:
                total[name] += end - start
                own[name] += end - start - child_time[i]
                calls[name] += 1
            if name == "engine.compare" and under[i] == "engine.maximal_filter":
                filter_compares += 1
            if name == "engine.shift_reachable" and under[i] == "engine.saturate":
                saturate_shifts += 1
            if note is None:
                continue
            if name == "dsl.parse" and not nested_parse:
                dsl_lines += note
            elif name == "relation.build":
                closure += note
            elif name in ("lottery.decompose", "engine.shift_reachable"):
                hits[name] += note
            elif name == "engine.saturate":
                facts += note
            elif name == "engine.maximal_filter":
                offers += note[0]
                dropped += note[0] - note[1]
            elif name == "casetable.check_axioms":
                axioms.update(note)

        def per(x):
            return x / requests

        def ms(x):
            return 1000.0 * x / requests

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "cli.run.self_ms": ms(own["cli.run"]),
            "dsl.parse_ms": ms(total["dsl.parse"]),
            "dsl.lines": per(dsl_lines),
            "relation.build_ms": ms(total["relation.build"]),
            "relation.closure_pairs": per(closure),
            "lottery.hash_calls": per(self.hash_calls),
            "lottery.decompose.calls": per(calls["lottery.decompose"]),
            "lottery.decompose.ms": ms(total["lottery.decompose"]),
            "lottery.decompose.hit_ratio": ratio(hits["lottery.decompose"], calls["lottery.decompose"]),
            "engine.compare.calls": per(calls["engine.compare"]),
            "engine.compare.self_ms": ms(own["engine.compare"]),
            "engine.cross_profile.ms": ms(total["engine.cross_profile"]),
            "engine.shift_reachable.calls": per(calls["engine.shift_reachable"]),
            "engine.shift_reachable.self_ms": ms(own["engine.shift_reachable"]),
            "engine.shift_reachable.hit_ratio": ratio(
                hits["engine.shift_reachable"], calls["engine.shift_reachable"]),
            "engine.max_flow.calls": per(calls["engine.max_flow"]),
            "engine.max_flow.ms": ms(total["engine.max_flow"]),
            "engine.maximal_filter.compares_per_offer": ratio(filter_compares, offers),
            "engine.maximal_filter.drop_ratio": ratio(dropped, offers),
            "engine.saturate.ms": ms(total["engine.saturate"]),
            "engine.saturate.facts_out": per(facts),
            "engine.saturate.shift_reachable_calls": per(saturate_shifts),
            "casetable.check_axioms.ms": ms(total["casetable.check_axioms"]),
            "casetable.check_axioms.violations": per(sum(axioms.values())),
            "casetable.regenerate_table.ms": ms(total["casetable.regenerate_table"]),
        }
        for tag, key in AXIOM_TAGS.items():
            out[f"casetable.violations.{key}"] = per(axioms[tag])
        return out
