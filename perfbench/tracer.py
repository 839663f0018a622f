"""Span tracing around calls into the public functions of the ``aqradius`` layers.

The tracer patches every binding of each traced function in every loaded
``aqradius`` module namespace (the package itself, ``radius``, ``laws``,
``sequences``, ``cli``, ...), matched by object identity, so a call is caught
whichever import site it goes through.  ``Weight`` is traced by patching its
``__init__``, which keeps the class itself (and ``isinstance``) untouched.

Spans live in memory as tuples and are written out once, by :meth:`Tracer.dump`,
when the run ends.  A traced name that no longer exists in the package is
skipped and simply reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, home module, attribute).  The attribute "Weight.__init__" patches
# the class method; every other entry is a module-level function.
TARGETS = (
    ("semispace.weight", "aqradius.semispace", "Weight.__init__"),
    ("semispace.reduce_to_range", "aqradius.semispace", "reduce_to_range"),
    ("semispace.a_opnorm", "aqradius.semispace", "a_opnorm"),
    ("pairs.sample_pairs", "aqradius.pairs", "sample_pairs"),
    ("radius.aq_radius", "aqradius.radius", "aq_radius"),
    ("radius.aq_crawford", "aqradius.radius", "aq_crawford"),
    ("radius.a_radius", "aqradius.radius", "a_radius"),
    ("radius.a_crawford", "aqradius.radius", "a_crawford"),
    ("exact.canonical_2x2", "aqradius.exact", "canonical_2x2"),
    ("exact.q_range_2x2", "aqradius.exact", "q_range_2x2"),
    ("exact.q_radius_2x2", "aqradius.exact", "q_radius_2x2"),
    ("exact.q_crawford_2x2", "aqradius.exact", "q_crawford_2x2"),
    ("exact.jordan3_q_radius", "aqradius.exact", "jordan3_q_radius"),
    ("laws.run_suite", "aqradius.laws", "run_suite"),
    ("sequences.trace_gaps", "aqradius.sequences", "trace_gaps"),
    ("sequences.trace_radius", "aqradius.sequences", "trace_radius"),
    ("sequences.trace_crawford", "aqradius.sequences", "trace_crawford"),
    ("sequences.trace_q", "aqradius.sequences", "trace_q"),
    ("cli.main", "aqradius.cli", "main"),
)

ESTIMATORS = ("radius.aq_radius", "radius.aq_crawford", "radius.a_radius")

# positional index of the `budget` argument of each estimator
_BUDGET_POS = {"radius.aq_radius": 3, "radius.aq_crawford": 3, "radius.a_radius": 2}


def _span_attrs(name: str, args, kwargs) -> dict | None:
    """Reduced dimension and restart budget of an estimator call."""
    if name not in _BUDGET_POS:
        return None
    attrs = {}
    rank = getattr(args[0], "rank", None) if args else None
    if rank is not None:
        attrs["r"] = int(rank)
    pos = _BUDGET_POS[name]
    budget = kwargs.get("budget", args[pos] if len(args) > pos else None)
    if budget is not None:
        attrs["restarts"] = int(budget.restarts)
    return attrs


def _aqradius_modules() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "aqradius" or key.startswith("aqradius."))
    ]


class Tracer:
    """Records (name, start, end, parent, item, attrs, phase) spans while installed.

    ``capture`` names spans whose arguments and return value are kept as well,
    for value checks made after the timed work.
    """

    def __init__(self, capture: tuple[str, ...] = (), names: tuple[str, ...] | None = None):
        self.spans: list[list] = []
        self.captured: list[tuple[str, tuple, dict, object]] = []
        self.item = -1
        self.phase = "timed"
        self.names = tuple(t[0] for t in TARGETS) if names is None else names
        self._capture = frozenset(capture)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in self._capture
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            attrs = _span_attrs(name, args, kwargs)
            span = [name, clock(), 0.0, parent, self.item, attrs, self.phase]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                self.captured.append((name, args, kwargs, out))
            return out

        return traced

    def install(self) -> "Tracer":
        modules = _aqradius_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for name, home, attr in TARGETS:
            mod = by_name.get(home)
            if mod is None or name not in self.names:
                continue
            if attr == "Weight.__init__":
                cls = getattr(mod, "Weight", None)
                if cls is not None:
                    self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapper)
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its direct children's."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item, attrs, phase in self.spans:
                rec = {
                    "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "phase": phase,
                }  # fmt: skip
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


class CallTimer(Tracer):
    """Wall time of each estimator call: two clock reads per call, no spans."""

    def __init__(self):
        super().__init__(names=("radius.aq_radius", "radius.aq_crawford"))
        self.durations: dict[str, list[float]] = {name: [] for name in self.names}

    def _wrap(self, name: str, fn):
        out = self.durations[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                out.append(clock() - start)

        return timed


# --- per-layer metrics ---------------------------------------------------------

_DIM_BUCKETS = (("r1-2", 1, 2), ("r3", 3, 3), ("r4-8", 4, 8), ("r9-16", 9, 16), ("r17-up", 17, 10**9))

LAYER_METRICS = (
    ("semispace.weight.calls", "calls/item"),
    ("semispace.weight.ms", "ms/item"),
    ("semispace.reduce_to_range.calls", "calls/item"),
    ("semispace.reduce_to_range.ms", "ms/item"),
    ("semispace.a_opnorm.calls", "calls/item"),
    ("semispace.a_opnorm.ms", "ms/item"),
    ("pairs.sample_pairs.calls", "calls/item"),
    ("pairs.sample_pairs.ms", "ms/item"),
    ("radius.aq_radius.calls", "calls/item"),
    ("radius.aq_radius.self_ms", "ms/item"),
    *((f"radius.aq_radius.self_ms.{label}", "ms/item") for label, _, _ in _DIM_BUCKETS),
    ("radius.aq_crawford.calls", "calls/item"),
    ("radius.aq_crawford.self_ms", "ms/item"),
    ("radius.a_radius.calls", "calls/item"),
    ("radius.a_radius.self_ms", "ms/item"),
    ("radius.a_crawford.calls", "calls/item"),
    ("exact.calls", "calls/item"),
    ("exact.ms", "ms/item"),
    ("laws.run_suite.self_ms", "ms/item"),
    ("laws.estimator_calls_per_instance", "calls"),
    ("laws.ladder_rerun_frac", "fraction"),
    ("laws.skip_frac", "fraction"),
    ("sequences.trace.self_ms", "ms/item"),
    ("sequences.estimator_calls", "calls/item"),
    ("cli.main.self_ms", "ms/item"),
    ("trace.overhead_pct", "%"),
    ("trace.items", "count"),
)


def layer_metrics(tracer: Tracer, n_items: int) -> dict[str, float]:
    """Per-item layer counts and times from the spans of one traced run.

    Spans recorded while the benchmark checked values (phase "check") count
    only for ``exact``, whose calls are the benchmark's references.  Ladder
    reruns are estimator calls under ``run_suite`` whose restart budget exceeds
    the smallest one seen under the same suite call.
    """
    spans = tracer.spans
    own = tracer.self_times()
    per = 1.0 / max(n_items, 1)
    m = {name: 0.0 for name, _ in LAYER_METRICS}
    suite_of = [-1] * len(spans)
    in_seq = [False] * len(spans)
    in_exact = [False] * len(spans)
    base_restarts: dict[int, int] = {}
    suite_est: list[tuple[int, int]] = []
    for i, (name, start, end, parent, _item, attrs, phase) in enumerate(spans):
        ms = 1e3 * (end - start)
        is_exact = name.startswith("exact.")
        suite_of[i] = i if name == "laws.run_suite" else (suite_of[parent] if parent >= 0 else -1)
        in_seq[i] = name.startswith("sequences.") or (parent >= 0 and in_seq[parent])
        in_exact[i] = is_exact or (parent >= 0 and in_exact[parent])
        if is_exact and not (parent >= 0 and in_exact[parent]):
            m["exact.calls"] += per
            m["exact.ms"] += ms * per
        if phase != "timed" or is_exact:
            continue
        if name in ("semispace.weight", "semispace.reduce_to_range", "semispace.a_opnorm",
                    "pairs.sample_pairs"):  # fmt: skip
            m[f"{name}.calls"] += per
            m[f"{name}.ms"] += ms * per
        elif name.startswith("radius."):
            m[f"{name}.calls"] += per
            if name != "radius.a_crawford":
                m[f"{name}.self_ms"] += 1e3 * own[i] * per
            if name == "radius.aq_radius" and attrs and "r" in attrs:
                for label, lo, hi in _DIM_BUCKETS:
                    if lo <= attrs["r"] <= hi:
                        m[f"{name}.self_ms.{label}"] += 1e3 * own[i] * per
        elif name == "laws.run_suite":
            m["laws.run_suite.self_ms"] += 1e3 * own[i] * per
        elif name.startswith("sequences."):
            m["sequences.trace.self_ms"] += 1e3 * own[i] * per
        elif name == "cli.main":
            m["cli.main.self_ms"] += 1e3 * own[i] * per
        if name in ESTIMATORS:
            if parent >= 0 and in_seq[parent]:
                m["sequences.estimator_calls"] += per
            suite = suite_of[i]
            if suite >= 0:
                restarts = (attrs or {}).get("restarts", 0)
                base_restarts[suite] = min(base_restarts.get(suite, restarts), restarts)
                suite_est.append((suite, restarts))
    suites = sum(1 for s in spans if s[0] == "laws.run_suite" and s[6] == "timed")
    if suites:
        m["laws.estimator_calls_per_instance"] = len(suite_est) / suites
    if suite_est:
        reruns = sum(1 for suite, r in suite_est if r > base_restarts[suite])
        m["laws.ladder_rerun_frac"] = reruns / len(suite_est)
    m["trace.items"] = float(n_items)
    return m
