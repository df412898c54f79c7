"""Traced runs: spans around the calls into each proxinorm layer.

The tracer wraps, from outside the package, every public function of the
layer modules below, plus a few table and chain methods.  Modules import
names with ``from .x import y``, so a wrapper is installed on every
``proxinorm`` module attribute that refers to the original function, for
example ``proxinorm.descent.build_report`` as well as
``proxinorm.approxlin.build_report``.  ``vectors`` is not wrapped: it is
called once per series term, so a wrapper there would cost more than the
call.

A span is ``[name, start, end, parent, op, nested]``, where ``parent`` is
the index of the enclosing span and ``nested`` marks a span inside
another span of the same name.  Spans are kept in memory and written
(without ``nested``) when the run ends.  A span's self time is its duration minus
the durations of its child spans; within one operation the self times of
all spans, the operation's root span included, add up to the operation's
time, and the root's self time is the uncovered remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("construction", "approxlin", "descent", "linalg", "norms", "gateaux", "trig", "demo")

#: Methods traced besides the layers' public functions.
METHODS = {
    ("construction", "ConstructionTable"): (
        "_extend_to",
        "tail_bound",
        "weight_tail_bound",
        "occurrence_positions",
    ),
    ("descent", "DescentChain"): ("from_json", "iterate_enclosures"),
}

ROOT = "op"

_S, _CALLS, _RATIO = "s/op", "1/op", "ratio"

#: Per-layer metrics of a traced run: (name, unit, better).  Times and
#: counts are means per operation; ``*_self_s`` excludes traced children.
PER_LAYER = (
    ("construction.extend_s", _S, "lower"),
    ("construction.table_len", "entries", "lower"),
    ("construction.weight_tail_bound_s", _S, "lower"),
    ("construction.weight_tail_bound_calls", _CALLS, "lower"),
    ("construction.weight_tail_bound_distinct_ratio", _RATIO, "higher"),
    ("construction.tail_bound_s", _S, "lower"),
    ("construction.tail_bound_calls", _CALLS, "lower"),
    ("approxlin.build_report_self_s", _S, "lower"),
    ("approxlin.build_report_calls", _CALLS, "lower"),
    ("approxlin.usable_per_report", "indices", "higher"),
    ("approxlin.eps_denominator_bits", "bits", "lower"),
    ("approxlin.coherence_margin_s", _S, "lower"),
    ("approxlin.coherence_margin_calls", _CALLS, "lower"),
    ("approxlin.positive_margin_ratio", _RATIO, "higher"),
    ("approxlin.op_share", _RATIO, "lower"),
    ("descent.build_probes_s", _S, "lower"),
    ("descent.find_direction_self_s", _S, "lower"),
    ("descent.candidates_per_step", "1/step", "lower"),
    ("descent.certify_s", _S, "lower"),
    ("descent.line_search_tries_per_step", "1/step", "lower"),
    ("descent.steps_per_chain", "1/chain", "higher"),
    ("descent.from_json_s", _S, "lower"),
    ("descent.verify_chain_self_s", _S, "lower"),
    ("linalg.kernel_directions_s", _S, "lower"),
    ("linalg.kernel_directions_calls", _CALLS, "lower"),
    ("norms.norm_enclosure_s", _S, "lower"),
    ("norms.series_partial_sum_s", _S, "lower"),
    ("norms.mean_depth", "terms", "lower"),
    ("norms.max_exponent_bits", "bits", "lower"),
    ("gateaux.dplus_norm_s", _S, "lower"),
    ("gateaux.derivative_series_sum_s", _S, "lower"),
    ("gateaux.mean_depth", "terms", "lower"),
    ("trig.sin_cos_s", _S, "lower"),
    ("trig.calls", _CALLS, "lower"),
    ("demo.demo_probes_s", _S, "lower"),
    ("demo.sign_table_s", _S, "lower"),
    ("demo.run_demo_self_s", _S, "lower"),
) + tuple((f"{layer}.self_share", _RATIO, "lower") for layer in LAYERS) + (
    ("trace.uncovered_share", _RATIO, "lower"),
    ("trace.spans_per_op", _CALLS, "lower"),
    ("trace.overhead_ratio", _RATIO, "lower"),
)


class Tracer:
    """Installs wrappers on demand and records spans while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.stats: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._op = -1
        self._op_tables: List[object] = []
        self._distinct_tail_keys: set = set()
        self._patches: List[Tuple[object, str, object, object]] = []
        self._build_patches()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, False]
        span[5] = self._active[name] > 0  # nested inside a span of the same name
        self._active[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self._op = op
        self._root = self._open(ROOT)

    def end_op(self) -> None:
        self._close(self._root)
        self.stats["ops"] += 1
        self.stats["table_len"] += max((len(t) for t in self._op_tables), default=0)
        self.stats["weight_tail_distinct"] += len(self._distinct_tail_keys)
        self._op_tables.clear()
        self._distinct_tail_keys.clear()

    # -- observers: counts taken where the work happens ------------------------

    def _observers(self) -> Dict[str, Callable]:
        """Per-name callbacks given the call's bound arguments and result.
        They look arguments up by name, so a changed signature yields zero
        counts rather than a failed run."""
        stats = self.stats

        def weight_tail_bound(arguments, result):
            self._distinct_tail_keys.add(tuple(v for k, v in arguments.items() if k != "self"))

        def build_report(arguments, result):
            stats["usable"] += len(result.usable)
            stats["eps_bits"] += max((e.denominator.bit_length() for e in result.eps_hi.values()), default=0)

        def coherence_margin(arguments, result):
            stats["positive_margins"] += result > 0

        def series_partial_sum(arguments, result):
            stats["series_depth"] += arguments.get("depth", 0)
            stats["max_exponent_bits"] = max(stats["max_exponent_bits"], result.denominator.bit_length())

        def derivative_series_sum(arguments, result):
            stats["derivative_depth"] += arguments.get("depth", 0)

        def minimizing_sequence(arguments, result):
            stats["chain_steps"] += len(result.certificates)

        def canonical_table(arguments, result):
            self._op_tables.append(result)

        return {
            "construction.weight_tail_bound": weight_tail_bound,
            "approxlin.build_report": build_report,
            "approxlin.coherence_margin": coherence_margin,
            "norms.series_partial_sum": series_partial_sum,
            "gateaux.derivative_series_sum": derivative_series_sum,
            "descent.minimizing_sequence": minimizing_sequence,
            "construction.canonical_table": canonical_table,
        }

    # -- installation ------------------------------------------------------------

    def _build_patches(self) -> None:
        observers = self._observers()
        consumers = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "proxinorm"]
        for layer in LAYERS:
            module = importlib.import_module(f"proxinorm.{layer}")
            for attr, fn in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, observers.get(name))
                for consumer in consumers:
                    for cattr, value in vars(consumer).items():
                        if value is fn:
                            self._patches.append((consumer, cattr, fn, wrapper))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"proxinorm.{layer}"), cls_name, None)
            for meth in methods:
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{layer}.{cls_name}.{meth}")
                    continue
                name = f"{layer}.{meth.lstrip('_')}"
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(name, fn, observers.get(name))
                if meth == "_extend_to":
                    wrapper = self._only_growing(fn, wrapper)
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._patches.append((cls, meth, raw, wrapper))

    @staticmethod
    def _only_growing(fn: Callable, traced: Callable) -> Callable:
        """Trace table extension only when the table actually grows; the
        other calls are per-term bookkeeping."""

        @functools.wraps(fn)
        def wrapper(table, k):
            if k <= len(table):
                return fn(table, k)
            return traced(table, k)

        return wrapper

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _nested in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": round(start - t0, 9), "end": round(end - t0, 9),
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def summary(self) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """Per-layer metrics (all of PER_LAYER but the overhead, which needs
        an untraced run), per-layer self seconds, and the largest
        per-operation gap between summed self times and operation time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _nested in spans:
            if parent >= 0:
                child[parent] += end - start
        total: Dict[str, float] = defaultdict(float)  # outermost spans only
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        layer_self: Dict[str, float] = defaultdict(float)
        op_time: Dict[int, float] = defaultdict(float)
        op_self: Dict[int, float] = defaultdict(float)
        tries: Dict[int, int] = defaultdict(int)
        for i, (name, start, end, parent, op, nested) in enumerate(spans):
            duration = end - start
            self_time = duration - child[i]
            calls[name] += 1
            own[name] += self_time
            if not nested:
                total[name] += duration
            layer_self[name.split(".")[0]] += self_time
            op_self[op] += self_time
            if name == ROOT:
                op_time[op] += duration
            elif name == "norms.norm_enclosure_for_width" and spans[parent][0] == "descent.certify_descent":
                tries[parent] += 1
        residual = max((abs(op_self[o] - op_time[o]) for o in op_time), default=0.0)

        s = self.stats
        ops = max(s["ops"], 1)
        op_total = sum(op_time.values()) or 1.0

        def per_op(value):
            return value / ops

        def ratio(num, den):
            return num / den if den else 0.0

        certify_calls = calls["descent.certify_descent"]
        metrics = {
            "construction.extend_s": per_op(total["construction.extend_to"]),
            "construction.table_len": per_op(s["table_len"]),
            "construction.weight_tail_bound_s": per_op(total["construction.weight_tail_bound"]),
            "construction.weight_tail_bound_calls": per_op(calls["construction.weight_tail_bound"]),
            "construction.weight_tail_bound_distinct_ratio": ratio(
                s["weight_tail_distinct"], calls["construction.weight_tail_bound"]
            ),
            "construction.tail_bound_s": per_op(total["construction.tail_bound"]),
            "construction.tail_bound_calls": per_op(calls["construction.tail_bound"]),
            "approxlin.build_report_self_s": per_op(own["approxlin.build_report"]),
            "approxlin.build_report_calls": per_op(calls["approxlin.build_report"]),
            "approxlin.usable_per_report": ratio(s["usable"], calls["approxlin.build_report"]),
            "approxlin.eps_denominator_bits": ratio(s["eps_bits"], calls["approxlin.build_report"]),
            "approxlin.coherence_margin_s": per_op(total["approxlin.coherence_margin"]),
            "approxlin.coherence_margin_calls": per_op(calls["approxlin.coherence_margin"]),
            "approxlin.positive_margin_ratio": ratio(
                s["positive_margins"], calls["approxlin.coherence_margin"]
            ),
            "approxlin.op_share": ratio(
                total["approxlin.build_report"] + total["approxlin.coherence_margin"], op_total
            ),
            "descent.build_probes_s": per_op(total["descent.build_probes"]),
            "descent.find_direction_self_s": per_op(own["descent.find_descent_direction"]),
            "descent.candidates_per_step": ratio(
                calls["approxlin.coherence_margin"], calls["descent.find_descent_direction"]
            ),
            "descent.certify_s": per_op(total["descent.certify_descent"]),
            "descent.line_search_tries_per_step": ratio(
                sum((n - 1) / 2 for n in tries.values()), certify_calls
            ),
            "descent.steps_per_chain": ratio(s["chain_steps"], calls["descent.minimizing_sequence"]),
            "descent.from_json_s": per_op(total["descent.from_json"]),
            "descent.verify_chain_self_s": per_op(own["descent.verify_chain"]),
            "linalg.kernel_directions_s": per_op(total["linalg.kernel_directions"]),
            "linalg.kernel_directions_calls": per_op(calls["linalg.kernel_directions"]),
            "norms.norm_enclosure_s": per_op(total["norms.norm_enclosure"]),
            "norms.series_partial_sum_s": per_op(total["norms.series_partial_sum"]),
            "norms.mean_depth": ratio(s["series_depth"], calls["norms.series_partial_sum"]),
            "norms.max_exponent_bits": s["max_exponent_bits"],
            "gateaux.dplus_norm_s": per_op(total["gateaux.dplus_norm"]),
            "gateaux.derivative_series_sum_s": per_op(total["gateaux.derivative_series_sum"]),
            "gateaux.mean_depth": ratio(s["derivative_depth"], calls["gateaux.derivative_series_sum"]),
            "trig.sin_cos_s": per_op(total["trig.sin_enclosure"] + total["trig.cos_enclosure"]),
            "trig.calls": per_op(calls["trig.sin_enclosure"] + calls["trig.cos_enclosure"]),
            "demo.demo_probes_s": per_op(total["demo.demo_probes"]),
            "demo.sign_table_s": per_op(total["demo.sign_table"]),
            "demo.run_demo_self_s": per_op(own["demo.run_demo"]),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = ratio(layer_self[layer], op_total)
        metrics["trace.uncovered_share"] = ratio(layer_self[ROOT], op_total)
        metrics["trace.spans_per_op"] = per_op(len(spans))
        return metrics, dict(layer_self), residual
