"""Spans recorded from outside the program, around each call into a layer.

A span is ``[name, start, end, parent, op_id, counts]``: ``parent`` is the
index of the enclosing span (-1 for an op's root span) and ``counts`` holds
the work counters read at the same boundary (bytes parsed, catalog size,
sigma, ...). Spans stay in memory and are written once, when the run ends.

``instrumented`` also replaces the names that ``mfnrel.reliability`` looks
up inside ``reliability()``, so the traced run follows the program's own
call path instead of re-implementing it.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.op_id: int = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call; ``counts(args, result)``
        gives the span's work counters when the call returns normally."""

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "op", "counts"], "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")

    def layers(self, scale: Callable[[int], float]) -> Dict[str, dict]:
        """Per span name: call count, self time (duration minus the time its
        child spans cover), call durations and summed counters. Times are
        multiplied by ``scale(op_id)`` of the op the span belongs to."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "durations": [], "counts": defaultdict(float)}
        )
        for i, (name, start, end, _, op_id, counts) in enumerate(self.spans):
            layer = out[name]
            factor = scale(op_id)
            layer["calls"] += 1
            layer["self_s"] += (end - start - child_time[i]) * factor
            layer["durations"].append((end - start) * factor)
            for key, value in (counts or {}).items():
                layer["counts"][key] += value
        return out


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


@contextlib.contextmanager
def instrumented(tracer: Tracer, rel_module, counters: Dict[str, Callable]):
    """Wrap the functions ``reliability()`` calls inside ``rel_module`` for
    the duration of the block, and restore them afterwards."""
    saved = []
    try:
        for attr, span_name in (
            ("solve_a1", "solver.solve_a1"),
            ("union_prob_ie", "reliability.union_prob_ie"),
        ):
            saved.append((rel_module, attr, getattr(rel_module, attr)))
            setattr(rel_module, attr, tracer.wrap(span_name, saved[-1][2], counters.get(span_name)))
        table = rel_module.TailTable
        original = vars(table)["from_network"]
        saved.append((table, "from_network", original))
        table.from_network = classmethod(tracer.wrap("reliability.tails", original.__func__))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
