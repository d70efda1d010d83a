"""The traced run: spans around each layer's public functions, and their sums.

Wrappers are installed from here, around the calls into each layer, and
removed again when the traced window ends; nothing under ``src/`` knows about
them.  A span holds a layer name, start, end, parent span and thread, plus
an optional work count (rows admitted, batch width, records read).  Spans
stay in memory until the run ends.

A layer's *self time* is its span's duration minus the part covered by its
child spans.  The *unattributed residual* of a thread is its wall-clock over
the traced window minus the self time of every span on it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (name, start, end, parent index within the thread's list or -1, count)
Span = list


def empty_totals() -> Dict[str, float]:
    return {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0}


class SpanRecorder:
    """Per-thread span lists; a parent is always on the same thread."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.threads: Dict[str, List[Span]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_spans(self) -> List[Span]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            thread = threading.current_thread()
            with self._lock:
                self.threads[f"{thread.name}#{thread.ident}"] = spans
        return spans

    def wrap(self, name: str, function: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``function`` recording one span per call.

        ``count(args, result)`` (optional) gives the span's work count, e.g.
        the rows of an admission round.
        """
        recorder = self

        def traced(*args, **kwargs):
            spans = recorder._thread_spans()
            stack = recorder._local.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = recorder.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = recorder.clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: ``[thread, name, start, end,
        parent, count]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for thread, spans in self.threads.items():
                for name, start, end, parent, count in spans:
                    handle.write(json.dumps([thread, name, start, end, parent, count]))
                    handle.write("\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def wrap(self, recorder: SpanRecorder, owner: object, attribute: str,
             name: str, count: Optional[Callable] = None) -> None:
        self.replace(owner, attribute,
                     recorder.wrap(name, owner.__dict__[attribute], count))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def install(recorder: SpanRecorder) -> Patches:
    """Wrap the public entry points of every serving layer."""
    from repro.core import EntropyExitPolicy
    from repro.runtime import PlanExecutor
    from repro.runtime import rings
    from repro.serve import (
        AdmissionQueue, ContinuousBatcher, InferenceEngine, Response, Server,
        SpanTracker, Telemetry, TraceRecorder,
    )
    from repro.serve import batcher, replica

    patches = Patches()
    wrap = lambda owner, attribute, name, count=None: patches.wrap(  # noqa: E731
        recorder, owner, attribute, name, count)
    wrap(Server, "submit", "serve.submit")
    wrap(Server, "stats", "serve.telemetry.stats")
    wrap(AdmissionQueue, "get", "serve.queue.get")
    wrap(AdmissionQueue, "get_nowait", "serve.queue.get")
    wrap(ContinuousBatcher, "run_once", "serve.batcher.run_once")
    wrap(InferenceEngine, "admit_batch", "serve.engine.admit",
         lambda args, result: len(args[1]))
    wrap(InferenceEngine, "step", "serve.engine.step",
         lambda args, result: args[0].active_count + len(result))
    wrap(PlanExecutor, "step", "runtime.executor.step",
         lambda args, result: len(result))
    wrap(EntropyExitPolicy, "should_exit", "core.exit_check")
    wrap(EntropyExitPolicy, "score", "core.exit_check")
    # price_request is looked up as a module global by both completion paths.
    wrap(batcher, "price_request", "imc.price")
    wrap(replica, "price_request", "imc.price")
    for method in ("record_completion", "record_queue_depth", "record_occupancy"):
        wrap(Telemetry, method, "serve.telemetry.record")
    wrap(SpanTracker, "record_result", "serve.obs.span")
    wrap(SpanTracker, "record", "serve.obs.span")
    wrap(TraceRecorder, "record_request", "serve.trace.wal")
    wrap(Response, "set_result", "serve.response.set")
    wrap(rings.RequestRingWriter, "try_write", "runtime.rings.write",
         lambda args, result: int(result is None))
    wrap(rings.CompletionReader, "read", "runtime.rings.read",
         lambda args, result: len(result))
    return patches


# --------------------------------------------------------------------------- #
# Arithmetic over recorded spans
# --------------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run on the parent's thread, one after another,
    so their durations add without overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer name: calls, busy (inclusive) seconds, self seconds, and the
    summed work count.  Busy time counts a layer once when it nests in
    itself (``should_exit`` calling ``score``)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(empty_totals)
    own = self_times(spans)
    for index, (name, start, end, parent, count) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self"] += own[index]
        entry["count"] += count
        if parent < 0 or spans[parent][0] != name:
            entry["busy"] += end - start
    return dict(totals)


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of the window ``[start, end]`` on one thread that no span's
    self time covers.  Spans are clipped to the window first, so a call in
    flight at either edge counts only its part inside."""
    clipped = [
        [name, min(max(first, start), end), min(max(last, start), end), parent, count]
        for name, first, last, parent, count in spans
    ]
    return (end - start) - sum(self_times(clipped))


def childless(spans: Sequence[Span], parent_name: str, child_name: str) -> int:
    """Number of ``parent_name`` spans with no direct ``child_name`` child
    (batcher iterations that never stepped the engine: idle polls)."""
    with_child = {parent for name, _, _, parent, _ in spans if name == child_name}
    return sum(
        1 for index, span in enumerate(spans)
        if span[0] == parent_name and index not in with_child
    )


def merge_totals(parts: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = defaultdict(empty_totals)
    for part in parts:
        for name, entry in part.items():
            for key, value in entry.items():
                merged[name][key] += value
    return dict(merged)


def op_shares(op_timings: Optional[Sequence[Dict[str, object]]]) -> Dict[str, float]:
    """Share of compiled-plan op time per op class (``REPRO_TRACE_OPS=1``)."""
    seconds: Dict[str, float] = defaultdict(float)
    for entry in op_timings or ():
        seconds[str(entry["op"])] += float(entry["seconds"])
    total = sum(seconds.values())
    return {op: value / total for op, value in seconds.items()} if total > 0 else {}
