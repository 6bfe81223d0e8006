"""In-memory span recorder and the arithmetic the layer metrics rest on.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``None`` for a root) and ``op`` the id of the timed
operation the span belongs to.  Spans nest per thread through a stack;
a span opened on another thread (the daemon's handler thread serving a
client's request) names its parent explicitly, usually the operation's
root span (:meth:`Recorder.root_of`).

Nothing is written while a run is being measured: spans stay in memory
and :meth:`Recorder.dump` writes them out when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Children of one
span may overlap when they ran on different threads, so the covered part
is the length of the union of the children's intervals, clipped to the
parent.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Recorder",
    "self_times",
    "op_layer_times",
    "percentile",
    "union_length",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._roots: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Index of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def root_of(self, op: int) -> Optional[int]:
        """Index of the root span opened for operation ``op``."""
        with self._lock:
            return self._roots.get(op)

    @contextmanager
    def span(
        self, name: str, op: Optional[int] = None, *, parent: Optional[int] = None
    ) -> Iterator[int]:
        """Time the ``with`` body as a span named ``name``.

        The parent is this thread's innermost open span; ``parent`` is only
        used when the thread has none (a span started on a server thread
        on behalf of a client's operation).  ``op`` defaults to the
        parent's operation.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        start = time.perf_counter()
        with self._lock:
            if op is None and parent is not None:
                op = self.spans[parent].op
            index = len(self.spans)
            self.spans.append(Span(name, start, start, parent, op))
            if parent is None and op is not None:
                self._roots.setdefault(op, index)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            [
                (max(spans[c].start, span.start), min(spans[c].end, span.end))
                for c in children.get(index, ())
            ]
        )
        out.append(span.duration - covered)
    return out


def op_layer_times(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per operation, the summed self time of each span name (seconds)."""
    out: Dict[int, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.op is None:
            continue
        layers = out.setdefault(span.op, {})
        layers[span.name] = layers.get(span.name, 0.0) + own
    return out


#: a percentile is only reported with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Refuses (``ValueError``) unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the percentile: p50 needs 20 samples, p90 needs
    100.  A p90 read from a few dozen samples is mostly its maximum.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    needed = math.ceil(MIN_TAIL_SAMPLES / (1 - q / 100) - 1e-9)
    if len(values) < needed:
        raise ValueError(
            f"p{q:g} needs at least {needed} samples, got {len(values)}"
        )
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
