"""Host facts: what the cyclic collector costs, and the CPUs we may use.

:class:`GcPauses` counts collections per generation and sums their
pauses while it is active (read through ``gc.callbacks``).  ``repro
profile`` reports one per pipeline stage and the ``gen_scaling`` bench
family publishes one per inference, so a collector regression is blamed
on the stage or the heap that caused it.  :func:`available_cpus` sets
the daemon's default request concurrency and is recorded in every
published benchmark.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, List, Optional

__all__ = ["GcPauses", "available_cpus"]


def available_cpus() -> int:
    """The number of CPUs *this process* may actually run on.

    ``os.cpu_count()`` reports the machine; in a cgroup/cpuset-limited
    container (CI runners, serving deployments) the process is often
    pinned to far fewer cores, and sizing pools by the machine
    over-provisions — more workers than cores means pure contention.
    ``os.sched_getaffinity(0)`` reports the real allowance where the
    platform has it (Linux); elsewhere fall back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


class GcPauses:
    """Collections per generation and their summed pause time.

    A context manager: the callback is registered on entry and removed on
    exit, and re-entering accumulates into the same counts.  Collections
    in every thread count while it is active.
    """

    def __init__(self) -> None:
        self.collections: List[int] = [0, 0, 0]
        self.pause_s = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1
            self._started = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def pause_ms(self) -> float:
        return self.pause_s * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        """``{"collections": [gen0, gen1, gen2], "pause_ms": ...}``."""
        return {
            "collections": list(self.collections),
            "pause_ms": round(self.pause_ms, 3),
        }
