"""What the interpreter's cyclic collector costs, read through ``gc.callbacks``.

:class:`GcPauses` counts collections per generation and sums their
pauses while it is active.  ``repro profile`` reports one per pipeline
stage and the ``gen_scaling`` bench family publishes one per inference,
so a collector regression is blamed on the stage or the heap that
caused it.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional

__all__ = ["GcPauses"]


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
