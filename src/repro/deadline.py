"""One deadline for a unit of work, checked by the engine at loop boundaries.

A caller opens a scope with :func:`deadline`; the engine calls
:func:`check` at its natural stopping points — the start of each
pipeline stage, between method SCCs, on every fixed-point iteration,
per method in the region checker and every few thousand interpreter
steps — and :class:`DeadlineExceeded` propagates out of whatever was
running.  Nothing catches it on the way: a timed-out build leaves no
cache entry behind.

The scope lives in a :class:`~contextvars.ContextVar`, so it belongs to
the thread (or task) that opened it.  A nested scope never extends the
deadline of the scope around it.  With no scope open, :func:`check` is one
context-variable read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = ["DeadlineExceeded", "check", "deadline"]

#: the monotonic instant the current scope's work must stop by
_DEADLINE: ContextVar[Optional[float]] = ContextVar("repro_deadline", default=None)


class DeadlineExceeded(Exception):
    """The enclosing :func:`deadline` scope's time ran out."""


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Run the body under a deadline ``seconds`` from now.

    ``None`` adds no deadline of its own.  An earlier deadline from an
    enclosing scope stays in force.
    """
    at = None if seconds is None else time.monotonic() + seconds
    outer = _DEADLINE.get()
    if at is None or (outer is not None and outer <= at):
        yield
        return
    token = _DEADLINE.set(at)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check() -> None:
    """Raise :class:`DeadlineExceeded` if the current scope's time is up."""
    at = _DEADLINE.get()
    if at is not None:
        late = time.monotonic() - at
        if late > 0:
            raise DeadlineExceeded(f"deadline passed {late:.3f}s ago")

