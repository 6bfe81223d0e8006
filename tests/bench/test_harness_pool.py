"""Harness integration with the session-owned worker pool.

Pins the backend-default unification (``fig8_rows`` used
``getattr(session, "backend", None)`` while ``fig9_rows`` read
``session.backend`` directly — both now normalise the session first and
read the same attribute) and that one session really shares one pool
across fig8 *and* fig9.
"""

from repro.api import Session
from repro.bench import fig8_rows, fig9_rows


class TestSessionBackendDefault(object):
    def test_fig8_honours_the_session_default_backend(self):
        with Session(backend="process") as session:
            rows = fig8_rows(
                names=["sieve"], quick=True, session=session, max_workers=2
            )
            assert len(rows) == 1
            # the batch really went through the session's pool
            assert session.stats.event_count("pool.spawns") == 1

    def test_fig9_honours_the_session_default_backend(self):
        with Session(backend="process") as session:
            rows = fig9_rows(
                names=["bisort", "treeadd"], session=session, max_workers=2
            )
            assert len(rows) == 2
            assert session.stats.event_count("pool.spawns") == 1

    def test_explicit_backend_still_overrides(self):
        with Session(backend="process") as session:
            fig9_rows(
                names=["treeadd"],
                session=session,
                backend="thread",
                max_workers=2,
            )
            assert session.stats.event_count("pool.spawns") == 0

    def test_session_less_callers_agree_on_the_default(self):
        # neither builder needs a session; both fall back to a fresh
        # session's default (thread) the same way
        eight = fig8_rows(names=["sieve"], quick=True)
        nine = fig9_rows(names=["treeadd"])
        assert len(eight) == 1 and len(nine) == 1


class TestOnePoolAcrossTables(object):
    def test_fig8_then_fig9_reuse_one_pool(self):
        with Session(backend="process") as session:
            fig8_rows(
                names=["sieve"], quick=True, session=session, max_workers=2
            )
            fig9_rows(
                names=["bisort", "treeadd"], session=session, max_workers=2
            )
            assert session.stats.event_count("pool.spawns") == 1
            assert session.process_pool().size == 2
