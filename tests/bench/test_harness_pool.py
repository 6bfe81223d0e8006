"""Harness integration with the session-owned worker pool.

The backend comes only from the per-call ``backend=`` argument: a session
has no default of its own, so ``fig8_rows`` and ``fig9_rows`` run in the
calling thread unless the call asks for ``backend="process"``.  One
session still shares one pool across fig8 *and* fig9.
"""

from repro.api import Session
from repro.bench import fig8_rows, fig9_rows


class TestSessionBackendDefault(object):
    def test_fig8_honours_the_session_default_backend(self):
        with Session() as session:
            rows = fig8_rows(
                names=["sieve"], quick=True, session=session, max_workers=2
            )
            assert len(rows) == 1
            # the default is the calling thread: no pool comes up
            assert session.stats.event_count("pool.spawns") == 0

    def test_fig9_honours_the_session_default_backend(self):
        with Session() as session:
            rows = fig9_rows(
                names=["bisort", "treeadd"], session=session, max_workers=2
            )
            assert len(rows) == 2
            assert session.stats.event_count("pool.spawns") == 0

    def test_explicit_backend_still_overrides(self):
        with Session() as session:
            fig9_rows(
                names=["treeadd", "bisort"],
                session=session,
                backend="process",
                max_workers=2,
            )
            # the batch really went through the session's pool
            assert session.stats.event_count("pool.spawns") == 1

    def test_session_less_callers_agree_on_the_default(self):
        # neither builder needs a session; both fall back to a fresh
        # session and the in-thread default the same way
        eight = fig8_rows(names=["sieve"], quick=True)
        nine = fig9_rows(names=["treeadd"])
        assert len(eight) == 1 and len(nine) == 1


class TestOnePoolAcrossTables(object):
    def test_fig8_then_fig9_reuse_one_pool(self):
        with Session() as session:
            fig8_rows(
                names=["sieve"],
                quick=True,
                session=session,
                backend="process",
                max_workers=2,
            )
            fig9_rows(
                names=["bisort", "treeadd"],
                session=session,
                backend="process",
                max_workers=2,
            )
            assert session.stats.event_count("pool.spawns") == 1
            assert session.process_pool().size == 2
