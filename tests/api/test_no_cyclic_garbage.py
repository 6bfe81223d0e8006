"""A check leaves no cyclic garbage behind.

Every object a check allocates must be freed by reference counting: a
reference cycle (a recursive nested function is one — function, closure
cell, function) survives until the cyclic collector runs, and each full
collection would re-walk every artifact the session caches.  Each store
therefore freezes the heap out of the collector (``gc.freeze``), and that
needs this too: cyclic garbage among frozen objects is never reclaimed.

Under ``gc.DEBUG_SAVEALL`` the collector keeps everything it finds
unreachable in ``gc.garbage``, so "no cycles" is "``gc.garbage`` stays
empty" after a warm check, after a document edit and after the session
drops its cached artifacts.  The collector does not look at frozen
objects, so every probe unfreezes the heap before it collects; without
that, a cycle hanging off a cached result would die frozen and unseen.
"""

import gc

import pytest

from repro import Session
from repro.core.infer import RegionInference
from repro.gen import GenSpec, generate_source

SOURCES = [generate_source(GenSpec.sized(6, seed=seed)) for seed in range(3)]

#: a one-literal edit of ``SOURCES[1]`` for the incremental path
EDITED = SOURCES[1].replace("int tag() { 101 }", "int tag() { 111 }")


@pytest.fixture
def save_all():
    """Collect, then save whatever the collector finds unreachable."""
    gc.unfreeze()
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)

    def garbage():
        gc.unfreeze()
        gc.collect()
        return [type(o).__qualname__ for o in gc.garbage]

    try:
        yield garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()


def _warm_session():
    session = Session()
    session.pipeline(SOURCES[0]).run("execute", args=[2])
    return session


def test_edit_changes_the_source():
    assert EDITED != SOURCES[1]


def test_warm_check_leaves_no_cycles(save_all):
    session = _warm_session()
    for source in SOURCES[1:]:
        session.pipeline(source).run("execute", args=[2])
        assert session.check(source).ok
    assert save_all() == []


def test_document_edit_leaves_no_cycles(save_all):
    session = _warm_session()
    session.reinfer(SOURCES[1], document="doc")
    session.reinfer(EDITED, document="doc")
    assert save_all() == []


def test_evicting_cached_artifacts_leaves_no_cycles():
    session = _warm_session()
    for source in SOURCES[1:]:
        session.pipeline(source).run("execute", args=[2])
    session.reinfer(EDITED, document="doc")
    assert session.cache_size > 0
    gc.unfreeze()
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        session.clear_cache()
        gc.unfreeze()
        gc.collect()
        assert [type(o).__qualname__ for o in gc.garbage] == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()


def test_lru_eviction_leaves_no_cycles(save_all):
    session = Session(max_cache_entries=2)
    for source in SOURCES + [EDITED]:
        session.pipeline(source).run("execute", args=[2])
    assert session.stats.eviction_count("infer") == 2
    assert save_all() == []


def test_the_guard_sees_a_cycle_made_just_before_the_store(
    save_all, monkeypatch
):
    """A cycle hanging off a result is frozen with it at the store; once
    the session drops the result, the probe must still report it."""
    infer = RegionInference.infer

    def infer_with_a_cycle(self):
        result = infer(self)
        loop = []
        loop.append(loop)
        result.loop = loop
        return result

    monkeypatch.setattr(RegionInference, "infer", infer_with_a_cycle)
    session = _warm_session()
    assert gc.get_freeze_count() > 0
    session.clear_cache()
    assert "list" in save_all()
