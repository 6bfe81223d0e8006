"""The deadline scope and the engine sites that check it."""

import threading
import time

import pytest

from repro.api import Pipeline, Session, config_key
from repro.api.session import _source_key
from repro.checking import check_target
from repro.core import InferenceConfig, RegionInference
from repro.deadline import DeadlineExceeded, check, deadline
from repro.frontend import parse_program
from repro.gen import GenSpec, generate_source
from repro.lang.pretty import pretty_target
from repro.regions.abstraction import AbstractionEnv
from repro.regions.fixpoint import solve_recursive_abstractions
from tests.conftest import LIST_SOURCE, PAIR_SOURCE

#: an already-expired scope: every check inside it fires
EXPIRED = -1.0

#: the store key of document ``doc``'s lineage under the default config
DOC_KEY = ("doc", config_key(InferenceConfig()))

#: a batch that takes far longer than :data:`BATCH_DEADLINE` to infer
BATCH = [generate_source(GenSpec.sized(20, seed=i)) for i in range(8)]
BATCH_DEADLINE = 0.05


class TestScope(object):
    def test_no_scope_never_fires(self):
        check()

    def test_expired_scope_fires_and_closing_it_clears(self):
        with deadline(EXPIRED):
            with pytest.raises(DeadlineExceeded):
                check()
        check()

    def test_nested_scope_keeps_the_earlier_deadline(self):
        with deadline(EXPIRED):
            with deadline(3600):
                with pytest.raises(DeadlineExceeded):
                    check()

    def test_nested_shorter_scope_applies_then_restores(self):
        with deadline(3600):
            with deadline(EXPIRED):
                with pytest.raises(DeadlineExceeded):
                    check()
            check()

    def test_none_adds_no_deadline(self):
        with deadline(None):
            check()
        with deadline(EXPIRED):
            with deadline(None):
                with pytest.raises(DeadlineExceeded):
                    check()

    def test_scope_belongs_to_its_thread(self):
        seen = []

        def other():
            try:
                check()
                seen.append("ok")
            except DeadlineExceeded:
                seen.append("fired")

        with deadline(EXPIRED):
            t = threading.Thread(target=other)
            t.start()
            t.join(timeout=10)
        assert seen == ["ok"]


class TestEngineSites(object):
    def test_every_pipeline_stage_checks(self):
        for stage in ("parse", "typecheck", "annotate", "infer", "verify"):
            pipe = Pipeline(PAIR_SOURCE)
            with deadline(EXPIRED):
                with pytest.raises(DeadlineExceeded):
                    getattr(pipe, stage)()
        pipe = Pipeline(PAIR_SOURCE)
        pipe.infer()
        with deadline(EXPIRED):
            with pytest.raises(DeadlineExceeded):
                pipe.execute("main")

    def test_inference_checks_between_sccs(self):
        program = parse_program(PAIR_SOURCE)
        engine = RegionInference(program)
        with deadline(EXPIRED):
            with pytest.raises(DeadlineExceeded):
                engine.infer()

    def test_fixpoint_checks_each_iteration(self):
        with deadline(EXPIRED):
            with pytest.raises(DeadlineExceeded):
                solve_recursive_abstractions([], AbstractionEnv())

    def test_region_check_checks_each_method(self):
        target = Pipeline(PAIR_SOURCE).infer().value.target
        with deadline(EXPIRED):
            with pytest.raises(DeadlineExceeded):
                check_target(target)


class TestNothingPartialIsKept(object):
    def test_timed_out_infer_caches_nothing(self):
        session = Session()
        with pytest.raises(DeadlineExceeded):
            session.infer_one(PAIR_SOURCE, timeout=EXPIRED)
        assert session.cache_size == 0
        # the lookup found nothing: one miss, though parse never ran
        assert session.stats.as_dict()["misses"] == {"infer": 1}
        result = session.infer_one(PAIR_SOURCE, timeout=3600)
        assert pretty_target(result.target) == pretty_target(
            Pipeline(PAIR_SOURCE).infer().value.target
        )

    def test_timed_out_reinfer_keeps_the_prior_lineage(self):
        session = Session()
        session.reinfer(PAIR_SOURCE, document="doc")
        lineage = session._store.peek("document", DOC_KEY)
        with deadline(EXPIRED):
            with pytest.raises(DeadlineExceeded):
                session.reinfer(LIST_SOURCE, document="doc")
        assert session._store.peek("document", DOC_KEY) == lineage
        result = session.reinfer(LIST_SOURCE, document="doc")
        assert pretty_target(result.target) == pretty_target(
            Pipeline(LIST_SOURCE).infer().value.target
        )



class TestBatchBackends(object):
    """The caller's scope bounds a whole ``infer_many`` batch."""

    def test_in_thread_batch_stops_at_the_deadline(self):
        session = Session()
        start = time.monotonic()
        with deadline(BATCH_DEADLINE):
            with pytest.raises(DeadlineExceeded):
                session.infer_many(BATCH)
        assert time.monotonic() - start < 0.5
        # a program that finished inside the deadline is legitimately
        # cached, so the cached programs are a prefix of the batch; the
        # program in flight when the deadline fired (the last one the
        # batch started, one miss each) is not, nor is any after it
        ck = config_key(session.config)
        cached = [
            session._store.contains("infer", (_source_key(src), ck))
            for src in BATCH
        ]
        started = session.stats.miss_count("infer")
        assert 1 <= started <= len(BATCH)
        assert cached == [True] * (started - 1) + [False] * (
            len(BATCH) - started + 1
        )
