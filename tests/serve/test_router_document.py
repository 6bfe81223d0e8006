"""The ``/v1/infer`` incremental fast path: requests naming a document."""

import json

import pytest

from repro.bench.composite import composite_source, tweak_method_body
from repro.serve.router import Router, ServerConfig


@pytest.fixture(scope="module")
def sources():
    src = composite_source()
    return src, tweak_method_body(src, "1103515245", "1103515246")


@pytest.fixture()
def router():
    with Router(ServerConfig(quiet=True)) as r:
        yield r


def _infer(router, payload):
    return router.handle(
        "POST", "/v1/infer", {}, json.dumps(payload).encode()
    )


class TestDocumentFastPath(object):
    def test_first_submission_runs_full(self, router, sources):
        src, _ = sources
        status, payload, _ = _infer(
            router, {"source": src, "document": "buf/main.cj"}
        )
        assert status == 200
        assert payload["cached"] is False
        assert payload["document"] == "buf/main.cj"
        assert payload["stats"]["reused_sccs"] == 0
        assert payload["stats"]["reinferred_sccs"] > 0

    def test_edited_resubmission_splices(self, router, sources):
        src, edited = sources
        _infer(router, {"source": src, "document": "buf/main.cj"})
        status, payload, _ = _infer(
            router, {"source": edited, "document": "buf/main.cj"}
        )
        assert status == 200
        assert payload["cached"] is True
        assert payload["stats"]["reused_sccs"] > 0
        assert (
            payload["stats"]["reused_sccs"]
            > payload["stats"]["reinferred_sccs"]
        )

    def test_incremental_output_matches_full(self, router, sources):
        src, edited = sources
        _infer(router, {"source": src, "document": "buf/main.cj"})
        _, incremental, _ = _infer(
            router, {"source": edited, "document": "buf/main.cj"}
        )
        _, full, _ = _infer(router, {"source": edited, "tenant": "other"})
        assert incremental["target"] == full["target"]
        assert incremental["fingerprint"] == full["fingerprint"]

    def test_documents_scoped_per_tenant(self, router, sources):
        src, _ = sources
        _infer(
            router,
            {"source": src, "document": "buf", "tenant": "alice"},
        )
        status, payload, _ = _infer(
            router, {"source": src, "document": "buf", "tenant": "bob"}
        )
        # bob's first submission of the same document name is his own
        # lineage: it cannot splice against alice's
        assert status == 200
        assert payload["stats"]["reused_sccs"] == 0

    def test_no_document_keeps_classic_response(self, router, sources):
        src, _ = sources
        status, payload, _ = _infer(router, {"source": src})
        assert status == 200
        assert "document" not in payload
        assert "reused_sccs" not in payload["stats"]

    def test_bad_document_name_is_rejected(self, router, sources):
        src, _ = sources
        for bad in ("../etc", "", "a b", "x" * 200):
            status, payload, _ = _infer(
                router, {"source": src, "document": bad}
            )
            assert status == 400
            assert payload["error"]["field"] == "document"

    def test_check_endpoint_ignores_document(self, router, sources):
        src, _ = sources
        status, payload, _ = router.handle(
            "POST",
            "/v1/check",
            {},
            json.dumps({"source": src, "document": "buf"}).encode(),
        )
        assert status == 200
        assert payload["ok"] is True
