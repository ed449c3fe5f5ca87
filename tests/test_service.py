"""End-to-end tests for the solve service: HTTP, SSE, cache, cancel."""

import io
import json
import os
import re
import threading
import time

import pytest

from repro import api
from repro.core.options import SolverOptions
from repro.pb.opb import parse
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.protocol import (
    ERROR_CODES,
    JOB_STATES,
    ProtocolError,
    SSE_EVENT_TYPES,
    SubmitRequest,
    format_sse,
    parse_sse,
)

EASY = (
    "min: +1 x1 +2 x2 +3 x3;\n"
    "+1 x1 +1 x2 +1 x3 >= 2;\n"
    "+1 x1 +1 x2 >= 1;\n"
)

#: Same instance as EASY under the renaming 1->5, 2->7, 3->2 (with
#: unused indices declared), exercising the canonical cache.
EASY_RENAMED = (
    "min: +2 x7 +1 x5 +3 x2;\n"
    "+1 x5 +1 x7 +1 x2 >= 2;\n"
    "+1 x5 +1 x7 >= 1;\n"
)


def slow_instance(n=20):
    """A brute-force-hostile instance (2^n assignments)."""
    lines = ["min: " + " ".join("+%d x%d" % ((i % 7) + 1, i)
                                for i in range(1, n + 1)) + ";"]
    for i in range(1, n + 1):
        lines.append(
            "+1 x%d +1 x%d +1 x%d >= 2;"
            % (i, (i % n) + 1, ((i + 5) % n) + 1)
        )
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        port=0, workers=2, queue_depth=32, cache_size=64,
        default_deadline=60.0, grace=3.0,
    )
    with BackgroundServer(config) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port, timeout=120.0)


class TestProtocolUnit:
    def test_submit_request_rejects_garbage(self):
        for body, code in [
            (None, "bad_request"),
            ([], "bad_request"),
            ({}, "bad_request"),
            ({"instance": "not opb"}, "bad_request"),
            ({"instance": EASY, "bogus": 1}, "bad_request"),
            ({"instance": EASY, "solver": "no-such"}, "unknown_solver"),
            ({"instance": EASY, "options": {"profile": True}}, "bad_request"),
            ({"instance": EASY, "options": {"propagation": "bogus"}}, "bad_request"),
            ({"instance": EASY, "options": {"propagation": "array"}}, "bad_request"),
            ({"instance": EASY, "options": {"lb_schedule": "adaptive"}}, "bad_request"),
            ({"instance": EASY, "options": {"lb_frequency": 2}}, "bad_request"),
            ({"instance": EASY, "options": {"lower_bound": "hybrid"}}, "bad_request"),
            ({"instance": EASY, "options": {"propagation": "counter"}}, "bad_request"),
            # values the solver would trip on inside a worker
            ({"instance": EASY, "options": {"time_limit": "x"}}, "bad_request"),
            ({"instance": EASY, "options": {"max_conflicts": "a"}}, "bad_request"),
            ({"instance": EASY, "options": {"max_decisions": "abc"}}, "bad_request"),
            ({"instance": EASY, "options": {"vsids_decay": 7}}, "bad_request"),
            (
                {
                    "instance": EASY,
                    "options": {"restarts": True, "restart_interval": 0},
                },
                "bad_request",
            ),
            # wrongly typed flags and negative budgets would pass the
            # type check and silently change the search
            ({"instance": EASY, "options": {"preprocess": "false"}}, "bad_request"),
            ({"instance": EASY, "options": {"upper_bound_cuts": "no"}}, "bad_request"),
            ({"instance": EASY, "options": {"lp_guided_branching": 0}}, "bad_request"),
            ({"instance": EASY, "options": {"cardinality_cuts": None}}, "bad_request"),
            ({"instance": EASY, "options": {"max_conflicts": -5}}, "bad_request"),
            ({"instance": EASY, "options": {"max_learned": -1}}, "bad_request"),
            # the deleted search extensions are unknown options
            ({"instance": EASY, "options": {"restarts": True}}, "bad_request"),
            ({"instance": EASY, "options": {"restart_interval": 100}}, "bad_request"),
            ({"instance": EASY, "options": {"phase_saving": True}}, "bad_request"),
            ({"instance": EASY, "options": {"pb_learning": True}}, "bad_request"),
            (
                {"instance": EASY, "options": {"probing_implications": 16}},
                "bad_request",
            ),
            # so are the covering reductions and the bounders' iteration caps
            (
                {"instance": EASY, "options": {"covering_reductions": True}},
                "bad_request",
            ),
            ({"instance": EASY, "options": {"lgr_iterations": 60}}, "bad_request"),
            ({"instance": EASY, "options": {"lp_max_iterations": 3000}}, "bad_request"),
            ({"instance": EASY, "solver": "bsolo-hybrid"}, "unknown_solver"),
            ({"instance": EASY, "timeout": -1}, "bad_request"),
            ({"instance": EASY, "proof": "yes"}, "bad_request"),
            (
                {"instance": EASY, "solver": "linear-search", "proof": True},
                "unsupported",
            ),
        ]:
            with pytest.raises(ProtocolError) as err:
                SubmitRequest.from_json(body)
            assert err.value.code == code, body

    def test_submit_request_resolves_solver_alias(self):
        request = SubmitRequest.from_json(
            {"instance": EASY, "solver": "pbs"}
        )
        assert request.solver == api.canonical_name("pbs")

    def test_sse_roundtrip(self):
        frame = format_sse("progress", {"conflicts": 3}).decode()
        events = list(parse_sse(frame.splitlines()))
        assert events == [("progress", {"conflicts": 3})]

    def test_format_sse_rejects_unknown_event(self):
        with pytest.raises(ValueError):
            format_sse("no-such-event", {})


class TestEndToEnd:
    def test_concurrent_batch_matches_direct_solve(self, client):
        texts = [EASY, slow_instance(8),
                 "min: +1 x1;\n+1 x1 +1 x2 >= 1;\n"]
        direct = [
            api.solve(parse(io.StringIO(t)), "bsolo-lpr", SolverOptions())
            for t in texts
        ]
        jobs = [client.submit(t, solver="bsolo-lpr", cache=False)
                for t in texts]
        finals = [client.wait(j["id"], timeout=60) for j in jobs]
        for reference, final in zip(direct, finals):
            assert final["state"] == "done"
            assert final["result"]["status"] == reference.status
            assert final["result"]["cost"] == reference.best_cost

    def test_renamed_duplicate_hits_cache_with_translated_model(
        self, client
    ):
        first = client.wait(
            client.submit(EASY, solver="bsolo-lpr")["id"], timeout=60
        )
        assert first["state"] == "done"
        duplicate = client.submit(EASY_RENAMED, solver="bsolo-lpr")
        assert duplicate["state"] == "done"
        result = duplicate["result"]
        assert result["cached"] is True
        assert result["cost"] == first["result"]["cost"]
        # the cached model must satisfy the *renamed* instance
        instance = parse(io.StringIO(EASY_RENAMED))
        model = {int(var): val for var, val in result["model"].items()}
        full = {v: model.get(v, 0) for v in range(1, 8)}
        for constraint in instance.constraints:
            assert constraint.is_satisfied_by(full)

    def test_differing_options_bypass_cache_entry(self, client):
        client.wait(
            client.submit(EASY, solver="bsolo-lpr")["id"], timeout=60
        )
        other = client.submit(
            EASY, solver="bsolo-lpr", options={"lower_bound": "mis"}
        )
        assert other["state"] == "queued"  # miss: different signature
        final = client.wait(other["id"], timeout=60)
        assert final["result"]["cached"] is False

    def test_sse_stream_replays_lifecycle(self, client):
        job = client.submit(EASY, solver="bsolo-lpr", cache=False)
        events = list(client.events(job["id"]))
        names = [name for name, _ in events]
        assert names[0] == "queued"
        assert "started" in names
        assert names[-1] == "result"
        for name, _data in events:
            assert name in SSE_EVENT_TYPES
        result = dict(events)["result"]
        assert result["status"] == "optimal"

    def test_client_cancel_terminates_running_job(self, client):
        job = client.submit(
            slow_instance(20), solver="brute-force", timeout=60, cache=False
        )
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client.get(job["id"])["state"] == "running":
                break
            time.sleep(0.02)
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=30)
        assert final["state"] == "cancelled"
        assert final["reason"] == "client"
        names = [name for name, _ in client.events(job["id"])]
        assert names[-1] == "cancelled"

    def test_cancel_queued_job_never_runs(self, client):
        # saturate both workers, then cancel a queued job
        blockers = [
            client.submit(slow_instance(20), solver="brute-force",
                          timeout=30, cache=False)
            for _ in range(2)
        ]
        queued = client.submit(EASY, solver="bsolo-lpr", cache=False)
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] == "cancelled"
        for blocker in blockers:
            client.cancel(blocker["id"])
            client.wait(blocker["id"], timeout=30)
        final = client.get(queued["id"])
        assert final["state"] == "cancelled"
        assert "started" not in [n for n, _ in client.events(queued["id"])]

    def test_deadline_bounds_the_solve(self, client):
        job = client.submit(
            slow_instance(20), solver="brute-force", timeout=1.0, cache=False
        )
        start = time.monotonic()
        final = client.wait(job["id"], timeout=30)
        elapsed = time.monotonic() - start
        # deadline flows into the solver's time_limit: the worker stops
        # itself and reports an inconclusive result well before the
        # watchdog's grace window would fire
        assert final["state"] in ("done", "cancelled")
        if final["state"] == "done":
            assert final["result"]["status"] == "unknown"
        else:
            assert final["reason"] == "deadline"
        assert elapsed < 20

    def test_proof_job_returns_checkable_certificate(self, client):
        job = client.submit(EASY, solver="bsolo-lpr", proof=True)
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "done"
        proof = final["result"].get("proof")
        assert proof
        from repro.certify import ProofChecker

        outcome = ProofChecker(parse(io.StringIO(EASY))).check_text(proof)
        assert outcome.status == "optimal"
        assert outcome.cost == final["result"]["cost"]

    def test_proof_jobs_bypass_cache(self, client):
        client.wait(
            client.submit(EASY, solver="bsolo-lpr")["id"], timeout=60
        )
        job = client.submit(EASY, solver="bsolo-lpr", proof=True)
        assert job["state"] != "done" or not job["result"].get("cached")
        final = client.wait(job["id"], timeout=60)
        assert final["result"]["cached"] is False
        assert "proof" in final["result"]


class TestHttpSurface:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert set(health["cache"]) == {
            "entries", "capacity", "hits", "misses", "evictions",
        }

    def test_metrics_exposition(self, client):
        client.wait(
            client.submit(EASY, solver="bsolo-lpr", cache=False)["id"],
            timeout=60,
        )
        text = client.metrics_text()
        assert 'service_jobs_total{outcome="done"}' in text
        assert "service_job_seconds" in text
        assert 'service_http_requests_total{code="200",route="/healthz"}' \
            in text or "service_http_requests_total" in text

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.get("feedfeedfeedfeed")
        assert err.value.code == "not_found" and err.value.status == 404

    def test_cancel_terminal_job_conflict(self, client):
        job = client.submit(EASY, solver="bsolo-lpr", cache=False)
        client.wait(job["id"], timeout=60)
        with pytest.raises(ServiceError) as err:
            client.cancel(job["id"])
        assert err.value.code == "conflict" and err.value.status == 409

    def test_bad_submission_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("this is not opb")
        assert err.value.code == "bad_request" and err.value.status == 400

    @pytest.mark.parametrize("engine", ["bogus", "array"])
    def test_unknown_engine_400(self, client, engine):
        # there is one propagation engine: naming one is an unknown option
        with pytest.raises(ServiceError) as err:
            client.submit(EASY, options={"propagation": engine})
        assert err.value.code == "bad_request" and err.value.status == 400
        assert "unsupported option(s): propagation" in err.value.message

    def test_unknown_route_404_and_wrong_method_405(self, client):
        status, body = client._request("GET", "/nope")
        assert status == 404
        status, body = client._request("PUT", "/jobs")
        assert status == 405
        error = json.loads(body)["error"]
        assert error["code"] == "method_not_allowed"

    def test_queue_full_503(self):
        config = ServiceConfig(
            port=0, workers=1, queue_depth=1, default_deadline=30.0
        )
        with BackgroundServer(config) as small:
            tiny = ServiceClient(port=small.port)
            first = tiny.submit(
                slow_instance(20), solver="brute-force", cache=False
            )
            with pytest.raises(ServiceError) as err:
                tiny.submit(EASY, cache=False)
            assert err.value.code == "queue_full"
            assert err.value.status == 503
            tiny.cancel(first["id"])
            tiny.wait(first["id"], timeout=30)


class TestDocsContract:
    """docs/SERVICE.md must describe exactly what the server does."""

    @pytest.fixture(scope="class")
    def doc(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "SERVICE.md"
        )
        with open(path) as handle:
            return handle.read()

    def test_every_sse_event_type_documented(self, doc):
        documented = set(
            re.findall(r"^### `(\w+)` event", doc, flags=re.MULTILINE)
        )
        assert documented == set(SSE_EVENT_TYPES)

    def test_every_job_state_documented(self, doc):
        documented = set(
            re.findall(r"^\| `(\w+)` +\|", doc, flags=re.MULTILINE)
        )
        assert set(JOB_STATES) <= documented

    def test_every_error_code_documented(self, doc):
        for code, status in ERROR_CODES.items():
            assert "`%s`" % code in doc, code
            assert str(status) in doc

    def test_every_endpoint_documented(self, doc):
        for endpoint in [
            "POST /jobs",
            "GET /jobs/{id}",
            "GET /jobs/{id}/events",
            "DELETE /jobs/{id}",
            "GET /healthz",
            "GET /metrics",
        ]:
            assert endpoint in doc, endpoint

    def test_documented_events_match_live_stream(self, doc, client):
        job = client.submit(EASY, solver="bsolo-lpr", cache=False)
        client.wait(job["id"], timeout=60)
        for name, _data in client.events(job["id"]):
            assert "### `%s` event" % name in doc
