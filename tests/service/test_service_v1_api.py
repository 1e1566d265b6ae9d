"""The versioned API surface: /v1 routes, typed errors, generated docs.

Pins the api contracts: every HTTP route lives under ``/v1`` and
unversioned paths answer 404 (serving nothing); every route runs the
JSON-line op it names, so its body is that op's reply minus ``ok``;
``ping``/``hello`` carry ``protocol_version``; both wire surfaces speak
the one typed error vocabulary of :mod:`repro.service.errors`;
cancellation is idempotent 200 on both paths; and ``docs/api.md``
embeds exactly what the route table renders — the docs cannot drift
from the server.
"""

import http.client
import json
import pathlib
import socket

import pytest

from repro.pipeline.supervisor import InlineShardExecutor
from repro.service.errors import (
    ERROR_CODES,
    ArtifactNotReadyError,
    AuthError,
    InvalidJobError,
    ProtocolError,
    RejectedError,
    ServiceError,
    UnknownJobError,
    error_from_payload,
    error_payload,
)
from repro.service.protocol import decode_line, encode_line
from repro.service.routes import (
    API_VERSION,
    OPS,
    PROTOCOL_VERSION,
    ROUTES,
    match_route,
    render_api_reference,
)

DOCS_API = pathlib.Path(__file__).resolve().parents[2] / "docs" / "api.md"


def _request(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    payload = None if body is None else json.dumps(body).encode("utf-8")
    connection.request(method, path, body=payload, headers=headers or {})
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response.status, dict(response.getheaders()), (
        json.loads(raw) if raw else None
    )


def _op(server, message):
    """One JSON-line request → its decoded reply line."""
    with socket.create_connection((server.host, server.port), timeout=60) as sock:
        stream = sock.makefile("rwb")
        stream.write(encode_line(message))
        stream.flush()
        return decode_line(stream.readline())


class TestUnversionedPaths:
    def test_unversioned_paths_are_404(self, service_server, small_fig1_job):
        server = service_server(executor_factory=InlineShardExecutor)
        job_id = server.client().submit(small_fig1_job)["job"]
        server.client().events(job_id)
        for method, path in (  # v1-lint: allow-begin — pinning the 404
            ("GET", "/jobs"),
            ("POST", "/jobs"),
            ("GET", f"/jobs/{job_id}"),
            ("DELETE", f"/jobs/{job_id}"),
            ("GET", f"/jobs/{job_id}/artifact"),
            ("GET", "/stats"),
        ):  # v1-lint: allow-end
            status, headers, body = _request(server, method, path)
            assert status == 404, (method, path)
            assert "Location" not in headers
            assert body["code"] == "protocol" and body["error"] == "unknown route"
        # The versioned path serves the resource.
        status, _, body = _request(server, "GET", f"/v1/jobs/{job_id}")
        assert status == 200 and body["state"] == "completed"

    def test_unversioned_post_creates_nothing(self, service_server, small_fig1_job):
        """An unversioned submission is a 404 and creates no job."""
        server = service_server(executor_factory=InlineShardExecutor)
        status, _, _ = _request(server, "POST", "/jobs", small_fig1_job)  # v1-lint: allow
        assert status == 404
        assert server.client().jobs() == []


class TestRouteTable:
    def test_match_route_binds_one_id_segment(self):
        def matched(path):
            return [(route.method, route.op, job) for route, job in match_route(path)]

        assert matched("/v1/jobs") == [("POST", "submit", None), ("GET", "jobs", None)]
        assert matched("/v1/jobs/j7/") == [
            ("GET", "status", "j7"),
            ("DELETE", "cancel", "j7"),
        ]
        assert matched("/v1/jobs/j7/events?x=1") == [("GET", "events", "j7")]
        assert matched("/v1/stats") == [("GET", "hello", None)]
        for path in ("/v1", "/v1/nope", "/v1/jobs/a/b", "/v1/jobs/a/b/events"):
            assert matched(path) == [], path

    def test_every_route_answers_its_json_line_reply(
        self, service_server, small_fig1_job
    ):
        """Each HTTP body is the JSON-line reply of ``route.op`` minus
        ``ok`` (``artifact`` unwrapped).  The event stream's parity is
        pinned by the ndjson lifecycle test in test_service_http."""
        server = service_server(executor_factory=InlineShardExecutor)
        job_id = server.client().submit(small_fig1_job)["job"]
        server.client().events(job_id)  # terminal: later replies are stable
        ops = {op for op, _ in OPS}
        # Submissions go last: they add jobs, which moves the listings.
        for route in sorted(ROUTES, key=lambda route: route.op == "submit"):
            assert route.op in ops, route
            if route.op == "events":
                continue
            body = small_fig1_job if route.op == "submit" else None
            status, _, answered = _request(
                server, route.method, route.path.replace("<id>", job_id), body
            )
            assert status == route.statuses[0], route
            reply = _op(server, {"op": route.op, "job": job_id, "spec": body})
            assert reply.pop("ok") is True, route
            if route.op == "artifact":
                reply = reply["artifact"]
            if route.op == "submit":
                # Every submission is a new job; all but the id agree.
                assert answered.pop("job") != reply.pop("job")
            assert answered == reply, route


class TestProtocolVersion:
    def test_ping_and_hello_carry_protocol_version(self, service_server):
        client = service_server(executor_factory=InlineShardExecutor).client()
        assert client.ping() is True
        hello = client.hello()
        assert hello["protocol_version"] == PROTOCOL_VERSION
        assert hello["api_version"] == API_VERSION
        assert hello["auth"] is False
        assert hello["durable"] is False
        assert set(hello["load_shed"]) == {
            "rejected_queue_full",
            "rejected_tenant_quota",
            "unauthorized",
            "recovered",
        }

    def test_stats_route_mirrors_hello(self, service_server, small_fig1_job):
        server = service_server(executor_factory=InlineShardExecutor)
        client = server.client()
        job_id = client.submit(small_fig1_job)["job"]
        client.events(job_id)
        status, _, stats = _request(server, "GET", "/v1/stats")
        assert status == 200
        assert stats["protocol_version"] == PROTOCOL_VERSION
        assert stats["jobs"]["completed"] == 1
        assert stats == client.hello()


class TestIdempotentCancel:
    def test_http_delete_twice_is_200_then_cancelled_false(
        self, service_server, small_fig1_job, wait_until
    ):
        from test_service_faults import _HangingJobExecutor

        server = service_server(executor_factory=_HangingJobExecutor)
        job_id = server.client().submit(small_fig1_job)["job"]
        status, _, first = _request(server, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200 and first["cancelled"] is True
        wait_until(
            lambda: server.client().status(job_id)["state"] == "cancelled",
            message="cancellation to land",
        )
        status, _, second = _request(server, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200 and second["cancelled"] is False
        assert second["state"] == "cancelled"

    def test_protocol_cancel_matches_http_semantics(
        self, service_server, small_fig1_job
    ):
        client = service_server(executor_factory=InlineShardExecutor).client()
        job_id = client.submit(small_fig1_job)["job"]
        client.events(job_id)
        first = client.cancel(job_id)
        second = client.cancel(job_id)
        assert first["cancelled"] is second["cancelled"] is False
        assert first["state"] == second["state"] == "completed"


class TestErrorSurface:
    def test_every_code_round_trips_through_the_payload(self):
        for code, cls in ERROR_CODES.items():
            err = (
                cls("boom", retry_after=7) if cls is RejectedError else cls("boom")
            )
            payload = error_payload(err)
            assert payload["code"] == code
            assert payload["retryable"] is cls.retryable
            back = error_from_payload(payload)
            assert type(back) is cls and str(back) == "boom"
        assert error_from_payload({"code": "from_the_future"}).code == (
            "service_error"
        )

    def test_rejected_error_carries_retry_after(self):
        err = error_from_payload(error_payload(RejectedError("full", retry_after=9)))
        assert isinstance(err, RejectedError)
        assert err.retry_after == 9 and err.retryable and err.http_status == 429

    def test_hierarchy_statuses_match_the_docs_table(self):
        assert InvalidJobError.http_status == 400
        assert UnknownJobError.http_status == 404
        assert ArtifactNotReadyError.http_status == 409
        assert AuthError.http_status == 401
        assert ProtocolError.http_status == 400
        for cls in ERROR_CODES.values():
            assert issubclass(cls, ServiceError)

    def test_client_raises_the_typed_error(self, service_server):
        client = service_server(executor_factory=InlineShardExecutor).client()
        with pytest.raises(UnknownJobError):
            client.status("j9999-cafecafe")
        with pytest.raises(InvalidJobError):
            client.submit({"experiment": "nope"})


class TestApiDocsGenerated:
    def test_docs_api_md_embeds_the_rendered_route_table(self):
        """docs/api.md's generated block is byte-identical to the
        renderer — the same check tools/lint_api_surface.py runs in CI."""
        text = DOCS_API.read_text(encoding="utf-8")
        begin = text.index("<!-- generated:begin -->")
        end = text.index("<!-- generated:end -->")
        block = text[begin + len("<!-- generated:begin -->") : end].strip("\n")
        assert block == render_api_reference().strip("\n")

    def test_route_table_is_versioned_and_complete(self):
        for route in ROUTES:
            assert route.path.startswith(f"/{API_VERSION}/")
        paths = {(r.method, r.path) for r in ROUTES}
        assert ("POST", "/v1/jobs") in paths
        assert ("GET", "/v1/jobs/<id>/events") in paths
        assert ("GET", "/v1/stats") in paths
