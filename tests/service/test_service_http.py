"""The stdlib-only HTTP facade and the JSON-line protocol edges.

Everything here talks to a real listening socket: ``http.client`` for
the REST routes, raw sockets for protocol-level garbage.  No third-party
HTTP stack is involved on either side, matching the no-new-dependencies
constraint the service was built under.
"""

import http.client
import json
import socket

import pytest

from repro.pipeline.supervisor import InlineShardExecutor
from repro.service.protocol import MAX_LINE_BYTES

from test_service_faults import _HangingJobExecutor


def _request(server, method, path, body=None):
    """One HTTP request → (status, decoded JSON body)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    payload = None if body is None else json.dumps(body).encode("utf-8")
    connection.request(method, path, body=payload)
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response.status, json.loads(raw) if raw else None


def _stream(server, path):
    """GET an ndjson stream → (status, list of decoded lines)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    connection.request("GET", path)
    response = connection.getresponse()
    raw = response.read()  # Connection: close terminates the stream
    connection.close()
    lines = [json.loads(line) for line in raw.splitlines() if line.strip()]
    return response.status, lines


class TestRestRoutes:
    def test_submit_watch_and_fetch_lifecycle(self, service_server, small_fig1_job):
        server = service_server(executor_factory=InlineShardExecutor)
        status, submitted = _request(server, "POST", "/v1/jobs", small_fig1_job)
        assert status == 202
        job_id = submitted["job"]
        assert submitted["state"] in ("queued", "running")

        status, events = _stream(server, f"/v1/jobs/{job_id}/events")
        assert status == 200
        assert events[-1] == {"ok": True, "done": True, "state": "completed"}
        kinds = [event["event"] for event in events[:-1]]
        assert kinds[0] == "submitted" and kinds[-1] == "completed"
        # One event stream: the ndjson route and the JSON-line op agree.
        assert events[:-1] == server.client().events(job_id)

        status, body = _request(server, "GET", f"/v1/jobs/{job_id}")
        assert status == 200 and body["state"] == "completed"

        status, listing = _request(server, "GET", "/v1/jobs")
        assert status == 200
        assert [entry["job"] for entry in listing["jobs"]] == [job_id]

        status, artifact = _request(server, "GET", f"/v1/jobs/{job_id}/artifact")
        assert status == 200
        assert artifact["schema"] == "repro.sweep/1"
        assert len(artifact["records"]) > 0

    def test_artifact_before_completion_is_a_conflict(
        self, service_server, small_fig1_job, wait_until
    ):
        server = service_server(executor_factory=_HangingJobExecutor)
        _, submitted = _request(server, "POST", "/v1/jobs", small_fig1_job)
        job_id = submitted["job"]
        status, body = _request(server, "GET", f"/v1/jobs/{job_id}/artifact")
        assert status == 409
        assert "artifact" in body["error"]
        assert body["code"] == "artifact_not_ready" and body["retryable"] is True
        status, body = _request(server, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        assert body["cancelled"] is True
        wait_until(
            lambda: _request(server, "GET", f"/v1/jobs/{job_id}")[1]["state"]
            == "cancelled",
            message="DELETE-initiated cancellation",
        )

    def test_error_statuses_are_distinguished(self, service_server):
        server = service_server(executor_factory=InlineShardExecutor)
        status, body = _request(server, "GET", "/v1/jobs/nope")
        assert status == 404 and body["code"] == "unknown_job"
        assert _request(server, "GET", "/v1/jobs/nope/artifact")[0] == 404
        assert _request(server, "GET", "/v1/jobs/nope/events")[0] == 404
        assert _request(server, "DELETE", "/v1/jobs/nope")[0] == 404
        assert _request(server, "GET", "/elsewhere")[0] == 404
        assert _request(server, "PUT", "/v1/jobs")[0] == 405
        status, body = _request(server, "DELETE", "/v1/jobs/nope/artifact")
        assert status == 405 and body["error"] == "use GET"
        assert _request(server, "POST", "/v1/stats")[0] == 405
        assert _request(server, "GET", "/jobs")[0] == 404  # v1-lint: allow
        status, body = _request(server, "POST", "/v1/jobs", {"experiment": "zzz"})
        assert status == 400 and "unknown experiment" in body["error"]
        assert body["code"] == "invalid_job" and body["retryable"] is False

    def test_non_json_body_is_a_bad_request(self, service_server):
        server = service_server(executor_factory=InlineShardExecutor)
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        connection.request("POST", "/v1/jobs", body=b"not json at all")
        response = connection.getresponse()
        body = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "not JSON" in body["error"]

    @pytest.mark.parametrize("length", ["abc", "-5", str(MAX_LINE_BYTES + 1)])
    def test_bad_content_length_is_a_bad_request(self, service_server, length):
        """A non-integer, negative or over-cap length gets a 400 reply, and
        no body is read."""
        server = service_server(executor_factory=InlineShardExecutor)
        request = f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(request.encode("ascii"))
            raw = sock.makefile("rb").read()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0].split()[1:2] == [b"400"]
        body = json.loads(body)
        assert body["code"] == "protocol" and "Content-Length" in body["error"]
        assert server.client().jobs() == []

    def test_malformed_request_line_is_rejected_not_fatal(
        self, service_server, small_fig1_job
    ):
        """A garbage opening line gets a 400; the server keeps serving."""
        server = service_server(executor_factory=InlineShardExecutor)
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            sock.sendall(b"HELLO\r\n\r\n")
            raw = sock.makefile("rb").read()
        assert b"400" in raw.split(b"\r\n", 1)[0]
        status, _ = _request(server, "GET", "/v1/jobs")
        assert status == 200


class TestJsonLineProtocol:
    def _session(self, server, lines):
        """Send raw lines over one connection, one reply line each."""
        replies = []
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            stream = sock.makefile("rwb")
            for line in lines:
                stream.write(line)
                stream.flush()
                replies.append(json.loads(stream.readline()))
        return replies

    def test_ping_and_multiple_ops_per_connection(
        self, service_server, small_fig1_job
    ):
        server = service_server(executor_factory=InlineShardExecutor)
        spec = json.dumps(small_fig1_job).encode("utf-8")
        replies = self._session(
            server,
            [
                b'{"op": "ping"}\n',
                b'{"op": "submit", "job": ' + spec + b"}\n",
                b'{"op": "jobs"}\n',
            ],
        )
        assert replies[0] == {"ok": True, "pong": True, "protocol_version": 1}
        assert replies[1]["ok"] and replies[1]["job"]
        assert [j["job"] for j in replies[2]["jobs"]] == [replies[1]["job"]]

    def test_protocol_errors_answer_in_band(self, service_server):
        server = service_server(executor_factory=InlineShardExecutor)
        replies = self._session(
            server,
            [
                b'{"op": "warp"}\n',
                b"{this is not json\n",
                b'{"op": "status", "job": "nope"}\n',
                b'{"op": "ping"}\n',  # the session survives all of it
            ],
        )
        assert not replies[0]["ok"] and "unknown op" in replies[0]["error"]
        assert replies[0]["code"] == "protocol"
        assert not replies[1]["ok"] and replies[1]["code"] == "protocol"
        assert not replies[2]["ok"] and "unknown job" in replies[2]["error"]
        assert replies[2]["code"] == "unknown_job"
        assert replies[3] == {"ok": True, "pong": True, "protocol_version": 1}

    def test_blank_lines_are_ignored(self, service_server):
        server = service_server(executor_factory=InlineShardExecutor)
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"op": "ping"}\n\n\n{"op": "ping"}\n')
            stream.flush()
            first = json.loads(stream.readline())
            second = json.loads(stream.readline())
        assert first == second == {"ok": True, "pong": True, "protocol_version": 1}
