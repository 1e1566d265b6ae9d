"""The asyncio job server: one event loop owning every connection.

:class:`JobServer` binds a single listening socket and sniffs each
connection's first line — a line opening with ``{`` starts a JSON-line
session, anything else is parsed as an HTTP request (see
:mod:`repro.service.protocol`).  All I/O and all job bookkeeping run on
the one event loop; only job execution leaves it, into per-job
supervisor threads managed by :class:`~repro.service.manager.JobManager`.

There is one op dispatcher, :meth:`JobServer._dispatch`.  A JSON-line
message names its op; an HTTP request is matched against
:data:`repro.service.routes.ROUTES` (every path lives under ``/v1``),
and the matched route names the op it runs.  The event stream is one
JSON line per event on both surfaces (HTTP adds an ndjson response
head).  ``docs/api.md`` is generated from the route/op tables, and
every failure is one of the typed errors in :mod:`repro.service.errors`,
serialized with its ``code`` on both wire surfaces.

On boot (before accepting connections) the server replays the durable
job table from the store, re-queueing every job a previous life left
unfinished — see :meth:`~repro.service.manager.JobManager.recover`.
"""

from __future__ import annotations

import asyncio
import json

from repro.exceptions import ReproError
from repro.service.auth import TokenAuthenticator
from repro.service.errors import (
    AuthError,
    ProtocolError,
    as_service_error,
    error_payload,
)
from repro.service.manager import JobManager
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    http_response,
    http_stream_head,
)
from repro.service.routes import API_VERSION, PROTOCOL_VERSION, match_route


class JobServer:
    """A job service bound to one host/port (``port=0`` = ephemeral)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store_dir=None,
        workers: int = 2,
        job_timeout: float | None = None,
        job_retries: int = 1,
        executor_factory=None,
        max_queued: int | None = None,
        max_jobs_per_tenant: int | None = None,
        auth_token_file=None,
    ):
        self.manager = JobManager(
            store_dir=store_dir,
            workers=workers,
            job_timeout=job_timeout,
            job_retries=job_retries,
            executor_factory=executor_factory,
            max_queued=max_queued,
            max_jobs_per_tenant=max_jobs_per_tenant,
        )
        self.auth = (
            TokenAuthenticator.from_file(auth_token_file)
            if auth_token_file is not None
            else TokenAuthenticator()
        )
        self._requested = (host, port)
        self._server: asyncio.AbstractServer | None = None
        self.host: str | None = None
        self.port: int | None = None
        #: Jobs re-queued from the durable table by the last start().
        self.recovered = 0

    async def start(self) -> tuple[str, int]:
        """Recover durable jobs, then bind; returns the actual (host, port)."""
        self.recovered = self.manager.recover()
        host, port = self._requested
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until the server is closed (CLI entry point)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel live jobs, wait for their actors."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.close()

    # -- shared helpers -----------------------------------------------------

    def _server_info(self) -> dict:
        """The ``hello`` / ``GET /v1/stats`` payload."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "api_version": API_VERSION,
            "auth": self.auth.enabled,
            **self.manager.stats(),
        }

    def _authenticate(self, token: str | None) -> str:
        """Token → tenant; counts and re-raises authentication failures."""
        try:
            return self.auth.authenticate(token)
        except AuthError:
            self.manager.counters["unauthorized"] += 1
            raise

    @staticmethod
    def _error_headers(error) -> dict | None:
        retry_after = getattr(error, "retry_after", None)
        if retry_after is None:
            return None
        return {"Retry-After": str(int(retry_after))}

    # -- connection handling ----------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.lstrip().startswith(b"{"):
                await self._json_session(first, reader, writer)
            else:
                await self._http_session(first, reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            ValueError,  # overlong protocol line
        ):
            pass  # client went away or sent garbage framing; drop it
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection's task; finish
            # normally so the streams machinery doesn't log the teardown.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- JSON-line sessions -------------------------------------------------

    async def _json_session(self, first: bytes, reader, writer) -> None:
        line = first
        while True:
            if line.strip():
                await self._answer_json(line, reader, writer)
            line = await reader.readline()
            if not line:
                return

    async def _answer_json(self, line: bytes, reader, writer) -> None:
        try:
            message = decode_line(line)
            op = message.get("op")
            if op == "events":
                tenant = self._authenticate(message.get("token"))
                await self._stream_events(str(message.get("job")), writer, tenant)
                return
            reply = self._dispatch(op, message)
        except ReproError as error:
            reply = {"ok": False, **error_payload(as_service_error(error))}
        writer.write(encode_line(reply))
        await writer.drain()

    def _dispatch(self, op, message: dict) -> dict:
        """Run one non-streaming op for either wire surface.

        Returns the JSON-line reply (``ok: true`` plus the op's fields);
        raises a typed service error on failure.
        """
        manager = self.manager
        if op == "ping":
            return {"ok": True, "pong": True, "protocol_version": PROTOCOL_VERSION}
        if op == "hello":
            return {"ok": True, **self._server_info()}
        tenant = self._authenticate(message.get("token"))
        if op == "submit":
            record = manager.submit(
                message.get("spec", message.get("job")), tenant
            )
            return {"ok": True, **record.status()}
        if op == "status":
            return {
                "ok": True,
                **manager.get(str(message.get("job")), tenant).status(),
            }
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [record.status() for record in manager.jobs(tenant)],
            }
        if op == "artifact":
            return {
                "ok": True,
                "artifact": manager.artifact(str(message.get("job")), tenant),
            }
        if op == "cancel":
            record, changed = manager.cancel(str(message.get("job")), tenant)
            return {"ok": True, "cancelled": changed, **record.status()}
        raise ProtocolError(f"unknown op {op!r}")

    async def _stream_events(
        self, job_id: str, writer, tenant: str | None = None, head: bytes = b""
    ) -> None:
        """Replay a job's transcript, then stream live events to terminal.

        One JSON line per event, then a ``done`` marker.  ``head`` (the
        HTTP response head) goes out only once ``subscribe`` has accepted
        the job, so a 404 still arrives as a plain error reply.
        """
        replay, queue = self.manager.subscribe(job_id, tenant)
        writer.write(head)
        try:
            for event in replay:
                writer.write(encode_line(event))
            await writer.drain()
            if queue is not None:
                while True:
                    event = await queue.get()
                    if event is None:
                        break
                    writer.write(encode_line(event))
                    await writer.drain()
            state = self.manager.get(job_id, tenant).state
            writer.write(encode_line({"ok": True, "done": True, "state": state}))
            await writer.drain()
        finally:
            if queue is not None:
                self.manager.unsubscribe(job_id, queue)

    # -- HTTP sessions ------------------------------------------------------

    async def _http_session(self, first: bytes, reader, writer) -> None:
        try:
            parts = first.decode("latin-1").split()
            if len(parts) < 2:
                raise ProtocolError("malformed request line")
            headers = {}
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(_content_length(headers))
            await self._route_http(parts[0].upper(), parts[1], headers, body, writer)
        except ReproError as error:
            error = as_service_error(error)
            writer.write(
                http_response(
                    error.http_status,
                    error_payload(error),
                    headers=self._error_headers(error),
                )
            )
        await writer.drain()

    @staticmethod
    def _bearer_token(headers: dict) -> str | None:
        value = headers.get("authorization", "")
        if value.lower().startswith("bearer "):
            return value[len("bearer ") :].strip() or None
        return None

    async def _route_http(self, method, target, headers, body, writer) -> None:
        """Match ``ROUTES``, then run the route's op through ``_dispatch``."""
        matches = list(match_route(target))
        route, job_id = next(
            ((found, job) for found, job in matches if found.method == method),
            (None, None),
        )
        if route is None:
            allowed = [found.method for found, _ in matches]
            if allowed:
                error = ProtocolError(f"use {' or '.join(allowed)}")
                head = {"Allow": ", ".join(allowed)}
                writer.write(http_response(405, error_payload(error), head))
            else:
                error = ProtocolError("unknown route")
                writer.write(http_response(404, error_payload(error)))
            return
        message = {"token": self._bearer_token(headers), "job": job_id}
        if route.op == "events":
            tenant = self._authenticate(message["token"])
            await self._stream_events(job_id, writer, tenant, http_stream_head(200))
            return
        if route.op == "submit":
            try:
                message["spec"] = json.loads(body.decode("utf-8") or "null")
            except ValueError as error:
                raise ProtocolError(f"request body is not JSON: {error}") from error
        reply = self._dispatch(route.op, message)
        del reply["ok"]
        if route.op == "artifact":
            reply = reply["artifact"]
        writer.write(http_response(route.statuses[0], reply))


def _content_length(headers: dict) -> int:
    """The request body size; anything but 0..MAX_LINE_BYTES is a 400."""
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()) or int(raw) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"Content-Length must be an integer in 0..{MAX_LINE_BYTES}, got {raw!r}"
        )
    return int(raw)


def serve(
    host: str = "127.0.0.1",
    port: int = 8831,
    *,
    store_dir=None,
    workers: int = 2,
    job_timeout: float | None = None,
    job_retries: int = 1,
    max_queued: int | None = None,
    max_jobs_per_tenant: int | None = None,
    auth_token_file=None,
) -> int:
    """Run a job server until interrupted (the ``repro serve`` command).

    Prints one readiness line (``repro serve: listening on HOST:PORT``)
    once the socket is bound — with ``--port 0`` that line is how callers
    learn the ephemeral port — and shuts down cleanly on Ctrl-C.  The
    durable-recovery count is reported on its own line first (0 when the
    store held nothing, or no store is attached).
    """

    async def _main() -> None:
        server = JobServer(
            host,
            port,
            store_dir=store_dir,
            workers=workers,
            job_timeout=job_timeout,
            job_retries=job_retries,
            max_queued=max_queued,
            max_jobs_per_tenant=max_jobs_per_tenant,
            auth_token_file=auth_token_file,
        )
        bound_host, bound_port = await server.start()
        print(f"repro serve: recovered {server.recovered} job(s)", flush=True)
        print(f"repro serve: listening on {bound_host}:{bound_port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shut down", flush=True)
    return 0
