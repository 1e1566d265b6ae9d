"""Wire formats of the clustering-as-a-service job server.

One listening socket speaks two protocols, distinguished by the first
line of each connection:

* **JSON-line** — every message is one JSON object per ``\\n``-terminated
  line.  Requests carry an ``op`` field (``ping``, ``hello``, ``submit``,
  ``status``, ``jobs``, ``artifact``, ``cancel``, ``events``) and, on an
  authenticated server, a ``token`` field; responses carry ``ok: true``
  plus op-specific fields, or ``ok: false`` with an ``error`` string plus
  the typed ``code`` / ``retryable`` fields of
  :mod:`repro.service.errors`.  ``ping`` and ``hello`` echo the protocol
  version (:data:`repro.service.routes.PROTOCOL_VERSION`).  The
  ``events`` op streams one event object per line (recognizable by its
  ``event`` field) followed by a terminal ``{"ok": true, "done": true,
  ...}`` line.
* **HTTP/1.1 subset** — a first line that does not start with ``{`` is
  parsed as an HTTP request line.  Routes live under ``/v1`` and each
  runs one of the ops above (:data:`repro.service.routes.ROUTES`); a
  request body may not exceed :data:`MAX_LINE_BYTES`, the cap on one
  JSON line; bearer tokens travel in the ``Authorization`` header; the
  event stream is the same JSON lines (``application/x-ndjson``) with
  ``Connection: close`` framing.

Everything here is framing only — no job semantics.  Both sides are
stdlib-only by design (``json`` + sockets), so any client that can open
a TCP connection can drive the service.
"""

from __future__ import annotations

import json

from repro.service.errors import ProtocolError

#: Maximum bytes of one protocol line or HTTP request body.
MAX_LINE_BYTES = 1 << 20

_HTTP_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def encode_line(message: dict) -> bytes:
    """Serialize one protocol message as a JSON line."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> dict:
    """Parse one protocol line into a message object.

    Raises :class:`~repro.service.errors.ProtocolError` on anything that
    is not a single JSON object — the server answers those with an
    ``ok: false`` reply instead of dying.
    """
    try:
        message = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed protocol line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol line must be a JSON object, got {type(message).__name__}"
        )
    return message


def http_response(
    status: int, payload: dict, headers: dict | None = None
) -> bytes:
    """One complete HTTP response with a JSON body.

    ``headers`` adds extra response headers (``Allow`` on 405s,
    ``Retry-After`` on load-shed 429s).
    """
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def http_stream_head(status: int = 200) -> bytes:
    """Header block of a streamed newline-delimited JSON response.

    No ``Content-Length`` — the stream ends when the server closes the
    connection (``Connection: close`` framing), which happens when the
    job reaches a terminal state.
    """
    head = (
        f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii")
