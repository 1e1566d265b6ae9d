"""The versioned service surface, declared as data.

``API_VERSION`` prefixes every HTTP path (``/v1/...``); a path no
route matches answers 404.
``PROTOCOL_VERSION`` is the JSON-line protocol's integer version,
carried in every ``ping``/``hello`` reply so clients can refuse a
server they do not understand.

The tables below are the single source of truth for the wire surface:
the server matches every HTTP request against :data:`ROUTES`
(:func:`match_route`) and runs the JSON-line op the route names, so
both wire surfaces share one dispatcher; ``docs/api.md`` embeds the
markdown :func:`render_api_reference` produces (checked generated, see
``tools/lint_api_surface.py``), and the tests assert the two never
drift.  Adding a route means editing exactly one tuple here.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.service.errors import ERROR_CODES

#: HTTP surface version; every route lives under this path prefix.
API_VERSION = "v1"

#: JSON-line protocol version, echoed by ``ping`` and ``hello``.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Route:
    """One HTTP route: method, versioned path, the op it runs, meaning,
    status surface (the first status is the success answer)."""

    method: str
    path: str
    op: str
    description: str
    statuses: tuple[int, ...]


#: Every HTTP route the server answers (paths already ``/v1``-prefixed).
ROUTES = (
    Route("POST", "/v1/jobs", "submit", "submit a job object", (202, 400, 401, 429)),
    Route("GET", "/v1/jobs", "jobs", "list this tenant's job statuses", (200, 401)),
    Route("GET", "/v1/jobs/<id>", "status", "one job's status", (200, 401, 404)),
    Route(
        "DELETE",
        "/v1/jobs/<id>",
        "cancel",
        "cancel (idempotent; `cancelled` reports whether this call changed "
        "anything)",
        (200, 401, 404),
    ),
    Route(
        "GET",
        "/v1/jobs/<id>/artifact",
        "artifact",
        "the finished artifact (409 until the job completes)",
        (200, 401, 404, 409),
    ),
    Route(
        "GET",
        "/v1/jobs/<id>/events",
        "events",
        "replay + live event stream as newline-delimited JSON",
        (200, 401, 404),
    ),
    Route(
        "GET",
        "/v1/stats",
        "hello",
        "server identity, job-state counts and load-shed counters",
        (200,),
    ),
)

#: JSON-line ops, mirroring the routes one to one (plus liveness).
OPS = (
    ("ping", "liveness; replies `pong` + `protocol_version`"),
    ("hello", "server identity, job-state counts and load-shed counters"),
    ("submit", "submit a job object (`job` field)"),
    ("status", "one job's status (`job` field)"),
    ("jobs", "list this tenant's job statuses"),
    ("artifact", "the finished artifact"),
    ("cancel", "cancel, idempotent (`cancelled` reports the transition)"),
    ("events", "stream the transcript, then live events, then a done marker"),
)


def match_route(path: str) -> Iterator[tuple[Route, str | None]]:
    """Yield ``(route, job_id)`` for every route whose path matches.

    ``<id>`` matches exactly one segment (yielded as ``job_id``, else
    ``None``); empty segments and a query string are ignored.  Several
    routes share a path and differ by method, so the caller picks the
    method among the matches (none at all is a 404, no method match a
    405).
    """
    segments = [part for part in path.split("?", 1)[0].split("/") if part]
    for route in ROUTES:
        pattern = [part for part in route.path.split("/") if part]
        if len(pattern) != len(segments):
            continue
        job_id = None
        for want, got in zip(pattern, segments):
            if want == "<id>":
                job_id = got
            elif want != got:
                break
        else:
            yield route, job_id


def render_api_reference() -> str:
    """The generated section of ``docs/api.md`` (markdown).

    Regenerated and diffed by ``tools/lint_api_surface.py`` and pinned
    by the test suite, so the published reference cannot drift from the
    tables the server actually routes against.
    """
    lines = [
        f"Protocol version: **{PROTOCOL_VERSION}** · "
        f"HTTP surface: **/{API_VERSION}**. "
        "Each route runs the JSON-line op it names; a path no route "
        "matches answers 404, a known path with another method 405.",
        "",
        "### HTTP routes",
        "",
        "| Method | Path | Op | Meaning | Statuses |",
        "|---|---|---|---|---|",
    ]
    for route in ROUTES:
        statuses = ", ".join(str(s) for s in route.statuses)
        lines.append(
            f"| {route.method} | `{route.path}` | `{route.op}` "
            f"| {route.description} | {statuses} |"
        )
    lines += [
        "",
        "### JSON-line ops",
        "",
        "| Op | Meaning |",
        "|---|---|",
    ]
    for op, description in OPS:
        lines.append(f"| `{op}` | {description} |")
    lines += [
        "",
        "### Error codes",
        "",
        "| Code | HTTP status | Retryable |",
        "|---|---|---|",
    ]
    for code in sorted(ERROR_CODES):
        cls = ERROR_CODES[code]
        retryable = "yes" if cls.retryable else "no"
        lines.append(f"| `{code}` | {cls.http_status} | {retryable} |")
    return "\n".join(lines) + "\n"
