"""serve_mixed: a closed-loop fresh/repeat job stream against ``repro serve``.

An in-process ``ServerThread(store_dir=<fresh dir>, workers=2)`` is
driven by :data:`CLIENTS` client threads; each waits for its artifact
before submitting again (the way sweep submitters use the service) and
alternates two kinds of job:

* **fresh** — table1 at ``sizes=[64]``, ``cluster_counts=[2]``,
  ``trials=1`` with a ``base_seed`` no earlier job used: computed by a
  forked job worker and written to the store;
* **repeat** — a resubmission of one of the client's earlier fresh jobs,
  which the server answers from the store.

A job's latency runs from the submit request to the fetched artifact.
Event arrivals on the JSON-line ``events`` stream are timestamped to
split it.  Events carry no server timestamps, and the ones emitted
before the subscription arrive together in its replay, so the
``queue_wait`` and ``launch`` gaps are lower bounds; a repeat job is
usually over before its subscription opens, so its server-side time is
taken as submit reply -> done marker (``resolve_s``).  Every job must end
``completed`` and its records must equal a direct ``SweepRunner`` run of
the same job, computed after the window; a refused (429) submission or a
wrong artifact is a failed operation.

Fresh-job latency climbs through the window: every disk put of the
store rescans the whole store directory to enforce its byte budget, so a
put costs more with every entry written (on the 2-core host the median
fresh job went from 0.22 s in the first quarter of a 30 s window to
0.84 s in the last).

Traced runs alternate untraced and traced phases of :data:`PHASE_S`
seconds; in a traced phase the content store's get/put are wrapped in
this process.  The server keeps its own ``ContentStore`` handle, so the
process-wide ``store_counters()`` do not see its traffic; the wrapper
does.  Spans inside forked job workers never reach this process.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import threading
import time

from common import WORK, median, neighbour_overhead, tail, timed_setup

CLIENTS = 2
WORKERS = 2
PHASE_S = 2.0
#: ``/v1/stats`` load-shed counters that mean a refused request.
SHED_KEYS = ("rejected_queue_full", "rejected_tenant_quota", "unauthorized")


def fresh_job(base_seed: int) -> dict:
    return {
        "experiment": "table1",
        "trials": 1,
        "overrides": {"sizes": [64], "cluster_counts": [2], "base_seed": base_seed},
    }


def boot():
    from repro.service.harness import ServerThread

    store = WORK / f"store-{os.getpid()}-{time.monotonic_ns()}"
    server = ServerThread(store_dir=store, workers=WORKERS).start()
    server.client().ping()
    return server, store


def shutdown(state) -> None:
    server, store = state
    server.stop()
    shutil.rmtree(store, ignore_errors=True)


def timed_events(client, job_id: str) -> list:
    """``(arrival time, event)`` per event line until the ``done`` marker."""
    from repro.service.errors import error_from_payload
    from repro.service.protocol import decode_line, encode_line

    events = []
    address = (client.host, client.port)
    with socket.create_connection(address, timeout=client.timeout) as sock, sock.makefile(
        "rwb"
    ) as stream:
        stream.write(encode_line({"op": "events", "job": job_id}))
        stream.flush()
        while True:
            raw = stream.readline()
            arrived = time.perf_counter()
            if not raw:
                raise ConnectionError("event stream ended without a done marker")
            message = decode_line(raw)
            if "event" in message:
                events.append((arrived, message))
            elif not message.get("ok"):
                raise error_from_payload(message)
            elif message.get("done"):
                return events


def run_job(client, job: dict, kind: str, phase) -> dict:
    start = time.perf_counter()
    row = {"kind": kind, "job": job, "ok": False, "phase": phase(start)}
    try:
        job_id = client.submit(job)["job"]
        submitted = time.perf_counter()
        row["submit_s"] = submitted - start
        events = timed_events(client, job_id)
        fetch = time.perf_counter()
        artifact = client.artifact(job_id)
        end = time.perf_counter()
    except Exception as error:  # noqa: BLE001 — 429s and errors count as failures
        row["error"] = repr(error)
        return row
    arrivals = {}
    for arrived, event in events:
        arrivals.setdefault(event["event"], (arrived, event))
    row.update(
        seconds=end - start,
        resolve_s=fetch - submitted,
        fetch_s=end - fetch,
        arrivals={kind: at for kind, (at, _event) in arrivals.items()},
        attempts=sum(1 for _at, event in events if event["event"] == "attempt"),
        source=arrivals.get("artifact", (0, {}))[1].get("source"),
        completed="completed" in arrivals,
        records=artifact.get("records"),
    )
    return row


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro.experiments.runner import SweepRunner, normalize_job, spec_from_job
    from repro.store import store_counters
    from tracer import install_store_layer

    setup_s, state = timed_setup(boot, shutdown)
    server, _store = state
    rows: list = []
    rows_lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def phase(now: float) -> int:
        """Phase index; odd phases are traced (when tracing at all)."""
        return int((now - start) / PHASE_S) if tracer is not None else 0

    def client_loop(cid: int) -> None:
        client = server.client()
        rng = random.Random(seed * 1000 + cid)
        done_fresh: list = []
        index = 0
        while time.perf_counter() < deadline:
            if index % 2 == 0 or not done_fresh:
                job = fresh_job(seed * 100_000 + cid * 10_000 + len(done_fresh))
                row = run_job(client, job, "fresh", phase)
                if "records" in row:
                    done_fresh.append(job)
            else:
                row = run_job(client, rng.choice(done_fresh), "repeat", phase)
            with rows_lock:
                rows.append(row)
            index += 1

    before_global = store_counters()
    before_shed = server.client().hello()["load_shed"]
    threads = [threading.Thread(target=client_loop, args=(cid,)) for cid in range(CLIENTS)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        now = time.perf_counter()
        if tracer is not None and now < deadline:
            if phase(now) % 2 == 1:
                if not tracer.installed:
                    install_store_layer(tracer)
            elif tracer.installed:
                tracer.uninstall()
        time.sleep(0.01)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    after_shed = server.client().hello()["load_shed"]
    global_delta = {k: v - before_global.get(k, 0) for k, v in store_counters().items()}
    shutdown(state)
    for row in rows:
        row["traced"] = row["phase"] % 2 == 1

    # Correctness: every job completed, records equal a direct run.
    references: dict = {}
    for row in rows:
        if "records" not in row:
            continue
        key = row["job"]["overrides"]["base_seed"]
        if key not in references:
            spec = spec_from_job(normalize_job(row["job"]))
            references[key] = SweepRunner(spec).run().to_artifact()["records"]
        row["ok"] = row["completed"] and row["records"] == references[key]

    good = [row for row in rows if row["ok"]]
    fresh = [row for row in good if row["kind"] == "fresh"]
    repeat = [row for row in good if row["kind"] == "repeat"]
    plain_fresh = [row["seconds"] for row in fresh if not row["traced"]]
    fresh_tail, fresh_pct, fresh_n = tail(row["seconds"] for row in fresh)
    repeat_tail, repeat_pct, repeat_n = tail(row["seconds"] for row in repeat)
    shed = sum(after_shed[key] - before_shed[key] for key in SHED_KEYS)
    out = {
        "setup_s": setup_s,
        "summary": {
            "op_s": median(plain_fresh),
            "ops_per_s": len(good) / elapsed,
            # Fresh-job latency climbs as the store fills, so each traced
            # phase is compared with the untraced phases beside it.
            "overhead_s": neighbour_overhead(
                {p: median(r["seconds"] for r in fresh if r["phase"] == p)
                 for p in {r["phase"] for r in fresh}}
            ),
        },
        "ops": [{k: v for k, v in row.items() if k != "records"} for row in rows],
        "attempted": len(rows),
        "failed": len(rows) - len(good),
        "report": [
            f"fresh_job_s = {median(r['seconds'] for r in fresh):.4f} s (n={fresh_n})",
            f"fresh_job_tail_s = {fresh_tail:.4f} s (p{fresh_pct}, n={fresh_n})",
            f"repeat_job_s = {median(r['seconds'] for r in repeat):.4f} s (n={repeat_n})",
            f"repeat_job_tail_s = {repeat_tail:.4f} s (p{repeat_pct}, n={repeat_n})",
            f"jobs_per_s = {len(good) / elapsed:.4f} at {CLIENTS} closed-loop clients",
            f"load shed during run = {shed}; process-wide store_counters() delta = "
            f"{ {k: v for k, v in global_delta.items() if v} }",
        ],
    }
    if tracer is not None:
        out["layers"] = layer_values(tracer, good, fresh, repeat, shed)
    return out


def layer_values(tracer, good, fresh, repeat, shed) -> dict:
    def gap(rows, first, second):
        return median(
            row["arrivals"][second] - row["arrivals"][first]
            for row in rows
            if first in row["arrivals"] and second in row["arrivals"]
        )

    traced_jobs = sum(1 for row in good if row["traced"]) or 1
    store = tracer.totals(None, prefix="store.")

    def store_sum(prefix: str, index: int, suffix: str = "") -> float:
        return sum(
            value[index]
            for name, value in store.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    served = sum(1 for row in repeat if row["source"] == "store")
    return {
        "service.submit_rtt_s": median(row["submit_s"] for row in good),
        "service.queue_wait_s": gap(good, "submitted", "started"),
        "service.launch_s": gap(fresh, "started", "attempt"),
        "service.run_s": gap(fresh, "attempt", "artifact"),
        "service.publish_s": gap(fresh, "artifact", "completed"),
        "service.resolve_s": median(row["resolve_s"] for row in repeat),
        "service.fetch_s": median(row["fetch_s"] for row in good),
        "service.attempts_per_job": (
            sum(row["attempts"] for row in fresh) / len(fresh) if fresh else 0.0
        ),
        "service.shed": shed,
        "service.fresh_job_s": median(row["seconds"] for row in fresh),
        "service.fresh_job_tail_s": tail(row["seconds"] for row in fresh)[0],
        "service.fresh_jobs": len(fresh),
        "service.repeat_job_s": median(row["seconds"] for row in repeat),
        "service.repeat_job_tail_s": tail(row["seconds"] for row in repeat)[0],
        "service.repeat_jobs": len(repeat),
        "store.hits_per_job": store_sum("store.get.", 0, ".hit") / traced_jobs,
        "store.misses_per_job": store_sum("store.get.", 0, ".miss") / traced_jobs,
        "store.puts_per_job": store_sum("store.put.", 0) / traced_jobs,
        "store.get_s": store_sum("store.get.", 1) / traced_jobs,
        "store.put_s": store_sum("store.put.", 1) / traced_jobs,
        "store.repeat_served_ratio": served / len(repeat) if repeat else 0.0,
        "trace.spans_per_op": len(tracer.spans) / traced_jobs,
    }
