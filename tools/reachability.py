"""Trace which ``repro`` modules the entry points actually call.

The tool imports every ``repro`` module first, so module and class bodies
have already run and cannot count as calls.  It then installs a call
profiler (``sys.setprofile`` / ``threading.setprofile``, inherited by
forked worker processes) and drives every entry point in-process:

* the six paper sweeps through ``repro.api.run_experiment``;
* every CLI subcommand, once per ``choices=`` value of each of its
  options (so every ``--method``, ``--backend``, ``--qpe-backend``,
  ``--resume-from`` … value runs), plus ``--save-stages``,
  ``--readout-shards``, ``--store-dir``, ``--profile`` and friends, and
  ``repro serve`` booted and interrupted;
* every ``QSCConfig.evolution`` value through ``repro.api.cluster``
  (the CLI has no ``--evolution`` flag);
* one served job over the JSON-line protocol and one over HTTP ``/v1``
  on an in-process ``ServerThread``;
* every script under ``examples/``.

A call counts for the module whose globals the called code runs in, so
dataclass-generated methods count for the module that defines the class.
The report lists the modules that define functions none of which was
called.  Modules that define no functions at all (re-export hubs,
exception and constant tables) are listed apart: a call trace cannot
see them.  Everything the runs write goes to a temporary directory.

The exit code is 1 when an entry point fails, when a zero-call module is
missing from ``KEPT``, or when a ``KEPT`` entry names a module that no
longer exists or is now called; otherwise 0.

Run from the repository root::

    PYTHONPATH=src python tools/reachability.py
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import importlib
import inspect
import io
import json
import multiprocessing.util
import os
import pathlib
import pkgutil
import runpy
import signal
import socket
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Zero-call modules kept on purpose.  A module stays only as the oracle a
#: tier-1 test checks entry-point code against; the reason names that test.
KEPT = {
    "repro.spectral.gap": (
        "oracle for core.autok in tests/core/test_autok_vqe.py::TestAutoK"
        "::test_agrees_with_classical_eigengap"
    ),
}

#: Base arguments of each CLI subcommand; choice runs vary one option.
CLI_BASES = {
    "generate": "--nodes 24 --clusters 2 --output graph.mixed",
    "cluster": "--input graph.mixed --clusters 2 --precision-bits 5 --shots 128",
    "bench": "--name c17",
    "spectrum": "--input graph.mixed --top 4",
    "experiments": "--only fig1 --trials 1 --out artifacts",
    "store": "stats --dir store",
}

#: Arguments a choice value cannot run without.
CHOICE_NEEDS = {"--resume-from": ["--save-stages", "stages"]}

#: Flag runs beyond the choice runs.  They go first, so the ``--resume-from``
#: runs find checkpoints and the ``store`` runs a filled store.
CLUSTER = "cluster " + CLI_BASES["cluster"]
EXPERIMENTS = "experiments " + CLI_BASES["experiments"]
CLI_EXTRAS = [
    "generate " + CLI_BASES["generate"] + " --labels-output labels.txt",
    CLUSTER + " --save-stages stages",
    CLUSTER + " --readout-shards 2 --shard-workers 2",
    CLUSTER + " --store-dir store",
    CLUSTER + " --profile",
    CLUSTER + " --draw-threads 2 --readout-chunk-size 8",
    "cluster --input graph.mixed --clusters auto",
    "experiments --list",
    EXPERIMENTS + " --jobs 2",
    EXPERIMENTS + " --readout-shards 2",
    EXPERIMENTS + " --store-dir store",
]

#: The served job: a one-trial fig1 point small enough to finish in ~1 s.
SERVED_JOB = {
    "experiment": "fig1",
    "trials": 1,
    "overrides": {
        "strengths": [0.9],
        "num_nodes": 18,
        "num_clusters": 2,
        "shots": 64,
        "precision_bits": 5,
    },
}


class CallTrace:
    """Names of the modules whose code ran while the trace was installed.

    Forked workers inherit the profiler; each spools its names to
    ``spool_dir`` when it exits, and :meth:`modules` merges them.
    """

    def __init__(self, spool_dir: pathlib.Path):
        self.spool_dir = spool_dir
        self.names: set[str] = set()
        add = self.names.add

        def profile(frame, event, arg):
            if event == "call":
                add(frame.f_globals.get("__name__"))

        self._profile = profile

    def install(self) -> None:
        multiprocessing.util.register_after_fork(self, CallTrace._in_child)
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def _in_child(self) -> None:
        multiprocessing.util.Finalize(None, self._spool, exitpriority=0)

    def _spool(self) -> None:
        path = self.spool_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(sorted(n for n in self.names if n)))

    def modules(self) -> set[str]:
        names = set(self.names)
        for path in self.spool_dir.glob("*.json"):
            names.update(json.loads(path.read_text()))
        return names


def import_all() -> dict[str, object]:
    """Import every ``repro`` module; returns them by name."""
    import repro

    modules = {"repro": repro}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        modules[info.name] = importlib.import_module(info.name)
    return modules


def defines_functions(module) -> bool:
    """True when the module's source defines at least one named function."""
    source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
    pending = [compile(source, module.__file__, "exec")]
    while pending:
        code = pending.pop()
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            return True
        pending.extend(c for c in code.co_consts if inspect.iscode(c))
    return False


def run_cli(argv: list[str], failures: list[str]) -> None:
    """One in-process CLI invocation; output is discarded."""
    from repro import cli
    from repro.core.qpe_engine import clear_spectral_cache

    clear_spectral_cache()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != 0:
        failures.append(f"repro {' '.join(argv)} -> exit {code}: {sink.getvalue()}")


def with_choice(base: list[str], action, value) -> list[str]:
    """``base`` with ``action`` set to ``value`` (replaced or appended)."""
    argv = list(base)
    if not action.option_strings:  # the positional choice leads the base
        argv[0] = str(value)
        return argv
    option = action.option_strings[0]
    if option in argv:
        argv[argv.index(option) + 1] = str(value)
        return argv
    return argv + [option, str(value)] + CHOICE_NEEDS.get(option, [])


def choice_runs() -> list[list[str]]:
    """One argv per ``choices=`` value of every option of every subcommand."""
    from repro import cli

    parser = cli._build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    runs = []
    for command, base in CLI_BASES.items():
        for action in commands.choices[command]._actions:
            for value in action.choices or ():
                runs.append([command, *with_choice(base.split(), action, value)])
    return runs


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run_serve_command(failures: list[str]) -> None:
    """Boot ``repro serve`` in this process, then interrupt it like Ctrl-C."""
    from repro.service import ServiceClient

    port = free_port()

    def interrupt_when_ready() -> None:
        # Interrupts even when the server never answered, so a hung boot
        # cannot hang the trace; the missing ping is reported instead.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                ServiceClient("127.0.0.1", port, timeout=5).ping()
                break
            except OSError:  # not listening yet
                time.sleep(0.05)
        else:
            failures.append("repro serve never answered a ping")
        os.kill(os.getpid(), signal.SIGINT)

    watcher = threading.Thread(target=interrupt_when_ready, daemon=True)
    watcher.start()
    run_cli(["serve", "--port", str(port), "--store-dir", "serve-store"], failures)
    watcher.join(timeout=60)


def http_request(server, method: str, path: str, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=120)
    payload = None if body is None else json.dumps(body).encode("utf-8")
    connection.request(method, path, body=payload)
    response = connection.getresponse()
    raw = response.read()
    connection.close()
    return response.status, raw


def run_served_jobs(failures: list[str]) -> None:
    """One job over the JSON-line protocol, one over HTTP ``/v1``, and one
    unknown-job error over each."""
    from repro.service.errors import UnknownJobError
    from repro.service.harness import ServerThread

    with ServerThread(store_dir="thread-store", workers=1) as server:
        client = server.client()
        client.ping()
        client.hello()
        job = client.submit(SERVED_JOB)["job"]
        client.events(job)
        if client.wait(job)["state"] != "completed":
            failures.append(f"JSON-line job {job} did not complete")
        client.artifact(job)
        client.jobs()
        try:
            client.status("no-such-job")
            failures.append("JSON-line status of an unknown job did not raise")
        except UnknownJobError:
            pass
        if http_request(server, "GET", "/v1/jobs/no-such-job")[0] != 404:
            failures.append("GET of an unknown job did not answer 404")

        status, raw = http_request(server, "POST", "/v1/jobs", SERVED_JOB)
        if status != 202:
            failures.append(f"POST /v1/jobs -> {status}: {raw[:200]!r}")
            return
        job = json.loads(raw)["job"]
        http_request(server, "GET", f"/v1/jobs/{job}/events")
        paths = (f"/v1/jobs/{job}", "/v1/jobs", f"/v1/jobs/{job}/artifact", "/v1/stats")
        for path in paths:
            status, raw = http_request(server, "GET", path)
            if status != 200:
                failures.append(f"GET {path} -> {status}: {raw[:200]!r}")
        http_request(server, "DELETE", f"/v1/jobs/{job}")


def run_examples(failures: list[str]) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exit_:
            if exit_.code not in (0, None):
                failures.append(f"{path.name} -> exit {exit_.code}")


def drive(failures: list[str]) -> int:
    """Run every entry point; returns the number of CLI invocations."""
    from repro import api
    from repro.core.config import EVOLUTIONS
    from repro.core.qpe_engine import clear_spectral_cache
    from repro.experiments.runner import registry
    from repro.graphs import mixed_sbm

    for name in registry():
        clear_spectral_cache()
        api.run_experiment(name)
    graph, _ = mixed_sbm(12, 2, seed=0)
    for evolution in EVOLUTIONS:
        clear_spectral_cache()
        api.cluster(
            graph, 2, backend="circuit", evolution=evolution, precision_bits=4
        )
    runs = [line.split() for line in CLI_EXTRAS] + choice_runs()
    for argv in runs:
        run_cli(argv, failures)
    run_serve_command(failures)
    run_served_jobs(failures)
    run_examples(failures)
    return len(runs) + 1


def main() -> int:
    modules = import_all()
    failures: list[str] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        spool = pathlib.Path(scratch) / "spool"
        spool.mkdir()
        workdir = pathlib.Path(scratch) / "work"
        workdir.mkdir()
        trace = CallTrace(spool)
        cwd = os.getcwd()
        os.chdir(workdir)
        trace.install()
        try:
            cli_runs = drive(failures)
        finally:
            trace.uninstall()
            os.chdir(cwd)
        called = trace.modules()
    elapsed = time.perf_counter() - start

    declarations = sorted(n for n, m in modules.items() if not defines_functions(m))
    zero = sorted(n for n in modules if n not in called and n not in declarations)
    print(
        f"reachability: {len(modules)} modules, {cli_runs} CLI invocations, "
        f"{elapsed:.0f} s"
    )
    print(f"modules with functions but zero calls ({len(zero)}):")
    for name in zero:
        reason = KEPT.get(name, "CANDIDATE for deletion")
        print(f"  {name:36s} {reason}")
    print(f"declarations only, invisible to a call trace ({len(declarations)}):")
    print("  " + ", ".join(declarations))
    unkept = [name for name in zero if name not in KEPT]
    failures += [f"{name} has zero calls and is not in KEPT" for name in unkept]
    for name in sorted(set(KEPT) - set(zero)):
        state = "is called" if name in modules else "no longer exists"
        failures.append(f"KEPT names {name}, which {state}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
