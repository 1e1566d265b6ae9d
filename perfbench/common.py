"""Shared helpers: statistics, timing, memory, set-up timing and host facts."""

from __future__ import annotations

import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout (stores, spans); listed in .gitignore.
WORK = ROOT / ".perfbench"

#: How many times one run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Fewest operations of each kind (untraced, traced) one run measures.
MIN_OPS = 3


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, int, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``; ``percentile`` is 0 when
    there are too few samples for any such percentile (``value`` is then
    the maximum, reported for reference only).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0, 0
    for pct in (99, 95, 90, 75, 50):
        index = min(count - 1, int(pct / 100 * count))
        if count - 1 - index >= beyond:
            return float(ordered[index]), pct, count
    return float(ordered[-1]), 0, count


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (and optionally its children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def fresh_import_seconds() -> float:
    """Wall time of ``import repro.api`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.api"],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def timed_setup(prepare, release=None):
    """Run the set-up ``SETUP_REPEATS`` times; returns (median s, last state).

    One set-up is a fresh-interpreter import of the package plus
    ``prepare()`` (input generation, server boot).  ``release(state)``
    tears down all but the last repeat's state, outside the timer.
    """
    seconds, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and release is not None:
            release(state)
        importing = fresh_import_seconds()
        start = time.perf_counter()
        state = prepare()
        seconds.append(importing + time.perf_counter() - start)
    return median(seconds), state


def host_facts() -> dict:
    """nproc, BLAS library and threads, Python and NumPy versions."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    except (AttributeError, OSError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_ops(op, seconds: float, tracer=None, install=None) -> dict:
    """Run ``op()`` back to back until ``seconds`` have passed.

    ``op()`` returns ``(seconds, ok, info)``; an exception counts as a
    failed operation.  With a ``tracer``, operations alternate untraced
    and traced (``install(tracer)`` before, ``tracer.uninstall()`` after)
    and each traced one runs under its own operation id.
    """
    ops = []
    start = time.perf_counter()
    floor = 2 * MIN_OPS if tracer is not None else MIN_OPS
    while time.perf_counter() - start < seconds or len(ops) < floor:
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        if traced:
            install(tracer)
            tracer.op = index
        try:
            took, ok, info = op()
        except Exception as error:  # noqa: BLE001 — a failed op is counted, not fatal
            took, ok, info = None, False, {"error": repr(error)}
        finally:
            if traced:
                tracer.op = None
                tracer.uninstall()
        ops.append({"index": index, "seconds": took, "ok": ok, "traced": traced, **info})
    return {"ops": ops, "elapsed": time.perf_counter() - start}


def neighbour_overhead(by_slot: dict) -> float:
    """Tracing overhead from alternating slots (odd slots traced).

    The median, over traced slots, of the slot's value minus the mean of
    the untraced slots on either side, so a drift in host speed or in
    the program's state through the window cancels out.
    """
    return median(
        value - (by_slot[slot - 1] + by_slot[slot + 1]) / 2
        for slot, value in by_slot.items()
        if slot % 2 == 1 and slot - 1 in by_slot and slot + 1 in by_slot
    )


def op_result(setup_s: float, measured: dict, label: str) -> dict:
    """A compute workload's result: summary, per-op rows and report lines.

    ``op_s`` is the median untraced op and ``ops_per_s`` counts completed
    ops over the window.
    """
    ops = measured["ops"]
    good = [op for op in ops if op["ok"]]
    plain = [op["seconds"] for op in good if not op["traced"]]
    summary = {
        "op_s": median(plain),
        "ops_per_s": len(good) / measured["elapsed"],
        "overhead_s": neighbour_overhead({op["index"]: op["seconds"] for op in good}),
    }
    each = " ".join(f"{op['seconds']:.3f}{'*' if op['traced'] else ''}" for op in good)
    return {
        "setup_s": setup_s,
        "summary": summary,
        "ops": ops,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "report": [
            f"{label} = {summary['op_s']:.4f} s over {len(plain)} untraced ops",
            f"per-op seconds (* traced): {each}",
        ],
    }
