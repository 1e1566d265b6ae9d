"""Benchmark entry point.

    python3 perfbench/run.py --workload cluster_1024 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json``):
``cluster_1024``, ``paper_sweeps``, ``serve_mixed``; ``--workload all``
runs the three one after another, each in its own interpreter, and
prints every end-to-end metric of each.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (:mod:`layers`) and writes its spans to ``.perfbench/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, WORK, host_facts, peak_rss_mb  # noqa: E402

WORKLOADS = ("cluster_1024", "paper_sweeps", "serve_mixed")
#: End-to-end metrics: (name, unit).  ``op_s`` is the workload's unit of
#: work (cold call, cold six-sweep pass, fresh served job).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_s", "s"),
    ("ops_per_s", "1/s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> list[tuple]:
    """``(name, unit)`` of every metric ``BENCHMARK.json`` declares for this mode."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in config["per_layer" if trace else "end_to_end"]]


def run_workload(args) -> dict:
    from layers import complete, describe
    from tracer import Tracer

    import repro.api  # noqa: F401 — in-process import, outside the set-up timer

    tracer = Tracer() if args.trace else None
    result = importlib.import_module(args.workload).run(args.seed, args.seconds, tracer)
    summary = result["summary"]
    lines = [f"workload {args.workload} seed {args.seed} window {args.seconds:g} s"]
    lines += result["report"]
    if tracer is None:
        values = {
            "setup_s": result["setup_s"],
            "peak_rss_mb": peak_rss_mb(include_children=args.workload == "serve_mixed"),
            "op_s": summary["op_s"],
            "ops_per_s": summary["ops_per_s"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines += [f"  {name:12s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        layer = result["layers"]
        layer["trace.overhead_s"] = summary["overhead_s"]
        layer["trace.traced_ops"] = sum(1 for op in result["ops"] if op["traced"] and op["ok"])
        metrics = complete(layer)
        lines += describe(layer)
        spans_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(spans_file, workload=args.workload, seed=args.seed, host=host_facts(),
                    ops=result["ops"])
        lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
    for op in result["ops"]:
        if not op["ok"]:
            lines.append(f"FAILED op: {json.dumps(op, default=str)[:400]}")
    print("\n".join(lines))
    if [(name, m["unit"]) for name, m in metrics.items()] != declared_metrics(args.trace):
        raise SystemExit("metrics emitted differ from those BENCHMARK.json declares")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in a fresh interpreter, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    # Everything the run writes stays inside the checkout.
    scratch = WORK / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
