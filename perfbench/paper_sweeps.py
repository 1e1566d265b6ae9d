"""paper_sweeps: one cold, serial pass of all six registered paper sweeps.

Each pass calls ``api.run_experiment(name)`` for fig1 ... table2 at the
registry defaults, after clearing the spectral cache.  Every artifact
must pass ``validate_artifact`` and its records must hash, by
:func:`records_digest`, to the digest ``sweep_digests.json`` records for
the same sweep at the default seeds (fig3's measured ``dense_seconds``
and ``lanczos_seconds`` are left out of the hash).  The sweeps fix their
own seeds, so the workload seed does not change this workload's inputs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time

from common import measure_ops, median, op_result, timed_setup

SWEEPS = ("fig1", "fig2", "fig3", "fig4", "table1", "table2")
DIGESTS = pathlib.Path(__file__).with_name("sweep_digests.json")
#: Wall-clock measurements inside fig3's records, excluded from the digest.
MEASURED_FIELDS = ("dense_seconds", "lanczos_seconds")


def records_digest(records: list) -> str:
    """blake2b-16 of the records, measured wall-clock fields left out."""
    rows = []
    for record in records:
        extra = {k: v for k, v in record["extra"].items() if k not in MEASURED_FIELDS}
        rows.append({**record, "extra": extra})
    canonical = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def setup():
    def prepare():
        from repro.experiments.runner import get_spec

        return [get_spec(name) for name in SWEEPS]

    return timed_setup(prepare)


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro import api
    from repro.core.qpe_engine import clear_spectral_cache, spectral_cache_stats
    from repro.experiments.runner import validate_artifact
    from layers import span_metrics
    from tracer import install_compute_layers

    setup_s, _specs = setup()
    expected = json.loads(DIGESTS.read_text())

    def op():
        clear_spectral_cache()
        start = time.perf_counter()
        results = [api.run_experiment(name) for name in SWEEPS]
        took = time.perf_counter() - start
        cache = spectral_cache_stats()
        mismatched = []
        for name, result in zip(SWEEPS, results):
            artifact = result.to_artifact()
            validate_artifact(artifact)
            if records_digest(artifact["records"]) != expected[name]:
                mismatched.append(name)
        info = {
            "mismatched": mismatched,
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
        }
        return took, not mismatched and cache["misses"] >= 1, info

    measured = measure_ops(op, seconds, tracer, install_compute_layers)
    out = op_result(setup_s, measured, "sweeps_s (median cold six-sweep pass)")
    ops = out["ops"]
    if tracer is not None:
        traced = [op for op in ops if op["traced"] and op["ok"]]
        out["layers"], totals = span_metrics(tracer, traced)
        out["layers"]["experiments.coverage"] = median(
            sum(spans.get(f"experiments.{name}", (0, 0.0))[1] for name in SWEEPS) / op["seconds"]
            for op, spans in zip(traced, totals)
        )
    return out
