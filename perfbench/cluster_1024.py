"""cluster_1024: cold ``api.cluster`` calls on one 1024-node mixed SBM.

The graph is ``mixed_sbm(1024, 4, seed=1, generator_version="v2")``, the
ROADMAP's reference graph, and every call uses the default ``QSCConfig``
(quantum pipeline, analytic QPE, seed 7).  The spectral cache is cleared
before every call, as a CLI user pays that cost on every run, and each
call's first construction must be a cache miss.  A call fails when its
ARI against the planted labels is below :data:`MIN_ARI`.

The graph does not follow the workload seed, so every call does the same
work.  q-means stops after three stable noisy iterations, and how soon
that happens is a chaotic function of the input: across ``mixed_sbm``
seeds 1..12 one call made 24 to 124 assign calls and took 3.3 to 7.6 s,
and relabelling the nodes of one graph spread it as wide.  A seed-drawn
graph would put the run-to-run spread of ``op_s`` beyond any bound a
regression check can use.
"""

from __future__ import annotations

import time

from common import measure_ops, op_result, timed_setup

NODES = 1024
CLUSTERS = 4
GRAPH_SEED = 1
MIN_ARI = 0.9


def setup():
    def prepare():
        from repro import api

        return api.mixed_sbm(NODES, CLUSTERS, seed=GRAPH_SEED, generator_version="v2")

    return timed_setup(prepare)


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro import api
    from repro.core.qpe_engine import clear_spectral_cache, spectral_cache_stats
    from repro.metrics import adjusted_rand_index
    from layers import span_metrics
    from tracer import install_compute_layers

    setup_s, (graph, truth) = setup()

    def op():
        clear_spectral_cache()
        start = time.perf_counter()
        result = api.cluster(graph, CLUSTERS)
        took = time.perf_counter() - start
        cache = spectral_cache_stats()
        first = result.profile[0]
        ari = adjusted_rand_index(truth, result.labels)
        cold = first["cache_misses"] >= 1 and first["cache_hits"] == 0
        info = {"ari": ari, "cache_hits": cache["hits"], "cache_misses": cache["misses"]}
        return took, ari >= MIN_ARI and cold, info

    measured = measure_ops(op, seconds, tracer, install_compute_layers)
    out = op_result(setup_s, measured, "cluster_s (median cold call)")
    ops = out["ops"]
    if tracer is not None:
        out["layers"], _ = span_metrics(tracer, [op for op in ops if op["traced"] and op["ok"]])
    return out
