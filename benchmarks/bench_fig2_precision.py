"""Benchmark F2 — the precision sweep through the unified sweep engine.

Two measurements, both on the fig2 :class:`~repro.experiments.runner.SweepSpec`:

1. **Sweep pass** — the sweep runs cold (empty spectral cache) and then
   warm, as happens whenever a sweep is re-rendered, extended with new
   shot budgets (the fig2 trial seed does not depend on shots), or
   followed by a diagnostics pass over the same trial graphs.  The warm
   pass must beat cold and produce bit-identical records; its end-to-end
   gain is bounded by the non-spectral trial work (graph generation,
   tomography draws and q-means are seed-locked and cannot be skipped).
2. **Spectral path** — constructing every (Laplacian, precision) backend
   of the sweep, cold versus cache-served.  This is exactly the work the
   spectral cache deduplicates across sweep points, and where the ≥2x
   wall-clock guarantee is enforced (in practice it is ≥10x).

Cache hit/miss counts for both passes land in ``benchmark.extra_info`` so
the bench trajectory records sweep-path numbers.
"""

import time

import numpy as np
import pytest

from repro.core.qpe_engine import AnalyticQPEBackend, clear_spectral_cache
from repro.experiments import fig2_precision_sweep
from repro.experiments.runner import SweepRunner
from repro.graphs import ensure_connected, hermitian_laplacian, mixed_sbm


@pytest.mark.benchmark(group="F2")
def test_bench_precision_sweep(benchmark, quick_trials):
    spec = fig2_precision_sweep.spec(
        precisions=(2, 7), num_nodes=40, trials=quick_trials
    )
    runner = SweepRunner(spec)
    tasks = spec.tasks()

    clear_spectral_cache()
    cold = runner.run()
    warm = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    # the gated end-to-end ratio uses the best of two warm passes so a
    # single scheduler stall in a ~30 ms measurement cannot flake the gate
    warm_seconds = min(warm.elapsed_seconds, runner.run().elapsed_seconds)
    records = cold.records

    # cache accounting: cold, each trial's fit misses its decomposition and
    # kernel; the diagnostics pass reuses the fit pipeline's own backend
    # (staged-state reuse — no second construction, not even a cache hit).
    # Warm, the fit's spectral work is fully cache-served.
    benchmark.extra_info["cold_cache"] = cold.cache
    benchmark.extra_info["warm_cache"] = warm.cache
    assert cold.cache["misses"] == 2 * len(tasks)
    assert cold.cache["hits"] == 0
    assert warm.cache["misses"] == 0
    assert warm.cache["hits"] == 2 * len(tasks)
    # per-stage telemetry: every trial computed all five stages for real
    assert cold.profile["laplacian"]["computed"] == len(tasks)
    assert cold.profile["laplacian"]["loaded"] == 0
    assert cold.profile["qmeans"]["computed"] == len(tasks)

    # cache transparency: hit or miss, the records are identical — and the
    # warm pass must be an end-to-end win, not just a spectral one.  The
    # margin shrank when the staged pipeline removed the per-trial
    # diagnostics rebuild from the cold pass (the cold sweep got cheaper),
    # so the gate only asserts a real win above timer noise; the spectral
    # ≥2x gate below is the enforced contract.
    assert warm.records == records
    sweep_speedup = cold.elapsed_seconds / warm_seconds
    benchmark.extra_info["sweep_warm_speedup"] = sweep_speedup
    assert sweep_speedup >= 1.05, f"warm sweep speedup only {sweep_speedup:.2f}x"

    # spectral path: the (Laplacian, precision) constructions of the sweep,
    # cold vs cache-served — the work the cache removes from sweep points
    # that vary only shots/threshold (same trial seeds, same Laplacians).
    laplacians = []
    for task in tasks:
        graph, _ = mixed_sbm(
            spec.fixed["num_nodes"],
            spec.fixed["num_clusters"],
            p_intra=fig2_precision_sweep.SBM_P_INTRA,
            p_inter=fig2_precision_sweep.SBM_P_INTER,
            seed=task.seed,
        )
        ensure_connected(graph, seed=task.seed)
        laplacians.append((hermitian_laplacian(graph), task.point["p"]))

    def build_all():
        for laplacian, precision in laplacians:
            AnalyticQPEBackend(laplacian, precision)

    clear_spectral_cache()
    start = time.perf_counter()
    build_all()
    spectral_cold = time.perf_counter() - start
    start = time.perf_counter()
    build_all()
    spectral_warm = time.perf_counter() - start
    spectral_speedup = spectral_cold / spectral_warm
    benchmark.extra_info["spectral_cache_speedup"] = spectral_speedup
    assert spectral_speedup >= 2.0, (
        f"spectral cache speedup only {spectral_speedup:.2f}x"
    )

    def rows(precision):
        return [r for r in records if r.parameters["p"] == precision]

    # paper shape: the eigenvalue filter sharpens with precision — bulk
    # leakage into the cluster subspace falls by an order of magnitude
    # between p=2 and p=7 ...
    leak_coarse = np.mean([r.extra["bulk_leakage"] for r in rows(2)])
    leak_fine = np.mean([r.extra["bulk_leakage"] for r in rows(7)])
    assert leak_fine < leak_coarse / 5
    # ... while end-to-end accuracy is already saturated (robustness
    # finding recorded in docs/experiments.md).
    assert np.mean([r.ari for r in rows(7)]) > 0.85
    assert np.mean([r.ari for r in rows(7)]) >= np.mean([r.ari for r in rows(2)]) - 0.1
