"""Shared perf-gate definitions for the benchmark suite and CI trajectory.

The pytest benchmarks (``bench_generators.py``, ``bench_qpe_kernel.py``)
and the CI ``bench-trajectory`` runner (``trajectory.py``) enforce the
same speedup gates on the same workloads.  Thresholds, the timing helper
and the workload builders live here so the two entry points cannot drift
apart — raising a gate in one place raises it everywhere.
"""

from __future__ import annotations

import time

import numpy as np

# Wall-clock speedup gates (absolute thresholds; measured margins are
# listed in the modules that enforce them).
MIN_GENERATOR_SPEEDUP = 5.0
MIN_KERNEL_SPEEDUP = 3.0
# One q-means call, GEMM distance assignment vs the retained n × k × d
# broadcast reference (6.4x measured on a 2-core x86-64 host).
MIN_QMEANS_SPEEDUP = 3.0

# Sharded readout (worker processes) vs the single-process batched stage.
# Wall-clock parallel speedup needs actual cores, so this gate is only
# *enforced* on multi-core hosts (CI runners are; a 1-CPU container cannot
# beat the serial stage and records the number as data instead — the same
# policy the warm-sweep speedup follows).  The bit-identity contract of
# the merged shards is hardware-independent and gates everywhere.
MIN_READOUT_SHARD_SPEEDUP = 1.5
READOUT_SHARD_COUNT = 4

# Preconditioned LOBPCG vs ARPACK eigsh on the ill-conditioned midrange
# eigenproblem (the workload the "auto" midrange band exists for).  Both
# timings come from the same run on the same matrix, so the gate is
# hardware-robust, but it needs a scipy build with lobpcg — hosts without
# one record the eigsh timing as data instead (``eigensolver_gate_enforced``).
MIN_LOBPCG_SPEEDUP = 2.0

# Relative trend gate of the per-PR benchmark series
# (``benchmarks/trajectory.py --series``): each speedup metric of the new
# entry must reach at least this fraction of the previous PR's value.
# Deliberately loose — both numbers come from different CI runs on noisy
# shared runners, so this catches real regressions (a vectorized path
# falling back to a loop) without flaking on scheduler jitter.
MIN_RELATIVE_TREND = 0.5

# Workload scales.
GENERATOR_NODES = 1000
GENERATOR_CLUSTERS = 3
KERNEL_PHASES = 1024
KERNEL_PRECISION = 7
SHARD_NODES = 512
SHARD_SHOTS = 2048
SHARD_SEED = 99
EIGENSOLVER_NODES = 1024  # midrange: SPARSE_AUTO_THRESHOLD <= n < ceiling
EIGENSOLVER_CLUSTERS = 4
EIGENSOLVER_K = 4
EIGENSOLVER_WEIGHT_DECADES = 6.0
EIGENSOLVER_SEED = 7
QMEANS_NODES = 1024  # the ROADMAP reference size; points are n × 2n
QMEANS_CLUSTERS = 4
QMEANS_SEED = 3


def usable_cores() -> int:
    """CPU cores the process may actually use (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def shard_gate_enforced() -> bool:
    """Whether the sharded-readout wall-clock gate applies on this host."""
    return usable_cores() >= 2


def eigensolver_gate_enforced() -> bool:
    """Whether the LOBPCG-vs-eigsh gate applies on this host.

    The gate compares the sparse backend's two iterative routes, so it
    needs a scipy build that ships ``lobpcg``; anything less records the
    available timings as data.
    """
    from repro.linalg.backends import HAVE_LOBPCG

    return HAVE_LOBPCG


def ill_conditioned_laplacian():
    """The gated midrange eigenproblem: a weight-skewed SBM Laplacian.

    The adjacency pattern is the standard sparse mixed SBM at midrange
    scale, but edge weights are drawn log-uniformly across
    ``EIGENSOLVER_WEIGHT_DECADES`` orders of magnitude, so the
    unnormalized Laplacian's degree diagonal — and with it the spectrum —
    spans ~10^6.  ARPACK's shiftless Lanczos needs many restarts to pull
    the smallest eigenvalues out of that spread; the degree/Jacobi
    preconditioner hands LOBPCG the rescaling for free, which is exactly
    the regime the "auto" midrange band routes to LOBPCG.  (A normalized
    Laplacian would be unit-diagonal and the preconditioner inert — the
    skewed weights are what makes this gate meaningful.)
    """
    import scipy.sparse as sparse

    from repro.graphs import sparse_mixed_sbm

    graph, _ = sparse_mixed_sbm(
        EIGENSOLVER_NODES, EIGENSOLVER_CLUSTERS, seed=EIGENSOLVER_SEED
    )
    pattern = sparse.csr_matrix(graph.symmetrized_adjacency()).tocoo()
    upper = pattern.row < pattern.col
    rows, cols = pattern.row[upper], pattern.col[upper]
    rng = np.random.default_rng(EIGENSOLVER_SEED)
    weights = 10.0 ** rng.uniform(0.0, EIGENSOLVER_WEIGHT_DECADES, size=rows.size)
    adjacency = sparse.coo_matrix(
        (
            np.concatenate([weights, weights]),
            (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
        ),
        shape=pattern.shape,
    ).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sparse.diags(degrees) - adjacency).astype(complex).tocsr()


def readout_shard_case():
    """``(backend, accepted)`` of the gated sharded-readout workload.

    Same shape as ``bench_readout_batch``'s analytic case but with a
    tomography-dominated shot count.  The per-row work does not dwarf the
    process-executor overhead: on a 2-core host the unsharded readout
    takes 0.072 s, the process executor 0.130 s at 2 shards and 0.167 s
    at 4, while a bare fork+join costs only 6 ms, so the loss is the
    slowdown inside each forked worker.
    """
    from repro.core.config import QSCConfig
    from repro.core.projection import accepted_outcomes
    from repro.core.qpe_engine import make_backend
    from repro.graphs import hermitian_laplacian, sparse_mixed_sbm

    graph, _ = sparse_mixed_sbm(SHARD_NODES, 4, seed=1)
    laplacian = hermitian_laplacian(graph, backend="dense")
    config = QSCConfig(backend="analytic", precision_bits=6, shots=SHARD_SHOTS)
    backend = make_backend(laplacian, config)
    accepted = accepted_outcomes(0.3, 6, backend.lambda_scale)
    return backend, accepted


def best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` — robust to one-off scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def generator_cases() -> dict:
    """Name -> ``build(version)`` for the gated generator workloads."""
    from repro.graphs import cyclic_flow_sbm, mixed_sbm

    return {
        "mixed_sbm": lambda version: mixed_sbm(
            GENERATOR_NODES,
            GENERATOR_CLUSTERS,
            seed=0,
            generator_version=version,
        ),
        "cyclic_flow_sbm": lambda version: cyclic_flow_sbm(
            GENERATOR_NODES,
            GENERATOR_CLUSTERS,
            intra_directed=True,
            seed=0,
            generator_version=version,
        ),
    }


def kernel_phases() -> np.ndarray:
    """The gated kernel workload: a bulk spectrum plus dyadic phases so
    the Dirichlet-kernel limit branch is exercised too."""
    phases = np.random.default_rng(17).random(KERNEL_PHASES)
    phases[:8] = np.arange(8) / 2**KERNEL_PRECISION
    return phases


def loop_kernel_build(phases: np.ndarray) -> np.ndarray:
    """The legacy per-eigenvalue kernel build (one call per phase)."""
    from repro.quantum.phase_estimation import qpe_outcome_distribution

    return np.vstack(
        [qpe_outcome_distribution(phase, KERNEL_PRECISION) for phase in phases]
    )


def batch_kernel_build(phases: np.ndarray) -> np.ndarray:
    """The batched kernel build (one broadcast pass)."""
    from repro.quantum.phase_estimation import qpe_outcome_distributions

    return qpe_outcome_distributions(phases, KERNEL_PRECISION)


def qmeans_points() -> np.ndarray:
    """The gated q-means workload: ``QMEANS_NODES`` row-normalised points
    of dimension ``2 · QMEANS_NODES`` (the embedding stage's output shape)
    in ``QMEANS_CLUSTERS`` noisy clusters."""
    rng = np.random.default_rng(QMEANS_SEED)
    truth = rng.integers(QMEANS_CLUSTERS, size=QMEANS_NODES)
    centers = rng.normal(size=(QMEANS_CLUSTERS, 2 * QMEANS_NODES))
    points = centers[truth] + rng.normal(size=(QMEANS_NODES, 2 * QMEANS_NODES))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def broadcast_assign(points, centroids, delta, rng):
    """The legacy q-means assignment: explicit n × k × d broadcast
    distances, same noise draw."""
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    if delta > 0:
        distances = distances + rng.uniform(-delta, delta, size=distances.shape)
    return distances.argmin(axis=1)


def run_qmeans(points: np.ndarray, assign=None):
    """One default-parameter q-means call on ``points``; ``assign``, when
    given, replaces the module's assignment step for the call."""
    import sys
    from unittest import mock

    import repro.core.qmeans  # noqa: F401

    # ``repro.core`` re-exports the function under the module's name.
    module = sys.modules["repro.core.qmeans"]
    if assign is None:
        return module.qmeans(points, QMEANS_CLUSTERS, seed=QMEANS_SEED)
    with mock.patch.object(module, "noisy_assign_labels", assign):
        return module.qmeans(points, QMEANS_CLUSTERS, seed=QMEANS_SEED)
