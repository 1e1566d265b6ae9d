"""q-means: the δ-noisy quantum k-means clustering model.

Following the q-means construction (Kerenidis, Landman, Luongo & Prakash,
NeurIPS 2019), the quantum algorithm is equivalent to classical Lloyd
iteration with two bounded noise sources:

* every squared distance used for assignment carries additive error
  uniformly bounded by δ (swap-test / amplitude-estimation error), and
* every updated centroid is reported with an l2 perturbation of norm at
  most δ (vector-tomography error).

At δ = 0 the iteration *is* Lloyd's algorithm (property-tested against
``repro.spectral.kmeans``).  The closed-form noise model is used instead of
per-distance swap-test circuits so q-means scales to thousands of rows.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError
from repro.spectral.kmeans import KMeansResult, kmeans_plusplus_init
from repro.utils.rng import ensure_rng


def noisy_assign_labels(
    points: np.ndarray,
    centroids: np.ndarray,
    delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assignment under distance estimates with additive error <= δ.

    Squared distances are expanded as ‖x‖² − 2·x·cᵀ + ‖c‖², one
    ``points @ centroids.T`` GEMM instead of an n × k × d broadcast.
    ‖x‖² is the same for every centroid in a row, so it is left out: it
    cannot change the row's argmin.
    """
    centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    distances = centroid_sq_norms - 2.0 * (points @ centroids.T)
    if delta > 0:
        distances = distances + rng.uniform(-delta, delta, size=distances.shape)
    return distances.argmin(axis=1)


def perturb_centroids(
    centroids: np.ndarray, delta: float, rng: np.random.Generator
) -> np.ndarray:
    """Add an l2-bounded perturbation of norm <= δ to each centroid."""
    if delta <= 0:
        return centroids
    noise = rng.normal(size=centroids.shape)
    norms = np.linalg.norm(noise, axis=1, keepdims=True)
    norms = np.where(norms > 0, norms, 1.0)
    radii = rng.uniform(0.0, delta, size=(centroids.shape[0], 1))
    return centroids + noise / norms * radii


def qmeans(
    points: np.ndarray,
    num_clusters: int,
    delta: float = 0.05,
    max_iterations: int = 30,
    num_restarts: int = 4,
    stability_window: int = 3,
    seed=None,
) -> KMeansResult:
    """δ-noisy k-means (the q-means execution model).

    Parameters
    ----------
    points:
        n × d real data matrix (the spectral embedding rows).
    num_clusters:
        k.
    delta:
        Noise bound δ of the quantum subroutines; 0 reduces to Lloyd.
    max_iterations:
        Iteration cap per restart.
    num_restarts:
        Independent q-means++ initializations; lowest noisy inertia wins.
    stability_window:
        Stop once assignments are unchanged for this many consecutive
        iterations (noise means single-step equality is too strict).
    seed:
        RNG seed or generator.

    Returns
    -------
    :class:`repro.spectral.kmeans.KMeansResult`
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= num_clusters <= n:
        raise ClusteringError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    if delta < 0:
        raise ClusteringError(f"delta must be >= 0, got {delta}")
    if max_iterations < 1 or num_restarts < 1 or stability_window < 1:
        raise ClusteringError("iteration parameters must be >= 1")
    rng = ensure_rng(seed)
    best: KMeansResult | None = None
    for _ in range(num_restarts):
        centroids = kmeans_plusplus_init(points, num_clusters, rng)
        labels = noisy_assign_labels(points, centroids, delta, rng)
        stable_steps = 0
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            # A per-cluster mean on purpose: a segmented np.add.reduceat
            # sums in another order (centroids no longer bit-identical)
            # and measured slower at k = 4.
            centroids = np.empty((num_clusters, points.shape[1]))
            for cluster in range(num_clusters):
                members = points[labels == cluster]
                if members.size == 0:
                    centroids[cluster] = points[int(rng.integers(n))]
                else:
                    centroids[cluster] = members.mean(axis=0)
            centroids = perturb_centroids(centroids, delta, rng)
            new_labels = noisy_assign_labels(points, centroids, delta, rng)
            if np.array_equal(new_labels, labels):
                stable_steps += 1
                if stable_steps >= (1 if delta == 0 else stability_window):
                    converged = True
                    labels = new_labels
                    break
            else:
                stable_steps = 0
            labels = new_labels
        inertia = float(((points - centroids[labels]) ** 2).sum())
        candidate = KMeansResult(
            labels=labels,
            centroids=centroids,
            inertia=inertia,
            iterations=iterations,
            converged=converged,
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best
