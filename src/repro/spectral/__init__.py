"""Classical spectral machinery: eigensolvers, embeddings, k-means."""

from repro.spectral.eigensolvers import (
    condition_number,
    dense_lowest_eigenpairs,
    lanczos_lowest_eigenpairs,
    lowest_eigenpairs,
    sparse_lowest_eigenpairs,
)
from repro.spectral.embedding import (
    complex_to_real_features,
    projector_embedding,
    row_normalize,
    spectral_embedding,
)
from repro.spectral.kmeans import (
    KMeansResult,
    assign_labels,
    kmeans,
    kmeans_plusplus_init,
    update_centroids,
)
from repro.spectral.clustering import (
    ClassicalSpectralClustering,
    ClusteringResult,
    classical_spectral_clustering,
)
from repro.spectral.gap import (
    eigengaps,
    estimate_num_clusters,
    gap_profile,
    relative_eigengap,
)

__all__ = [
    "eigengaps",
    "estimate_num_clusters",
    "gap_profile",
    "relative_eigengap",
    "condition_number",
    "dense_lowest_eigenpairs",
    "lanczos_lowest_eigenpairs",
    "lowest_eigenpairs",
    "sparse_lowest_eigenpairs",
    "complex_to_real_features",
    "projector_embedding",
    "row_normalize",
    "spectral_embedding",
    "KMeansResult",
    "assign_labels",
    "kmeans",
    "kmeans_plusplus_init",
    "update_centroids",
    "ClassicalSpectralClustering",
    "ClusteringResult",
    "classical_spectral_clustering",
]
