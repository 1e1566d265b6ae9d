"""Classical baselines the quantum algorithm is compared against."""

from repro.baselines.symmetrized import (
    SymmetrizedSpectralClustering,
    symmetrized_laplacian,
)
from repro.baselines.rw_laplacian import (
    RandomWalkSpectralClustering,
    chung_laplacian,
    stationary_distribution,
    stationary_distribution_sparse,
    transition_matrix,
)
from repro.baselines.disim import DiSimClustering, disim_embedding
from repro.baselines.naive import AdjacencyKMeans

__all__ = [
    "SymmetrizedSpectralClustering",
    "symmetrized_laplacian",
    "RandomWalkSpectralClustering",
    "chung_laplacian",
    "stationary_distribution",
    "stationary_distribution_sparse",
    "transition_matrix",
    "DiSimClustering",
    "disim_embedding",
    "AdjacencyKMeans",
]
