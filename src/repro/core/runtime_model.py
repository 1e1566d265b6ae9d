"""Runtime comparison model for the scaling experiment (F3).

Combines *measured* classical eigendecomposition times with the *modeled*
quantum step counts from ``repro.quantum.resources`` (a simulator cannot
clock quantum hardware — the original evaluation compares step-count
proxies too).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graphs.hermitian import hermitian_laplacian
from repro.graphs.mixed_graph import MixedGraph
from repro.quantum.resources import (
    classical_pipeline_step_count,
    quantum_pipeline_step_count,
)
from repro.spectral.eigensolvers import (
    dense_lowest_eigenpairs,
    lanczos_lowest_eigenpairs,
)


@dataclass(frozen=True)
class RuntimeSample:
    """One row of the runtime-scaling table.

    Attributes
    ----------
    num_nodes / num_edges:
        Graph size.
    quantum_steps:
        Modeled elementary-operation count of the quantum pipeline.
    classical_steps:
        Modeled step count of dense classical spectral clustering (O(n³)).
    dense_seconds / lanczos_seconds:
        Measured wall-clock of the two classical eigensolvers.
    """

    num_nodes: int
    num_edges: int
    quantum_steps: float
    classical_steps: float
    dense_seconds: float
    lanczos_seconds: float


def profile_graph(
    graph: MixedGraph,
    num_clusters: int,
    precision_bits: int = 6,
    shots: int = 256,
) -> RuntimeSample:
    """Measure classical solvers and model quantum steps for one graph."""
    laplacian = hermitian_laplacian(graph)
    start = time.perf_counter()
    dense_lowest_eigenpairs(laplacian, num_clusters)
    dense_seconds = time.perf_counter() - start
    start = time.perf_counter()
    lanczos_lowest_eigenpairs(laplacian, num_clusters, seed=0)
    lanczos_seconds = time.perf_counter() - start
    num_edges = graph.num_edges + graph.num_arcs
    quantum = quantum_pipeline_step_count(
        graph.num_nodes,
        num_edges,
        num_clusters,
        precision_bits,
        shots,
    )
    classical = classical_pipeline_step_count(graph.num_nodes, num_clusters)
    return RuntimeSample(
        num_nodes=graph.num_nodes,
        num_edges=num_edges,
        quantum_steps=quantum,
        classical_steps=classical,
        dense_seconds=dense_seconds,
        lanczos_seconds=lanczos_seconds,
    )


def fitted_exponent(sizes, values) -> float:
    """Least-squares slope of log(values) against log(sizes).

    The runtime figure quotes growth exponents; ~1 for the quantum proxy
    (edge-dominated) versus ~3 for dense classical clustering.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (sizes > 0) & (values > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive samples to fit a slope")
    slope, _ = np.polyfit(np.log(sizes[mask]), np.log(values[mask]), 1)
    return float(slope)
