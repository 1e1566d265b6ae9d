"""Clustering-quality and graph-partition metrics."""

from repro.metrics.clustering_metrics import (
    adjusted_rand_index,
    clustering_report,
    contingency_table,
    matched_accuracy,
    misclassified_count,
    normalized_mutual_information,
)
from repro.metrics.graph_metrics import (
    cut_imbalance,
    cut_weight,
    directed_cut_matrix,
    flow_ratio,
    mixed_modularity,
    partition_summary,
)

__all__ = [
    "adjusted_rand_index",
    "clustering_report",
    "contingency_table",
    "matched_accuracy",
    "misclassified_count",
    "normalized_mutual_information",
    "cut_imbalance",
    "cut_weight",
    "directed_cut_matrix",
    "flow_ratio",
    "mixed_modularity",
    "partition_summary",
]
