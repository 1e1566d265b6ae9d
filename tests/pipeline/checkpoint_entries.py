"""Test helpers: the store entries a pipeline run checkpoints into.

Checkpoint entries live at opaque content addresses, so tests rebuild the
key exactly as the pipeline does — the context fingerprint from the
pipeline's own stage declarations, extended by the shard layout for
shard entries — and ask the store where that key lives.
"""

from repro.pipeline import build_stages, checkpoint
from repro.pipeline.sharding import (
    shard_checkpoint_name,
    shard_fingerprint,
    shard_layout,
)
from repro.store import ContentStore


def stage_fingerprint(graph, config, num_clusters, stage_name):
    """The context fingerprint the pipeline keys ``stage_name`` under."""
    stage = next(s for s in build_stages() if s.name == stage_name)
    return checkpoint.context_fingerprint(
        checkpoint.graph_fingerprint(graph),
        config,
        num_clusters if stage.fingerprint_clusters else None,
        stage.fingerprint_fields,
    )


def stage_entry(root, graph, config, num_clusters, stage_name):
    """Path of one stage's checkpoint entry in the store rooted at ``root``."""
    fingerprint = stage_fingerprint(graph, config, num_clusters, stage_name)
    return ContentStore(root=root)._entry_path(
        checkpoint.STAGE_NAMESPACE, checkpoint.store_key(stage_name, fingerprint)
    )


def shard_entry(root, graph, config, num_clusters, shard_count, index):
    """Path of one readout shard's checkpoint entry under ``root``."""
    shard = shard_layout(graph.num_nodes, shard_count)[index]
    fingerprint = shard_fingerprint(
        stage_fingerprint(graph, config, num_clusters, "readout"),
        graph.num_nodes,
        shard_count,
        shard,
    )
    return ContentStore(root=root)._entry_path(
        checkpoint.SHARD_NAMESPACE,
        checkpoint.store_key(shard_checkpoint_name("readout", index), fingerprint),
    )
