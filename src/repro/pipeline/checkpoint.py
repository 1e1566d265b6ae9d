"""Checkpoint keys of the staged pipeline.

Stage and shard checkpoints are entries of a
:class:`~repro.store.ContentStore`: one run with ``save_stages=DIR``
publishes every computed stage's packed payload (see
``Stage.pack``/``Stage.unpack``) into ``ContentStore(root=DIR)``, and a
run without it publishes into the shared store when one is attached
(``QSCConfig.store_dir``).  A later run with ``resume_from=STAGE`` loads
the payloads of every stage *upstream* of ``STAGE`` from the same store
instead of recomputing them, and re-runs ``STAGE`` and everything
downstream.  The store supplies the format (array-only, no pickling), the
atomic writes and the corrupt-entry eviction; this module supplies only
the keys.

Every key embeds the stage's **context fingerprint** — a digest of the
input graph plus exactly the config fields and the requested cluster
count that stage's output depends on (each stage declares them,
cumulatively with its upstream).  A run with a different graph, seed,
precision, or ``--clusters`` therefore looks up a different key and
never sees stale state.  Fields a stage's output provably does *not*
depend on (e.g. ``shots`` for the threshold stage) stay outside its
fingerprint, so the supported pattern of resuming the readout stage at a
different shot budget keeps working.
"""

from __future__ import annotations

import hashlib

#: Checkpoint layout version, embedded in every key (see :func:`store_key`).
CHECKPOINT_VERSION = 2

#: Content-store namespaces of stage and shard checkpoint entries.
STAGE_NAMESPACE = "stage"
SHARD_NAMESPACE = "shard"


def store_key(stage_name: str, fingerprint: str) -> str:
    """Content-store key of one stage/shard checkpoint entry.

    Embeds :data:`CHECKPOINT_VERSION` so a format bump naturally misses
    every entry written under the old layout instead of misreading it.
    """
    return f"v{CHECKPOINT_VERSION}:{stage_name}@{fingerprint}"


def graph_fingerprint(graph) -> str:
    """Content digest of a mixed graph (size + full connection list).

    One ``"u,v,weight,directed;"`` record per connection in
    :meth:`MixedGraph.edges` order, hashed in a single update.  The record
    format is part of every store key: changing it silently orphans
    on-disk checkpoints (``tests/pipeline/test_fingerprint.py`` pins it).
    """
    undirected, directed = graph.sorted_connections()
    records = [f"{u},{v},{w},False;" for (u, v), w in undirected]
    records += [f"{u},{v},{w},True;" for (u, v), w in directed]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(graph.num_nodes).encode())
    digest.update("".join(records).encode())
    return digest.hexdigest()


def context_fingerprint(graph_digest, config, requested_clusters, fields) -> str:
    """Digest of everything a stage's checkpointed output depends on.

    ``graph_digest`` is :func:`graph_fingerprint` of the run's graph (the
    pipeline computes it once per run).  ``fields`` is the stage's
    cumulative tuple of :class:`QSCConfig` attribute names, and
    ``requested_clusters`` (``int`` or ``"auto"``) participates unless the
    caller passes ``None`` — the laplacian stage's output does not depend
    on k, so changing ``--clusters`` legitimately reuses its checkpoint.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(graph_digest.encode())
    if requested_clusters is not None:
        digest.update(repr(requested_clusters).encode())
    for name in fields:
        digest.update(f"{name}={getattr(config, name)!r};".encode())
    return digest.hexdigest()
