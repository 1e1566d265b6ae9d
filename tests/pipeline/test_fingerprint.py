"""Graph and context fingerprints: pinned digests, one graph digest per run."""

import hashlib

import pytest

from repro import QSCConfig, QSCPipeline
from repro.graphs import MixedGraph, ensure_connected, mixed_sbm
from repro.pipeline import build_stages, checkpoint
from repro.store import ContentStore

#: ``graph_fingerprint`` of ``mixed_sbm(1024, 4, seed=1, generator_version="v2")``.
#: Every stage/shard store key embeds it: if this literal has to change,
#: on-disk store entries silently stop matching and CHECKPOINT_VERSION
#: must be bumped with it.
REFERENCE_GRAPH_DIGEST = "3ab3258d76314d5b02505de86951e20a"

CONFIG = QSCConfig(precision_bits=6, shots=256, seed=5)


@pytest.fixture
def graph():
    graph, _ = mixed_sbm(30, 2, p_intra=0.5, p_inter=0.05, seed=11)
    ensure_connected(graph, seed=11)
    return graph


def edge_object_fingerprint(graph) -> str:
    """The per-``Edge`` streaming digest the record-list form replaced."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(graph.num_nodes).encode())
    for edge in graph.edges():
        digest.update(f"{edge.u},{edge.v},{edge.weight},{edge.directed};".encode())
    return digest.hexdigest()


def per_stage_context_fingerprint(graph, config, requested_clusters, fields) -> str:
    """The context fingerprint as computed before the graph digest was
    hoisted: the graph digest rebuilt from ``Edge`` objects for each stage."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(edge_object_fingerprint(graph).encode())
    if requested_clusters is not None:
        digest.update(repr(requested_clusters).encode())
    for name in fields:
        digest.update(f"{name}={getattr(config, name)!r};".encode())
    return digest.hexdigest()


def test_reference_graph_digest_pinned():
    graph, _ = mixed_sbm(1024, 4, seed=1, generator_version="v2")
    assert graph.num_arcs > 0 and graph.num_edges > 0
    assert checkpoint.graph_fingerprint(graph) == REFERENCE_GRAPH_DIGEST


def test_digest_matches_edge_object_reference(graph):
    assert checkpoint.graph_fingerprint(graph) == edge_object_fingerprint(graph)
    weighted = MixedGraph(5)
    weighted.add_edge(3, 1, 0.375)
    weighted.add_edge(0, 4, 2.5)
    weighted.add_arc(4, 2, 1e-3)
    weighted.add_arc(1, 0)
    assert checkpoint.graph_fingerprint(weighted) == edge_object_fingerprint(weighted)


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Count ``graph_fingerprint`` calls."""
    calls = []
    original = checkpoint.graph_fingerprint

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(checkpoint, "graph_fingerprint", counting)
    return calls


class TestSingleFingerprintPerRun:
    def test_fresh_run(self, graph, fingerprint_calls):
        QSCPipeline(2, CONFIG).run(graph)
        assert len(fingerprint_calls) == 1

    def test_save_stages(self, graph, fingerprint_calls, tmp_path):
        QSCPipeline(2, CONFIG).run(graph, save_stages=tmp_path)
        assert len(fingerprint_calls) == 1

    def test_resume_from_readout(self, graph, fingerprint_calls, tmp_path):
        QSCPipeline(2, CONFIG).run(graph, save_stages=tmp_path)
        fingerprint_calls.clear()
        QSCPipeline(2, CONFIG).run(graph, resume_from="readout", save_stages=tmp_path)
        assert len(fingerprint_calls) == 1

    def test_context_fingerprints_match_per_stage_recompute(self, graph, tmp_path):
        """The hoisted digest yields the same per-stage context
        fingerprints as recomputing the graph digest for every stage: each
        stage's entry exists under the independently recomputed key."""
        QSCPipeline(2, CONFIG).run(graph, save_stages=tmp_path)
        store = ContentStore(root=tmp_path)
        for stage in build_stages():
            expected = per_stage_context_fingerprint(
                graph,
                CONFIG,
                2 if stage.fingerprint_clusters else None,
                stage.fingerprint_fields,
            )
            path = store._entry_path(
                checkpoint.STAGE_NAMESPACE,
                checkpoint.store_key(stage.name, expected),
            )
            assert path.exists(), stage.name
