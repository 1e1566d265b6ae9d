"""Tests for the MixedGraph container."""

import os
import pathlib
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.exceptions import GraphError
from repro.graphs import MixedGraph, io, random_mixed_graph
from repro.graphs.mixed_graph import Edge

#: Every public way a weight enters a graph, each adding one 0-1
#: connection of weight ``w``.
WEIGHT_ENTRY_POINTS = {
    "add_edge": lambda w: MixedGraph(2).add_edge(0, 1, w),
    "add_arc": lambda w: MixedGraph(2).add_arc(0, 1, w),
    "Edge": lambda w: Edge(0, 1, w),
    "add_edges": lambda w: MixedGraph(2).add_edges(np.array([[0, 1, w]])),
    "add_arcs": lambda w: MixedGraph(2).add_arcs(np.array([[0, 1, w]])),
    "io.loads": lambda w: io.loads(f"n 2\ne 0 1 {w}\n"),
}


class TestConstruction:
    def test_empty_graph(self):
        g = MixedGraph(4)
        assert g.num_nodes == 4
        assert g.num_edges == 0 and g.num_arcs == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            MixedGraph(0)

    def test_label_count_checked(self):
        with pytest.raises(GraphError):
            MixedGraph(3, node_labels=["a", "b"])

    def test_labels_copied(self):
        labels = ["a", "b"]
        g = MixedGraph(2, node_labels=labels)
        labels[0] = "mutated"
        assert g.node_labels[0] == "a"


class TestEdgesAndArcs:
    def test_add_edge_symmetric(self):
        g = MixedGraph(3)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_add_arc_one_way(self):
        g = MixedGraph(3)
        g.add_arc(0, 1)
        assert g.has_arc(0, 1) and not g.has_arc(1, 0)

    def test_self_loop_rejected(self):
        g = MixedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)
        with pytest.raises(GraphError):
            g.add_arc(0, 0)

    def test_nonpositive_weight_rejected(self):
        g = MixedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, weight=0.0)
        with pytest.raises(GraphError):
            g.add_arc(0, 1, weight=-2.0)

    @pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, entry, weight):
        with pytest.raises(GraphError, match="positive and finite"):
            WEIGHT_ENTRY_POINTS[entry](weight)

    def test_node_out_of_range(self):
        with pytest.raises(GraphError):
            MixedGraph(2).add_edge(0, 5)

    def test_edge_arc_conflict_detected(self):
        g = MixedGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_arc(0, 1)
        g2 = MixedGraph(2)
        g2.add_arc(0, 1)
        with pytest.raises(GraphError):
            g2.add_edge(0, 1)

    def test_antiparallel_arcs_merge_to_edge(self):
        g = MixedGraph(2)
        g.add_arc(0, 1, weight=1.0)
        g.add_arc(1, 0, weight=2.0)
        assert g.num_arcs == 0
        assert g.has_edge(0, 1)
        assert np.isclose(g.degree(0), 3.0)

    def test_edge_dataclass_validation(self):
        with pytest.raises(GraphError):
            Edge(1, 1)
        with pytest.raises(GraphError):
            Edge(0, 1, weight=-1.0)

    def test_edges_deterministic_order(self):
        g = MixedGraph(4)
        g.add_arc(2, 3)
        g.add_edge(0, 1)
        g.add_arc(0, 2)
        tags = [(e.u, e.v, e.directed) for e in g.edges()]
        assert tags == [(0, 1, False), (0, 2, True), (2, 3, True)]


class TestDegreesAndMatrices:
    def test_degree_counts_both_kinds(self):
        g = MixedGraph(3)
        g.add_edge(0, 1, 2.0)
        g.add_arc(0, 2, 3.0)
        assert np.isclose(g.degree(0), 5.0)
        assert np.isclose(g.degree(2), 3.0)

    def test_degrees_vector_matches_scalar(self):
        g = random_mixed_graph(10, 0.4, seed=0)
        vec = g.degrees()
        assert all(np.isclose(vec[i], g.degree(i)) for i in range(10))

    def test_symmetrized_adjacency_is_symmetric(self):
        g = random_mixed_graph(8, 0.5, seed=1)
        adj = g.symmetrized_adjacency()
        assert np.allclose(adj, adj.T)

    def test_directed_adjacency_arcs_once(self):
        g = MixedGraph(2)
        g.add_arc(0, 1, 1.5)
        adj = g.directed_adjacency()
        assert adj[0, 1] == 1.5 and adj[1, 0] == 0.0

    def test_directed_fraction(self):
        g = MixedGraph(3)
        assert g.directed_fraction == 0.0
        g.add_edge(0, 1)
        g.add_arc(1, 2)
        assert np.isclose(g.directed_fraction, 0.5)


class TestConversions:
    def test_networkx_roundtrip(self):
        g = MixedGraph(4)
        g.add_edge(0, 1, 2.0)
        g.add_arc(1, 2, 3.0)
        g.add_arc(3, 0)
        back = MixedGraph.from_networkx(g.to_networkx())
        assert back.num_edges == g.num_edges
        assert back.num_arcs == g.num_arcs
        assert np.allclose(back.symmetrized_adjacency(), g.symmetrized_adjacency())

    def test_import_leaves_networkx_unloaded(self):
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        probe = "import sys, repro.api; print('networkx' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == "False"

    def test_from_undirected_networkx(self):
        nxg = nx.path_graph(4)
        g = MixedGraph.from_networkx(nxg)
        assert g.num_edges == 3 and g.num_arcs == 0

    def test_subgraph_preserves_connections(self):
        g = MixedGraph(5)
        g.add_edge(0, 1)
        g.add_arc(1, 2)
        g.add_arc(3, 4)
        sub = g.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.has_edge(0, 1) and sub.has_arc(1, 2)

    def test_subgraph_duplicate_nodes_rejected(self):
        with pytest.raises(GraphError):
            MixedGraph(3).subgraph([0, 0])

    def test_weak_connectivity(self):
        g = MixedGraph(3)
        g.add_arc(0, 1)
        assert not g.is_weakly_connected()
        g.add_edge(1, 2)
        assert g.is_weakly_connected()

    def test_single_node_is_connected(self):
        assert MixedGraph(1).is_weakly_connected()


class TestProperties:
    @given(seed=st.integers(0, 30), p=st.floats(0.1, 0.6))
    @settings(max_examples=20, deadline=None)
    def test_random_graph_invariants(self, seed, p):
        g = random_mixed_graph(12, p, directed_fraction=0.5, seed=seed)
        adj = g.symmetrized_adjacency()
        assert np.allclose(adj, adj.T)
        assert np.allclose(np.diag(adj), 0.0)
        assert np.isclose(g.degrees().sum(), adj.sum())

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_through_networkx(self, seed):
        g = random_mixed_graph(9, 0.4, seed=seed)
        back = MixedGraph.from_networkx(g.to_networkx())
        assert np.allclose(back.symmetrized_adjacency(), g.symmetrized_adjacency())
        assert back.num_arcs == g.num_arcs
