"""Tests for graph generators, the netlist model, .bench parsing, and I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError, ParseError
from repro.graphs import (
    MixedGraph,
    cyclic_flow_sbm,
    ensure_connected,
    load_c17,
    load_s27,
    mixed_sbm,
    parse_bench,
    random_mixed_graph,
    synthetic_netlist,
    write_bench,
)
from repro.graphs import io as graph_io
from repro.graphs.netlist import Gate, Netlist


class TestMixedSBM:
    def test_shapes_and_labels(self):
        g, labels = mixed_sbm(30, 3, seed=0)
        assert g.num_nodes == 30
        assert labels.shape == (30,)
        assert set(labels) == {0, 1, 2}

    def test_balanced_cluster_sizes(self):
        _, labels = mixed_sbm(31, 3, seed=0)
        counts = np.bincount(labels)
        assert counts.max() - counts.min() <= 1

    def test_intra_density_exceeds_inter(self):
        g, labels = mixed_sbm(60, 2, p_intra=0.5, p_inter=0.05, seed=1)
        adj = g.symmetrized_adjacency() > 0
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        intra = adj[same].mean()
        inter = adj[~same].mean()
        assert intra > 3 * inter

    def test_inter_arcs_oriented_low_to_high(self):
        g, labels = mixed_sbm(40, 2, p_inter=0.3, inter_directed_fraction=1.0, seed=2)
        for edge in g.edges():
            if edge.directed and labels[edge.u] != labels[edge.v]:
                assert labels[edge.u] < labels[edge.v]

    def test_probability_validation(self):
        with pytest.raises(GraphError):
            mixed_sbm(10, 2, p_intra=1.5)

    def test_more_clusters_than_nodes_rejected(self):
        with pytest.raises(GraphError):
            mixed_sbm(3, 5)

    def test_reproducible_with_seed(self):
        g1, _ = mixed_sbm(20, 2, seed=42)
        g2, _ = mixed_sbm(20, 2, seed=42)
        assert np.allclose(g1.symmetrized_adjacency(), g2.symmetrized_adjacency())


class TestCyclicFlowSBM:
    def test_intra_connections_undirected(self):
        g, labels = cyclic_flow_sbm(30, 3, seed=0)
        for edge in g.edges():
            if labels[edge.u] == labels[edge.v]:
                assert not edge.directed

    def test_inter_connections_directed(self):
        g, labels = cyclic_flow_sbm(30, 3, seed=0)
        for edge in g.edges():
            if labels[edge.u] != labels[edge.v]:
                assert edge.directed

    def test_nonadjacent_clusters_disconnected(self):
        g, labels = cyclic_flow_sbm(40, 4, seed=1)
        for edge in g.edges():
            cu, cv = labels[edge.u], labels[edge.v]
            if cu != cv:
                assert (cu + 1) % 4 == cv or (cv + 1) % 4 == cu

    def test_direction_strength_one_gives_pure_flow(self):
        g, labels = cyclic_flow_sbm(30, 3, direction_strength=1.0, seed=2)
        for edge in g.edges():
            if edge.directed:
                assert (labels[edge.u] + 1) % 3 == labels[edge.v]

    def test_parameter_validation(self):
        with pytest.raises(GraphError):
            cyclic_flow_sbm(10, 1)
        with pytest.raises(GraphError):
            cyclic_flow_sbm(10, 2, density=0.0)
        with pytest.raises(GraphError):
            cyclic_flow_sbm(10, 2, direction_strength=1.2)


class TestEnsureConnected:
    def test_connects_disconnected_graph(self):
        g = MixedGraph(6)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_edge(4, 5)
        ensure_connected(g, seed=0)
        assert g.is_weakly_connected()

    def test_leaves_connected_graph_untouched(self):
        g = MixedGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        before = g.num_edges
        ensure_connected(g, seed=0)
        assert g.num_edges == before


class TestNetlist:
    def test_synthetic_structure(self):
        nl = synthetic_netlist(3, 10, seed=0)
        assert nl.num_gates > 30
        labels = nl.module_labels()
        assert set(labels) == {0, 1, 2}

    def test_validation_catches_undriven_net(self):
        nl = Netlist("bad", [Gate("g1", "AND", ("missing",))])
        with pytest.raises(GraphError):
            nl.validate()

    def test_duplicate_gate_names_rejected(self):
        with pytest.raises(GraphError):
            Netlist("dup", [Gate("a", "INPUT"), Gate("a", "INPUT")])

    def test_to_mixed_graph_signal_arcs(self):
        nl = Netlist(
            "tiny",
            [
                Gate("i0", "INPUT"),
                Gate("g0", "NOT", ("i0",)),
                Gate("g1", "AND", ("i0", "g0")),
            ],
        )
        g = nl.to_mixed_graph()
        assert g.num_nodes == 3
        assert g.has_arc(0, 1)  # i0 -> g0
        assert g.has_arc(1, 2)  # g0 -> g1

    def test_dff_fanin_is_undirected(self):
        nl = Netlist(
            "ff",
            [Gate("i0", "INPUT"), Gate("q", "DFF", ("i0",))],
        )
        g = nl.to_mixed_graph()
        assert g.has_edge(0, 1)
        assert g.num_arcs == 0

    def test_exclude_inputs(self):
        nl = synthetic_netlist(2, 8, seed=1)
        with_inputs = nl.to_mixed_graph(include_inputs=True)
        without = nl.to_mixed_graph(include_inputs=False)
        assert without.num_nodes < with_inputs.num_nodes

    def test_module_labels_align_with_graph(self):
        nl = synthetic_netlist(2, 8, seed=2)
        g = nl.to_mixed_graph()
        labels = nl.module_labels()
        assert labels.size == g.num_nodes

    def test_missing_labels_raise(self):
        nl = Netlist("x", [Gate("a", "INPUT")])
        with pytest.raises(GraphError):
            nl.module_labels()

    def test_unknown_gate_type_rejected(self):
        with pytest.raises(GraphError):
            Gate("a", "FROB")


class TestBenchParser:
    def test_c17_loads(self):
        nl = load_c17()
        assert nl.num_gates == 11  # 5 inputs + 6 NANDs
        g = nl.to_mixed_graph()
        assert g.num_nodes == 11
        assert g.num_arcs == 12

    def test_roundtrip_through_text(self):
        nl = load_c17()
        text = write_bench(nl)
        back = parse_bench(text, name="c17rt")
        assert back.num_gates == nl.num_gates
        assert sorted(back.gate_names()) == sorted(nl.gate_names())

    def test_comments_and_blank_lines_ignored(self):
        nl = parse_bench("# hi\n\nINPUT(a)\nb = NOT(a)\n")
        assert nl.num_gates == 2

    def test_unknown_gate_type(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nb = FROB(a)\n")

    def test_redefinition_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nINPUT(a)\n")

    def test_undriven_output_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("OUTPUT(zz)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ParseError):
            parse_bench("INPUT(a)\nthis is not bench\n")

    def test_undriven_input_net_rejected(self):
        with pytest.raises(GraphError):
            parse_bench("b = NOT(a)\n")


class TestS27:
    def test_s27_loads_and_validates(self):
        netlist = load_s27()
        netlist.validate()
        assert netlist.num_gates == 17

    def test_s27_has_sequential_elements(self):
        graph = load_s27().to_mixed_graph(net_cliques=False)
        # three DFFs -> three undirected fan-in couplings
        assert graph.num_edges == 3
        assert graph.num_arcs > 10

    def test_s27_roundtrip(self):
        netlist = load_s27()
        back = parse_bench(write_bench(netlist), name="s27rt")
        assert sorted(back.gate_names()) == sorted(netlist.gate_names())


class TestGraphIO:
    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip(self, seed):
        g = random_mixed_graph(
            10, 0.4, directed_fraction=0.5, weight_range=(0.5, 2.0), seed=seed
        )
        back = graph_io.loads(graph_io.dumps(g))
        assert back.num_nodes == g.num_nodes
        assert back.num_edges == g.num_edges
        assert back.num_arcs == g.num_arcs
        assert np.allclose(back.symmetrized_adjacency(), g.symmetrized_adjacency())

    def test_file_roundtrip(self, tmp_path):
        g = random_mixed_graph(8, 0.5, seed=0)
        path = tmp_path / "g.mixed"
        graph_io.save(g, path)
        back = graph_io.load(path)
        assert back.num_nodes == 8

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            graph_io.loads("e 0 1\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(ParseError):
            graph_io.loads("n 2\nn 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError):
            graph_io.loads("n 2\ne zero one\n")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParseError):
            graph_io.loads("n 2\nq 0 1\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            graph_io.loads("# nothing\n")
