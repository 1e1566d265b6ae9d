"""The :class:`MixedGraph` container.

A mixed graph has a set of nodes, *undirected* weighted edges, and
*directed* weighted arcs.  It is the single input type of every clustering
algorithm in this library.  Nodes are integers 0..n−1; labels can be
attached for netlist provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError
from repro.linalg import resolve_backend

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Edge:
    """One weighted connection; ``directed`` distinguishes arcs from edges."""

    u: int
    v: int
    weight: float = 1.0
    directed: bool = False

    def __post_init__(self):
        if self.u == self.v:
            raise GraphError(f"self-loop on node {self.u} is not allowed")
        if not 0 < self.weight < np.inf:
            raise GraphError(
                f"edge weight must be positive and finite, got {self.weight}"
            )


class MixedGraph:
    """A graph with both undirected edges and directed arcs.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are the integers ``0..num_nodes-1``.
    node_labels:
        Optional human-readable labels (e.g. gate names from a netlist).

    Examples
    --------
    >>> g = MixedGraph(3)
    >>> g.add_edge(0, 1)            # undirected
    >>> g.add_arc(1, 2, weight=2.0) # directed 1 -> 2
    >>> g.num_edges, g.num_arcs
    (1, 1)
    """

    def __init__(self, num_nodes: int, node_labels=None):
        if num_nodes < 1:
            raise GraphError(f"graph needs at least one node, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._undirected: dict[tuple[int, int], float] = {}
        self._directed: dict[tuple[int, int], float] = {}
        if node_labels is not None:
            node_labels = list(node_labels)
            if len(node_labels) != num_nodes:
                raise GraphError(
                    f"{len(node_labels)} labels supplied for {num_nodes} nodes"
                )
        self._node_labels = node_labels

    # -- construction --------------------------------------------------------

    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self._num_nodes} nodes"
            )
        return node

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or overwrite) an undirected edge {u, v}."""
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        if not 0 < weight < np.inf:
            raise GraphError(f"edge weight must be positive and finite, got {weight}")
        key = (min(u, v), max(u, v))
        if (u, v) in self._directed or (v, u) in self._directed:
            raise GraphError(f"nodes {u},{v} already share an arc; remove it first")
        self._undirected[key] = float(weight)

    def add_arc(self, source: int, target: int, weight: float = 1.0) -> None:
        """Add (or overwrite) a directed arc source → target."""
        source, target = self._check_node(source), self._check_node(target)
        if source == target:
            raise GraphError(f"self-loop on node {source} is not allowed")
        if not 0 < weight < np.inf:
            raise GraphError(f"arc weight must be positive and finite, got {weight}")
        key = (min(source, target), max(source, target))
        if key in self._undirected:
            raise GraphError(
                f"nodes {source},{target} already share an undirected edge"
            )
        if (target, source) in self._directed:
            # Antiparallel arcs merge into an undirected edge by convention:
            # flow in both directions carries no net orientation signal.
            weight_back = self._directed.pop((target, source))
            self._undirected[key] = float(weight) + weight_back
            return
        self._directed[(source, target)] = float(weight)

    def add_edges(self, edges) -> None:
        """Add undirected edges from ``(u, v)`` or ``(u, v, weight)`` rows.

        The single insertion point generators and netlist conversion feed
        their accumulated edge lists through.  An ndarray of shape
        ``(m, 2)`` or ``(m, 3)`` takes a vectorized bulk path — validation
        and key construction in NumPy, one dict update — with the exact
        semantics of looping :meth:`add_edge` (later duplicates overwrite
        earlier ones, edge/arc conflicts raise); any other iterable falls
        back to that loop.
        """
        if not (
            isinstance(edges, np.ndarray)
            and edges.ndim == 2
            and edges.shape[1] in (2, 3)
        ):
            for row in edges:
                self.add_edge(*row)
            return
        if edges.shape[0] == 0:
            return
        u = edges[:, 0].astype(np.int64)
        v = edges[:, 1].astype(np.int64)
        weights = (
            edges[:, 2].astype(float)
            if edges.shape[1] == 3
            else np.ones(edges.shape[0])
        )
        self._check_bulk(u, v, weights)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = list(zip(lo.tolist(), hi.tolist()))
        directed = self._directed
        if directed:
            # O(1) dict probes per batch row — never a scan of the
            # accumulated table, so repeated block inserts stay O(edges).
            for a, b in keys:
                if (a, b) in directed or (b, a) in directed:
                    raise GraphError(
                        f"nodes {a},{b} already share an arc; remove it first"
                    )
        self._undirected.update(zip(keys, weights.tolist()))

    def add_arcs(self, arcs) -> None:
        """Add arcs from ``(source, target)`` or ``(source, target, weight)``
        rows.

        Same bulk contract as :meth:`add_edges`: ndarray input is validated
        and inserted vectorially, other iterables loop over
        :meth:`add_arc`.  Batches containing antiparallel pairs (within the
        batch or against existing arcs) fall back to the per-row loop so
        the merge-into-undirected convention is preserved.
        """
        if not (
            isinstance(arcs, np.ndarray)
            and arcs.ndim == 2
            and arcs.shape[1] in (2, 3)
        ):
            for row in arcs:
                self.add_arc(*row)
            return
        if arcs.shape[0] == 0:
            return
        source = arcs[:, 0].astype(np.int64)
        target = arcs[:, 1].astype(np.int64)
        weights = (
            arcs[:, 2].astype(float)
            if arcs.shape[1] == 3
            else np.ones(arcs.shape[0])
        )
        self._check_bulk(source, target, weights)
        pairs = list(zip(source.tolist(), target.tolist()))
        undirected = self._undirected
        if undirected:
            for s, t in pairs:
                if ((s, t) if s < t else (t, s)) in undirected:
                    raise GraphError(f"nodes {s},{t} already share an undirected edge")
        directed = self._directed
        # Within-batch antiparallel pairs are detected vectorially on
        # packed codes; cross-checks against the accumulated table are
        # O(1) dict probes per row.
        codes = self._encode(source, target)
        antiparallel = bool(np.isin(self._encode(target, source), codes).any())
        if not antiparallel and directed:
            antiparallel = any((t, s) in directed for s, t in pairs)
        if antiparallel:
            # Antiparallel pairs merge into undirected edges; the per-row
            # path implements that convention.
            for pair, weight in zip(pairs, weights.tolist()):
                self.add_arc(*pair, weight)
            return
        directed.update(zip(pairs, weights.tolist()))

    def _encode(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pack node pairs into single int64 codes for set-style lookups."""
        return a * np.int64(self._num_nodes) + b

    def _check_bulk(self, u: np.ndarray, v: np.ndarray, weights: np.ndarray):
        """Vectorized endpoint/weight validation shared by the bulk paths."""
        endpoints = np.concatenate([u, v])
        if endpoints.min() < 0 or endpoints.max() >= self._num_nodes:
            bad = endpoints[(endpoints < 0) | (endpoints >= self._num_nodes)][0]
            raise GraphError(
                f"node {bad} out of range for graph with "
                f"{self._num_nodes} nodes"
            )
        loops = u == v
        if loops.any():
            raise GraphError(f"self-loop on node {u[loops][0]} is not allowed")
        valid = np.isfinite(weights) & (weights > 0)
        if not valid.all():
            raise GraphError(
                f"edge weight must be positive and finite, got {weights[~valid][0]}"
            )

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes n."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._undirected)

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs."""
        return len(self._directed)

    @property
    def node_labels(self) -> list[str] | None:
        """Optional node labels (copied)."""
        return None if self._node_labels is None else list(self._node_labels)

    def edges(self) -> list[Edge]:
        """All connections, undirected first, in deterministic order."""
        und = [
            Edge(u, v, w, directed=False)
            for (u, v), w in sorted(self._undirected.items())
        ]
        dirs = [
            Edge(u, v, w, directed=True)
            for (u, v), w in sorted(self._directed.items())
        ]
        return und + dirs

    def edge_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized view of all connections: ``(u, v, weight, directed)``.

        Rows follow the same deterministic order as :meth:`edges`
        (undirected first, each group sorted by endpoint pair) but skip the
        per-connection :class:`Edge` object construction — this is the
        construction path the sparse Hermitian matrices are built from.
        """
        und = sorted(self._undirected.items())
        dirs = sorted(self._directed.items())
        total = len(und) + len(dirs)
        u = np.empty(total, dtype=np.int64)
        v = np.empty(total, dtype=np.int64)
        w = np.empty(total, dtype=float)
        directed = np.zeros(total, dtype=bool)
        for index, ((a, b), weight) in enumerate(und):
            u[index], v[index], w[index] = a, b, weight
        offset = len(und)
        for index, ((a, b), weight) in enumerate(dirs):
            u[offset + index], v[offset + index] = a, b
            w[offset + index] = weight
        directed[offset:] = True
        return u, v, w, directed

    def has_edge(self, u: int, v: int) -> bool:
        """True if an undirected edge joins u and v."""
        u, v = self._check_node(u), self._check_node(v)
        return (min(u, v), max(u, v)) in self._undirected

    def has_arc(self, source: int, target: int) -> bool:
        """True if the arc source → target exists."""
        return (
            self._check_node(source),
            self._check_node(target),
        ) in self._directed

    def degree(self, node: int) -> float:
        """Weighted degree counting both edges and arcs (in + out)."""
        node = self._check_node(node)
        total = 0.0
        for (u, v), w in self._undirected.items():
            if node in (u, v):
                total += w
        for (u, v), w in self._directed.items():
            if node in (u, v):
                total += w
        return total

    def degrees(self) -> np.ndarray:
        """Vector of weighted degrees for all nodes."""
        out = np.zeros(self._num_nodes)
        for (u, v), w in self._undirected.items():
            out[u] += w
            out[v] += w
        for (u, v), w in self._directed.items():
            out[u] += w
            out[v] += w
        return out

    @property
    def directed_fraction(self) -> float:
        """Share of connections that are arcs — 0 for a plain graph."""
        total = self.num_edges + self.num_arcs
        return self.num_arcs / total if total else 0.0

    # -- conversions ---------------------------------------------------------

    def symmetrized_adjacency(self, backend="dense"):
        """Real adjacency matrix ignoring direction (baseline input).

        ``backend`` follows the ``repro.linalg`` contract: ``"dense"``
        (default, plain ndarray), ``"sparse"`` (CSR), or ``"auto"``.
        """
        u, v, w, _ = self.edge_arrays()
        shape = (self._num_nodes, self._num_nodes)
        return resolve_backend(backend, self._num_nodes).from_coo(
            np.concatenate([u, v]),
            np.concatenate([v, u]),
            np.concatenate([w, w]),
            shape,
            dtype=float,
        )

    def directed_adjacency(self, backend="dense"):
        """Non-symmetric adjacency: arcs appear once, edges twice."""
        u, v, w, directed = self.edge_arrays()
        und = ~directed
        shape = (self._num_nodes, self._num_nodes)
        return resolve_backend(backend, self._num_nodes).from_coo(
            np.concatenate([u, v[und]]),
            np.concatenate([v, u[und]]),
            np.concatenate([w, w[und]]),
            shape,
            dtype=float,
        )

    def to_networkx(self) -> nx.DiGraph:
        """Export as a DiGraph; undirected edges become arc pairs tagged
        ``mixed='undirected'``."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._num_nodes))
        for (u, v), w in self._undirected.items():
            graph.add_edge(u, v, weight=w, mixed="undirected")
            graph.add_edge(v, u, weight=w, mixed="undirected")
        for (u, v), w in self._directed.items():
            graph.add_edge(u, v, weight=w, mixed="directed")
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "MixedGraph":
        """Build from a NetworkX (Di)Graph.

        In a DiGraph, antiparallel arc pairs collapse into undirected
        edges; in an undirected Graph every edge is undirected.
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        mixed = cls(len(nodes), node_labels=[str(n) for n in nodes])
        if not graph.is_directed():
            for u, v, data in graph.edges(data=True):
                if u == v:
                    continue
                mixed.add_edge(index[u], index[v], data.get("weight", 1.0))
            return mixed
        seen = set()
        for u, v, data in graph.edges(data=True):
            if u == v or (u, v) in seen:
                continue
            w = data.get("weight", 1.0)
            if graph.has_edge(v, u):
                seen.add((v, u))
                if data.get("mixed") == "undirected":
                    # Tagged by to_networkx: the pair encodes ONE undirected
                    # edge of weight w, not two independent flows.
                    mixed.add_edge(index[u], index[v], w)
                else:
                    w_back = graph[v][u].get("weight", 1.0)
                    mixed.add_edge(index[u], index[v], w + w_back)
            else:
                mixed.add_arc(index[u], index[v], w)
            seen.add((u, v))
        return mixed

    def subgraph(self, nodes) -> "MixedGraph":
        """The induced sub-mixed-graph on ``nodes`` (relabelled 0..len-1)."""
        nodes = [self._check_node(n) for n in nodes]
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate nodes in subgraph request")
        index = {node: i for i, node in enumerate(nodes)}
        labels = [self._node_labels[n] for n in nodes] if self._node_labels else None
        sub = MixedGraph(len(nodes), node_labels=labels)
        for (u, v), w in self._undirected.items():
            if u in index and v in index:
                sub.add_edge(index[u], index[v], w)
        for (u, v), w in self._directed.items():
            if u in index and v in index:
                sub.add_arc(index[u], index[v], w)
        return sub

    def is_weakly_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if self._num_nodes == 1:
            return True
        adj = self.symmetrized_adjacency() > 0
        visited = np.zeros(self._num_nodes, dtype=bool)
        stack = [0]
        visited[0] = True
        while stack:
            node = stack.pop()
            for neighbor in np.flatnonzero(adj[node]):
                if not visited[neighbor]:
                    visited[neighbor] = True
                    stack.append(int(neighbor))
        return bool(visited.all())

    def __repr__(self) -> str:
        return (
            f"MixedGraph(n={self._num_nodes}, edges={self.num_edges}, "
            f"arcs={self.num_arcs})"
        )
