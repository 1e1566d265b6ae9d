"""QPE engines: the quantum eigenvalue-filtering machinery.

Both backends implement the same three-operation contract against a padded
Hermitian Laplacian:

* ``eigenvalue_histogram(shots, rng)`` — sampled QPE readout counts with the
  maximally mixed node register as input (each shot starts from a uniformly
  random node basis state), so every Laplacian eigenvector contributes equal
  expected mass: the k lowest eigenvalues own the first ≈ k/n of the
  histogram, which is what threshold selection relies on.
* ``project_rows(nodes, accepted)`` — the batched eigenvalue filter: the
  normalized filtered states Π_A |e_i> (A = accepted readout set) and their
  true acceptance probabilities for a whole block of rows at once.  This is
  the hot path the readout pipeline (:mod:`repro.core.readout`) drives;
  ``project_row`` is the single-row reference form.
* ``lambda_scale`` — the eigenvalue-to-phase scaling, φ = λ / λ_scale.

``CircuitQPEBackend`` realises the filter at gate level: run the QPE
circuit, zero the amplitudes of rejected ancilla readouts (the projective
measurement amplitude amplification post-selects on), and run the inverse
QPE circuit to uncompute the ancillas.  Its batched path runs every gate on
a *matrix* of basis columns instead of one statevector per node, and caches
the forward QPE application of all basis inputs when the table fits in
memory, so the forward circuit is simulated once per fit rather than once
per node.  ``AnalyticQPEBackend`` computes the identical statistics from
the eigendecomposition and the closed-form QPE response kernel — same
output distribution, no 2^(m+p) state.  Their agreement is
property-tested.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ClusteringError
from repro.store import get_store
from repro.linalg import is_sparse_matrix, to_dense_array
from repro.quantum.hamiltonian import (
    SpectralDecomposition,
    trotter_evolution,
)
from repro.quantum.phase_estimation import (
    qpe_circuit,
    qpe_outcome_distributions,
)
from repro.quantum.statevector import Statevector
from repro.utils.linalg import next_power_of_two

# Padded diagonal entries sit at the very top of the normalized spectrum so
# the low-eigenvalue filter always rejects them.
PAD_EIGENVALUE = 2.0
# Eigenphases must stay strictly below 1; the scale leaves a small guard band
# above the spectral bound 2 of the symmetric normalized Laplacian.
LAMBDA_SCALE = 2.125
# Batched circuit passes process this many basis columns at a time unless a
# chunk size is configured; bounds peak memory at columns · 2^(p+m) amplitudes.
DEFAULT_MAX_BATCH_COLUMNS = 64
# Cache the joint forward table (2^p · dim · n complex entries) only below
# this size (~64 MiB); larger tables are recomputed chunk by chunk per pass.
FORWARD_TABLE_CACHE_MAX_ENTRIES = 1 << 22


def laplacian_fingerprint(laplacian: np.ndarray) -> str:
    """Content key of a dense Laplacian: hash of its shape, dtype and bytes.

    Two Laplacians share a fingerprint iff they are entry-for-entry
    identical, so any change to the underlying graph (an edge, a weight, a
    different θ or normalization) produces a different key and can never be
    served stale spectral data.  Hashing costs O(n²) — negligible next to
    the O(n³) eigendecomposition it stands in for.
    """
    laplacian = np.ascontiguousarray(laplacian)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(laplacian.shape).encode())
    digest.update(str(laplacian.dtype).encode())
    digest.update(laplacian.tobytes())
    return digest.hexdigest()


#: Store namespace of the spectral entries (eigendecompositions, kernels).
SPECTRAL_NAMESPACE = "spectral"

# The spectral cache is the ``"spectral"`` namespace of the process-wide
# content store.  Keys are Laplacian content (plus the ancilla count for
# kernels), so sweep points that vary only shots or threshold reuse both
# products and a precision change rebuilds only the kernel.  Served arrays
# are read-only and shared between backend instances; hit or miss, they
# are bit-identical (golden-pinned in ``tests/store/``).


def cached_decomposition(
    fingerprint: str, padded: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cached eigendecomposition ``(eigenvalues, eigenvectors)`` of ``padded``.

    ``fingerprint`` is :func:`laplacian_fingerprint` of ``padded``, which
    may be ``None`` on a guaranteed hit (the caller already holds the
    fingerprint from an earlier call this process).
    """

    def build():
        if padded is None:
            raise ClusteringError("spectral cache miss with no matrix to decompose")
        decomposition = SpectralDecomposition.of(padded)
        return {
            "eigenvalues": decomposition.eigenvalues,
            "eigenvectors": decomposition.eigenvectors,
        }

    payload = get_store().get_or_create(
        SPECTRAL_NAMESPACE, f"decomposition@{fingerprint}", build
    )
    return payload["eigenvalues"], payload["eigenvectors"]


def cached_kernel(
    fingerprint: str, precision_bits: int, phases: np.ndarray
) -> np.ndarray:
    """Cached QPE response kernel ``kernel[j, y] = Pr[readout y | eigvec j]``.

    Keyed by (Laplacian content, ancilla count): changing
    ``precision_bits`` reuses the decomposition and rebuilds only this
    kernel.  A miss computes the full (eigenvalues × outcomes) matrix in
    one :func:`~repro.quantum.phase_estimation.qpe_outcome_distributions`
    broadcast pass.
    """

    def build():
        return {"kernel": qpe_outcome_distributions(phases, precision_bits)}

    payload = get_store().get_or_create(
        SPECTRAL_NAMESPACE, f"kernel@{fingerprint}@p{int(precision_bits)}", build
    )
    return payload["kernel"]


def spectral_cache_stats() -> dict:
    """Counters of the spectral cache: hits, misses, evictions, entries, bytes.

    ``hits`` merges memory- and disk-tier hits; ``evictions`` counts
    memory-tier evictions (disk evictions appear in the store's own
    stats); ``entries``/``bytes`` describe the memory tier only.
    """
    stats = get_store().namespace_stats(SPECTRAL_NAMESPACE)
    return {
        "hits": stats["memory_hits"] + stats["disk_hits"],
        "misses": stats["misses"],
        "evictions": stats["memory_evictions"],
        "entries": stats["entries"],
        "bytes": stats["bytes"],
    }


def clear_spectral_cache() -> None:
    """Drop the store's memory tier and reset its counters.

    Disk-tier entries survive — clearing simulates a fresh worker
    process, which then serves repeat Laplacians as disk hits.
    """
    get_store().clear_memory()


def pad_laplacian(laplacian):
    """Embed an n × n Laplacian into the next power-of-two dimension.

    Padded rows are decoupled (block diagonal) with eigenvalue
    :data:`PAD_EIGENVALUE`, i.e. top-of-spectrum — they can never leak into
    the low-eigenvalue cluster subspace.

    Accepts either representation: a dense array pads into a dense array
    (vectorized diagonal fill), a ``scipy.sparse`` matrix pads into CSR
    without densifying.
    """
    if is_sparse_matrix(laplacian):
        import scipy.sparse as sparse

        n = laplacian.shape[0]
        dim = next_power_of_two(max(n, 2))
        if dim == n:
            return laplacian.tocsr(copy=True).astype(complex)
        pad_block = sparse.identity(dim - n, dtype=complex) * PAD_EIGENVALUE
        return sparse.block_diag((laplacian.astype(complex), pad_block), format="csr")
    laplacian = np.asarray(laplacian, dtype=complex)
    n = laplacian.shape[0]
    dim = next_power_of_two(max(n, 2))
    if dim == n:
        return laplacian.copy()
    padded = np.zeros((dim, dim), dtype=complex)
    padded[:n, :n] = laplacian
    tail = np.arange(n, dim)
    padded[tail, tail] = PAD_EIGENVALUE
    return padded


class AnalyticQPEBackend:
    """Closed-form QPE statistics from the eigendecomposition.

    Parameters
    ----------
    laplacian:
        The (unpadded) Hermitian Laplacian of the graph — dense ndarray or
        ``scipy.sparse`` matrix (adapted through the ``repro.linalg``
        densify adapter: the spectral decomposition below is inherently
        dense, so sparse input costs one conversion).
    precision_bits:
        QPE ancilla bits p.

    Notes
    -----
    The eigendecomposition here plays the role of the quantum computer,
    not of a classical shortcut: every quantity exposed is exactly the
    measurement statistics the circuit backend produces, and nothing else
    (cross-validated in tests/core/test_qpe_engine.py).

    Both the eigendecomposition and the QPE response kernel are served
    from the spectral cache (:func:`cached_decomposition`,
    :func:`cached_kernel`), keyed by Laplacian content — constructing
    a second backend for the same Laplacian (a sweep point that varies
    only shots or threshold, or a diagnostics pass after a fit) skips the
    O(n³) eigensolve and, at equal ``precision_bits``, the kernel build.
    The cached arrays are shared read-only; hit or miss, outputs are
    bit-identical.
    """

    name = "analytic"

    def __init__(self, laplacian, precision_bits: int):
        if precision_bits < 1:
            raise ClusteringError(f"precision_bits must be >= 1, got {precision_bits}")
        # read-only below (pad_laplacian copies), so skip the defensive copy
        laplacian = to_dense_array(laplacian, dtype=complex, copy=False)
        self.num_nodes = laplacian.shape[0]
        self.precision_bits = precision_bits
        self.lambda_scale = LAMBDA_SCALE
        padded = pad_laplacian(laplacian)
        self.dim = padded.shape[0]
        fingerprint = laplacian_fingerprint(padded)
        self._eigenvalues, self._eigenvectors = cached_decomposition(
            fingerprint, padded
        )
        phases = self._eigenvalues / self.lambda_scale
        if phases.max() >= 1.0 or phases.min() < -1e-9:
            raise ClusteringError(
                "Laplacian spectrum exceeds the QPE phase window; use the "
                "symmetric normalization"
            )
        # kernel[j, y] = Pr[readout y | eigenvector j]
        self._kernel = cached_kernel(fingerprint, precision_bits, phases)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The padded Laplacian spectrum (read-only copy, ascending)."""
        return self._eigenvalues.copy()

    def component_acceptance(self, accepted: np.ndarray) -> np.ndarray:
        """q_j = probability that eigencomponent j passes the readout filter.

        This is the per-eigenvector attenuation of the eigenvalue filter;
        experiments use it to quantify bulk leakage versus precision.
        """
        accepted = np.asarray(accepted, dtype=int)
        return self._kernel[:, accepted].sum(axis=1)

    def quantization_errors(self) -> np.ndarray:
        """|λ̂_j − λ_j| where λ̂_j is the modal QPE readout of component j."""
        modal_bins = self._kernel.argmax(axis=1)
        estimates = modal_bins / 2**self.precision_bits * self.lambda_scale
        return np.abs(estimates - self._eigenvalues)

    def node_outcome_distribution(self, node: int) -> np.ndarray:
        """Exact QPE readout distribution when the input is |e_node>."""
        if not 0 <= node < self.num_nodes:
            raise ClusteringError(f"node {node} out of range")
        weights = np.abs(self._eigenvectors[node, :]) ** 2
        return weights @ self._kernel

    def eigenvalue_histogram(self, shots: int, rng) -> np.ndarray:
        """Sampled readout histogram with maximally mixed node input.

        Parameters
        ----------
        shots:
            Number of QPE executions to sample (must be >= 1).
        rng:
            :class:`numpy.random.Generator` supplying the multinomial draw.

        Returns
        -------
        numpy.ndarray
            Length-``2**precision_bits`` float vector of readout counts,
            summing to ``shots``; entry ``y`` counts readouts of the
            eigenvalue bin ``y / 2**precision_bits * lambda_scale``.

        Notes
        -----
        The mixture over nodes collapses to a single matvec: the weight of
        eigencomponent j is Σ_{i<n} |V[i, j]|², so the loop over per-node
        distributions is replaced by one ``weights @ kernel`` product.
        """
        if shots < 1:
            raise ClusteringError(f"shots must be >= 1, got {shots}")
        weights = (np.abs(self._eigenvectors[: self.num_nodes, :]) ** 2).sum(axis=0)
        mixture = (weights @ self._kernel) / self.num_nodes
        return rng.multinomial(shots, mixture).astype(float)

    def project_rows(
        self, nodes, accepted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched eigenvalue filter: all requested rows in one matmul.

        Parameters
        ----------
        nodes:
            Integer array-like of ``K`` node indices in ``[0, num_nodes)``
            (any order, duplicates allowed).
        accepted:
            Integer array of accepted QPE readout outcomes in
            ``[0, 2**precision_bits)`` — the filter set A.

        Returns
        -------
        (states, probabilities):
            ``states`` is a ``(K, dim)`` complex matrix whose row ``i`` is
            the *normalized* filtered state Π_A|e_{nodes[i]}> (all zeros
            when the row has no mass in the subspace); ``probabilities``
            is the matching ``(K,)`` float vector of exact acceptance
            probabilities ``||Π_A e_{nodes[i]}||²`` (0 for dead rows).

        Notes
        -----
        Replaces the per-row :meth:`project_row` loop in the pipeline hot
        path — one (K × dim) @ (dim × dim) product instead of K matvecs.
        """
        nodes = np.asarray(nodes, dtype=int)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ClusteringError("node index out of range")
        accepted = np.asarray(accepted, dtype=int)
        acceptance = self._kernel[:, accepted].sum(axis=1)
        # coefficient matrix C[i, j] = conj(V[node_i, j]) * sqrt(q_j)
        coefficients = (
            self._eigenvectors[nodes, :].conj() * np.sqrt(acceptance)[None, :]
        )
        probabilities = np.sum(np.abs(coefficients) ** 2, axis=1)
        filtered = coefficients @ self._eigenvectors.T
        norms = np.linalg.norm(filtered, axis=1)
        alive = probabilities >= 1e-15
        filtered[~alive] = 0.0
        probabilities = np.where(alive, probabilities, 0.0)
        safe = np.where(alive, norms, 1.0)
        return filtered / safe[:, None], probabilities

    def project_row(
        self, node: int, accepted: np.ndarray, rng=None
    ) -> tuple[np.ndarray, float]:
        """Filtered state Π_A|e_node> (normalized, length ``dim``) and its
        acceptance probability — the single-row form of
        :meth:`project_rows`.

        Each eigencomponent j survives the readout filter with amplitude
        sqrt(q_j), q_j = Σ_{y∈A} kernel[j, y] — the coherent attenuation
        amplitude amplification applies after post-selection.
        """
        if not 0 <= node < self.num_nodes:
            raise ClusteringError(f"node {node} out of range")
        states, probabilities = self.project_rows([node], accepted)
        return states[0], float(probabilities[0])


class CircuitQPEBackend:
    """Gate-level QPE filtering on the statevector simulator.

    Parameters
    ----------
    laplacian:
        The (unpadded) Hermitian Laplacian.
    precision_bits:
        QPE ancilla bits p.
    evolution:
        ``"exact"`` for the eigendecomposed exponential (oracle
        substitution), ``"trotter"`` for a product-formula unitary.
    trotter_steps / trotter_order:
        Product-formula parameters.
    max_batch_columns:
        Basis columns simulated per batched circuit pass (``None`` uses
        :data:`DEFAULT_MAX_BATCH_COLUMNS`).  Peak memory per pass is
        ``max_batch_columns · 2^(p+m)`` complex amplitudes.

    Notes
    -----
    Memory is O(2^(m+p)) per simulated column; keep n·2^p below ~2^20.
    The forward QPE application of every basis input is computed in one
    batched pass (and cached when the joint table stays below
    :data:`FORWARD_TABLE_CACHE_MAX_ENTRIES` complex entries), so the
    eigenvalue histogram and the row filter never re-simulate the forward
    circuit node by node.
    """

    name = "circuit"

    def __init__(
        self,
        laplacian,
        precision_bits: int,
        evolution: str = "exact",
        trotter_steps: int = 4,
        trotter_order: int = 2,
        max_batch_columns: int | None = None,
    ):
        if precision_bits < 1:
            raise ClusteringError(f"precision_bits must be >= 1, got {precision_bits}")
        if max_batch_columns is None:
            max_batch_columns = DEFAULT_MAX_BATCH_COLUMNS
        if max_batch_columns < 1:
            raise ClusteringError(
                f"max_batch_columns must be >= 1, got {max_batch_columns}"
            )
        # read-only below (pad_laplacian copies), so skip the defensive copy
        laplacian = to_dense_array(laplacian, dtype=complex, copy=False)
        self.num_nodes = laplacian.shape[0]
        self.precision_bits = precision_bits
        self.lambda_scale = LAMBDA_SCALE
        self.max_batch_columns = int(max_batch_columns)
        padded = pad_laplacian(laplacian)
        self.dim = padded.shape[0]
        time = 2.0 * np.pi / self.lambda_scale
        if evolution == "exact":
            # The exact evolution only needs the spectrum, so it shares the
            # content-keyed decomposition cache with the analytic backend.
            eigenvalues, eigenvectors = cached_decomposition(
                laplacian_fingerprint(padded), padded
            )
            unitary = SpectralDecomposition(
                eigenvalues=eigenvalues, eigenvectors=eigenvectors
            ).evolution(time)
        elif evolution == "trotter":
            unitary = trotter_evolution(
                padded, time, steps=trotter_steps, order=trotter_order
            )
        else:
            raise ClusteringError(f"unknown evolution {evolution!r}")
        self._circuit = qpe_circuit(unitary, precision_bits)
        self._inverse_circuit = self._circuit.inverse()
        self._forward_table: np.ndarray | None = None
        self._outcome_table: np.ndarray | None = None

    def _run_forward(self, input_state: np.ndarray) -> np.ndarray:
        total_dim = 2**self._circuit.num_qubits
        joint = np.zeros(total_dim, dtype=complex)
        joint[: self.dim] = input_state
        return self._circuit.run(Statevector(joint)).amplitudes

    # -- batched circuit execution ----------------------------------------

    def _apply_columns(self, circuit, columns: np.ndarray) -> np.ndarray:
        """Apply ``circuit`` to many joint statevectors at once.

        ``columns`` is a ``(2**num_qubits, K)`` complex matrix whose
        columns are independent input states; the result has the same
        shape.  Each gate contracts against all K columns in a single
        matmul — the batch axis rides along as a trailing tensor axis, so
        per-column results match single-statevector simulation.
        """
        num_qubits = circuit.num_qubits
        count = columns.shape[1]
        tensor = np.ascontiguousarray(columns, dtype=complex).reshape(
            (2,) * num_qubits + (count,)
        )
        for op in circuit.operations:
            matrix = op.resolve_matrix()
            k = len(op.qubits)
            moved = np.moveaxis(tensor, op.qubits, range(k))
            shape = moved.shape
            contracted = matrix @ moved.reshape(2**k, -1)
            tensor = np.moveaxis(contracted.reshape(shape), range(k), op.qubits)
        return np.ascontiguousarray(tensor).reshape(2**num_qubits, count)

    def _forward_columns(self, nodes: np.ndarray) -> np.ndarray:
        """Forward QPE joint states for basis inputs |e_i>, i ∈ ``nodes``.

        Returns a ``(2^p, dim, K)`` array: slab ``[..., j]`` is the joint
        (ancilla, system) amplitude table after the forward circuit on
        basis input ``nodes[j]``.  Computed ``max_batch_columns`` at a
        time to bound memory.
        """
        total_dim = 2**self._circuit.num_qubits
        out = np.empty((2**self.precision_bits, self.dim, nodes.size), dtype=complex)
        flat = out.reshape(total_dim, nodes.size)
        for start in range(0, nodes.size, self.max_batch_columns):
            block = nodes[start : start + self.max_batch_columns]
            columns = np.zeros((total_dim, block.size), dtype=complex)
            columns[block, np.arange(block.size)] = 1.0
            flat[:, start : start + block.size] = self._apply_columns(
                self._circuit, columns
            )
        return out

    def _table_cacheable(self) -> bool:
        """Whether the full-basis forward table fits the memory budget."""
        entries = (2**self.precision_bits) * self.dim * self.dim
        return entries <= FORWARD_TABLE_CACHE_MAX_ENTRIES

    def _basis_forward(self, nodes: np.ndarray) -> np.ndarray:
        """Forward table slabs for ``nodes``, served from the cache when the
        full table fits :data:`FORWARD_TABLE_CACHE_MAX_ENTRIES`.

        The cached table covers *all* ``dim`` basis inputs (padded inputs
        included) so it doubles as U restricted to the input block.  The
        returned ``(2^p, dim, K)`` array is always a fresh copy the caller
        may mutate.
        """
        if self._table_cacheable():
            if self._forward_table is None:
                self._forward_table = self._forward_columns(np.arange(self.dim))
            return self._forward_table[:, :, nodes].copy()
        return self._forward_columns(nodes)

    def _uncompute_blocks(self, masked: np.ndarray) -> np.ndarray:
        """Ancilla-|0...0> output block of U† applied to ``masked`` columns.

        ``masked`` is ``(2^p · dim, K)``; the result is ``(dim, K)``.  Rows
        ``0..dim`` of U† are F† for F = U[:, 0..dim] (the forward basis
        table), so when the table is cached this is a single matmul; the
        uncached fallback simulates the inverse circuit gate by gate.
        """
        if self._table_cacheable():
            if self._forward_table is None:
                self._forward_table = self._forward_columns(np.arange(self.dim))
            flat = self._forward_table.reshape(
                (2**self.precision_bits) * self.dim, self.dim
            )
            return flat.conj().T @ masked
        uncomputed = self._apply_columns(self._inverse_circuit, masked)
        return uncomputed.reshape(2**self.precision_bits, self.dim, masked.shape[1])[0]

    def _node_outcome_table(self) -> np.ndarray:
        """``(num_nodes, 2^p)`` exact readout distributions, one row per
        basis input; built once from the batched forward pass."""
        if self._outcome_table is None:
            if self._table_cacheable():
                if self._forward_table is None:
                    self._forward_table = self._forward_columns(np.arange(self.dim))
                # straight off the cached table — no slab copies
                slabs = self._forward_table[:, :, : self.num_nodes]
                self._outcome_table = (np.abs(slabs) ** 2).sum(axis=1).T
            else:
                table = np.empty((self.num_nodes, 2**self.precision_bits))
                for start in range(0, self.num_nodes, self.max_batch_columns):
                    block = np.arange(
                        start,
                        min(start + self.max_batch_columns, self.num_nodes),
                    )
                    joint = self._forward_columns(block)
                    table[block] = (np.abs(joint) ** 2).sum(axis=1).T
                self._outcome_table = table
        return self._outcome_table

    def node_outcome_distribution(self, node: int) -> np.ndarray:
        """Exact QPE readout distribution when the input is |e_node>."""
        if not 0 <= node < self.num_nodes:
            raise ClusteringError(f"node {node} out of range")
        return self._node_outcome_table()[node].copy()

    def eigenvalue_histogram(self, shots: int, rng) -> np.ndarray:
        """Sampled readout histogram with maximally mixed node input.

        Parameters
        ----------
        shots:
            Number of QPE executions to sample (must be >= 1).
        rng:
            :class:`numpy.random.Generator` supplying the multinomial draw.

        Returns
        -------
        numpy.ndarray
            Length-``2**precision_bits`` float vector of readout counts
            summing to ``shots`` — same contract as the analytic backend.

        Notes
        -----
        Uses the cached batched forward pass, so the circuit is not
        re-simulated per node.
        """
        if shots < 1:
            raise ClusteringError(f"shots must be >= 1, got {shots}")
        mixture = self._node_outcome_table().sum(axis=0) / self.num_nodes
        return rng.multinomial(shots, mixture).astype(float)

    def project_row(
        self, node: int, accepted: np.ndarray, rng=None
    ) -> tuple[np.ndarray, float]:
        """Gate-level eigenvalue filter: QPE → readout projector → QPE†.

        Single-row reference implementation: simulates the forward and
        inverse circuits on one statevector, bypassing the batched path
        and its cache (:meth:`project_rows` is what the pipeline uses).
        Returns the normalized length-``dim`` filtered state and its
        acceptance probability.

        The ancilla register is uncomputed by the inverse circuit; the
        system block with ancilla = |0...0> carries the filtered state
        (residual amplitude on other ancilla values is QPE leakage and is
        discarded by the final post-selection, exactly as on hardware).
        """
        if not 0 <= node < self.num_nodes:
            raise ClusteringError(f"node {node} out of range")
        accepted = np.asarray(accepted, dtype=int)
        basis = np.zeros(self.dim, dtype=complex)
        basis[node] = 1.0
        joint = self._run_forward(basis)
        table = joint.reshape(2**self.precision_bits, self.dim)
        mask = np.zeros(2**self.precision_bits, dtype=bool)
        mask[accepted] = True
        table[~mask, :] = 0.0
        accept_probability = float(np.sum(np.abs(table) ** 2))
        if accept_probability < 1e-15:
            return np.zeros(self.dim, dtype=complex), 0.0
        normalized = table.ravel() / np.sqrt(accept_probability)
        uncomputed = self._inverse_circuit.run(Statevector(normalized)).amplitudes
        system_block = uncomputed.reshape(2**self.precision_bits, self.dim)[0]
        block_mass = float(np.sum(np.abs(system_block) ** 2))
        probability = accept_probability * block_mass
        if probability < 1e-15:
            return np.zeros(self.dim, dtype=complex), 0.0
        return system_block / np.sqrt(block_mass), probability

    def project_rows(
        self, nodes, accepted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched gate-level eigenvalue filter.

        Parameters
        ----------
        nodes:
            Integer array-like of ``K`` node indices in ``[0, num_nodes)``.
        accepted:
            Integer array of accepted QPE readouts in
            ``[0, 2**precision_bits)``.

        Returns
        -------
        (states, probabilities):
            ``(K, dim)`` complex matrix of normalized filtered states
            (zero rows where no amplitude survived) and the matching
            ``(K,)`` acceptance probabilities — the same contract as
            :meth:`AnalyticQPEBackend.project_rows`.

        Notes
        -----
        Runs forward QPE on all basis columns of a block at once (served
        from the forward-table cache when available) and masks rejected
        readouts.  The uncompute-and-postselect step needs only the
        ancilla-|0...0> output block of the inverse circuit, and rows
        ``0..dim`` of U† are exactly the conjugate transpose of the
        forward basis table F = U[:, 0..dim] — so the inverse circuit
        collapses to one ``F† @ (masked columns)`` matmul against the same
        cached table, instead of K more full statevector simulations.
        Blocks are ``max_batch_columns`` wide so memory stays bounded.
        """
        nodes = np.asarray(nodes, dtype=int)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ClusteringError("node index out of range")
        accepted = np.asarray(accepted, dtype=int)
        size = 2**self.precision_bits
        mask = np.zeros(size, dtype=bool)
        mask[accepted] = True
        states = np.zeros((nodes.size, self.dim), dtype=complex)
        probabilities = np.zeros(nodes.size)
        for start in range(0, nodes.size, self.max_batch_columns):
            stop = min(start + self.max_batch_columns, nodes.size)
            table = self._basis_forward(nodes[start:stop])
            table[~mask, :, :] = 0.0
            acceptance = np.sum(np.abs(table) ** 2, axis=(0, 1))
            alive = acceptance >= 1e-15
            safe_acceptance = np.where(alive, acceptance, 1.0)
            masked = (table / np.sqrt(safe_acceptance)).reshape(
                size * self.dim, stop - start
            )
            blocks = self._uncompute_blocks(masked)
            block_mass = np.sum(np.abs(blocks) ** 2, axis=0)
            probability = acceptance * block_mass
            live = alive & (probability >= 1e-15)
            safe_mass = np.where(live, block_mass, 1.0)
            block_states = (blocks / np.sqrt(safe_mass)).T
            block_states[~live] = 0.0
            states[start:stop] = block_states
            probabilities[start:stop] = np.where(live, probability, 0.0)
        return states, probabilities


def make_backend(laplacian, config) -> object:
    """Instantiate the QPE backend requested by a :class:`QSCConfig`.

    Parameters
    ----------
    laplacian:
        The (unpadded) n × n Hermitian Laplacian — dense ndarray or
        ``scipy.sparse`` matrix; both backends densify internally and pad
        to the next power-of-two dimension.
    config:
        A :class:`repro.core.config.QSCConfig`; ``config.backend`` picks
        ``"analytic"`` or ``"circuit"``, ``config.precision_bits`` sets the
        ancilla count, the ``evolution`` / ``trotter_*`` fields configure
        the circuit backend's Hamiltonian simulation, and
        ``config.readout_chunk_size`` (when set) can lower — never raise —
        the circuit backend's batched-pass width.

    Returns
    -------
    :class:`AnalyticQPEBackend` or :class:`CircuitQPEBackend` — both
    expose ``num_nodes``, ``dim``, ``lambda_scale``,
    ``eigenvalue_histogram``, ``project_rows`` / ``project_row`` and
    ``node_outcome_distribution`` with identical shape contracts.
    """
    if config.backend == "analytic":
        return AnalyticQPEBackend(laplacian, config.precision_bits)
    if config.readout_chunk_size is None:
        max_batch_columns = None
    else:
        # readout_chunk_size is a memory *bound*: it may shrink the
        # batched circuit passes but must never widen them beyond the
        # default, or a large readout chunk would inflate the very memory
        # it is meant to cap.
        max_batch_columns = min(config.readout_chunk_size, DEFAULT_MAX_BATCH_COLUMNS)
    return CircuitQPEBackend(
        laplacian,
        config.precision_bits,
        evolution=config.evolution,
        trotter_steps=config.trotter_steps,
        trotter_order=config.trotter_order,
        max_batch_columns=max_batch_columns,
    )
