"""Property tests: the array backend is observationally equivalent to dense.

The array backend holds dense device arrays of one array-API namespace
(numpy fallback, torch/CuPy when importable) behind the same
:class:`~repro.linalg.backends.LinalgBackend` contract as dense/sparse.
Equivalence here is *tolerance-based* rather than byte-exact — accelerator
FMA ordering legitimately differs in the last ulps — mirroring how
dense↔sparse equivalence is pinned in ``test_dense_sparse_equivalence``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import hermitian_laplacian, mixed_sbm
from repro.linalg import (
    ArrayBackend,
    BackendError,
    DenseBackend,
    as_backend_matrix,
    available_namespaces,
    default_namespace_name,
    get_backend,
    resolve_backend,
    resolve_namespace,
    to_dense_array,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def array_backends():
    """One ArrayBackend per importable namespace (numpy always included)."""
    return [ArrayBackend(name) for name in available_namespaces()]


class TestNamespaceResolution:
    def test_numpy_is_always_available(self):
        assert "numpy" in available_namespaces()
        assert resolve_namespace("numpy").name == "numpy"

    def test_default_namespace_heads_the_preference_order(self):
        assert default_namespace_name() == available_namespaces()[0]

    def test_unknown_namespace_is_an_error(self):
        with pytest.raises(BackendError, match="unknown array namespace"):
            resolve_namespace("tensorflow")

    def test_unavailable_namespace_is_an_error_not_a_downgrade(self):
        if "cupy" in available_namespaces():
            pytest.skip("cupy importable here; cannot test the error path")
        with pytest.raises(BackendError, match="not importable"):
            resolve_namespace("cupy")

    def test_get_backend_resolves_array(self):
        backend = get_backend("array")
        assert isinstance(backend, ArrayBackend)
        assert backend.name == "array"
        assert backend.namespace == default_namespace_name()

    def test_resolve_backend_instance_passthrough(self):
        backend = ArrayBackend("numpy")
        assert resolve_backend(backend, 5000) is backend


class TestContractEquivalence:
    """The shared backend property suite, tolerance-based vs dense."""

    def test_from_coo_sums_duplicates_identically(self):
        rows = [0, 1, 0, 2, 0]
        cols = [1, 0, 1, 2, 1]
        values = [1.0, 2.0, 0.5, 3.0, 0.25]
        dense = DenseBackend().from_coo(rows, cols, values, (3, 3), dtype=float)
        for backend in array_backends():
            device = backend.from_coo(rows, cols, values, (3, 3), dtype=float)
            assert np.allclose(backend.to_dense(device), dense, atol=1e-12)

    def test_identity_and_diagonal(self):
        for backend in array_backends():
            eye = backend.to_dense(backend.identity(4))
            assert np.allclose(eye, np.eye(4), atol=1e-12)
            diag = backend.to_dense(backend.diagonal_matrix([1.0, 2.0, 3.0]))
            assert np.allclose(diag, np.diag([1.0, 2.0, 3.0]), atol=1e-12)

    def test_row_column_scaling(self):
        matrix = random_hermitian(5, 0)
        scale = np.arange(1.0, 6.0)
        for backend in array_backends():
            native = as_backend_matrix(matrix, backend)
            scaled = backend.to_dense(
                backend.scale_columns(backend.scale_rows(native, scale), scale)
            )
            assert np.allclose(
                scaled, scale[:, None] * matrix * scale[None, :], atol=1e-10
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lowest_eigenpairs_match_dense(self, seed):
        n, k = 40, 3
        matrix = random_hermitian(n, seed)
        dense_values, dense_vectors = DenseBackend().lowest_eigenpairs(matrix, k)
        for backend in array_backends():
            values, vectors = backend.lowest_eigenpairs(
                as_backend_matrix(matrix, backend), k
            )
            assert np.allclose(values, dense_values, atol=1e-8)
            dense_proj = dense_vectors @ dense_vectors.conj().T
            proj = vectors @ vectors.conj().T
            assert np.allclose(proj, dense_proj, atol=1e-6)

    def test_round_trip_preserves_values(self):
        matrix = random_hermitian(6, 1)
        for backend in array_backends():
            native = as_backend_matrix(matrix, backend)
            assert np.allclose(to_dense_array(backend.to_dense(native)), matrix)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_laplacian_through_array_matches_dense(self, seed):
        graph, _ = mixed_sbm(16, 2, seed=seed)
        dense = hermitian_laplacian(graph, backend="dense")
        backend = ArrayBackend()
        device = hermitian_laplacian(graph, backend=backend)
        assert np.allclose(backend.to_dense(device), dense, atol=1e-10)


@pytest.mark.requires_array_api
class TestNonNumpyNamespace:
    """Runs only where torch or CuPy is importable (the CI accel leg)."""

    def non_numpy_backend(self):
        names = [n for n in available_namespaces() if n != "numpy"]
        return ArrayBackend(names[0])

    def test_dispatches_to_the_accelerated_namespace(self):
        backend = self.non_numpy_backend()
        assert backend.namespace in ("torch", "cupy")

    def test_eigenpairs_match_dense_to_tolerance(self):
        matrix = random_hermitian(32, 7)
        backend = self.non_numpy_backend()
        dense_values, _ = DenseBackend().lowest_eigenpairs(matrix, 4)
        values, _ = backend.lowest_eigenpairs(
            as_backend_matrix(matrix, backend), 4
        )
        assert np.allclose(values, dense_values, atol=1e-8)

    def test_pipeline_fit_matches_dense_labels(self):
        from repro.core import QSCConfig, QuantumSpectralClustering
        from repro.metrics import adjusted_rand_index

        graph, _ = mixed_sbm(20, 2, p_intra=0.6, p_inter=0.05, seed=3)
        dense_cfg = QSCConfig(linalg_backend="dense", precision_bits=6, seed=9)
        array_cfg = QSCConfig(linalg_backend="array", precision_bits=6, seed=9)
        dense = QuantumSpectralClustering(2, dense_cfg).fit(graph)
        accel = QuantumSpectralClustering(2, array_cfg).fit(graph)
        assert adjusted_rand_index(dense.labels, accel.labels) == pytest.approx(
            1.0
        )
