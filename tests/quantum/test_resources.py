"""Tests for the quantum resource accounting model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CircuitError
from repro.quantum.resources import (
    QPEResources,
    classical_pipeline_step_count,
    qpe_resources,
    quantum_pipeline_step_count,
)


class TestQPEResources:
    def test_qubit_accounting(self):
        res = qpe_resources(num_nodes=10, precision=5, pauli_terms=20)
        assert res.system_qubits == 4  # ceil(log2 10)
        assert res.ancilla_qubits == 5
        assert res.total_qubits == 9

    def test_controlled_u_count_is_geometric(self):
        res = qpe_resources(num_nodes=8, precision=6, pauli_terms=10)
        assert res.controlled_u_applications == 2**6 - 1

    def test_gates_scale_with_pauli_terms(self):
        small = qpe_resources(8, 4, pauli_terms=10)
        large = qpe_resources(8, 4, pauli_terms=100)
        assert large.elementary_gates > 5 * small.elementary_gates

    def test_gates_scale_with_trotter_steps(self):
        one = qpe_resources(8, 4, pauli_terms=10, trotter_steps=1)
        four = qpe_resources(8, 4, pauli_terms=10, trotter_steps=4)
        assert four.elementary_gates > one.elementary_gates

    def test_validation(self):
        with pytest.raises(CircuitError):
            qpe_resources(1, 4, 10)
        with pytest.raises(CircuitError):
            qpe_resources(8, 0, 10)
        with pytest.raises(CircuitError):
            qpe_resources(8, 4, 0)

    def test_dataclass_fields(self):
        res = qpe_resources(16, 3, 5)
        assert isinstance(res, QPEResources)
        assert res.elementary_gates > res.controlled_u_applications


class TestPipelineStepCounts:
    def test_quantum_linear_in_edges_at_fixed_rest(self):
        base = quantum_pipeline_step_count(64, 100, 2, 6, 256)
        double_edges = quantum_pipeline_step_count(64, 200, 2, 6, 256)
        assert 1.8 < double_edges / base < 2.2

    def test_classical_cubic(self):
        small = classical_pipeline_step_count(64, 2)
        large = classical_pipeline_step_count(128, 2)
        assert 7.0 < large / small < 9.0

    def test_quantum_grows_with_shots(self):
        low = quantum_pipeline_step_count(64, 100, 2, 6, 64)
        high = quantum_pipeline_step_count(64, 100, 2, 6, 1024)
        assert high > 10 * low

    @given(
        n=st.sampled_from([16, 64, 256]),
        k=st.integers(2, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_counts_positive(self, n, k):
        assert quantum_pipeline_step_count(n, 4 * n, k, 6, 128) > 0
        assert classical_pipeline_step_count(n, k) >= n**3

    def test_classical_validation(self):
        with pytest.raises(CircuitError):
            classical_pipeline_step_count(1, 2)
