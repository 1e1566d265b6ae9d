"""Tests for amplitude amplification/estimation and QRAM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CircuitError, EncodingError
from repro.quantum.amplitude import (
    amplification_schedule,
    amplitude_amplification,
    amplitude_estimation,
    grover_operator,
    mle_amplitude_estimation,
    success_probability,
)
from repro.quantum.qram import KPTree, QRAM
from repro.quantum.state_prep import amplitude_encode
from repro.utils.linalg import is_unitary


def uniform_state(dim):
    return np.full(dim, 1.0 / np.sqrt(dim))


class TestAmplification:
    def test_grover_operator_unitary(self):
        assert is_unitary(grover_operator(uniform_state(8), [3]))

    def test_success_probability_uniform(self):
        assert np.isclose(success_probability(uniform_state(8), [3]), 1 / 8)

    def test_single_marked_item_amplifies(self):
        state, final, iterations = amplitude_amplification(uniform_state(64), [17])
        assert final > 0.9
        assert iterations >= 1
        assert np.isclose(np.linalg.norm(state), 1.0)

    def test_grover_optimal_iterations_sqrt_n(self):
        _, _, iterations = amplitude_amplification(uniform_state(256), [5])
        # pi/4 sqrt(256) = 12.57 -> floor 12
        assert iterations in (11, 12, 13)

    def test_schedule_matches_closed_form(self):
        a = 1 / 16
        schedule = amplification_schedule(a, 4)
        phi = np.arcsin(np.sqrt(a))
        for t in range(5):
            assert np.isclose(schedule[t], np.sin((2 * t + 1) * phi) ** 2)

    def test_no_good_amplitude_rejected(self):
        state = np.zeros(4)
        state[0] = 1.0
        with pytest.raises(CircuitError):
            amplitude_amplification(state, [3])

    def test_already_certain_short_circuits(self):
        state = np.zeros(4)
        state[2] = 1.0
        _, final, iterations = amplitude_amplification(state, [2])
        assert final == 1.0 and iterations == 0

    def test_empty_good_set_rejected(self):
        with pytest.raises(CircuitError):
            success_probability(uniform_state(4), [])


class TestAmplitudeEstimation:
    @given(a=st.floats(0.05, 0.95))
    @settings(max_examples=20, deadline=None)
    def test_canonical_ae_accuracy(self, a):
        state = np.array([np.sqrt(1 - a), np.sqrt(a)])
        estimate = amplitude_estimation(state, [1], precision_bits=7)
        assert abs(estimate - a) < 0.05

    def test_ae_with_shots(self):
        state = np.array([np.sqrt(0.7), np.sqrt(0.3)])
        estimate = amplitude_estimation(
            state, [1], precision_bits=6, shots=2000, seed=0
        )
        assert abs(estimate - 0.3) < 0.08

    def test_mle_ae_accuracy(self):
        state = np.array([np.sqrt(0.8), np.sqrt(0.2)])
        estimate = mle_amplitude_estimation(
            state, [1], powers=(0, 1, 2, 4, 8, 16), shots_per_power=200, seed=1
        )
        assert abs(estimate - 0.2) < 0.03

    def test_mle_beats_naive_sampling_at_equal_budget(self):
        rng = np.random.default_rng(7)
        a = 0.25
        state = np.array([np.sqrt(1 - a), np.sqrt(a)])
        mle_errors, naive_errors = [], []
        for trial in range(20):
            estimate = mle_amplitude_estimation(
                state,
                [1],
                powers=(0, 1, 2, 4, 8),
                shots_per_power=60,
                seed=trial,
            )
            mle_errors.append(abs(estimate - a))
            naive = rng.binomial(300, a) / 300
            naive_errors.append(abs(naive - a))
        assert np.mean(mle_errors) < np.mean(naive_errors)

    def test_precision_validation(self):
        with pytest.raises(CircuitError):
            amplitude_estimation(uniform_state(4), [0], precision_bits=0)


class TestKPTree:
    @given(seed=st.integers(0, 30), size=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_encoding_matches_state_prep(self, seed, size):
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=size) + 1j * rng.normal(size=size)
        if np.linalg.norm(vector) < 1e-6:
            vector[0] = 1.0
        tree = KPTree(vector)
        assert np.allclose(
            tree.amplitude_encoding(), amplitude_encode(vector), atol=1e-9
        )

    def test_root_mass_is_squared_norm(self):
        tree = KPTree([3.0, 4.0])
        assert np.isclose(tree.node_mass(0, 0), 25.0)
        assert np.isclose(tree.norm, 5.0)

    def test_rotation_angles_reproduce_masses(self):
        tree = KPTree([1.0, 2.0, 2.0, 4.0])
        theta = tree.rotation_angle(0, 0)
        right_fraction = np.sin(theta / 2) ** 2
        assert np.isclose(right_fraction, (4 + 16) / 25)

    def test_update_is_logarithmic(self):
        tree = KPTree(np.ones(16))
        touched = tree.update(5, 3.0)
        assert touched == tree.depth + 1
        assert np.isclose(tree.node_mass(tree.depth, 5), 9.0)
        assert np.isclose(tree.norm, np.sqrt(15 + 9))

    def test_query_path_length(self):
        tree = KPTree(np.ones(8))
        path = tree.query_path(5)
        assert len(path) == 4  # root + 3 levels
        assert path[0] == (0, 0)
        assert path[-1] == (3, 5)

    def test_zero_vector_rejected(self):
        with pytest.raises(EncodingError):
            KPTree(np.zeros(4))

    def test_update_out_of_range(self):
        tree = KPTree([1.0, 1.0, 1.0])
        with pytest.raises(EncodingError):
            tree.update(3, 1.0)  # index 3 is padding, not data


class TestQRAM:
    def test_shape_and_norms(self):
        matrix = np.array([[3.0, 4.0], [1.0, 0.0]])
        qram = QRAM(matrix)
        assert qram.shape == (2, 2)
        assert np.allclose(qram.row_norms(), [5.0, 1.0])

    def test_costs(self):
        qram = QRAM(np.ones((4, 8)))
        assert qram.build_cost() == 4 * (2 * 8 - 1)
        assert qram.query_cost() == 4  # log2(8) + 1

    def test_row_tree_access(self):
        qram = QRAM(np.eye(3))
        tree = qram.row_tree(1)
        assert np.isclose(tree.norm, 1.0)
        with pytest.raises(EncodingError):
            qram.row_tree(5)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(EncodingError):
            QRAM(np.ones(3))
