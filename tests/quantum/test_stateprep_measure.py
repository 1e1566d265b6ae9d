"""Tests for the tomography and counts models."""

import numpy as np
import pytest

from repro.exceptions import EncodingError
from repro.quantum.measurement import (
    counts_to_probabilities,
    expectation_from_counts,
    sample_distribution,
    tomography_estimate,
)
from repro.utils.linalg import next_power_of_two


def amplitude_encode(vector) -> np.ndarray:
    """``vector`` normalized and zero-padded to a power-of-two length >= 2."""
    vector = np.asarray(vector, dtype=complex).ravel()
    padded = np.zeros(next_power_of_two(max(vector.size, 2)), dtype=complex)
    padded[: vector.size] = vector
    return padded / np.linalg.norm(padded)


class TestTomography:
    def test_zero_shots_returns_exact(self):
        state = amplitude_encode([1.0, 2.0, 2.0])
        assert np.allclose(tomography_estimate(state, 0), state)

    def test_error_decreases_with_shots(self):
        rng = np.random.default_rng(1)
        state = amplitude_encode(rng.normal(size=8))
        errors = []
        for shots in (100, 10000, 1000000):
            estimate = tomography_estimate(state, shots, seed=42)
            estimate = estimate * np.exp(-1j * np.angle(np.vdot(estimate, state)))
            errors.append(np.linalg.norm(estimate - state))
        assert errors[0] > errors[2]
        assert errors[2] < 0.02

    def test_estimate_is_normalized(self):
        state = amplitude_encode([1.0, 1.0, 1.0, 1.0])
        estimate = tomography_estimate(state, 100, seed=7)
        assert np.isclose(np.linalg.norm(estimate), 1.0)

    def test_negative_shots_rejected(self):
        with pytest.raises(EncodingError):
            tomography_estimate(np.array([1.0, 0.0]), -5)

    def test_zero_state_rejected(self):
        with pytest.raises(EncodingError):
            tomography_estimate(np.zeros(2), 10)


class TestCountsHelpers:
    def test_counts_roundtrip(self):
        probs = np.array([0.25, 0.75])
        counts = sample_distribution(probs, 10000, seed=0)
        recovered = counts_to_probabilities(counts, 2)
        assert abs(recovered[1] - 0.75) < 0.02

    def test_counts_validation(self):
        with pytest.raises(EncodingError):
            counts_to_probabilities({}, 2)
        with pytest.raises(EncodingError):
            counts_to_probabilities({5: 3}, 2)

    def test_expectation_from_counts(self):
        counts = {0: 50, 1: 50}
        assert np.isclose(expectation_from_counts(counts, np.array([0.0, 1.0])), 0.5)

    def test_sample_distribution_validates(self):
        with pytest.raises(EncodingError):
            sample_distribution(np.array([0.5, 0.6]), 10)
