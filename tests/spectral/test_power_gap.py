"""Tests for eigengap model selection."""

import numpy as np
import pytest

from repro.exceptions import ClusteringError
from repro.graphs import laplacian_spectrum, mixed_sbm
from repro.spectral import (
    eigengaps,
    estimate_num_clusters,
    gap_profile,
    relative_eigengap,
)


class TestEigengap:
    def test_eigengaps_basic(self):
        gaps = eigengaps([0.0, 0.1, 1.0])
        assert np.allclose(gaps, [0.1, 0.9])

    def test_eigengaps_validation(self):
        with pytest.raises(ClusteringError):
            eigengaps([1.0])
        with pytest.raises(ClusteringError):
            eigengaps([1.0, 0.5])

    def test_relative_gap(self):
        values = [0.0, 0.1, 1.0, 1.1]
        assert np.isclose(relative_eigengap(values, 2), 0.9)

    def test_relative_gap_range_check(self):
        with pytest.raises(ClusteringError):
            relative_eigengap([0.0, 1.0], 2)

    def test_estimate_on_synthetic_spectrum(self):
        # two tiny eigenvalues, clear gap, then bulk
        spectrum = [0.0, 0.02, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15]
        assert estimate_num_clusters(spectrum) == 2

    def test_estimate_three_clusters(self):
        spectrum = [0.0, 0.01, 0.02, 0.8, 0.85, 0.9, 0.95, 1.0]
        assert estimate_num_clusters(spectrum) == 3

    def test_estimate_on_strong_sbm(self):
        graph, _ = mixed_sbm(40, 2, p_intra=0.7, p_inter=0.02, seed=0)
        values, _ = laplacian_spectrum(graph)
        assert estimate_num_clusters(values) == 2

    def test_window_validation(self):
        with pytest.raises(ClusteringError):
            estimate_num_clusters([0.0, 0.5])
        with pytest.raises(ClusteringError):
            estimate_num_clusters([0.0, 0.1, 0.2, 1.0], k_min=9)

    def test_gap_profile_keys(self):
        profile = gap_profile([0.0, 0.1, 1.0, 1.2])
        assert profile[0]["k"] == 1
        assert {"k", "gap", "relative_gap"} <= set(profile[0])
