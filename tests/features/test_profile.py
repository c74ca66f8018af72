"""Unit tests for context-profile construction and stacking."""

import numpy as np
import pytest

from repro.features.amplification import FeatureRanges
from repro.features.fields import RawFeatureExtractor
from repro.features.profile import ContextProfileBuilder, stack_profiles, window_to_packet_indices
from repro.features.scaling import FeatureScaler
from repro.features.schema import CONTEXT_PROFILE_SIZE, NUM_PACKET_FEATURES
from repro.nn.gru import GRUSequenceClassifier
from repro.tcpstate.states import NUM_LABEL_CLASSES


@pytest.fixture
def fitted_builder(benign_connections):
    extractor = RawFeatureExtractor()
    arrays = [extractor.extract_connection(c) for c in benign_connections]
    scaler = FeatureScaler.fit(arrays)
    ranges = FeatureRanges.fit(arrays)
    rnn = GRUSequenceClassifier(32, 32, NUM_LABEL_CLASSES, seed=0)
    return ContextProfileBuilder(rnn, scaler, ranges, stack_length=3)


class TestStacking:
    def test_sliding_window_count(self):
        stacked = stack_profiles(np.ones((10, 4)), 3)
        assert stacked.shape == (8, 12)

    def test_short_connection_is_padded_to_one_window(self):
        stacked = stack_profiles(np.ones((2, 4)), 3)
        assert stacked.shape == (1, 12)
        assert np.count_nonzero(stacked) == 8

    def test_stack_length_one_is_identity(self):
        profiles = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(stack_profiles(profiles, 1), profiles)

    def test_window_contents_are_consecutive_profiles(self):
        profiles = np.arange(20.0).reshape(5, 4)
        stacked = stack_profiles(profiles, 2)
        assert np.array_equal(stacked[0], np.concatenate([profiles[0], profiles[1]]))
        assert np.array_equal(stacked[3], np.concatenate([profiles[3], profiles[4]]))

    def test_invalid_stack_length(self):
        with pytest.raises(ValueError):
            stack_profiles(np.ones((3, 2)), 0)

    def test_window_to_packet_indices(self):
        assert window_to_packet_indices(2, 3, 10) == [2, 3, 4]
        assert window_to_packet_indices(8, 3, 10) == [8, 9]


class TestContextProfileBuilder:
    def test_profile_size_matches_table7(self, fitted_builder):
        assert fitted_builder.profile_size == CONTEXT_PROFILE_SIZE

    def test_stacked_profile_size_matches_table6(self, fitted_builder):
        assert fitted_builder.stacked_profile_size == 345

    def test_connection_profiles_shapes(self, fitted_builder, simple_connection):
        profiles = fitted_builder.batch_connection_profiles([simple_connection])[0]
        count = len(simple_connection)
        assert profiles.profiles.shape == (count, CONTEXT_PROFILE_SIZE)
        assert profiles.update_gates.shape == (count, 32)
        assert profiles.reset_gates.shape == (count, 32)

    def test_profile_layout_packet_features_then_gates(self, fitted_builder, simple_connection):
        profiles = fitted_builder.batch_connection_profiles([simple_connection])[0]
        reconstructed = np.hstack([
            profiles.scaled_features,
            profiles.amplification,
            profiles.update_gates,
            profiles.reset_gates,
        ])
        assert np.allclose(profiles.profiles, reconstructed)

    def test_stacked_profiles_count(self, fitted_builder, simple_connection):
        stacked = fitted_builder.batch_stacked_profiles([simple_connection]).matrix
        assert stacked.shape == (len(simple_connection) - 3 + 1, 345)

    def test_training_matrix_concatenates_connections(self, fitted_builder, benign_connections):
        matrix = fitted_builder.training_matrix(benign_connections[:5])
        expected_rows = sum(
            max(len(c) - 2, 1) for c in benign_connections[:5]
        )
        assert matrix.shape == (expected_rows, 345)

    def test_without_gate_weights_profile_is_packet_features_only(self, benign_connections):
        extractor = RawFeatureExtractor()
        arrays = [extractor.extract_connection(c) for c in benign_connections]
        builder = ContextProfileBuilder(
            None,
            FeatureScaler.fit(arrays),
            FeatureRanges.fit(arrays),
            stack_length=1,
            include_gate_weights=False,
        )
        assert builder.profile_size == NUM_PACKET_FEATURES

    def test_gate_weights_require_rnn(self, benign_connections):
        extractor = RawFeatureExtractor()
        arrays = [extractor.extract_connection(c) for c in benign_connections]
        with pytest.raises(ValueError):
            ContextProfileBuilder(
                None,
                FeatureScaler.fit(arrays),
                FeatureRanges.fit(arrays),
                include_gate_weights=True,
            )
