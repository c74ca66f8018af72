"""The unified detection API: Clap.detect / Clap.detect_batch / DetectionResult."""

from __future__ import annotations

import numpy as np

from repro.core.results import DetectionResult

from tests import reference_oracle as oracle


class TestDetect:
    def test_detect_matches_verdict(self, trained_clap, small_dataset):
        connection = small_dataset.test[0]
        result = trained_clap.detect(connection)
        verdict = trained_clap.verdict(connection)
        assert result.score == verdict.adversarial_score
        assert result.is_adversarial == verdict.is_adversarial
        assert result.localized_window == verdict.localized_window
        assert result.localized_packet == verdict.localized_packet
        assert result.threshold == trained_clap.threshold
        assert result.packet_count == len(connection)
        assert result.key == connection.key

    def test_detect_threshold_override(self, trained_clap, small_dataset):
        connection = small_dataset.test[0]
        low = trained_clap.detect(connection, threshold=-1.0)
        high = trained_clap.detect(connection, threshold=1e9)
        assert low.is_adversarial and not high.is_adversarial
        assert low.score == high.score

    def test_detect_top_n_localisation(self, trained_clap, small_dataset):
        connection = small_dataset.test[0]
        result = trained_clap.detect(connection, top_n=3)
        expected = trained_clap.localize(connection, top_n=3)
        assert list(result.localized_packets) == expected
        assert result.localized_packet == expected[0]


class TestDetectBatch:
    def test_matches_sequential_detect(self, trained_clap, small_dataset):
        connections = small_dataset.test
        batch = trained_clap.detect_batch(connections)
        for connection, result in zip(connections, batch):
            reference = oracle.detect(trained_clap, connection)
            assert abs(result.score - reference.score) < 1e-9
            assert result.is_adversarial == reference.is_adversarial
            assert result.localized_window == reference.localized_window
            assert result.localized_packets == reference.localized_packets
            assert result.packet_count == reference.packet_count
            assert result.key == reference.key

    def test_matches_legacy_entry_points(self, trained_clap, small_dataset):
        """The old surface (scores / verdicts / localisations) is now a thin
        view over the same engine results."""
        connections = small_dataset.test
        batch = trained_clap.detect_batch(connections, top_n=2)
        scores = trained_clap.score_connections(connections)
        verdicts = trained_clap.verdict_batch(connections)
        localized = trained_clap.localize_batch(connections, top_n=2)
        assert np.allclose([r.score for r in batch], scores, atol=1e-9)
        assert [r.is_adversarial for r in batch] == [v.is_adversarial for v in verdicts]
        assert [list(r.localized_packets) for r in batch] == localized

    def test_empty_batch(self, trained_clap):
        assert trained_clap.detect_batch([]) == []


class TestDetectionResult:
    def test_to_dict_roundtrips_json_types(self):
        result = DetectionResult(
            key=None,
            score=0.5,
            threshold=0.25,
            is_adversarial=True,
            localized_window=2,
            localized_packets=(4, 1),
            packet_count=9,
        )
        payload = result.to_dict()
        assert payload["connection"] is None
        assert payload["adversarial"] is True
        assert payload["localized_packets"] == [4, 1]
        assert result.localized_packet == 4

    def test_localized_packet_empty(self):
        result = DetectionResult(
            key=None,
            score=0.0,
            threshold=0.0,
            is_adversarial=False,
            localized_window=-1,
            localized_packets=(),
            packet_count=0,
        )
        assert result.localized_packet == -1
