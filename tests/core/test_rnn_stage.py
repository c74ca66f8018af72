"""Unit tests for Stage (a): the RNN state-prediction trainer."""

import numpy as np
import pytest

from repro.attacks.base import all_strategies
from repro.attacks.injector import AttackInjector
from repro.core.config import RnnConfig
from repro.core.rnn_stage import RnnStage, pad_sequences
from repro.netstack.flow import Connection
from repro.tcpstate.states import NUM_LABEL_CLASSES
from repro.traffic.generator import TrafficGenerator

from tests import reference_oracle as oracle


class TestPadding:
    def test_pad_sequences_shapes(self):
        features = [np.ones((3, 4)), np.ones((5, 4))]
        labels = [np.zeros(3, dtype=np.int64), np.zeros(5, dtype=np.int64)]
        batch = pad_sequences(features, labels)
        assert batch.inputs.shape == (2, 5, 4)
        assert batch.targets.shape == (2, 5)
        assert batch.mask.shape == (2, 5)

    def test_mask_marks_real_positions(self):
        features = [np.ones((2, 3)), np.ones((4, 3))]
        labels = [np.zeros(2, dtype=np.int64), np.zeros(4, dtype=np.int64)]
        batch = pad_sequences(features, labels)
        assert batch.mask[0].sum() == 2
        assert batch.mask[1].sum() == 4

    def test_padded_positions_are_zero(self):
        features = [np.ones((1, 2)), np.ones((3, 2))]
        labels = [np.zeros(1, dtype=np.int64), np.zeros(3, dtype=np.int64)]
        batch = pad_sequences(features, labels)
        assert np.all(batch.inputs[0, 1:] == 0.0)


class TestRnnStage:
    @pytest.fixture(scope="class")
    def trained_stage(self):
        from repro.traffic.generator import TrafficGenerator

        connections = TrafficGenerator(seed=77).generate_connections(40)
        config = RnnConfig(epochs=25, batch_size=16, learning_rate=0.01)
        stage = RnnStage(config)
        stage.fit(connections)
        return stage, connections

    def test_prepare_aligns_features_and_labels(self):
        from repro.traffic.generator import TrafficGenerator

        stage = RnnStage(RnnConfig(epochs=1))
        connections = TrafficGenerator(seed=1).generate_connections(5)
        features, labels = stage.prepare(connections)
        assert len(features) == len(labels) == 5
        assert all(f.shape[0] == l.shape[0] for f, l in zip(features, labels))

    def test_training_reduces_loss(self, trained_stage):
        stage, _ = trained_stage
        history = stage.report.loss_history
        assert history[-1] < history[0]

    def test_training_accuracy_is_high(self, trained_stage):
        stage, connections = trained_stage
        # The paper reaches 0.995 with 30 epochs on 31k connections; even this
        # tiny training run must comfortably beat the majority-class baseline.
        assert stage.report.training_accuracy > 0.85

    def test_per_label_accuracy_breakdown(self, trained_stage):
        stage, connections = trained_stage
        breakdown = stage.per_label_accuracy(connections)
        assert len(breakdown) == NUM_LABEL_CLASSES
        total_samples = sum(count for _, count in breakdown.values())
        assert total_samples == sum(len(c) for c in connections)

    def test_evaluate_on_unseen_traffic(self, trained_stage):
        from repro.traffic.generator import TrafficGenerator

        stage, _ = trained_stage
        unseen = TrafficGenerator(seed=555).generate_connections(10)
        assert stage.evaluate(unseen) > 0.7

    def test_fit_on_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            RnnStage(RnnConfig(epochs=1)).fit([])

    def test_prepare_matches_the_per_connection_oracle(self):
        """One batch over benign, attacked (every strategy) and empty
        connections gives the oracle's matrices and labels."""
        benign = TrafficGenerator(seed=31).generate_connections(8)
        injector = AttackInjector(seed=7)
        attacked = [
            injector.attack_connection(strategy, benign[index % len(benign)].copy()).connection
            for index, strategy in enumerate(all_strategies())
        ]
        empty = Connection(key=benign[0].key)
        corpus = [*benign, empty, *attacked]
        stage = RnnStage(RnnConfig(epochs=1))
        features, labels = stage.prepare(corpus)
        expected_features, expected_labels = oracle.prepare(corpus)
        assert len(features) == len(expected_features) == len(corpus) - 1
        for got, wanted in zip(features, expected_features, strict=True):
            assert np.array_equal(got, wanted)
        for got, wanted in zip(labels, expected_labels, strict=True):
            assert np.array_equal(got, wanted)

    def test_evaluation_before_fit_raises(self):
        stage = RnnStage(RnnConfig(epochs=1))
        with pytest.raises(RuntimeError):
            stage.evaluate([])
