"""Unit tests for the GRU layer and sequence classifier (including BPTT)."""

import numpy as np
import pytest

from repro.nn.gru import GRULayer, GRUSequenceClassifier

from tests.nn.gate_oracle import masked_forward_gates


class TestGRULayerForward:
    def test_output_shapes(self):
        layer = GRULayer(4, 6, rng=np.random.default_rng(0))
        result = layer.forward(np.zeros((3, 5, 4)))
        assert result.hidden_states.shape == (3, 5, 6)
        assert result.update_gates.shape == (3, 5, 6)
        assert result.reset_gates.shape == (3, 5, 6)

    def test_gate_activations_in_zero_one(self):
        layer = GRULayer(4, 6, rng=np.random.default_rng(1))
        inputs = np.random.default_rng(2).normal(size=(2, 7, 4))
        result = layer.forward(inputs)
        assert np.all(result.update_gates > 0) and np.all(result.update_gates < 1)
        assert np.all(result.reset_gates > 0) and np.all(result.reset_gates < 1)

    def test_masked_steps_carry_hidden_state(self):
        layer = GRULayer(3, 4, rng=np.random.default_rng(3))
        inputs = np.random.default_rng(4).normal(size=(1, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        result = layer.forward(inputs, mask)
        assert np.allclose(result.hidden_states[0, 1], result.hidden_states[0, 2])
        assert np.allclose(result.hidden_states[0, 2], result.hidden_states[0, 3])

    def test_hidden_state_depends_on_history(self):
        layer = GRULayer(2, 4, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        prefix_a = rng.normal(size=(1, 3, 2))
        prefix_b = rng.normal(size=(1, 3, 2))
        final_step = rng.normal(size=(1, 1, 2))
        result_a = layer.forward(np.concatenate([prefix_a, final_step], axis=1))
        result_b = layer.forward(np.concatenate([prefix_b, final_step], axis=1))
        assert not np.allclose(result_a.hidden_states[0, -1], result_b.hidden_states[0, -1])


class TestGRUGradients:
    def test_bptt_matches_numerical_gradients(self):
        rng = np.random.default_rng(0)
        model = GRUSequenceClassifier(3, 5, 4, seed=1)
        inputs = rng.normal(size=(2, 4, 3))
        targets = rng.integers(0, 4, size=(2, 4))
        mask = np.ones((2, 4))
        mask[1, 3] = 0.0

        def loss_value() -> float:
            logits, _ = model.forward(inputs, mask)
            value, _ = model.loss.forward(logits, targets, mask)
            return value

        logits, result = model.forward(inputs, mask)
        _, probabilities = model.loss.forward(logits, targets, mask)
        grad_logits = model.loss.backward(probabilities, targets, mask)
        gradients = {}
        grad_hidden = model.head.backward(grad_logits, gradients)
        model.gru.backward(grad_hidden, result.caches, gradients)

        eps = 1e-6
        check_rng = np.random.default_rng(2)
        for key, parameter in model.parameters.items():
            for _ in range(3):
                index = tuple(check_rng.integers(0, dim) for dim in parameter.shape)
                original = parameter[index]
                parameter[index] = original + eps
                plus = loss_value()
                parameter[index] = original - eps
                minus = loss_value()
                parameter[index] = original
                numerical = (plus - minus) / (2 * eps)
                assert gradients[key][index] == pytest.approx(numerical, rel=1e-4, abs=1e-7), key


class TestGRUSequenceClassifier:
    def test_learns_a_simple_temporal_rule(self):
        """The class of step t is the value of the input at step t-1.

        A memoryless classifier cannot solve this; a working GRU gets it
        nearly perfect within a few hundred updates.
        """
        rng = np.random.default_rng(7)
        model = GRUSequenceClassifier(1, 12, 2, seed=3, learning_rate=0.02)
        for _ in range(700):
            bits = rng.integers(0, 2, size=(16, 6))
            inputs = bits[:, :, None].astype(np.float64)
            targets = np.zeros_like(bits)
            targets[:, 1:] = bits[:, :-1]
            model.train_batch(inputs, targets)
        bits = rng.integers(0, 2, size=(64, 6))
        inputs = bits[:, :, None].astype(np.float64)
        targets = np.zeros_like(bits)
        targets[:, 1:] = bits[:, :-1]
        mask = np.ones_like(bits, dtype=np.float64)
        mask[:, 0] = 0.0  # first step is unpredictable
        assert model.accuracy(inputs, targets, mask) > 0.85

    def test_gate_activations_match_the_masked_forward(self):
        model = GRUSequenceClassifier(4, 6, 3, seed=0)
        rng = np.random.default_rng(8)
        sequences = [rng.normal(size=(length, 4)) for length in (1, 2, 3, 7, 19, 40, 0, 5)]
        update, reset, bounds = model.gate_activations_concat(sequences)
        assert update.shape == reset.shape == (77, 6)
        assert list(bounds) == [0, 1, 3, 6, 13, 32, 72, 72, 77]
        oracle_update, oracle_reset, _ = masked_forward_gates(model, sequences)
        np.testing.assert_allclose(update, oracle_update, atol=1e-9, rtol=0)
        np.testing.assert_allclose(reset, oracle_reset, atol=1e-9, rtol=0)

    def test_state_dict_round_trip(self):
        model = GRUSequenceClassifier(3, 4, 5, seed=9)
        inputs = np.random.default_rng(0).normal(size=(1, 6, 3))
        expected = model.predict_classes(inputs)
        restored = GRUSequenceClassifier.from_state_dict(model.state_dict())
        assert np.array_equal(restored.predict_classes(inputs), expected)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(11)
        model = GRUSequenceClassifier(2, 6, 3, seed=5, learning_rate=0.01)
        inputs = rng.normal(size=(16, 5, 2))
        targets = rng.integers(0, 3, size=(16, 5))
        first = model.train_batch(inputs, targets)
        for _ in range(60):
            last = model.train_batch(inputs, targets)
        assert last < first
