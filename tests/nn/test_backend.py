"""The SequenceBackend protocol, registry, gate oracle and quantization."""

import numpy as np
import pytest

from repro.nn.backend import (
    GruBackend,
    QuantizedGruBackend,
    SequenceBackend,
    available_backends,
    backend_from_state_dict,
    convert_backend,
    dequantize_per_gate,
    get_backend,
    quantize_per_gate,
    serving_backend_name,
    serving_backends,
)
from repro.nn.gru import (
    GRULayer,
    GRUSequenceClassifier,
    decode_backend_name,
    encode_backend_name,
)
from repro.nn.serialization import load_state, save_state

from tests.nn.gate_oracle import masked_forward_gates

ORACLE_LENGTHS = (1, 2, 3, 7, 19, 40, 0, 5)


@pytest.fixture(scope="module")
def trained_backend():
    """A small GRU backend with non-trivial weights."""
    rng = np.random.default_rng(0)
    model = GruBackend(5, 8, 3, seed=1)
    for _ in range(25):
        inputs = rng.normal(size=(8, 9, 5))
        targets = rng.integers(0, 3, size=(8, 9))
        model.train_batch(inputs, targets)
    return model


@pytest.fixture(scope="module")
def sequences():
    rng = np.random.default_rng(42)
    return [rng.normal(size=(length, 5)) for length in (4, 17, 9, 1, 30, 9)]


def gates(model, sequences) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated (update, reset) gates of one entry-point call."""
    update, reset, _ = model.gate_activations_concat(sequences)
    return update, reset


def assert_gates_equal(left, right) -> None:
    assert np.array_equal(left[0], right[0]) and np.array_equal(left[1], right[1])


# ---------------------------------------------------------------------------
# Protocol and registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_shipped_backends_are_registered(self):
        assert "gru" in available_backends()
        assert "quantized-gru" in available_backends()
        assert "gru-f32" in serving_backends()
        assert "gru-f32" not in available_backends()  # serving-only variant

    def test_backends_satisfy_the_protocol(self, trained_backend):
        assert isinstance(trained_backend, SequenceBackend)
        assert isinstance(QuantizedGruBackend.quantize(trained_backend), SequenceBackend)
        # GRUSequenceClassifier itself is protocol-compatible (duck typing).
        assert isinstance(GRUSequenceClassifier(4, 4, 2, seed=0), SequenceBackend)

    def test_unknown_backend_lists_the_alternatives(self):
        with pytest.raises(KeyError, match="available: gru, quantized-gru"):
            get_backend("mamba")
        with pytest.raises(KeyError, match="unknown serving backend"):
            convert_backend(GruBackend(4, 4, 2, seed=0), "mamba")

    def test_backend_name_encoding_round_trips(self):
        assert decode_backend_name(encode_backend_name("quantized-gru")) == "quantized-gru"
        assert decode_backend_name(None) == "gru"


# ---------------------------------------------------------------------------
# Float64 oracle equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestGruBackendOracle:
    @pytest.fixture
    def oracle_sequences(self):
        rng = np.random.default_rng(43)
        return [rng.normal(size=(length, 5)) for length in ORACLE_LENGTHS]

    def test_concat_gates_match_the_masked_forward(self, trained_backend, oracle_sequences):
        """The packed, chunked serving loop stays 1e-9-equivalent to the
        masked training forward, zero-length sequences included."""
        update, reset, bounds = trained_backend.gate_activations_concat(oracle_sequences)
        oracle_update, oracle_reset, oracle_bounds = masked_forward_gates(
            trained_backend, oracle_sequences
        )
        assert np.array_equal(bounds, oracle_bounds)
        assert update.shape == (sum(ORACLE_LENGTHS), trained_backend.hidden_size)
        np.testing.assert_allclose(update, oracle_update, atol=1e-9, rtol=0)
        np.testing.assert_allclose(reset, oracle_reset, atol=1e-9, rtol=0)

    def test_float32_mode_stays_close_and_is_reversible(self, trained_backend, sequences):
        reference = gates(trained_backend, sequences)
        f32 = convert_backend(trained_backend, "gru-f32")
        assert serving_backend_name(f32) == "gru-f32"
        assert f32.backend_name == "gru"  # persisted identity is unchanged
        for ref, got in zip(reference, gates(f32, sequences), strict=True):
            assert got.dtype == np.float64  # outputs stay float64
            np.testing.assert_allclose(got, ref, atol=1e-5, rtol=0)
        f32.set_compute_dtype("float64")
        assert_gates_equal(gates(f32, sequences), reference)

    def test_invalid_compute_dtype_is_rejected(self, trained_backend):
        with pytest.raises(ValueError, match="float16"):
            trained_backend.gru.set_compute_dtype("float16")


# ---------------------------------------------------------------------------
# gates_packed diagnostics (satellite bugfix)
# ---------------------------------------------------------------------------


class TestGatesPackedDiagnostics:
    def test_unsorted_lengths_name_the_offending_index(self):
        layer = GRULayer(3, 4, rng=np.random.default_rng(0))
        inputs = np.zeros((3, 9, 3))
        with pytest.raises(ValueError, match=r"lengths\[2\]=5 < lengths\[1\]=9"):
            layer.gates_packed(inputs, np.array([3, 9, 5]))

    def test_mismatched_count_reports_both_sizes(self):
        layer = GRULayer(3, 4, rng=np.random.default_rng(0))
        inputs = np.zeros((3, 9, 3))
        with pytest.raises(ValueError, match="got 2 lengths for 3 lanes"):
            layer.gates_packed(inputs, np.array([3, 9]))


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


class TestQuantization:
    def test_per_gate_scales_and_bounds(self):
        rng = np.random.default_rng(3)
        hidden = 6
        weights = rng.normal(size=(10, 3 * hidden))
        weights[:, :hidden] *= 10.0  # one gate with a much larger range
        values, scales = quantize_per_gate(weights, hidden)
        assert values.dtype == np.int8
        assert scales.shape == (3,)
        assert scales[0] > scales[1]
        assert np.abs(values).max() <= 127
        restored = dequantize_per_gate(values, scales, hidden)
        for gate in range(3):
            block = slice(gate * hidden, (gate + 1) * hidden)
            assert np.max(np.abs(restored[:, block] - weights[:, block])) <= scales[gate] / 2 + 1e-12

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="gate-concatenated"):
            quantize_per_gate(np.zeros((4, 10)), hidden_size=4)

    def test_quantized_backend_is_deterministic_and_close(self, trained_backend, sequences):
        quantized = QuantizedGruBackend.quantize(trained_backend)
        assert quantized.backend_name == "quantized-gru"
        assert not quantized.trainable and quantized.training_backend == "gru"
        reference = gates(trained_backend, sequences)
        first = gates(quantized, sequences)
        assert_gates_equal(gates(quantized, sequences), first)
        for ref, got in zip(reference, first, strict=True):
            np.testing.assert_allclose(got, ref, atol=0.05, rtol=0)

    def test_train_batch_refuses(self, trained_backend):
        quantized = QuantizedGruBackend.quantize(trained_backend)
        with pytest.raises(RuntimeError, match="inference-only"):
            quantized.train_batch(np.zeros((1, 2, 5)), np.zeros((1, 2), dtype=np.int64))

    def test_state_dict_round_trip_eager_and_mmap(self, tmp_path, trained_backend, sequences):
        quantized = QuantizedGruBackend.quantize(trained_backend)
        state = quantized.state_dict()
        assert state["quant/gru/W"].dtype == np.int8
        assert state["quant/gru/U"].dtype == np.int8
        assert decode_backend_name(state["meta/backend"]) == "quantized-gru"

        eager = backend_from_state_dict(state)
        assert isinstance(eager, QuantizedGruBackend)

        path = tmp_path / "quantized.npz"
        save_state(path, state)
        mapped = backend_from_state_dict(dict(load_state(path, mmap_mode="r")))

        reference = gates(quantized, sequences)
        for candidate in (eager, mapped):
            assert_gates_equal(gates(candidate, sequences), reference)

    def test_unquantized_state_dict_refuses(self):
        bare = QuantizedGruBackend(4, 4, 2, seed=0)
        with pytest.raises(RuntimeError, match="no quantized payload"):
            bare.state_dict()


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


class TestConvertBackend:
    def test_gru_clone_is_bitwise(self, trained_backend, sequences):
        clone = convert_backend(trained_backend, "gru")
        assert clone is not trained_backend
        assert_gates_equal(gates(clone, sequences), gates(trained_backend, sequences))

    def test_quantized_round_trip_preserves_payload(self, trained_backend, sequences):
        quantized = convert_backend(trained_backend, "quantized-gru")
        again = convert_backend(quantized, "quantized-gru")
        assert_gates_equal(gates(again, sequences), gates(quantized, sequences))

    def test_dequantized_gru_serves_the_quantized_weights(self, trained_backend):
        quantized = convert_backend(trained_backend, "quantized-gru")
        dequantized = convert_backend(quantized, "gru")
        assert dequantized.backend_name == "gru"
        assert np.array_equal(
            dequantized.parameters["gru/W"], quantized.parameters["gru/W"]
        )

    def test_conversion_never_mutates_the_source(self, trained_backend):
        before = {key: value.copy() for key, value in trained_backend.parameters.items()}
        convert_backend(trained_backend, "quantized-gru")
        convert_backend(trained_backend, "gru-f32")
        for key, value in trained_backend.parameters.items():
            assert np.array_equal(value, before[key])
        assert trained_backend.compute_dtype == np.float64
