"""The SequenceBackend protocol, the gate oracle and the serving conversions."""

import numpy as np
import pytest

from repro.nn.backend import (
    SERVING_BACKENDS,
    SequenceBackend,
    convert_backend,
    serving_backend_name,
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
    model = GRUSequenceClassifier(5, 8, 3, seed=1)
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
# Protocol and serving names
# ---------------------------------------------------------------------------


class TestServingBackends:
    def test_two_serving_precisions_ship(self):
        assert SERVING_BACKENDS == ("gru", "gru-f32")

    def test_backends_satisfy_the_protocol(self, trained_backend):
        assert isinstance(trained_backend, SequenceBackend)
        assert isinstance(convert_backend(trained_backend, "gru-f32"), SequenceBackend)

    def test_unknown_backend_lists_the_alternatives(self):
        with pytest.raises(KeyError, match="unknown serving backend .*available: gru, gru-f32"):
            convert_backend(GRUSequenceClassifier(4, 4, 2, seed=0), "mamba")

    def test_backend_name_encoding_round_trips(self):
        assert decode_backend_name(encode_backend_name("gru")) == "gru"
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
# Conversion
# ---------------------------------------------------------------------------


class TestConvertBackend:
    def test_gru_clone_is_bitwise(self, trained_backend, sequences):
        clone = convert_backend(trained_backend, "gru")
        assert clone is not trained_backend
        assert_gates_equal(gates(clone, sequences), gates(trained_backend, sequences))

    def test_f32_round_trip_preserves_payload(self, trained_backend, sequences):
        f32 = convert_backend(trained_backend, "gru-f32")
        again = convert_backend(f32, "gru-f32")
        assert serving_backend_name(again) == "gru-f32"
        assert_gates_equal(gates(again, sequences), gates(f32, sequences))

    def test_gru_from_f32_serves_the_float64_masters(self, trained_backend, sequences):
        """The float32 cast is a compute mode, not a weight change: converting
        back to ``gru`` restores the oracle bit for bit."""
        restored = convert_backend(convert_backend(trained_backend, "gru-f32"), "gru")
        assert serving_backend_name(restored) == "gru"
        for key, value in trained_backend.parameters.items():
            assert restored.parameters[key].dtype == np.float64
            assert np.array_equal(restored.parameters[key], value)
        assert_gates_equal(gates(restored, sequences), gates(trained_backend, sequences))

    def test_f32_state_dict_round_trip_eager_and_mmap(self, tmp_path, trained_backend, sequences):
        """An f32 model persists its float64 masters under the ``gru`` name;
        eager and read-only mmap loads both rebuild the oracle."""
        state = convert_backend(trained_backend, "gru-f32").state_dict()
        assert decode_backend_name(state["meta/backend"]) == "gru"
        assert state["gru/W"].dtype == np.float64

        path = save_state(tmp_path / "f32.npz", state)
        reference = gates(trained_backend, sequences)
        for candidate in (
            GRUSequenceClassifier.from_state_dict(state),
            GRUSequenceClassifier.from_state_dict(dict(load_state(path, mmap_mode="r"))),
        ):
            assert serving_backend_name(candidate) == "gru"
            assert_gates_equal(gates(candidate, sequences), reference)

    def test_training_refreshes_the_f32_cast(self, trained_backend, sequences):
        """A training step drops the cached float32 weights, so an f32 model
        never serves gates of the weights before the step."""
        f32 = convert_backend(trained_backend, "gru-f32")
        before = gates(f32, sequences)
        rng = np.random.default_rng(5)
        f32.train_batch(rng.normal(size=(4, 6, 5)), rng.integers(0, 3, size=(4, 6)))
        after = gates(f32, sequences)
        assert not np.array_equal(after[0], before[0])
        oracle = gates(convert_backend(f32, "gru"), sequences)
        for ref, got in zip(oracle, after, strict=True):
            np.testing.assert_allclose(got, ref, atol=1e-5, rtol=0)

    def test_conversion_never_mutates_the_source(self, trained_backend):
        before = {key: value.copy() for key, value in trained_backend.parameters.items()}
        convert_backend(trained_backend, "gru-f32")
        for key, value in trained_backend.parameters.items():
            assert np.array_equal(value, before[key])
        assert trained_backend.compute_dtype == np.float64
