"""Batch-equivalence suite: the engine must reproduce the per-connection path.

The batched inference engine (``repro.core.engine``) re-orders the arithmetic
of stages (b)-(d) — padded masked GRU batches, one concatenated autoencoder
call, segment-wise scoring — so these tests pin the contract that batched
scores, verdicts and localisations match the sequential reference
implementation to within 1e-9, including degenerate inputs (empty
connections, 1-2 packet connections, empty batches).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detector import (
    adversarial_score,
    adversarial_score_batch,
    localize_window,
    localize_window_batch,
    window_center_packet,
    window_center_packet_batch,
)
from repro.core.engine import BatchInferenceEngine
from repro.features.profile import stack_profiles, stacked_window_count
from repro.netstack.flow import Connection, FlowKey
from repro.netstack.packet import Direction
from repro.nn import gru as gru_module
from repro.traffic.generator import TrafficGenerator
from repro.traffic.session import TcpSessionBuilder

from tests.nn.gate_oracle import masked_forward_gates

TOLERANCE = 1e-9


def _tiny_connection(packet_count: int, *, client_port: int = 50000) -> Connection:
    """A connection truncated to ``packet_count`` packets (0, 1 or 2)."""
    builder = TcpSessionBuilder(
        client_ip=0x0A000002,
        server_ip=0xC0A80105,
        client_port=client_port,
        server_port=80,
        start_time=1_700_000_000.0,
        client_isn=5_000,
        server_isn=700_000,
    )
    builder.handshake()
    builder.send(Direction.CLIENT_TO_SERVER, 120)
    packets = builder.packets[:packet_count]
    key_source = packets[0] if packets else builder.packets[0]
    connection = Connection(key=FlowKey.from_packet(key_source))
    for packet in packets:
        connection.append(packet)
    return connection


@pytest.fixture(scope="module")
def mixed_connections(small_dataset):
    """A deliberately awkward batch: normal, long, empty and tiny connections."""
    generated = TrafficGenerator(seed=77).generate_connections(12)
    rng = np.random.default_rng(123)
    order = rng.permutation(len(generated))
    batch = [generated[i] for i in order]
    batch.insert(2, _tiny_connection(0, client_port=50001))
    batch.insert(5, _tiny_connection(1, client_port=50002))
    batch.insert(7, _tiny_connection(2, client_port=50003))
    batch.extend(small_dataset.test[:6])
    return batch


class TestEngineEquivalence:
    def test_scores_match_sequential_path(self, trained_clap, mixed_connections):
        batched = trained_clap.score_connections(mixed_connections)
        sequential = trained_clap.score_connections_sequential(mixed_connections)
        assert batched.shape == sequential.shape
        assert np.max(np.abs(batched - sequential)) < TOLERANCE

    def test_window_error_segments_match(self, trained_clap, mixed_connections):
        segments = trained_clap.window_error_segments(mixed_connections)
        assert len(segments) == len(mixed_connections)
        for connection, segment in zip(mixed_connections, segments):
            reference = trained_clap.window_errors(connection)
            assert segment.shape == reference.shape
            if reference.size:
                assert np.max(np.abs(segment - reference)) < TOLERANCE

    def test_verdicts_match(self, trained_clap, mixed_connections):
        batched = trained_clap.verdict_batch(mixed_connections)
        for connection, verdict in zip(mixed_connections, batched):
            reference = trained_clap.verdict(connection)
            assert abs(verdict.adversarial_score - reference.adversarial_score) < TOLERANCE
            assert verdict.localized_window == reference.localized_window
            assert verdict.localized_packet == reference.localized_packet
            assert verdict.is_adversarial == reference.is_adversarial

    def test_verdicts_honor_threshold_override(self, trained_clap, mixed_connections):
        verdicts = trained_clap.verdict_batch(mixed_connections, threshold=-1.0)
        scored = [v for v in verdicts if v.window_errors.size > 0]
        assert scored and all(v.is_adversarial for v in scored)

    def test_localizations_match(self, trained_clap, mixed_connections):
        # top_n=0 and tie-breaking must also agree: the engine delegates to
        # the same localized_packets helper the sequential path uses.
        for top_n in (0, 1, 3):
            batched = trained_clap.localize_batch(mixed_connections, top_n=top_n)
            for connection, localized in zip(mixed_connections, batched):
                assert localized == trained_clap.localize(connection, top_n=top_n)

    def test_baseline1_engine_matches_sequential(self, trained_baseline1, mixed_connections):
        batched = trained_baseline1.score_connections(mixed_connections)
        sequential = trained_baseline1.score_connections_sequential(mixed_connections)
        assert np.max(np.abs(batched - sequential)) < TOLERANCE

    def test_empty_batch(self, trained_clap):
        assert trained_clap.score_connections([]).shape == (0,)
        assert trained_clap.verdict_batch([]) == []
        assert trained_clap.localize_batch([]) == []

    def test_engine_is_cached_and_rebuilt_after_fit(self, trained_clap):
        assert isinstance(trained_clap.engine, BatchInferenceEngine)
        assert trained_clap.engine is trained_clap.engine

    def test_small_error_chunks_do_not_change_scores(self, trained_clap, mixed_connections):
        reference = trained_clap.score_connections(mixed_connections)
        engine = BatchInferenceEngine(
            trained_clap.builder,
            trained_clap.autoencoder,
            trained_clap.config.detector,
            error_chunk_rows=3,
        )
        chunked = engine.scores(mixed_connections)
        assert np.max(np.abs(chunked - reference)) < TOLERANCE

    def test_connection_chunking_does_not_change_results(self, trained_clap, mixed_connections):
        # Memory-bounding slices over the connection axis must be invisible:
        # scores, offsets and verdicts are identical for any chunk size.
        reference = trained_clap.score_connections(mixed_connections)
        reference_verdicts = trained_clap.verdict_batch(mixed_connections)
        engine = BatchInferenceEngine(
            trained_clap.builder,
            trained_clap.autoencoder,
            trained_clap.config.detector,
            connection_chunk=2,
        )
        chunked = engine.scores(mixed_connections)
        assert np.max(np.abs(chunked - reference)) < TOLERANCE
        chunked_verdicts = engine.verdicts(mixed_connections, trained_clap.threshold)
        for chunked_verdict, reference_verdict in zip(chunked_verdicts, reference_verdicts):
            assert chunked_verdict.localized_window == reference_verdict.localized_window
            assert chunked_verdict.window_errors.shape == reference_verdict.window_errors.shape


class TestBatchedProfileBuilder:
    def test_batch_profiles_match_single(self, trained_clap, mixed_connections):
        builder = trained_clap.builder
        batched = builder.batch_connection_profiles(mixed_connections)
        for connection, profiles in zip(mixed_connections, batched):
            reference = builder.connection_profiles(connection)
            assert profiles.profiles.shape == reference.profiles.shape
            if reference.profiles.size:
                assert np.max(np.abs(profiles.profiles - reference.profiles)) < TOLERANCE

    def test_batch_stacked_offsets_and_segments(self, trained_clap, mixed_connections):
        builder = trained_clap.builder
        batch = builder.batch_stacked_profiles(mixed_connections)
        assert batch.offsets.shape == (len(mixed_connections) + 1,)
        assert batch.offsets[0] == 0
        assert batch.offsets[-1] == batch.matrix.shape[0]
        for index, connection in enumerate(mixed_connections):
            expected = builder.stacked_profiles(connection)
            segment = batch.segment(index)
            assert segment.shape == expected.shape
            assert int(batch.packet_counts[index]) == len(connection)
            if expected.size:
                assert np.max(np.abs(segment - expected)) < TOLERANCE

    def test_training_matrix_matches_vstacked_singles(self, trained_clap, mixed_connections):
        builder = trained_clap.builder
        matrix = builder.training_matrix(mixed_connections)
        blocks = [builder.stacked_profiles(c) for c in mixed_connections]
        blocks = [b for b in blocks if b.shape[0] > 0]
        reference = np.vstack(blocks)
        assert matrix.shape == reference.shape
        assert np.max(np.abs(matrix - reference)) < TOLERANCE


class TestGateActivationBatch:
    def test_matches_the_masked_forward(self, trained_clap, rng):
        rnn = trained_clap.builder.rnn
        lengths = [1, 2, 3, 7, 19, 40, 0, 5]
        sequences = [rng.normal(size=(n, rnn.input_size)) for n in lengths]
        update, reset, bounds = rnn.gate_activations_concat(sequences)
        ref_update, ref_reset, ref_bounds = masked_forward_gates(rnn, sequences)
        assert np.array_equal(bounds, ref_bounds)
        assert update.shape == (sum(lengths), rnn.hidden_size)
        assert np.max(np.abs(update - ref_update)) < TOLERANCE
        assert np.max(np.abs(reset - ref_reset)) < TOLERANCE

    def test_chunking_preserves_order(self, trained_clap, rng, monkeypatch):
        rnn = trained_clap.builder.rnn
        sequences = [rng.normal(size=(n % 9 + 1, rnn.input_size)) for n in range(20)]
        monkeypatch.setattr(gru_module, "GATE_CHUNK_SIZE", 3)
        update, reset, _ = rnn.gate_activations_concat(sequences)
        ref_update, ref_reset, _ = masked_forward_gates(rnn, sequences)
        assert np.max(np.abs(update - ref_update)) < TOLERANCE
        assert np.max(np.abs(reset - ref_reset)) < TOLERANCE


class TestStackProfilesStrides:
    def _reference_stack(self, profiles: np.ndarray, stack_length: int) -> np.ndarray:
        """The seed's explicit copy loop, kept as the semantics oracle."""
        count, width = profiles.shape
        if count == 0:
            return np.zeros((0, stack_length * width))
        if count < stack_length:
            padded = np.zeros((stack_length, width))
            padded[:count] = profiles
            return padded.reshape(1, stack_length * width)
        windows = count - stack_length + 1
        stacked = np.zeros((windows, stack_length * width))
        for offset in range(stack_length):
            stacked[:, offset * width : (offset + 1) * width] = profiles[
                offset : offset + windows
            ]
        return stacked

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 10])
    @pytest.mark.parametrize("stack_length", [1, 2, 3, 5])
    def test_matches_copy_loop_reference(self, rng, count, stack_length):
        profiles = rng.normal(size=(count, 4))
        result = stack_profiles(profiles, stack_length)
        reference = self._reference_stack(profiles, stack_length)
        assert result.shape == reference.shape
        assert np.array_equal(result, reference)

    def test_result_is_writable_copy(self, rng):
        profiles = rng.normal(size=(6, 4))
        stacked = stack_profiles(profiles, 3)
        stacked[0, 0] = 1234.5
        assert profiles[0, 0] != 1234.5

    @pytest.mark.parametrize(
        "count,stack_length,expected",
        [(0, 3, 0), (1, 3, 1), (2, 3, 1), (3, 3, 1), (4, 3, 2), (10, 1, 10)],
    )
    def test_window_count_helper(self, count, stack_length, expected):
        assert stacked_window_count(count, stack_length) == expected


class TestDetectorBatchFunctions:
    def _random_segments(self, rng, segment_count):
        lengths = [int(n) for n in rng.integers(0, 12, size=segment_count)]
        errors = rng.random(sum(lengths))
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        return errors, offsets

    @pytest.mark.parametrize("score_window", [1, 3, 5, 8])
    def test_adversarial_score_batch_matches_scalar(self, rng, score_window):
        errors, offsets = self._random_segments(rng, 40)
        batched = adversarial_score_batch(errors, offsets, score_window)
        for index in range(40):
            segment = errors[offsets[index] : offsets[index + 1]]
            assert abs(batched[index] - adversarial_score(segment, score_window)) < TOLERANCE

    def test_duplicate_maxima_resolve_to_first_window(self):
        errors = np.array([0.5, 0.9, 0.1, 0.9, 0.2, 0.9, 0.9, 0.3])
        offsets = np.array([0, 5, 8])
        windows = localize_window_batch(errors, offsets)
        assert windows[0] == localize_window(errors[0:5]) == 1
        assert windows[1] == localize_window(errors[5:8]) == 0

    def test_localize_window_batch_matches_scalar(self, rng):
        errors, offsets = self._random_segments(rng, 30)
        batched = localize_window_batch(errors, offsets)
        for index in range(30):
            segment = errors[offsets[index] : offsets[index + 1]]
            assert batched[index] == localize_window(segment)

    def test_window_center_packet_batch_matches_scalar(self):
        windows = np.array([-1, 0, 2, 5, 9])
        counts = np.array([0, 1, 6, 7, 4])
        batched = window_center_packet_batch(windows, 3, counts)
        for window, count, packet in zip(windows, counts, batched):
            assert packet == window_center_packet(int(window), 3, int(count))

    def test_all_empty_segments(self):
        errors = np.zeros(0)
        offsets = np.zeros(4, dtype=np.int64)
        assert np.array_equal(adversarial_score_batch(errors, offsets), np.zeros(3))
        assert np.array_equal(localize_window_batch(errors, offsets), np.full(3, -1))

    def test_inconsistent_offsets_raise(self):
        with pytest.raises(ValueError):
            adversarial_score_batch(np.ones(4), np.array([0, 2, 3]))
        with pytest.raises(ValueError):
            adversarial_score_batch(np.ones(4), np.array([0, 3, 2, 4]))
