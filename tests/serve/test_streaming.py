"""StreamingDetector: equivalence with the batch path, flush policy, events."""

from __future__ import annotations

import pytest

from repro.attacks.base import get_strategy
from repro.attacks.injector import AttackInjector
from repro.netstack.flow import (
    CompletionReason,
    assemble_connections,
    packet_stream as _packet_stream,
)
from repro.serve import (
    Alert,
    DetectionEvent,
    DropPolicy,
    FlushPolicy,
    StreamingDetector,
)
from repro.serve import streaming
from repro.serve.streaming import scoring_grains
from repro.traffic.generator import TrafficGenerator


def _sequential_connections(count, seed=311, spacing=100.0):
    connections = TrafficGenerator(seed=seed).generate_connections(count)
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * spacing + position * 0.01
    return connections


class TestFlushPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlushPolicy(max_batch=0)
        with pytest.raises(ValueError):
            FlushPolicy(max_batch=8, max_buffered=4)

    def test_defaults_are_consistent(self):
        policy = FlushPolicy()
        assert 1 <= policy.max_batch <= policy.max_buffered
        assert policy.auto_flush


class TestStreamingEquivalence:
    def test_streaming_matches_detect_batch(self, trained_clap, small_dataset):
        """The ISSUE acceptance criterion: streaming a capture's packets yields
        the same connections and scores (1e-9) as the offline batch path."""
        stream = _packet_stream(small_dataset.test)
        assembled = assemble_connections(_packet_stream(small_dataset.test))
        batch = trained_clap.detect_batch(assembled)

        detector = StreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(stream)
        detector.close()
        events = list(detector.events())

        assert len(events) == len(batch)
        streamed = sorted(
            (str(e.result.key), e.result.packet_count, e.result.score) for e in events
        )
        batched = sorted((str(r.key), r.packet_count, r.score) for r in batch)
        for stream_row, batch_row in zip(streamed, batched):
            assert stream_row[0] == batch_row[0]
            assert stream_row[1] == batch_row[1]
            assert abs(stream_row[2] - batch_row[2]) < 1e-9

    def test_streaming_matches_batch_on_attacked_traffic(self, trained_clap, small_dataset):
        injector = AttackInjector(seed=4)
        strategy = get_strategy("Snort: Injected RST Pure")
        attacked = [
            injector.attack_connection(strategy, connection).connection
            for connection in small_dataset.test[:6]
        ]
        stream = _packet_stream(attacked)
        assembled = assemble_connections(_packet_stream(attacked))
        batch = trained_clap.detect_batch(assembled)

        detector = StreamingDetector(trained_clap, idle_timeout=1e9, close_grace=1e9)
        detector.ingest_many(stream)
        events = detector.close()
        streamed = sorted(
            (str(e.result.key), e.result.packet_count, e.result.score) for e in events
        )
        batched = sorted((str(r.key), r.packet_count, r.score) for r in batch)
        assert [row[:2] for row in streamed] == [row[:2] for row in batched]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(streamed, batched))


class TestMicroBatching:
    def test_events_emitted_after_at_most_max_batch_completions(self, trained_clap):
        connections = _sequential_connections(7)
        detector = StreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=3),
            idle_timeout=1e9,
            close_grace=1.0,
        )
        for packet in _packet_stream(connections):
            detector.ingest(packet)
            # The pending buffer must never sit on max_batch completions.
            assert detector.pending_connections < 3
        detector.close()
        assert detector.connections_seen == len(connections)

    def test_manual_flush_with_auto_flush_disabled(self, trained_clap):
        connections = _sequential_connections(5)
        detector = StreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=2, max_buffered=100, auto_flush=False),
            idle_timeout=1e9,
            close_grace=1.0,
        )
        detector.ingest_many(_packet_stream(connections))
        assert list(detector.events()) == []
        assert detector.pending_connections >= 1
        flushed = detector.flush()
        assert flushed
        assert detector.pending_connections == 0

    def test_max_buffered_forces_flush_even_without_auto_flush(self, trained_clap):
        connections = _sequential_connections(6)
        detector = StreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=1, max_buffered=2, auto_flush=False),
            idle_timeout=1e9,
            close_grace=1.0,
        )
        detector.ingest_many(_packet_stream(connections))
        assert detector.pending_connections < 2
        assert detector.connections_seen >= 1


class _RecordingClap:
    """Wraps a trained Clap, logging every engine call for ordering tests."""

    def __init__(self, clap, log):
        self._clap = clap
        self.threshold = clap.threshold
        self._log = log

    def detect_batch(self, connections, **kwargs):
        self._log.append(("engine", len(connections)))
        return self._clap.detect_batch(connections, **kwargs)


class TestFlushDispatchOrdering:
    def test_events_dispatch_per_chunk_not_after_full_drain(self, trained_clap):
        """Regression: flush() used to dispatch only after draining the whole
        buffer, so an alert from the first chunk waited behind the engine
        calls for every later chunk.  Callbacks must interleave with the
        chunked engine calls: engine, events, engine, events, ..."""
        log = []
        detector = StreamingDetector(
            _RecordingClap(trained_clap, log),
            flush_policy=FlushPolicy(max_batch=2, max_buffered=100, auto_flush=False),
            idle_timeout=1e9,
            close_grace=1e9,
            on_event=lambda event: log.append(("event", str(event.result.key))),
        )
        detector.ingest_many(_packet_stream(_sequential_connections(5)))
        assert detector.pending_connections == 0  # nothing completed yet
        flushed = detector.close()
        assert len(flushed) == 5

        kinds = [kind for kind, _ in log]
        # 5 pending connections at max_batch=2 -> engine calls of 2, 2, 1,
        # each followed immediately by its own chunk's events.
        assert kinds == [
            "engine", "event", "event",
            "engine", "event", "event",
            "engine", "event",
        ]
        engine_sizes = [size for kind, size in log if kind == "engine"]
        assert engine_sizes == [2, 2, 1]


class _FailingClap(_RecordingClap):
    """A recording Clap whose ``fail_on``-th engine call raises, once."""

    def __init__(self, clap, log, fail_on):
        super().__init__(clap, log)
        self._calls = 0
        self._fail_on = fail_on

    def detect_batch(self, connections, **kwargs):
        self._calls += 1
        if self._calls == self._fail_on:
            raise RuntimeError("engine call failed")
        return super().detect_batch(connections, **kwargs)


class TestScoringGrains:
    def test_flush_batches_are_cut_into_grains(self, monkeypatch):
        assert list(scoring_grains(300, 128)) == [64, 64, 64, 64, 44]
        assert list(scoring_grains(100, 100)) == [64, 36]
        assert list(scoring_grains(5, 2)) == [2, 2, 1]
        assert list(scoring_grains(0, 128)) == []
        monkeypatch.setattr(streaming, "SCORING_GRAIN", 2)
        # Batches of 5, each cut from its own start: 2 + 2 + 1, twice.
        assert list(scoring_grains(10, 5)) == [2, 2, 1, 2, 2, 1]

    def test_each_grain_is_one_engine_call_dispatched_at_once(self, trained_clap, monkeypatch):
        monkeypatch.setattr(streaming, "SCORING_GRAIN", 2)
        log = []
        detector = StreamingDetector(
            _RecordingClap(trained_clap, log),
            flush_policy=FlushPolicy(max_batch=8, max_buffered=100, auto_flush=False),
            idle_timeout=1e9,
            close_grace=1e9,
            on_event=lambda event: log.append(("event", 1)),
        )
        detector.ingest_many(_packet_stream(_sequential_connections(11)))
        assert len(detector.close()) == 11
        # 11 connections: batches of 8 and 3, scored in grains of 2.
        assert log == [("engine", 2), ("event", 1), ("event", 1)] * 5 + [
            ("engine", 1),
            ("event", 1),
        ]

    def test_a_failing_grain_stays_buffered_and_retryable(self, trained_clap, monkeypatch):
        monkeypatch.setattr(streaming, "SCORING_GRAIN", 2)
        connections = _sequential_connections(11)
        options = dict(
            flush_policy=FlushPolicy(max_batch=8, max_buffered=100, auto_flush=False),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        expected = StreamingDetector(trained_clap, **options)
        expected.ingest_many(_packet_stream(connections))
        expected.close()

        log = []
        detector = StreamingDetector(_FailingClap(trained_clap, log, fail_on=3), **options)
        detector.ingest_many(_packet_stream(connections))
        with pytest.raises(RuntimeError, match="engine call failed"):
            detector.close()
        # Two grains were scored and dispatched; the failed one is still
        # buffered with everything behind it.
        assert detector.connections_seen == 4
        assert detector.pending_connections == 7
        assert len(detector.flush()) == 7
        assert detector.pending_connections == 0
        assert list(detector.events()) == list(expected.events())


class TestEventSurface:
    def test_callbacks_and_iterator_see_the_same_events(self, trained_clap):
        connections = _sequential_connections(4)
        pushed = []
        detector = StreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=2),
            idle_timeout=1e9,
            close_grace=1.0,
            on_event=pushed.append,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        pulled = list(detector.events())
        assert pulled == pushed
        assert all(isinstance(event, DetectionEvent) for event in pulled)

    def test_alert_subtype_and_callback(self, trained_clap):
        connections = _sequential_connections(4)
        alerts = []
        # Threshold below every score: everything becomes an Alert.
        detector = StreamingDetector(
            trained_clap,
            threshold=-1.0,
            idle_timeout=1e9,
            close_grace=1e9,
            on_alert=alerts.append,
        )
        detector.ingest_many(_packet_stream(connections))
        events = detector.close()
        assert events and all(isinstance(event, Alert) for event in events)
        assert alerts == events
        assert detector.alerts_emitted == len(events)

    def test_event_serialisation(self, trained_clap):
        connections = _sequential_connections(2)
        detector = StreamingDetector(trained_clap, idle_timeout=1e9, close_grace=1e9)
        detector.ingest_many(_packet_stream(connections))
        event = detector.close()[0]
        payload = event.to_dict()
        assert payload["event"] in ("detection", "alert")
        assert payload["completed_by"] == CompletionReason.DRAIN.value
        assert set(payload) >= {
            "connection",
            "score",
            "threshold",
            "adversarial",
            "localized_packets",
            "packet_count",
            "first_seen",
            "last_seen",
        }

    def test_completion_reasons_propagate(self, trained_clap):
        connections = _sequential_connections(3)
        detector = StreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=1),
            idle_timeout=1e9,
            close_grace=0.5,
        )
        detector.ingest_many(_packet_stream(connections))
        closed = [e for e in detector.events() if e.completed_by is CompletionReason.CLOSED]
        assert len(closed) >= 2  # all but the final connection close mid-stream
        drained = detector.close()
        assert all(e.completed_by is CompletionReason.DRAIN for e in drained)


class TestMetrics:
    def test_the_detector_owns_its_metrics(self, trained_clap):
        connections = _sequential_connections(4)
        stream = _packet_stream(connections)
        detector = StreamingDetector(
            trained_clap, threshold=0.0, idle_timeout=1e9, close_grace=1e9
        )
        detector.ingest_many(stream)
        detector.close()
        snapshot = detector.metrics_snapshot()
        assert snapshot["shards"] == 1
        assert snapshot["packets_ingested"] == [len(stream)]
        assert snapshot["shard_occupancy"] == [0]
        assert snapshot["events_emitted"] == detector.metrics.events_emitted == 4
        assert detector.connections_seen == detector.metrics.events_emitted
        assert detector.alerts_emitted == detector.metrics.alerts_emitted == 4
        assert "packets=" in detector.render_metrics()


class TestCloseAccounting:
    def test_close_drain_counts_completions(self, trained_clap):
        """Satellite regression: close() used to extend the pending buffer
        straight from flow_table.drain(), bypassing record_completions — so
        completions_by_reason never counted DRAIN batches at workers=1 while
        the sharded close path did."""
        connections = _sequential_connections(5)
        detector = StreamingDetector(trained_clap, idle_timeout=1e9, close_grace=1e9)
        detector.ingest_many(_packet_stream(connections))
        final = detector.close()
        assert len(final) == len(connections)
        snapshot = detector.metrics.snapshot()
        assert snapshot["completions_by_reason"]["drain"] == len(connections)
        assert snapshot["connections_scored"] == len(connections)

    def test_close_drain_applies_drop_policy_to_capacity_only(self, trained_clap):
        """DRAIN completions are never droppable, even under mode='drop' —
        only CAPACITY evictions are; the close path must agree."""
        connections = _sequential_connections(4)
        detector = StreamingDetector(
            trained_clap,
            idle_timeout=1e9,
            close_grace=1e9,
            drop_policy=DropPolicy(mode="drop"),
        )
        detector.ingest_many(_packet_stream(connections))
        final = detector.close()
        assert len(final) == len(connections)
        snapshot = detector.metrics.snapshot()
        assert snapshot["completions_by_reason"]["drain"] == len(connections)
        assert snapshot["capacity_drops"] == 0
