"""ParallelStreamingDetector: sharded equivalence, ordering, backpressure.

One worker runs the in-process thread mode; more workers run process shards.
"""

from __future__ import annotations

import pytest

from repro.netstack.flow import packet_stream as _packet_stream
from repro.serve import runtime as runtime_module
from repro.serve import (
    DropPolicy,
    FlushPolicy,
    IterableSource,
    ParallelStreamingDetector,
    StreamingDetector,
    Tick,
)
from repro.traffic.generator import TrafficGenerator


def _sequential_connections(count, seed=311, spacing=100.0):
    connections = TrafficGenerator(seed=seed).generate_connections(count)
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * spacing + position * 0.01
    return connections


def _rows(events):
    return sorted(
        (str(e.result.key), e.result.packet_count, e.result.score) for e in events
    )


def _parallel(clap, workers, **kwargs):
    mode = "thread" if workers == 1 else "process"
    return ParallelStreamingDetector(clap, workers=workers, worker_mode=mode, **kwargs)


def _drain_all(detector, stream):
    """Ingest a stream and close, returning every event exactly once.

    ``close()`` both returns the final-drain events and queues them for
    :meth:`events` (mirroring ``StreamingDetector``), so the queue alone is
    the duplicate-free record.
    """
    detector.ingest_many(stream)
    interim = list(detector.events())
    detector.close()
    return interim + list(detector.events())


def _explode(*args, **kwargs):
    raise RuntimeError("engine blew up")


class TestShardedEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_events_as_single_threaded_detector(
        self, trained_clap, small_dataset, workers
    ):
        """The ISSUE acceptance criterion: same connection keys, scores within
        1e-9, at every worker count."""
        stream = _packet_stream(small_dataset.test)
        baseline = StreamingDetector(trained_clap, idle_timeout=1e9, close_grace=1e9)
        baseline.ingest_many(stream)
        baseline.close()
        expected = _rows(baseline.events())

        parallel = _parallel(
            trained_clap,
            workers,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(parallel, _packet_stream(small_dataset.test)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_realistic_timeouts_still_equivalent(self, trained_clap, workers):
        """Close-grace/idle expiry against the global clock keeps the emitted
        set identical even when timers actually fire mid-stream."""
        connections = _sequential_connections(10)
        stream = _packet_stream(connections)
        baseline = StreamingDetector(trained_clap, idle_timeout=50.0, close_grace=0.5)
        baseline.ingest_many(stream)
        baseline.close()
        expected = _rows(baseline.events())

        parallel = _parallel(trained_clap, workers, idle_timeout=50.0, close_grace=0.5)
        got = _rows(_drain_all(parallel, _packet_stream(connections)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_completion_reasons_match_single_table(self, trained_clap):
        connections = _sequential_connections(8)
        stream = _packet_stream(connections)
        baseline = StreamingDetector(trained_clap, idle_timeout=50.0, close_grace=0.5)
        baseline.ingest_many(stream)
        baseline.close()
        expected = sorted(
            (str(e.result.key), e.completed_by.value) for e in baseline.events()
        )
        parallel = ParallelStreamingDetector(
            trained_clap,
            workers=4,
            worker_mode="process",
            idle_timeout=50.0,
            close_grace=0.5,
        )
        events = _drain_all(parallel, _packet_stream(connections))
        assert sorted((str(e.result.key), e.completed_by.value) for e in events) == expected


class TestCloseOrdering:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_close_returns_sorted_events(self, trained_clap, workers):
        connections = _sequential_connections(9)
        detector = _parallel(trained_clap, workers, idle_timeout=1e9, close_grace=1e9)
        detector.ingest_many(_packet_stream(connections))
        final = detector.close()
        order = [(e.first_seen, str(e.result.key)) for e in final]
        assert order == sorted(order)
        assert len(final) == len(connections)

    def test_close_returns_every_drained_event_past_max_batch(self, trained_clap):
        """Regression: the end-of-stream drain used to leak through the
        worker-side auto-flush whenever a shard drained >= max_batch flows,
        leaving close() with a partial (or empty) return value."""
        connections = _sequential_connections(12)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            flush_policy=FlushPolicy(max_batch=2),
            idle_timeout=1e9,
            close_grace=1e9,  # nothing completes before the drain
        )
        detector.ingest_many(_packet_stream(connections))
        final = detector.close()
        assert len(final) == len(connections)
        order = [(e.first_seen, str(e.result.key)) for e in final]
        assert order == sorted(order)

    def test_close_is_idempotent_and_ingest_after_close_fails(self, trained_clap):
        detector = ParallelStreamingDetector(trained_clap, workers=2, worker_mode="process")
        connections = _sequential_connections(2)
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        assert detector.close() == []
        with pytest.raises(RuntimeError):
            detector.ingest(_packet_stream(connections)[0])

    def test_thread_mode_ingest_many_after_close_fails(self, trained_clap):
        detector = ParallelStreamingDetector(trained_clap)
        stream = _packet_stream(_sequential_connections(2))
        detector.ingest_many(stream)
        detector.close()
        with pytest.raises(RuntimeError, match="after close"):
            detector.ingest_many(stream)
        assert detector.packets_ingested == len(stream)

    def test_flush_and_poll_after_close_are_safe_noops(self, trained_clap):
        """Regression: flush() after close() used to deadlock on a barrier
        queued to already-joined workers."""
        detector = ParallelStreamingDetector(trained_clap, workers=2, worker_mode="process")
        detector.ingest_many(_packet_stream(_sequential_connections(2)))
        detector.close()
        assert detector.flush() == []
        detector.poll()  # must not block either


class TestEventSurface:
    def test_callbacks_fire_for_every_connection(self, trained_clap):
        connections = _sequential_connections(6)
        pushed = []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=3,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
            on_event=pushed.append,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        assert len(pushed) == len(connections)
        pulled = list(detector.events())
        assert _rows(pulled) == _rows(pushed)

    def test_alert_callback_and_counters(self, trained_clap):
        connections = _sequential_connections(4)
        alerts = []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            threshold=-1.0,  # everything alerts
            idle_timeout=1e9,
            close_grace=1e9,
            on_alert=alerts.append,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        assert len(alerts) == len(connections)
        assert detector.alerts_emitted == len(connections)
        assert detector.connections_seen == len(connections)

    def test_flush_barrier_scores_everything_pending(self, trained_clap):
        connections = _sequential_connections(5)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            flush_policy=FlushPolicy(max_batch=64, max_buffered=1024, auto_flush=False),
            idle_timeout=1e9,
            close_grace=0.5,
        )
        detector.ingest_many(_packet_stream(connections))
        # Expire close-grace timers at the global clock on every shard, then
        # score everything the expiry completed.
        detector.poll()
        flushed = detector.flush()
        # All but the last connection closed mid-stream; the barrier scored
        # every one of them, in deterministic order.
        assert len(flushed) >= len(connections) - 1
        order = [(e.first_seen, str(e.result.key)) for e in flushed]
        assert order == sorted(order)
        assert detector.pending_connections == 0
        detector.close()


class TestSourcesIntegration:
    def test_run_consumes_a_source_with_ticks(self, trained_clap):
        connections = _sequential_connections(5)
        stream = _packet_stream(connections)
        # A tick after the stream advances past every close grace, so all
        # connections complete CLOSED before the final drain.
        items = stream + [Tick(stream[-1].timestamp + 1e6)]
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1.0,
        )
        detector.run(IterableSource(items))
        events = list(detector.events())
        assert len(events) == len(connections)
        assert all(event.completed_by.value == "closed" for event in events)


class TestDropPolicyAndMetrics:
    def test_capacity_drops_are_counted_not_scored(self, trained_clap):
        connections = _sequential_connections(12, spacing=0.5)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
            max_flows=4,
            drop_policy=DropPolicy(mode="drop"),
        )
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        events = list(detector.events())
        snapshot = detector.metrics_snapshot()
        capacity = snapshot["completions_by_reason"]["capacity"]
        assert capacity > 0
        assert snapshot["capacity_drops"] == capacity
        # Dropped flows never became events.
        assert len(events) == len(connections) - capacity
        assert all(event.completed_by.value != "capacity" for event in events)

    def test_metrics_snapshot_accounts_for_all_packets(self, trained_clap):
        connections = _sequential_connections(6)
        stream = _packet_stream(connections)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=3,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(stream)
        detector.close()
        snapshot = detector.metrics_snapshot()
        assert sum(snapshot["packets_ingested"]) == len(stream)
        assert snapshot["connections_scored"] == len(connections)
        assert snapshot["events_emitted"] == len(connections)
        assert snapshot["flush_latency"]["count"] > 0
        assert snapshot["shard_occupancy"] == [0]  # one flow table, drained
        assert detector.render_metrics()  # renders without error

    def test_single_worker_metrics_also_populated(self, trained_clap):
        connections = _sequential_connections(3)
        stream = _packet_stream(connections)
        detector = ParallelStreamingDetector(trained_clap, workers=1, idle_timeout=1e9)
        detector.ingest_many(stream)
        detector.close()
        snapshot = detector.metrics_snapshot()
        assert snapshot["packets_ingested"] == [len(stream)]
        assert snapshot["events_emitted"] == len(connections)

    def test_worker_failure_during_flush_surfaces_not_deadlocks(
        self, trained_clap, monkeypatch
    ):
        """Regression: an engine error while a worker handled a flush barrier
        left the barrier unanswered and flush() blocked forever."""
        monkeypatch.setattr(runtime_module, "drain_pending", _explode)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            start_method="fork",  # the workers inherit the patched scorer
            flush_policy=FlushPolicy(max_batch=64, auto_flush=False),
            threshold=0.0,
            idle_timeout=1e9,
            close_grace=0.5,
        )
        detector.ingest_many(_packet_stream(_sequential_connections(4)))
        detector.poll()  # completions reach the pending buffers
        # The barrier must be answered even though scoring failed: flush()
        # returns from the wait and surfaces the worker failure.
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.flush()
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.close()

    def test_worker_failure_during_close_surfaces_not_deadlocks(
        self, trained_clap, monkeypatch
    ):
        """Regression: an engine error during the end-of-stream drain left
        close() joining a dead worker forever."""
        monkeypatch.setattr(runtime_module, "drain_pending", _explode)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            start_method="fork",  # the workers inherit the patched scorer
            threshold=0.0,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(_packet_stream(_sequential_connections(3)))
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.close()

    def test_thread_mode_is_one_in_process_detector(self, trained_clap):
        with pytest.raises(ValueError, match="worker_mode='process'"):
            ParallelStreamingDetector(trained_clap, workers=2)
        with pytest.raises(ValueError, match="worker_mode='process'"):
            ParallelStreamingDetector(trained_clap, workers=4, worker_mode="thread")

    def test_validation(self, trained_clap):
        with pytest.raises(ValueError):
            ParallelStreamingDetector(trained_clap, workers=0)
        with pytest.raises(ValueError):
            ParallelStreamingDetector(trained_clap, workers=2, worker_mode="process", chunk_size=0)
        with pytest.raises(ValueError):
            DropPolicy(mode="maybe")
        with pytest.raises(ValueError):
            DropPolicy(min_packets=-1)
