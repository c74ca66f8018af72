"""Process scoring workers: thread/process equivalence, parity, cleanup.

The process pool's acceptance criteria: ``worker_mode="process"`` at workers ∈
{1, 2, 4} emits the identical event set (same keys, scores bit for bit, same
``(first_seen, key)`` close order) as the in-process thread runtime, on both
columnar and object ingest, because the parent makes one detector's
assembly, admission and batching decisions and the workers only score;
metrics aggregate across processes; and the lifecycle bugs (run() leaking
workers on a source error, close() after a worker failure) stay fixed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.attacks.primitives import bad_md5_option
from repro.netstack.columns import PacketColumns
from repro.netstack.flow import CompletionReason, assemble_connections
from repro.netstack.flow import packet_stream as _packet_stream
from repro.netstack.pcap import write_pcap
from repro.serve import (
    DropPolicy,
    FlushPolicy,
    IterableSource,
    ParallelStreamingDetector,
    PcapSource,
    StreamingDetector,
    StreamingMetrics,
    Tick,
)
from repro.serve import streaming
from repro.serve.runtime import _pack_grain
from repro.traffic.generator import TrafficGenerator

from tests.serve.test_flood import FLOOD_SIZE, MAX_FLOWS, syn_flood

#: ``_pack_grain`` of the multi-block grain below, as the packer that
#: walked the packets four times produced it.
PACKED_GRAIN_SHA256 = "cdd1000c474c9a023057c0c6283d9125f661079c7224c36d507800a35a80fd67"


@pytest.fixture(scope="session")
def clap_model_dir(trained_clap, tmp_path_factory):
    """The trained pipeline saved once: process workers mmap this artifact."""
    directory = tmp_path_factory.mktemp("model") / "clap"
    trained_clap.save(directory)
    return directory


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


def _drain_all(detector, stream):
    detector.ingest_many(stream)
    interim = list(detector.events())
    detector.close()
    return interim + list(detector.events())


def _column_stream(connections):
    """The columnar replay of ``connections``: views over one shared block."""
    return PacketColumns.from_packets(_packet_stream(connections)).views()


def _shard_processes():
    return [p for p in multiprocessing.active_children() if p.name.startswith("clap-shard-")]


class TestProcessEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("ingest", ["object", "columnar"])
    def test_same_events_as_thread_runtime(
        self, trained_clap, clap_model_dir, small_dataset, workers, ingest
    ):
        """The acceptance criterion: identical event set vs the in-process
        thread runtime at every worker count, on both ingest paths."""

        def stream():
            if ingest == "columnar":
                return _column_stream(small_dataset.test)
            return _packet_stream(small_dataset.test)

        thread = ParallelStreamingDetector(
            trained_clap,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        expected = _rows(_drain_all(thread, stream()))

        process = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, stream()))
        assert got == expected

    @pytest.mark.parametrize(("worker_mode", "workers"), [("thread", 1), ("process", 2)])
    def test_tiny_read_blocks_give_the_same_events(
        self, trained_clap, clap_model_dir, tmp_path, monkeypatch, worker_mode, workers
    ):
        """Connections spread over many 4 KiB capture blocks score exactly
        as they do when read in the default 4 MiB blocks, and (in thread
        mode, where the extractor can be watched) never become object
        packets on their way to the features."""
        path = tmp_path / "capture.pcap"
        write_pcap(path, _packet_stream(TrafficGenerator(seed=77).generate_connections(24)))

        def rows(block_bytes):
            detector = ParallelStreamingDetector(
                trained_clap,
                workers=workers,
                worker_mode=worker_mode,
                model_dir=clap_model_dir,
                flush_policy=FlushPolicy(max_batch=4),
            )
            events = _drain_all(detector, PcapSource(path, block_bytes=block_bytes))
            return sorted(
                (
                    str(e.result.key),
                    e.first_seen,
                    e.result.packet_count,
                    e.result.localized_packet,
                    e.result.score,
                )
                for e in events
            )

        expected = rows(4 << 20)
        reference_calls = []
        from_packets = PacketColumns.from_packets

        def spy(cls, packets):
            packets = list(packets)
            reference_calls.append(packets)
            return from_packets(packets)

        monkeypatch.setattr(PacketColumns, "from_packets", classmethod(spy))
        got = rows(4096)
        assert len(expected) == 24
        assert [row[:4] for row in got] == [row[:4] for row in expected]
        assert all(abs(a[4] - b[4]) < 1e-9 for a, b in zip(got, expected, strict=True))
        assert reference_calls == []

    @pytest.mark.parametrize("workers", [1, 4])
    def test_realistic_timeouts_still_equivalent(
        self, trained_clap, clap_model_dir, workers
    ):
        connections = _sequential_connections(10)
        baseline = StreamingDetector(trained_clap, idle_timeout=50.0, close_grace=0.5)
        baseline.ingest_many(_packet_stream(connections))
        baseline.close()
        expected = _rows(baseline.events())

        process = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=50.0,
            close_grace=0.5,
        )
        got = _rows(_drain_all(process, _packet_stream(connections)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_close_returns_sorted_events_and_is_idempotent(
        self, trained_clap, clap_model_dir
    ):
        connections = _sequential_connections(9)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=4,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(_packet_stream(connections))
        final = detector.close()
        order = [(e.first_seen, str(e.result.key)) for e in final]
        assert order == sorted(order)
        assert len(final) == len(connections)
        assert detector.close() == []
        assert detector.flush() == []
        detector.poll()  # safe no-op after close
        with pytest.raises(RuntimeError):
            detector.ingest(_packet_stream(connections)[0])

    def test_flush_barrier_scores_everything_pending(
        self, trained_clap, clap_model_dir
    ):
        connections = _sequential_connections(5)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            flush_policy=FlushPolicy(max_batch=64, max_buffered=1024, auto_flush=False),
            idle_timeout=1e9,
            close_grace=0.5,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.poll()
        flushed = detector.flush()
        assert len(flushed) >= len(connections) - 1
        order = [(e.first_seen, str(e.result.key)) for e in flushed]
        assert order == sorted(order)
        assert detector.pending_connections == 0
        detector.close()

    def test_run_consumes_a_source_with_ticks(self, trained_clap, clap_model_dir):
        connections = _sequential_connections(5)
        stream = _packet_stream(connections)
        items = stream + [Tick(stream[-1].timestamp + 1e6)]
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1.0,
        )
        detector.run(IterableSource(items))
        events = list(detector.events())
        assert len(events) == len(connections)
        assert all(event.completed_by.value == "closed" for event in events)

    def test_callbacks_fire_on_the_caller_side(self, trained_clap, clap_model_dir):
        connections = _sequential_connections(6)
        pushed = []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            threshold=-1.0,  # everything alerts
            idle_timeout=1e9,
            close_grace=1e9,
            on_alert=pushed.append,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        assert len(pushed) == len(connections)
        assert detector.alerts_emitted == len(connections)
        assert detector.connections_seen == len(connections)


class TestBackendProcessParity:
    """ISSUE-6 satellite: converted sequence backends must survive the
    process runtime's mmap model sharing — workers reconstruct the backend
    named in the artifact and score identically to the thread runtime."""

    @pytest.fixture(scope="class", params=["gru-f32", "quantized-gru"])
    def backend_setup(self, request, trained_clap, tmp_path_factory):
        converted = trained_clap.with_backend(request.param)
        directory = tmp_path_factory.mktemp("backend-model") / request.param
        converted.save(directory)
        return request.param, converted, directory

    def test_process_workers_match_thread_mode(self, backend_setup, small_dataset):
        backend, converted, model_dir = backend_setup
        thread = ParallelStreamingDetector(
            converted,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        expected = _rows(_drain_all(thread, _packet_stream(small_dataset.test)))

        process = ParallelStreamingDetector(
            converted,
            workers=2,
            worker_mode="process",
            model_dir=model_dir,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, _packet_stream(small_dataset.test)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_temp_save_path_ships_the_converted_backend(self, backend_setup, small_dataset):
        """With no model_dir the workers score the (converted) pipeline the
        parent holds — inherited when forked, a temporary save otherwise —
        so the conversion must not be lost."""
        backend, converted, _ = backend_setup
        thread = ParallelStreamingDetector(converted, idle_timeout=1e9, close_grace=1e9)
        expected = _rows(_drain_all(thread, _packet_stream(small_dataset.test[:6])))

        process = ParallelStreamingDetector(
            converted,
            workers=2,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, _packet_stream(small_dataset.test[:6])))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_mmap_load_reconstructs_the_backend(self, backend_setup):
        """The exact load the workers perform: mmap_mode="r" with a
        non-default backend in the manifest."""
        from repro.core.pipeline import Clap

        backend, converted, model_dir = backend_setup
        restored = Clap.load(model_dir, mmap_mode="r")
        assert restored.serving_backend == backend


def _parity_keys(snapshot):
    """The deterministic metrics signals every worker configuration shares."""
    return {
        "packets": sum(snapshot["packets_ingested"]),
        "completions_by_reason": snapshot["completions_by_reason"],
        "connections_scored": snapshot["connections_scored"],
        "events_emitted": snapshot["events_emitted"],
        "alerts_emitted": snapshot["alerts_emitted"],
        "capacity_drops": snapshot["capacity_drops"],
    }


class TestMetricsParity:
    def test_drain_metrics_agree_across_worker_counts_and_modes(
        self, trained_clap, clap_model_dir
    ):
        """Satellite regression: workers=1 used to miss DRAIN completions
        (close() bypassed the drop-policy accounting), so its counters
        diverged from every sharded configuration's."""
        connections = _sequential_connections(8)
        snapshots = {}
        for label, kwargs in {
            "single": dict(workers=1),
            "processes": dict(workers=4, worker_mode="process", model_dir=clap_model_dir),
        }.items():
            detector = ParallelStreamingDetector(
                trained_clap, idle_timeout=1e9, close_grace=1e9, **kwargs
            )
            detector.ingest_many(_packet_stream(connections))
            detector.close()
            snapshots[label] = _parity_keys(detector.metrics_snapshot())
        assert snapshots["single"] == snapshots["processes"]
        assert snapshots["single"]["completions_by_reason"]["drain"] == len(connections)

    @pytest.mark.parametrize(
        "drop_policy",
        [DropPolicy(mode="drop"), DropPolicy(subnet_budget=40)],
        ids=["drop", "subnet-budget"],
    )
    def test_flood_events_and_completions_agree_across_worker_counts_and_modes(
        self, trained_clap, clap_model_dir, drop_policy
    ):
        """One flow table and one admission state make every capacity
        decision, whatever the worker count: the same flows are evicted,
        dropped or admitted, so the events and the completion counters equal
        the in-process detector's."""
        flood = syn_flood(FLOOD_SIZE)
        outcomes = {}
        for label, kwargs in {
            "thread": dict(workers=1),
            "process-1": dict(workers=1, worker_mode="process", model_dir=clap_model_dir),
            "process-2": dict(workers=2, worker_mode="process", model_dir=clap_model_dir),
        }.items():
            detector = ParallelStreamingDetector(
                trained_clap,
                idle_timeout=1e9,
                close_grace=1e9,
                max_flows=MAX_FLOWS,
                drop_policy=drop_policy,
                **kwargs,
            )
            detector.ingest_many(flood)
            detector.close()
            events = sorted(
                (str(e.result.key), e.completed_by.value, e.result.packet_count, e.result.score)
                for e in detector.events()
            )
            snap = detector.metrics_snapshot()
            reasons = snap["completions_by_reason"]
            assert reasons["capacity"] + reasons["drain"] == FLOOD_SIZE
            assert sum(snap["packets_ingested"]) == FLOOD_SIZE
            assert snap["events_emitted"] == len(events)
            outcomes[label] = (events, reasons, snap["capacity_drops"], snap["subnet_drops"])
        events, reasons, capacity_drops, subnet_drops = outcomes["thread"]
        assert capacity_drops == reasons["capacity"] - len(
            [event for event in events if event[1] == "capacity"]
        )
        if drop_policy.subnet_budget is not None:
            assert subnet_drops > 0  # the budget is exercised
        assert outcomes["process-1"] == outcomes["thread"]
        assert outcomes["process-2"] == outcomes["thread"]

    def test_process_snapshot_populates_occupancy_and_latency(
        self, trained_clap, clap_model_dir
    ):
        connections = _sequential_connections(6)
        stream = _packet_stream(connections)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=3,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(stream)
        detector.close()
        snapshot = detector.metrics_snapshot()
        assert sum(snapshot["packets_ingested"]) == len(stream)
        assert snapshot["connections_scored"] == len(connections)
        assert snapshot["flush_latency"]["count"] > 0
        assert snapshot["shard_occupancy"] == [0]  # one flow table, drained
        assert detector.render_metrics()  # renders without error


#: The counters one flood stream must give identically in every topology.
_FLOOD_COUNTERS = (
    "packets_ingested",
    "completions_by_reason",
    "connections_scored",
    "events_emitted",
    "alerts_emitted",
    "capacity_drops",
    "subnet_drops",
)


class TestOneDetectorObject:
    """The runtime is a StreamingDetector: it owns the flow table, the
    admission state, the event queue and the metrics it inherits."""

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_runtime_is_a_streaming_detector(self, trained_clap, clap_model_dir, worker_mode):
        detector = ParallelStreamingDetector(
            trained_clap, worker_mode=worker_mode, model_dir=clap_model_dir
        )
        try:
            assert isinstance(detector, StreamingDetector)
        finally:
            detector.close()
        assert not _shard_processes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(workers=1),
            dict(workers=1, worker_mode="process"),
            dict(workers=2, worker_mode="process"),
        ],
        ids=["thread", "process-1", "process-2"],
    )
    def test_flood_counters_equal_one_streaming_detector(
        self, trained_clap, clap_model_dir, kwargs
    ):
        flood = syn_flood(FLOOD_SIZE)
        options = dict(
            idle_timeout=1e9,
            close_grace=1e9,
            max_flows=MAX_FLOWS,
            drop_policy=DropPolicy(subnet_budget=40),
        )
        one = StreamingDetector(trained_clap, **options)
        one.ingest_many(flood)
        one.close()
        detector = ParallelStreamingDetector(
            trained_clap, model_dir=clap_model_dir, **options, **kwargs
        )
        detector.ingest_many(flood)
        detector.close()
        expected = one.metrics_snapshot()
        got = detector.metrics_snapshot()
        assert expected["packets_ingested"] == [FLOOD_SIZE]
        assert expected["subnet_drops"] > 0  # the budget is exercised
        assert {name: got[name] for name in _FLOOD_COUNTERS} == {
            name: expected[name] for name in _FLOOD_COUNTERS
        }
        for target in (one, detector):
            assert target.connections_seen == target.metrics.events_emitted
            assert target.alerts_emitted == target.metrics.alerts_emitted


class TestLifecycle:
    def test_run_source_error_shuts_the_pool_down(self, trained_clap, clap_model_dir):
        """Satellite regression: run() used to leak workers when the source
        raised mid-stream (e.g. a strict-mode parse error)."""
        connections = _sequential_connections(4)

        def broken():
            yield from _packet_stream(connections)[:10]
            raise ValueError("malformed record")

        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        with pytest.raises(ValueError, match="malformed record"):
            detector.run(IterableSource(broken()))
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_run_source_error_closes_the_in_process_detector(self, trained_clap):
        connections = _sequential_connections(4)

        def broken():
            yield from _packet_stream(connections)[:10]
            raise ValueError("malformed record")

        detector = ParallelStreamingDetector(trained_clap, idle_timeout=1e9, close_grace=1e9)
        with pytest.raises(ValueError, match="malformed record"):
            detector.run(IterableSource(broken()))
        with pytest.raises(RuntimeError, match="close"):
            detector.ingest(_packet_stream(connections)[0])

    def test_worker_failure_surfaces_and_still_joins(self, trained_clap, tmp_path):
        """A worker that cannot even load its model reports the failure; the
        parent's close() still joins every process and raises."""
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            # Only a spawned worker loads model_dir; a forked one inherits
            # the parent's pipeline and has nothing to fail on.
            start_method="spawn",
            model_dir=tmp_path / "no-such-model",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(_packet_stream(_sequential_connections(3)))
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.close()
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_worker_failure_releases_flush_barrier(self, trained_clap, tmp_path):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            # Only a spawned worker loads model_dir; a forked one inherits
            # the parent's pipeline and has nothing to fail on.
            start_method="spawn",
            model_dir=tmp_path / "no-such-model",
            flush_policy=FlushPolicy(max_batch=64, auto_flush=False),
            idle_timeout=1e9,
            close_grace=0.5,
        )
        detector.ingest_many(_packet_stream(_sequential_connections(3)))
        # The barrier must terminate (failed workers still acknowledge it)
        # and surface the failure instead of blocking forever.
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.flush()
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.close()
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_run_after_worker_failure_raises_and_cleans_up(
        self, trained_clap, tmp_path
    ):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            # Only a spawned worker loads model_dir; a forked one inherits
            # the parent's pipeline and has nothing to fail on.
            start_method="spawn",
            model_dir=tmp_path / "no-such-model",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.run(IterableSource(_packet_stream(_sequential_connections(4))))
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_killed_worker_never_wedges_ingest_or_close(
        self, trained_clap, clap_model_dir
    ):
        """Review regression: a worker killed outright (kill -9 / OOM) stops
        draining its bounded queue; the parent's puts must detect the dead
        process instead of blocking forever, and close() must still return."""
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=1,
            worker_mode="process",
            model_dir=clap_model_dir,
            chunk_size=1,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        stream = _packet_stream(_sequential_connections(30))
        detector._shards[0].process.kill()
        detector._shards[0].process.join(timeout=10.0)
        with pytest.raises(RuntimeError, match="died unexpectedly"):
            for packet in stream:
                detector.ingest(packet)
        with pytest.raises(RuntimeError, match="died unexpectedly"):
            detector.close()
        assert not _shard_processes()

    def test_validation(self, trained_clap):
        with pytest.raises(ValueError):
            ParallelStreamingDetector(trained_clap, worker_mode="fibers")
        with pytest.raises(ValueError):
            ParallelStreamingDetector(
                trained_clap, workers=2, worker_mode="process", max_flows=0
            )
        with pytest.raises(ValueError):
            ParallelStreamingDetector(
                trained_clap, workers=2, worker_mode="process", idle_timeout=-1.0
            )


def _feed(detector, items):
    """Ingest ``items`` (packets and Ticks), close, return every event."""
    for item in items:
        if isinstance(item, Tick):
            detector.poll(item.now)
        else:
            detector.ingest(item)
    interim = list(detector.events())
    detector.close()
    return interim + list(detector.events())


def _assert_matches_one_detector(trained_clap, model_dir, items, workers, **options):
    """The process runtime's events equal one in-process StreamingDetector's:
    same keys, completion reasons, first-seen times, packet counts,
    localised packets and scores."""

    def rows(events):
        return sorted(
            (
                str(e.result.key),
                e.completed_by.value,
                e.first_seen,
                e.result.packet_count,
                e.result.localized_packet,
                e.result.score,
            )
            for e in events
        )

    policy = FlushPolicy(max_batch=4)
    expected = rows(_feed(StreamingDetector(trained_clap, flush_policy=policy, **options), items))
    process = ParallelStreamingDetector(
        trained_clap,
        workers=workers,
        worker_mode="process",
        model_dir=model_dir,
        flush_policy=policy,
        **options,
    )
    got = rows(_feed(process, items))
    assert expected
    assert got == expected


@pytest.mark.parametrize("workers", [1, 2])
class TestBlockRouting:
    """Batches gather their rows from whichever capture blocks hold them;
    these cases move block boundaries and timer expiries around and must not
    change a score."""

    def test_tiny_read_blocks(self, trained_clap, clap_model_dir, tmp_path, workers):
        path = tmp_path / "capture.pcap"
        write_pcap(path, _packet_stream(TrafficGenerator(seed=78).generate_connections(16)))
        items = list(PcapSource(path, block_bytes=4096))
        assert len({id(view.columns) for view in items}) > 8  # batches span blocks
        _assert_matches_one_detector(trained_clap, clap_model_dir, items, workers)

    def test_tick_between_rows_of_one_block(self, trained_clap, clap_model_dir, workers):
        connections = _sequential_connections(8)
        views = _column_stream(connections)
        items = []
        for view in views:
            if items and view.timestamp - items[-1].timestamp > 50.0:
                # Mid-gap: every earlier connection is idle-expired here.
                items.append(Tick(items[-1].timestamp + 60.0))
            items.append(view)
        assert sum(isinstance(item, Tick) for item in items) == len(connections) - 1
        _assert_matches_one_detector(
            trained_clap, clap_model_dir, items, workers, idle_timeout=50.0, close_grace=0.5
        )

    def test_object_packets_with_an_invalid_md5_option(
        self, trained_clap, clap_model_dir, workers
    ):
        packets = sorted(
            _packet_stream(_sequential_connections(6, seed=17)), key=lambda p: p.timestamp
        )
        # Only the in-memory option knows it is invalid; the workers must
        # see it through the from_packets block's md5_ok column.
        bad_md5_option(packets[2], np.random.default_rng(0))
        assert PacketColumns.from_packets([packets[2]]).md5_ok[0] == 0.0
        _assert_matches_one_detector(
            trained_clap, clap_model_dir, packets, workers, idle_timeout=50.0, close_grace=0.5
        )


class TestCallerRuns:
    def test_parent_scores_a_batch_when_every_worker_is_full(
        self, trained_clap, clap_model_dir
    ):
        """With its one worker stopped on a batch, the parent scores the next
        batch itself instead of waiting, and every event still equals one
        in-process detector's."""
        connections = _sequential_connections(12)
        options = dict(flush_policy=FlushPolicy(max_batch=4), idle_timeout=1e9, close_grace=0.5)
        expected = _rows(_drain_all(StreamingDetector(trained_clap, **options), _packet_stream(connections)))
        pushed = []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=1,
            worker_mode="process",
            model_dir=clap_model_dir,
            on_event=pushed.append,
            **options,
        )
        detector.flush()  # the worker is up
        worker = detector._shards[0].process
        os.kill(worker.pid, signal.SIGSTOP)
        try:
            # Connection i completes when connection i + 1 starts: the first
            # nine make two batches, the worker's and the parent's.
            detector.ingest_many(_packet_stream(connections[:9]))
            assert sorted(str(e.result.key) for e in pushed) == sorted(
                str(connection.key) for connection in connections[4:8]
            )
        finally:
            os.kill(worker.pid, signal.SIGCONT)
        detector.ingest_many(_packet_stream(connections[9:]))
        detector.close()
        assert _rows(pushed) == expected
        assert detector.degradation_report().losses == []


@pytest.fixture
def split_batches(monkeypatch):
    """Grains of 2 connections in flush batches of 8: every batch splits, and
    a worker's allowance (one batch) is 4 grains."""
    monkeypatch.setattr(streaming, "SCORING_GRAIN", 2)
    return FlushPolicy(max_batch=8)


def _in_order(events):
    return sorted(events, key=lambda event: (event.first_seen, str(event.result.key)))


class TestGrainSplit:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_events_equal_one_detector(self, trained_clap, clap_model_dir, split_batches, workers):
        items = _column_stream(_sequential_connections(30))
        options = dict(flush_policy=split_batches, idle_timeout=1e9, close_grace=0.5)
        baseline = StreamingDetector(trained_clap, **options)
        expected = _feed(baseline, items)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            **options,
        )
        got = _feed(detector, items)
        assert len(expected) == 30
        assert _in_order(got) == _in_order(expected)
        # 15 engine calls of 2 connections each, wherever they ran.
        assert baseline.metrics.snapshot()["flush_latency"]["count"] == 15
        assert detector.metrics_snapshot()["flush_latency"]["count"] == 15

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flood_with_a_subnet_budget_equals_one_detector(
        self, trained_clap, clap_model_dir, split_batches, workers
    ):
        flood = syn_flood(600)
        options = dict(
            flush_policy=split_batches,
            idle_timeout=1e9,
            close_grace=1e9,
            max_flows=MAX_FLOWS,
            drop_policy=DropPolicy(subnet_budget=40),
        )
        expected = _feed(StreamingDetector(trained_clap, **options), flood)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            **options,
        )
        got = _feed(detector, flood)
        assert detector.metrics_snapshot()["subnet_drops"] > 0  # the budget is exercised
        assert len(expected) > 8
        assert _in_order(got) == _in_order(expected)

    def test_parent_scores_the_grains_beyond_the_workers_allowance(
        self, trained_clap, clap_model_dir, split_batches
    ):
        """One poll completes 10 connections: a batch of 8 and one of 2, five
        grains.  The stopped worker takes its allowance of 4, and the parent
        scores the fifth itself and delivers it at once."""
        stream = _packet_stream(_sequential_connections(10))
        options = dict(flush_policy=split_batches, idle_timeout=1e9, close_grace=1e9)
        baseline = StreamingDetector(trained_clap, **options)
        baseline.ingest_many(stream)
        baseline.poll(1e12)
        expected = list(baseline.events())  # in grain order
        assert len(expected) == 10
        pushed = []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=1,
            worker_mode="process",
            model_dir=clap_model_dir,
            on_event=pushed.append,
            **options,
        )
        detector.flush()  # the worker is up
        shard = detector._shards[0]
        os.kill(shard.process.pid, signal.SIGSTOP)
        try:
            detector.ingest_many(stream)
            assert detector.pending_connections == 0  # nothing has completed
            detector.poll(1e12)
            assert len(shard.inflight) == 4
            assert pushed == expected[8:]
        finally:
            os.kill(shard.process.pid, signal.SIGCONT)
        detector.close()
        assert _in_order(pushed) == _in_order(expected)
        assert detector.degradation_report().losses == []

    def test_a_grain_the_parent_fails_to_score_stays_buffered(
        self, trained_clap, clap_model_dir, split_batches, monkeypatch
    ):
        stream = _packet_stream(_sequential_connections(10))
        options = dict(flush_policy=split_batches, idle_timeout=1e9, close_grace=1e9)
        baseline = StreamingDetector(trained_clap, **options)
        baseline.ingest_many(stream)
        baseline.poll(1e12)
        expected = list(baseline.events())
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=1,
            worker_mode="process",
            model_dir=clap_model_dir,
            **options,
        )
        detector.flush()  # the worker is up
        shard = detector._shards[0]
        # The worker loaded its own model; only the parent's engine fails.
        detect_batch = trained_clap.detect_batch
        failures = []

        def fail_once(connections, **kwargs):
            if not failures:
                failures.append(len(connections))
                raise RuntimeError("engine call failed")
            return detect_batch(connections, **kwargs)

        monkeypatch.setattr(trained_clap, "detect_batch", fail_once)
        os.kill(shard.process.pid, signal.SIGSTOP)
        try:
            detector.ingest_many(stream)
            with pytest.raises(RuntimeError, match="engine call failed"):
                detector.poll(1e12)
            # Four grains are in flight; the fifth is still buffered.
            assert failures == [2]
            assert len(shard.inflight) == 4
            assert detector.pending_connections == 10
        finally:
            os.kill(shard.process.pid, signal.SIGCONT)
        detector.close()
        assert _in_order(detector.events()) == _in_order(expected)
        assert detector.degradation_report().losses == []


def test_pack_grain_bytes_are_unchanged_on_a_multi_block_grain(tmp_path):
    """A grain whose rows come from several 4 KiB capture blocks and from
    object packets packs to the bytes recorded before the one-pass packer."""
    path = tmp_path / "capture.pcap"
    write_pcap(path, _packet_stream(TrafficGenerator(seed=78).generate_connections(6)))
    views = list(PcapSource(path, block_bytes=4096))
    assert len({id(view.columns) for view in views}) > 4
    connections = sorted(
        assemble_connections(views), key=lambda connection: connection.packets[0].timestamp
    )
    objects = _sequential_connections(2, seed=5)
    grain = [connections[0], objects[0], *connections[1:], objects[1]]
    payload, bounds = _pack_grain(grain)
    assert bounds == [0, *np.cumsum([len(connection.packets) for connection in grain])]
    assert hashlib.sha256(payload).hexdigest() == PACKED_GRAIN_SHA256


class TestWorkerStateMerging:
    def test_snapshot_folds_worker_structs(self):
        """Pure-unit check of the cross-process metrics merge: a worker ships
        its engine-call counters; everything else is the parent's."""
        local = StreamingMetrics()
        local.record_flush(3, 0.002)

        parent = StreamingMetrics()
        parent.set_ingested(0, 10)
        parent.record_completions([(None, CompletionReason.DRAIN)])
        parent.record_drop(2)
        parent.record_pending_depth(7)
        parent.record_events(3, 1)
        parent.absorb_worker_state(0, local.worker_state())
        snap = parent.snapshot()
        assert snap["completions_by_reason"]["drain"] == 1
        assert snap["connections_scored"] == 3
        assert snap["capacity_drops"] == 2
        assert snap["max_pending_depth"] == 7
        assert snap["flush_latency"]["count"] == 1
        assert snap["events_emitted"] == 3
        # Absorbing the *latest* struct twice must not double count.
        parent.absorb_worker_state(0, local.worker_state())
        assert parent.snapshot()["connections_scored"] == 3
        rendered = parent.render()
        assert "scored=3" in rendered and "n=1" in rendered


def _refuse_load(*args, **kwargs):
    raise AssertionError("a process worker loaded the model")


class TestInheritedModel:
    """Forked workers score with the parent's already-loaded pipeline."""

    @staticmethod
    def _in_order(events):
        return sorted(events, key=lambda event: (event.first_seen, str(event.result.key)))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_forked_workers_never_load_the_model(
        self, clap_model_dir, small_dataset, monkeypatch, workers
    ):
        from repro.core.pipeline import Clap

        clap = Clap.load(clap_model_dir, mmap_mode="r")
        options = dict(flush_policy=FlushPolicy(max_batch=4), idle_timeout=1e9, close_grace=1e9)
        expected = _drain_all(
            StreamingDetector(clap, **options), _packet_stream(small_dataset.test)
        )
        monkeypatch.setattr(Clap, "load", _refuse_load)
        process = ParallelStreamingDetector(
            clap,
            workers=workers,
            worker_mode="process",
            start_method="fork",
            model_dir=clap_model_dir,
            **options,
        )
        got = _drain_all(process, _packet_stream(small_dataset.test))
        assert not process.worker_losses
        assert any(shard.scored_packets for shard in process._shards)
        assert self._in_order(got) == self._in_order(expected)

    def test_spawned_worker_loads_a_temporary_artifact(self, trained_clap, small_dataset):
        """Without fork there is nothing to inherit: the runtime saves the
        pipeline for its worker and removes the save at close."""
        options = dict(flush_policy=FlushPolicy(max_batch=4), idle_timeout=1e9, close_grace=1e9)
        connections = small_dataset.test[:6]
        expected = _drain_all(StreamingDetector(trained_clap, **options), _packet_stream(connections))
        process = ParallelStreamingDetector(
            trained_clap, worker_mode="process", start_method="spawn", **options
        )
        artifact = process._shards[0].spec.model_dir
        assert artifact is not None and os.path.isdir(artifact)
        got = _drain_all(process, _packet_stream(connections))
        assert not process.worker_losses
        assert self._in_order(got) == self._in_order(expected)
        assert not os.path.exists(artifact)
