"""PR 9 fault matrix: every fault x policy terminates with known loss.

The acceptance criterion: under any single injected fault — instance
SIGKILL, shard-worker SIGKILL, torn/corrupted frame, connection refusal,
wedged peer — the stream terminates within its deadline under each failure
policy.  ``respawn`` is score-identical at 1e-9 when no packets were in
flight, ``degrade`` satisfies the accounting identity ``packets_routed =
packets_scored + packets_lost_inflight`` with every lost packet attributed,
and ``fail`` raises with a full teardown (no leaked processes).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.netstack.flow import flow_key_of, key_slot, packet_stream
from repro.netstack.pcap import write_pcap
from repro.serve import (
    FaultPlan,
    FaultSpecError,
    FlowPartitioner,
    FlushPolicy,
    InstanceConfig,
    InstanceFailure,
    ParallelStreamingDetector,
    PcapSource,
    StreamingDetector,
    parse_fault_specs,
)
from repro.serve import runtime as runtime_module
from repro.traffic.generator import TrafficGenerator

IDLE_TIMEOUT = 50.0
CLOSE_GRACE = 0.5


# --------------------------------------------------------------------- helpers
def _sequential_connections(count, seed=311, spacing=10.0):
    connections = TrafficGenerator(seed=seed).generate_connections(count)
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * spacing + position * 0.01
    return connections


def _rows(events):
    return sorted(
        (str(e.result.key), e.result.packet_count, e.result.score) for e in events
    )


def _assert_rows_match(actual_events, expected_events):
    actual, expected = _rows(actual_events), _rows(expected_events)
    assert [row[:2] for row in actual] == [row[:2] for row in expected]
    for got, want in zip(actual, expected, strict=True):
        assert abs(got[2] - want[2]) <= 1e-9, got[0]


def _drain_all(target, stream):
    target.ingest_many(stream)
    interim = list(target.events())
    target.close()
    return interim + list(target.events())


def _instance_processes():
    return [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("clap-instance-")
    ]


def _shard_processes():
    return [
        p for p in multiprocessing.active_children() if p.name.startswith("clap-shard-")
    ]


def _assert_identity(partitioner):
    """packets_routed = packets_scored + packets_lost_inflight, exactly."""
    report = partitioner.degradation_report()
    lost = sum(loss.packets_lost_inflight for loss in report.losses)
    assert partitioner._routed_total == partitioner._scored_total + lost
    snapshot = partitioner.metrics_snapshot()["degradation"]
    assert snapshot["packets_routed"] == partitioner._routed_total
    assert snapshot["packets_scored"] == partitioner._scored_total


@pytest.fixture(scope="module")
def fault_model_dir(trained_clap, tmp_path_factory):
    directory = tmp_path_factory.mktemp("faults") / "model"
    trained_clap.save(directory)
    return str(directory)


@pytest.fixture(scope="module")
def replay_packets():
    return sorted(
        packet_stream(_sequential_connections(16)), key=lambda p: p.timestamp
    )


@pytest.fixture(scope="module")
def baseline_events(trained_clap, replay_packets):
    detector = StreamingDetector(
        trained_clap, idle_timeout=IDLE_TIMEOUT, close_grace=CLOSE_GRACE
    )
    return _drain_all(detector, replay_packets)


def _partitioner(model_dir, *, plan=None, policy="fail", **overrides):
    options = dict(
        instances=2,
        config=InstanceConfig(idle_timeout=IDLE_TIMEOUT, close_grace=CLOSE_GRACE),
        on_instance_failure=policy,
        fault_plan=plan,
        io_deadline=20.0,
    )
    options.update(overrides)
    return FlowPartitioner(model_dir, **options)


# ------------------------------------------------------------------ fault plan
class TestFaultPlan:
    def test_spec_grammar_round_trips(self):
        plan = parse_fault_specs(
            [
                "kill-instance:0@40",
                "wedge-worker:1@10",
                "refuse-connect:1*3",
                "drop-frame:PKTS#2",
                "delay-frame:ROWS#1@0.5",
            ],
            seed=7,
        )
        assert plan.packet_routed(40) == [
            ("kill-instance", 0),
            ("wedge-worker", 1),
        ]
        assert plan.connect_attempt(1) and plan.connect_attempt(1)
        assert plan.connect_attempt(0) is False
        assert plan.frame_fault("PKTS") is None
        assert plan.frame_fault("PKTS") == "drop"
        assert plan.frame_fault("ROWS") == ("delay", 0.5)
        kinds = [fired[0] for fired in plan.fired]
        assert kinds == [
            "kill-instance",
            "wedge-worker",
            "refuse-connect",
            "refuse-connect",
            "drop-frame",
            "delay-frame",
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            "kill-instance",
            "kill-instance:0",
            "kill-instance:x@3",
            "drop-frame:PKTS",
            "delay-frame:PKTS#1",
            "explode:0@1",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_specs([spec])

    def test_corruption_is_seeded_and_never_a_noop(self):
        payload = b'{"op": "poll", "now": 1.5}'
        first = FaultPlan(seed=11).corrupt(payload)
        second = FaultPlan(seed=11).corrupt(payload)
        assert first == second
        assert first != payload
        assert len(first) == len(payload)

    def test_process_fault_fires_exactly_once(self):
        plan = FaultPlan().kill_instance(0, at_packet=5)
        assert plan.packet_routed(4) == []
        assert plan.packet_routed(1) == [("kill-instance", 0)]
        assert plan.packet_routed(100) == []


# ------------------------------------------------------- instance kill x policy
class TestInstanceKill:
    def test_degrade_completes_with_known_loss(
        self, fault_model_dir, replay_packets, baseline_events
    ):
        plan = FaultPlan(seed=3).kill_instance(1, at_packet=30)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="degrade")
        events = _drain_all(partitioner, replay_packets)
        assert ("kill-instance", 1, 30) in plan.fired
        report = partitioner.degradation_report()
        assert report, "a lost instance must produce a non-empty report"
        assert any(
            loss.kind == "instance" and loss.policy == "degrade"
            for loss in report.losses
        )
        _assert_identity(partitioner)
        # Flows rehashed onto survivors carry the explicit degraded flag.
        assert any(event.result.degraded for event in events)
        assert report.degraded_flows == sum(
            1 for event in events if event.result.degraded
        )
        # Survivors still scored their share: the event set is a subset of
        # the baseline with identical scores for the flows that completed.
        baseline = {row[0]: row for row in _rows(baseline_events)}
        for key, count, score in _rows(events):
            assert key in baseline
            if count == baseline[key][1]:
                assert abs(score - baseline[key][2]) <= 1e-9
        kinds = [type(e).__name__ for e in partitioner.service_events()]
        assert "InstanceLost" in kinds
        assert "DegradedMode" in kinds
        assert not _instance_processes()

    def test_fail_raises_and_tears_down(self, fault_model_dir, replay_packets):
        plan = FaultPlan(seed=3).kill_instance(1, at_packet=30)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="fail")
        with pytest.raises(InstanceFailure) as failure:
            _drain_all(partitioner, replay_packets)
        assert failure.value.index == 1
        partitioner.close()
        report = partitioner.degradation_report()
        assert any(loss.policy == "fail" for loss in report.losses)
        assert not _instance_processes(), "fail must not leak instance processes"

    def test_respawn_is_score_identical_at_a_clean_boundary(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        """SIGKILL with no packets in flight: respawn recovers exactly."""
        # Split at a connection boundary (spacing 10.0): tearing a
        # connection across the kill would change its packet grouping.  A
        # short idle timeout lets poll(76.0) — still before the second
        # half's first timestamp, so the stream clock is never pushed ahead
        # of the data — complete and score every first-half flow.
        idle = 5.0
        first = [p for p in replay_packets if p.timestamp < 75.0]
        second = [p for p in replay_packets if p.timestamp >= 75.0]
        split = len(first)
        baseline = StreamingDetector(
            trained_clap, idle_timeout=idle, close_grace=CLOSE_GRACE
        )
        expected = _drain_all(baseline, replay_packets)
        plan = FaultPlan(seed=5)
        partitioner = _partitioner(
            fault_model_dir,
            plan=plan,
            policy="respawn",
            chunk_size=1,
            # Score every completion immediately, so "no packets in flight"
            # is reachable by waiting for scored to catch up with routed.
            config=InstanceConfig(
                idle_timeout=idle,
                close_grace=CLOSE_GRACE,
                flush_policy=FlushPolicy(max_batch=1),
            ),
        )
        partitioner.ingest_many(first)
        # Complete and score everything routed so far: idle-expire every
        # flow, then wait for the events to flow back.
        partitioner.poll(76.0)
        events = []
        settle_deadline = time.monotonic() + 30.0
        while partitioner._scored_total < partitioner._routed_total:
            events.extend(partitioner.events())
            assert (
                time.monotonic() < settle_deadline
            ), "instances never scored the first half"
            time.sleep(0.02)
        events.extend(partitioner.events())
        # Kill the instance that does NOT own the next packet, so the packet
        # that trips the fault hook is never in flight to the dead peer.
        owner = partitioner._route[key_slot(flow_key_of(second[0]), 2)]
        victim = 1 - owner
        plan.kill_instance(victim, at_packet=split + 1)
        partitioner.ingest(second[0])
        # Wait for the death to be detected and the respawn to finish, so no
        # second-half packet is shipped into the dead incarnation's void.
        settle_deadline = time.monotonic() + 30.0
        while partitioner.degradation_report().respawns < 1:
            events.extend(partitioner.events())
            assert (
                time.monotonic() < settle_deadline
            ), "instance death was never detected"
            time.sleep(0.02)
        partitioner.ingest_many(second[1:])
        events.extend(partitioner.events())
        partitioner.close()
        events.extend(partitioner.events())
        assert any(fired[0] == "kill-instance" for fired in plan.fired)
        report = partitioner.degradation_report()
        assert report.respawns == 1
        assert all(loss.packets_lost_inflight == 0 for loss in report.losses)
        _assert_rows_match(events, expected)
        _assert_identity(partitioner)
        assert not _instance_processes()


# ----------------------------------------------------- wedges and frame faults
class TestWedgeAndFrameFaults:
    def test_wedged_instance_is_cut_loose_at_close(
        self, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=3).wedge_instance(1, at_packet=30)
        partitioner = _partitioner(
            fault_model_dir, plan=plan, policy="degrade", io_deadline=2.0
        )
        events = _drain_all(partitioner, replay_packets)
        assert events, "survivors must still score their flows"
        report = partitioner.degradation_report()
        assert report, "a wedged instance must be recorded as lost"
        _assert_identity(partitioner)
        assert not _instance_processes()

    def test_corrupt_frame_degrades(self, fault_model_dir, replay_packets):
        plan = FaultPlan(seed=9).corrupt_frame("ROWS", nth=5)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="degrade")
        events = _drain_all(partitioner, replay_packets)
        assert ("corrupt-frame", "ROWS", 5) in plan.fired
        assert events
        report = partitioner.degradation_report()
        assert report
        _assert_identity(partitioner)
        assert not _instance_processes()

    def test_corrupt_frame_fails_under_fail_policy(
        self, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=9).corrupt_frame("ROWS", nth=5)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="fail")
        with pytest.raises(InstanceFailure):
            _drain_all(partitioner, replay_packets)
        partitioner.close()
        assert not _instance_processes()

    def test_dropped_frame_is_attributed_at_close(
        self, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=9).drop_frame("ROWS", nth=5)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="degrade")
        _drain_all(partitioner, replay_packets)
        report = partitioner.degradation_report()
        assert any("unaccounted" in loss.reason for loss in report.losses)
        _assert_identity(partitioner)
        assert not _instance_processes()


# ------------------------------------------------------------ connect refusals
class TestConnectRefusal:
    def test_fail_policy_refusal_raises_without_leaking(self, fault_model_dir):
        plan = FaultPlan().refuse_connect(0)
        with pytest.raises(OSError):
            _partitioner(fault_model_dir, plan=plan, policy="fail")
        assert not _instance_processes(), (
            "a startup connect failure must tear down already-spawned instances"
        )

    def test_respawn_policy_retries_through_a_refusal(
        self, fault_model_dir, replay_packets, baseline_events
    ):
        plan = FaultPlan().refuse_connect(0, times=1)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="respawn")
        events = _drain_all(partitioner, replay_packets)
        _assert_rows_match(events, baseline_events)
        assert not partitioner.degradation_report().losses
        assert not _instance_processes()

    def test_degrade_policy_starts_on_the_survivor(
        self, fault_model_dir, replay_packets
    ):
        plan = FaultPlan().refuse_connect(0, times=10)
        partitioner = _partitioner(fault_model_dir, plan=plan, policy="degrade")
        events = _drain_all(partitioner, replay_packets)
        assert events, "the surviving instance must carry the whole stream"
        report = partitioner.degradation_report()
        assert any("startup" in loss.reason for loss in report.losses)
        _assert_identity(partitioner)
        assert not _instance_processes()


# -------------------------------------------------------- shard worker faults
def _worker_detector(trained_clap, model_dir, *, plan=None, policy="fail", **kw):
    options = dict(
        workers=2,
        worker_mode="process",
        model_dir=model_dir,
        flush_policy=FlushPolicy(max_batch=4),
        idle_timeout=IDLE_TIMEOUT,
        close_grace=CLOSE_GRACE,
        on_worker_failure=policy,
        fault_plan=plan,
        stall_deadline=5.0,
    )
    options.update(kw)
    return ParallelStreamingDetector(trained_clap, **options)


class TestWorkerFaults:
    def test_kill_worker_degrade_completes(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=3).kill_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap, fault_model_dir, plan=plan, policy="degrade"
        )
        events = _drain_all(detector, replay_packets)
        assert ("kill-worker", 0, 30) in plan.fired
        assert events, "the surviving worker must still score its flows"
        report = detector.degradation_report()
        assert report
        assert any(
            loss.kind == "worker" and loss.policy == "degrade"
            for loss in report.losses
        )
        assert all(loss.packets_lost_inflight >= 0 for loss in report.losses)
        assert not _shard_processes()

    def test_kill_worker_fail_raises_and_reaps(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=3).kill_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap, fault_model_dir, plan=plan, policy="fail"
        )
        with pytest.raises(RuntimeError):
            _drain_all(detector, replay_packets)
        detector.close()
        assert not _shard_processes(), "fail must not leak shard workers"

    def test_kill_worker_respawn_is_score_identical_at_a_clean_boundary(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        # Same clean-boundary construction as the instance respawn test: a
        # short idle timeout and a poll that stays behind the second half's
        # first timestamp, so the stream clock is never distorted.
        idle = 5.0
        first = [p for p in replay_packets if p.timestamp < 75.0]
        second = [p for p in replay_packets if p.timestamp >= 75.0]
        baseline = StreamingDetector(
            trained_clap, idle_timeout=idle, close_grace=CLOSE_GRACE
        )
        expected = _drain_all(baseline, replay_packets)
        detector = _worker_detector(
            trained_clap, fault_model_dir, policy="respawn", idle_timeout=idle
        )
        events = []
        detector.ingest_many(first)
        # Idle-expire and score everything before the kill: flush() is a
        # barrier, so after it returns no packets are in flight.
        detector.poll(76.0)
        events.extend(detector.flush())
        events.extend(detector.events())
        victim = detector._shards[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        # A flush barrier forces the parent to notice the dead worker and
        # respawn it before any second-half packet is routed its way.
        events.extend(detector.flush())
        assert detector.degradation_report().respawns == 1
        detector.ingest_many(second)
        events.extend(detector.events())
        detector.close()
        events.extend(detector.events())
        report = detector.degradation_report()
        assert report.respawns == 1
        assert all(loss.packets_lost_inflight == 0 for loss in report.losses)
        _assert_rows_match(events, expected)
        assert not _shard_processes()

    def test_flush_barrier_events_count_once_toward_the_loss_identity(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        """Events scored by a flush barrier are counted once: a worker killed
        right after a barrier had nothing in flight, so its loss record must
        balance packets routed against packets scored exactly."""
        connections = _sequential_connections(4)
        stream = sorted(packet_stream(connections), key=lambda p: p.timestamp)
        detector = _worker_detector(
            trained_clap,
            fault_model_dir,
            policy="respawn",
            workers=1,
            flush_policy=FlushPolicy(max_batch=64, auto_flush=False),
        )
        detector.ingest_many(stream)
        detector.poll(1e6)
        flushed = detector.flush()
        assert len(flushed) == len(connections)
        assert list(detector.events()) == []  # flush() was their delivery
        os.kill(detector._shards[0].process.pid, signal.SIGKILL)
        detector.flush()
        detector.close()
        (loss,) = detector.degradation_report().losses
        assert loss.packets_routed == len(stream)
        assert loss.packets_scored == len(stream)
        assert loss.packets_lost_inflight == 0
        assert detector.connections_seen == len(connections)
        assert not _shard_processes()

    def test_respawn_reregisters_blocks_packed_like_the_broadcast(
        self, trained_clap, fault_model_dir, replay_packets, tmp_path
    ):
        """The respawned worker receives each live block as the broadcast
        packs it — columns only, without the capture's raw packet bytes."""
        path = tmp_path / "capture.pcap"
        write_pcap(path, replay_packets)
        views = list(PcapSource(path))
        columns = views[0].columns
        assert all(view.columns is columns for view in views)  # one block
        detector = _worker_detector(trained_clap, fault_model_dir, policy="respawn", workers=1)
        detector.ingest_many(views)
        detector.flush()
        os.kill(detector._shards[0].process.pid, signal.SIGKILL)
        detector.flush()  # notices the death; the respawn re-registers the block
        assert detector.degradation_report().respawns == 1
        detector.close()
        # Only the new incarnation's counters remain: its one pipe copy.
        copied = detector.metrics_snapshot()["shared_memory"]["payload_bytes_copied"]
        assert copied == len(runtime_module._pack(columns))
        assert copied < len(columns.pack_block())
        assert not _shard_processes()

    def test_worker_killed_mid_report_does_not_wedge_the_survivors(
        self, trained_clap, fault_model_dir, replay_packets, monkeypatch
    ):
        # SIGKILL can land while a worker's result queue holds its write
        # lock; the lock then stays taken forever, and no worker that writes
        # through the same queue can ever report again.
        real_post = runtime_module._post

        def post_or_die(out_queue, message):
            if message[0] == "flush_done" and message[1] == 0 and message[-1] == 0:
                out_queue._wlock.acquire()
                os.kill(os.getpid(), signal.SIGKILL)
            real_post(out_queue, message)

        monkeypatch.setattr(runtime_module, "_post", post_or_die)
        detector = _worker_detector(
            trained_clap,
            fault_model_dir,
            policy="respawn",
            start_method="fork",  # the workers inherit the patched _post
        )
        done = {}

        def stream():
            detector.ingest_many(replay_packets)
            done["flushed"] = detector.flush()
            done["final"] = detector.close()

        runner = threading.Thread(target=stream, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "the pool wedged behind a dead worker's lock"
        assert "final" in done
        assert detector.degradation_report().respawns == 1
        assert not _shard_processes()

    def test_wedged_worker_is_declared_lost(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=3).wedge_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap,
            fault_model_dir,
            plan=plan,
            policy="degrade",
            stall_deadline=1.0,
        )
        events = _drain_all(detector, replay_packets)
        assert events
        report = detector.degradation_report()
        assert any("wedge" in loss.reason for loss in report.losses)
        assert not _shard_processes()

    def test_backpressure_wait_on_a_wedged_worker_is_counted(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        plan = FaultPlan(seed=3).wedge_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap,
            fault_model_dir,
            plan=plan,
            policy="degrade",
            stall_deadline=1.0,
            chunk_size=1,
            queue_depth=1,
        )
        assert detector.metrics_snapshot()["backpressure_wait_seconds"] == 0.0
        _drain_all(detector, replay_packets)
        # A put waited on the wedged worker's full queue until the stall
        # deadline declared it lost.
        assert detector.metrics_snapshot()["backpressure_wait_seconds"] >= 1.0
        assert "backpressure wait=" in detector.render_metrics()
        assert not _shard_processes()

    def test_thread_mode_rejects_supervision_policies(self, trained_clap):
        with pytest.raises(ValueError, match="process"):
            ParallelStreamingDetector(trained_clap, workers=1, on_worker_failure="degrade")
