"""Fault matrix: every worker fault x policy terminates with known loss.

The acceptance criterion: under any single injected fault — shard-worker
SIGKILL (mid-stream, mid-report, mid-write of a large report) or a wedged
worker — the stream terminates within its deadline under each failure
policy.  Loss is counted in grains (a flush batch is shipped as grains of
at most ``SCORING_GRAIN`` connections): a killed worker loses exactly its
grains in flight, whose packets are its ``packets_lost_inflight``, so the
accounting identity ``packets_routed = packets_scored +
packets_lost_inflight`` holds and every later grain is scored.  ``respawn``
is score-identical when no grain was in flight, and ``fail`` raises with a
full teardown (no leaked processes).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct
import threading

import pytest

from repro.netstack.flow import packet_stream
from repro.serve import (
    FaultPlan,
    FaultSpecError,
    FlushPolicy,
    ParallelStreamingDetector,
    StreamingDetector,
    parse_fault_specs,
)
from repro.serve import runtime as runtime_module
from repro.serve import streaming
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
    assert _rows(actual_events) == _rows(expected_events)


def _in_order(events):
    return sorted(events, key=lambda event: (event.first_seen, str(event.result.key)))


def _packets(events):
    return sum(event.result.packet_count for event in events)


def _one_detector(trained_clap, **options):
    """One in-process detector with the fault tests' knobs: driven the same
    way, it makes the batches the process workers score."""
    options = {
        "flush_policy": FlushPolicy(max_batch=4),
        "idle_timeout": IDLE_TIMEOUT,
        "close_grace": CLOSE_GRACE,
        **options,
    }
    return StreamingDetector(trained_clap, **options)


def _drain_all(target, stream):
    target.ingest_many(stream)
    interim = list(target.events())
    target.close()
    return interim + list(target.events())


def _shard_processes():
    return [
        p for p in multiprocessing.active_children() if p.name.startswith("clap-shard-")
    ]


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


# ------------------------------------------------------------------ fault plan
class TestFaultPlan:
    def test_spec_grammar_round_trips(self):
        plan = parse_fault_specs(["kill-worker:0@40", "wedge-worker:1@10"])
        assert plan.packet_routed(39) == [("wedge-worker", 1)]
        assert plan.packet_routed(1) == [("kill-worker", 0)]
        assert plan.fired == [("wedge-worker", 1, 39), ("kill-worker", 0, 40)]

    @pytest.mark.parametrize(
        "spec",
        [
            "kill-worker",
            "kill-worker:0",
            "kill-worker:x@3",
            "explode:0@1",
            # Socket-level kinds: the runtime has no sockets to fault.
            "kill-instance:0@40",
            "wedge-instance:1@10",
            "refuse-connect:1",
            "drop-frame:ROWS#2",
            "corrupt-frame:ROWS#2",
            "delay-frame:ROWS#1@0.5",
        ],
    )
    def test_bad_specs_raise_naming_the_kind(self, spec):
        with pytest.raises(FaultSpecError, match=spec.partition(":")[0]):
            parse_fault_specs([spec])

    def test_process_fault_fires_exactly_once(self):
        plan = FaultPlan().kill_worker(0, at_packet=5)
        assert plan.packet_routed(4) == []
        assert plan.packet_routed(1) == [("kill-worker", 0)]
        assert plan.packet_routed(100) == []


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
        plan = FaultPlan().kill_worker(0, at_packet=30)
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
        plan = FaultPlan().kill_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap, fault_model_dir, plan=plan, policy="fail"
        )
        with pytest.raises(RuntimeError):
            _drain_all(detector, replay_packets)
        detector.close()
        assert not _shard_processes(), "fail must not leak shard workers"

    def test_kill_worker_fail_raises_again_on_every_later_call(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        plan = FaultPlan().kill_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap, fault_model_dir, plan=plan, policy="fail"
        )
        with pytest.raises(RuntimeError, match="shard worker 0 failed"):
            detector.ingest_many(replay_packets)
        # A caller that swallows the first failure must not go on losing the
        # failed shard's packets without being told.
        with pytest.raises(RuntimeError, match="shard worker 0 failed"):
            detector.ingest_many(replay_packets[-5:])
        with pytest.raises(RuntimeError, match="shard worker 0 failed"):
            detector.poll()
        with pytest.raises(RuntimeError, match="shard worker 0 failed"):
            detector.flush()
        # close() returns the survivor's drain instead of raising once more.
        detector.close()
        assert not _shard_processes(), "fail must not leak shard workers"

    def test_kill_worker_respawn_is_score_identical_at_a_clean_boundary(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        # A clean boundary: a short idle timeout and a poll that stays
        # behind the second half's first timestamp, so the stream clock is
        # never distorted.
        idle = 5.0
        first = [p for p in replay_packets if p.timestamp < 75.0]
        second = [p for p in replay_packets if p.timestamp >= 75.0]
        baseline = _one_detector(trained_clap, idle_timeout=idle)
        baseline.ingest_many(first)
        baseline.poll(76.0)
        baseline.flush()
        expected = _drain_all(baseline, second)
        detector = _worker_detector(
            trained_clap, fault_model_dir, policy="respawn", idle_timeout=idle
        )
        detector.ingest_many(first)
        # Idle-expire and score everything before the kill: flush() is a
        # barrier, so after it returns no batch is in flight.
        detector.poll(76.0)
        detector.flush()
        victim = detector._shards[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        # A flush barrier forces the parent to notice the dead worker and
        # respawn it before any second-half batch is shipped its way.
        detector.flush()
        assert detector.degradation_report().respawns == 1
        detector.ingest_many(second)
        detector.close()
        events = list(detector.events())
        report = detector.degradation_report()
        assert report.respawns == 1
        assert all(loss.packets_lost_inflight == 0 for loss in report.losses)
        _assert_rows_match(events, expected)
        assert not _shard_processes()

    @pytest.mark.parametrize("policy", ["degrade", "respawn"])
    def test_mid_stream_kill_is_handled_before_close(
        self, trained_clap, fault_model_dir, replay_packets, policy
    ):
        """A worker killed mid-stream is handed to the policy by the next
        drain, not at the next barrier or close(): degrade leaves every later
        batch to the survivor, respawn replaces it.  Either way only the
        batches in flight at the kill are lost."""
        plan = FaultPlan().kill_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap, fault_model_dir, plan=plan, policy=policy
        )
        detector.ingest_many(replay_packets[:30])
        assert ("kill-worker", 0, 30) in plan.fired
        detector._shards[0].process.join(timeout=10.0)  # the kill has landed
        detector.ingest_many(replay_packets[30:])
        detector.poll()  # a drain with no barrier behind it
        report = detector.degradation_report()
        (loss,) = report.losses
        assert loss.kind == "worker" and loss.policy == policy
        if policy == "respawn":
            assert report.respawns == 1
        detector.close()
        events = list(detector.events())
        expected = _drain_all(_one_detector(trained_clap), replay_packets)
        assert set(_rows(events)) <= set(_rows(expected))
        assert _packets(events) + loss.packets_lost_inflight == _packets(expected)
        assert len(detector.degradation_report().losses) == 1
        assert not _shard_processes()

    @pytest.mark.parametrize("policy", ["degrade", "respawn"])
    def test_killed_worker_loses_exactly_its_batches_in_flight(
        self, trained_clap, fault_model_dir, replay_packets, policy
    ):
        """A worker stopped with batches on its queue and then killed loses
        exactly those batches: their packets are its recorded in-flight
        loss, and every other connection is scored as one detector scores
        it."""
        first = [p for p in replay_packets if p.timestamp < 75.0]
        second = [p for p in replay_packets if p.timestamp >= 75.0]
        pushed = []
        detector = _worker_detector(
            trained_clap, fault_model_dir, policy=policy, on_event=pushed.append
        )
        detector.ingest_many(first)
        detector.flush()  # a barrier: nothing is in flight after it
        victim = detector._shards[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        detector.ingest_many(second)
        inflight = sum(packets for packets, _ in victim.inflight.values())
        assert inflight > 0, "the stopped worker must hold a batch"
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)  # the kill has landed
        detector.poll()  # notices the death before any further batch ships
        detector.close()
        (loss,) = detector.degradation_report().losses
        assert loss.policy == policy
        assert loss.packets_lost_inflight == inflight
        assert loss.packets_routed == loss.packets_scored + loss.packets_lost_inflight
        baseline = _one_detector(trained_clap)
        baseline.ingest_many(first)
        baseline.flush()
        expected = _drain_all(baseline, second)
        assert set(_rows(pushed)) <= set(_rows(expected))
        assert _packets(pushed) + inflight == _packets(expected)
        assert not _shard_processes()

    def test_killed_worker_loses_exactly_its_grains_in_flight(
        self, trained_clap, fault_model_dir, monkeypatch
    ):
        """With grains of 2 in batches of 8, one batch is four grains: a
        stopped worker holds all four, and killing it loses exactly those
        grains' packets while every later grain is scored."""
        monkeypatch.setattr(streaming, "SCORING_GRAIN", 2)
        connections = _sequential_connections(12, spacing=100.0)
        options = dict(flush_policy=FlushPolicy(max_batch=8), idle_timeout=1e9)
        # Connection i completes when connection i + 1 starts: the first nine
        # complete eight, one batch.
        first = packet_stream(connections[:9])
        rest = packet_stream(connections[9:])
        pushed = []
        detector = _worker_detector(
            trained_clap,
            fault_model_dir,
            policy="respawn",
            workers=1,
            on_event=pushed.append,
            **options,
        )
        detector.flush()  # the worker is up
        victim = detector._shards[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        detector.ingest_many(first)
        assert len(victim.inflight) == 4
        assert sum(count for _, count in victim.inflight.values()) == 8
        inflight = sum(packets for packets, _ in victim.inflight.values())
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10.0)  # the kill has landed
        detector.poll()  # notices the death before any further grain ships
        detector.ingest_many(rest)
        detector.close()
        (loss,) = detector.degradation_report().losses
        assert loss.policy == "respawn"
        assert loss.packets_lost_inflight == inflight
        assert loss.packets_routed == loss.packets_scored + loss.packets_lost_inflight
        expected = _drain_all(_one_detector(trained_clap, **options), first + rest)
        assert sorted(str(event.result.key) for event in pushed) == sorted(
            str(connection.key) for connection in connections[8:]
        )
        assert set(_rows(pushed)) <= set(_rows(expected))
        assert _packets(pushed) + inflight == _packets(expected)
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
        # As in thread mode, the pull queue delivers them once more.
        assert _rows(detector.events()) == _rows(flushed)
        os.kill(detector._shards[0].process.pid, signal.SIGKILL)
        detector.flush()
        detector.close()
        (loss,) = detector.degradation_report().losses
        assert loss.packets_routed == len(stream)
        assert loss.packets_scored == len(stream)
        assert loss.packets_lost_inflight == 0
        assert detector.connections_seen == len(connections)
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

    def test_worker_killed_mid_write_of_a_large_report_does_not_wedge(
        self, trained_clap, fault_model_dir, replay_packets, monkeypatch
    ):
        """A worker SIGKILLed while writing a report larger than the pipe
        buffer leaves a torn message behind; reading it must end in a
        respawn, not block the parent forever."""
        real_post = runtime_module._post

        def post_torn_and_die(out_queue, message):
            if message[0] == "flush_done" and message[1] == 0 and message[-1] == 0:
                # With the write lock held no queued message is mid-write;
                # declare a 1 MiB report, write 4 KiB of it, and die.
                out_queue._wlock.acquire()
                os.write(
                    out_queue._writer.fileno(), struct.pack("!i", 1 << 20) + bytes(4096)
                )
                os.kill(os.getpid(), signal.SIGKILL)
            real_post(out_queue, message)

        monkeypatch.setattr(runtime_module, "_post", post_torn_and_die)
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
        assert not runner.is_alive(), "the parent blocked on a torn result message"
        assert "final" in done
        assert detector.degradation_report().respawns == 1
        assert not _shard_processes()

    def test_wedged_worker_is_declared_lost(
        self, trained_clap, fault_model_dir, replay_packets
    ):
        plan = FaultPlan().wedge_worker(0, at_packet=30)
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
        # One worker: batches go around a wedged worker when another has
        # room, so only a lone worker makes the parent wait on it.
        plan = FaultPlan().wedge_worker(0, at_packet=30)
        detector = _worker_detector(
            trained_clap,
            fault_model_dir,
            plan=plan,
            policy="respawn",
            stall_deadline=1.0,
            chunk_size=1,
            workers=1,
        )
        assert detector.metrics_snapshot()["backpressure_wait_seconds"] == 0.0
        _drain_all(detector, replay_packets)
        # A batch waited on the wedged worker's full queue until the stall
        # deadline declared it lost.
        assert detector.metrics_snapshot()["backpressure_wait_seconds"] >= 1.0
        assert "backpressure wait=" in detector.render_metrics()
        assert not _shard_processes()

    def test_thread_mode_rejects_supervision_policies(self, trained_clap):
        with pytest.raises(ValueError, match="process"):
            ParallelStreamingDetector(trained_clap, workers=1, on_worker_failure="degrade")


class TestInheritedModelRespawn:
    def test_respawned_worker_scores_with_the_parent_model(
        self, fault_model_dir, replay_packets, monkeypatch
    ):
        """A respawn forks from the parent again, so the new incarnation
        scores with the parent's pipeline and never loads the model."""
        from repro.core.pipeline import Clap

        clap = Clap.load(fault_model_dir, mmap_mode="r")
        idle = 5.0
        first = [p for p in replay_packets if p.timestamp < 75.0]
        second = [p for p in replay_packets if p.timestamp >= 75.0]
        baseline = _one_detector(clap, idle_timeout=idle)
        baseline.ingest_many(first)
        baseline.poll(76.0)
        baseline.flush()
        expected = _drain_all(baseline, second)

        def refuse(*args, **kwargs):
            raise AssertionError("a process worker loaded the model")

        monkeypatch.setattr(Clap, "load", refuse)
        detector = _worker_detector(
            clap, fault_model_dir, policy="respawn", idle_timeout=idle, start_method="fork"
        )
        detector.ingest_many(first)
        detector.poll(76.0)
        detector.flush()
        os.kill(detector._shards[0].process.pid, signal.SIGKILL)
        detector.flush()
        detector.ingest_many(second)
        detector.close()
        events = list(detector.events())
        report = detector.degradation_report()
        assert report.respawns == 1
        assert [loss.packets_lost_inflight for loss in report.losses] == [0]
        assert detector._shards[0].scored_packets > 0  # the new incarnation scored
        assert _in_order(events) == _in_order(expected)
        assert not _shard_processes()
