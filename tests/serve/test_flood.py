"""Flood behaviour: capacity eviction, bounded memory, drop-policy accounting.

A SYN flood opens a new flow per packet and never completes any of them —
exactly the workload Grashöfer et al. use against open-source NSM tools.  The
flow table must stay within its ``max_flows`` budget, report the evictions as
:attr:`CompletionReason.CAPACITY`, and the runtime's drop counters must
account for every evicted flow.
"""

from __future__ import annotations

from repro.netstack.flow import CompletionReason, FlowTable
from repro.netstack.ip import Ipv4Header
from repro.netstack.packet import Packet
from repro.netstack.tcp import TcpFlags, TcpHeader
from repro.serve import DropPolicy, ParallelStreamingDetector

FLOOD_SIZE = 2000
MAX_FLOWS = 64


def syn_flood(count, start=1_000.0, interval=0.001):
    """``count`` bare SYNs from distinct spoofed sources, densely spaced."""
    return [
        Packet(
            ip=Ipv4Header(src=0x0A000000 + index + 1, dst=0xC0A80001),
            tcp=TcpHeader(src_port=1024 + (index % 60_000), dst_port=80,
                          seq=index, flags=TcpFlags.SYN),
            timestamp=start + index * interval,
        )
        for index in range(count)
    ]


class TestFlowTableUnderFlood:
    def test_occupancy_never_exceeds_max_flows(self):
        table = FlowTable(idle_timeout=1e6, close_grace=1.0, max_flows=MAX_FLOWS)
        evicted = 0
        for packet in syn_flood(FLOOD_SIZE):
            completions = table.add(packet)
            assert len(table) <= MAX_FLOWS
            assert all(r is CompletionReason.CAPACITY for _, r in completions)
            evicted += len(completions)
        assert evicted == FLOOD_SIZE - MAX_FLOWS
        assert len(table) == MAX_FLOWS

    def test_evicted_flows_are_the_single_syn_fragments(self):
        table = FlowTable(idle_timeout=1e6, close_grace=1.0, max_flows=8)
        completions = []
        for packet in syn_flood(100):
            completions.extend(table.add(packet))
        assert all(len(connection) == 1 for connection, _ in completions)
        assert all(connection.packets[0].tcp.is_syn for connection, _ in completions)


class TestRuntimeUnderFlood:
    def test_drop_policy_counters_match_evictions(self, trained_clap):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=4,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
            max_flows=MAX_FLOWS,
            drop_policy=DropPolicy(mode="drop"),
        )
        flood = syn_flood(FLOOD_SIZE)
        detector.ingest_many(flood)
        detector.close()
        events = list(detector.events())
        snapshot = detector.metrics_snapshot()
        capacity = snapshot["completions_by_reason"]["capacity"]
        drained = snapshot["completions_by_reason"]["drain"]
        # Every flood flow either got capacity-evicted (and dropped) or
        # survived to the final drain; the counters account for all of them.
        assert capacity + drained == FLOOD_SIZE
        assert snapshot["capacity_drops"] == capacity
        assert capacity > 0
        # Dropped flows never reached the engine: only drained ones scored.
        assert len(events) == drained
        assert snapshot["connections_scored"] == drained
        assert all(event.completed_by is CompletionReason.DRAIN for event in events)

    def test_score_policy_with_min_packets_drops_bare_syns(self, trained_clap):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
            max_flows=16,
            drop_policy=DropPolicy(mode="score", min_packets=2),
        )
        detector.ingest_many(syn_flood(200))
        detector.close()
        events = list(detector.events())
        snapshot = detector.metrics_snapshot()
        # Capacity-evicted bare SYNs (1 packet < min_packets) were dropped...
        assert snapshot["capacity_drops"] == snapshot["completions_by_reason"]["capacity"]
        # ...but the flows still tracked at close drained and scored normally.
        assert len(events) == snapshot["completions_by_reason"]["drain"]

    def test_memory_stays_bounded_during_flood(self, trained_clap):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
            max_flows=32,
            drop_policy=DropPolicy(mode="drop"),
        )
        for packet in syn_flood(500):
            detector.ingest(packet)
        # Ingest-side chunk buffers hold at most chunk_size packets per shard;
        # the flow tables hold at most the (rounded-up) global budget.
        detector.flush()
        assert detector.active_flows <= 32
        detector.close()
