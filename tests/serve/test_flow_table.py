"""Unit tests for the incremental FlowTable (streaming connection assembly)."""

from __future__ import annotations

import pytest

from repro.netstack.flow import (
    CompletionReason,
    FlowTable,
    packet_stream as _stream,
)
from repro.traffic.generator import TrafficGenerator

from tests.reference_oracle import ConnectionAssembler, connection_looks_closed


def _retimestamp(connections, spacing=100.0, step=0.01):
    """Give connection ``i`` timestamps ``i*spacing + j*step`` so connections
    are strictly sequential in stream time (deterministic completion order)."""
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * spacing + position * step
    return connections


@pytest.fixture
def sequential_connections():
    return _retimestamp(TrafficGenerator(seed=77).generate_connections(6))


class TestFinCompletion:
    def test_closed_connections_complete_after_grace(self, sequential_connections):
        table = FlowTable(idle_timeout=1e6, close_grace=1.0)
        completed = []
        for packet in _stream(sequential_connections):
            completed.extend(table.add(packet))
        # Every closed-looking connection except the last one has a later
        # connection's packets advancing stream time past its close grace;
        # connections that never FIN/RST (and the final one) stay tracked.
        expected = sum(
            1 for conn in sequential_connections[:-1] if connection_looks_closed(conn)
        )
        assert len(completed) == expected > 0
        assert all(reason is CompletionReason.CLOSED for _, reason in completed)
        assert len(table) == len(sequential_connections) - expected

    def test_grouping_matches_offline_assembler(self, sequential_connections):
        table = FlowTable(idle_timeout=1e6, close_grace=1.0)
        completed = []
        for packet in _stream(sequential_connections):
            completed.extend(table.add(packet))
        completed.extend(table.drain())
        oracle = ConnectionAssembler()
        oracle.add_all(_stream(sequential_connections))
        offline = oracle.connections()
        streamed = sorted(
            (str(conn.key), len(conn)) for conn, _ in completed
        )
        assembled = sorted((str(conn.key), len(conn)) for conn in offline)
        assert streamed == assembled

    def test_zero_grace_completes_on_the_closing_packet(self, sequential_connections):
        table = FlowTable(idle_timeout=1e6, close_grace=0.0)
        connection = sequential_connections[0]
        completed = []
        for packet in _stream([connection]):
            completed.extend(table.add(packet))
        # The first FIN/RST-looking packet completes the connection instantly.
        assert completed
        assert completed[0][1] is CompletionReason.CLOSED

    def test_direction_assignment_preserved(self, sequential_connections):
        table = FlowTable(idle_timeout=1e6, close_grace=1e6)
        for packet in _stream(sequential_connections):
            table.add(packet)
        drained = {str(conn.key): conn for conn, _ in table.drain()}
        for original in sequential_connections:
            clone = drained[str(original.key)]
            assert [p.direction for p in clone] == [p.direction for p in original]


class TestIdleEviction:
    def test_idle_connection_is_evicted(self, sequential_connections):
        table = FlowTable(idle_timeout=10.0, close_grace=1e6)
        first, second = sequential_connections[:2]
        # Only the start of the first connection: it never FINs, so the idle
        # timer (not the close grace) is what must reclaim it.
        for packet in _stream([first])[:5]:
            table.add(packet)
        assert len(table) == 1
        # The second connection starts 100 stream-seconds later: the first is
        # idle far beyond the timeout by then.
        completions = []
        for packet in _stream([second]):
            completions.extend(table.add(packet))
        evicted = [item for item in completions if item[1] is CompletionReason.IDLE]
        assert len(evicted) == 1
        assert str(evicted[0][0].key) == str(first.key)

    def test_closed_flow_is_reported_closed_even_past_idle_timeout(self, sequential_connections):
        # close_grace longer than idle_timeout: the effective grace is capped
        # at the idle timeout, and the completion is CLOSED, never IDLE.
        table = FlowTable(idle_timeout=10.0, close_grace=1e6)
        for packet in _stream(sequential_connections[:1]):
            table.add(packet)
        completed = table.poll(table.clock + 20.0)
        assert [reason for _, reason in completed] == [CompletionReason.CLOSED]
        assert len(table) == 0

    def test_explicit_poll_advances_the_clock(self, sequential_connections):
        table = FlowTable(idle_timeout=10.0, close_grace=1e6)
        for packet in _stream(sequential_connections[:1])[:5]:
            table.add(packet)
        assert table.poll(table.clock + 5.0) == []
        completed = table.poll(table.clock + 20.0)
        assert [reason for _, reason in completed] == [CompletionReason.IDLE]
        assert len(table) == 0


class TestSizeEviction:
    def test_max_flows_evicts_least_recently_active(self, sequential_connections):
        table = FlowTable(idle_timeout=1e6, close_grace=1e6, max_flows=2)
        completions = []
        for packet in _stream(sequential_connections[:3]):
            completions.extend(table.add(packet))
        capacity = [item for item in completions if item[1] is CompletionReason.CAPACITY]
        assert len(capacity) == 1
        assert str(capacity[0][0].key) == str(sequential_connections[0].key)
        assert len(table) == 2

    def test_max_packets_force_completes_giant_connections(self, sequential_connections):
        connection = sequential_connections[0]
        table = FlowTable(idle_timeout=1e6, close_grace=1e6, max_packets=4)
        completions = []
        for packet in _stream([connection]):
            completions.extend(table.add(packet))
        capacity = [item for item in completions if item[1] is CompletionReason.CAPACITY]
        assert capacity
        assert len(capacity[0][0]) == 4

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(idle_timeout=0.0)
        with pytest.raises(ValueError):
            FlowTable(close_grace=-1.0)
        with pytest.raises(ValueError):
            FlowTable(max_flows=0)
        with pytest.raises(ValueError):
            FlowTable(max_packets=0)


class TestDrain:
    def test_drain_completes_everything_oldest_first(self, sequential_connections):
        table = FlowTable(idle_timeout=1e6, close_grace=1e6)
        for packet in _stream(sequential_connections):
            table.add(packet)
        drained = table.drain()
        assert len(drained) == len(sequential_connections)
        assert all(reason is CompletionReason.DRAIN for _, reason in drained)
        first_stamps = [conn.packets[0].timestamp for conn, _ in drained]
        assert first_stamps == sorted(first_stamps)
        assert len(table) == 0

    def test_looks_closed_helper_matches_assembler_heuristic(self, sequential_connections):
        connection = sequential_connections[0]
        assert connection_looks_closed(connection)  # ends with FIN exchange
