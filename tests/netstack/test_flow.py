"""Unit tests for flow keys and connection assembly."""

import numpy as np
import pytest

from repro.attacks.base import all_strategies
from repro.attacks.injector import AttackInjector
from repro.netstack.flow import (
    FlowKey,
    assemble_connections,
    packet_stream,
    split_connections,
)
from repro.netstack.packet import Direction
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.traffic.generator import TrafficGenerator

from tests.reference_oracle import ConnectionAssembler, read_pcap


class TestFlowKey:
    def test_both_directions_map_to_same_key(self, simple_connection):
        forward = simple_connection.packets[0]  # client SYN
        backward = simple_connection.packets[1]  # server SYN-ACK
        assert FlowKey.from_packet(forward) == FlowKey.from_packet(backward)

    def test_str_contains_both_endpoints(self, simple_connection):
        text = str(simple_connection.key)
        assert "10.0.0.1" in text
        assert "192.168.1.2" in text

    def test_hash_is_cached_and_consistent(self):
        key = FlowKey(ip_a=1, port_a=2, ip_b=3, port_b=4)
        assert hash(key) == hash((1, 2, 3, 4))
        assert hash(key) == key._hash  # the cached value is what hash() returns

    def test_equal_keys_hash_equal(self):
        a = FlowKey(ip_a=10, port_a=1024, ip_b=20, port_b=80)
        b = FlowKey(ip_a=10, port_a=1024, ip_b=20, port_b=80)
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_distinct_keys_usable_as_dict_keys(self):
        keys = {FlowKey(i, i + 1, i + 2, i + 3): i for i in range(100)}
        assert len(keys) == 100


class TestConnection:
    def test_directions_assigned_relative_to_client(self, simple_connection):
        assert simple_connection.packets[0].direction is Direction.CLIENT_TO_SERVER
        assert simple_connection.packets[1].direction is Direction.SERVER_TO_CLIENT

    def test_has_handshake(self, simple_connection):
        assert simple_connection.has_handshake

    def test_copy_is_deep(self, simple_connection):
        clone = simple_connection.copy()
        clone.packets[0].tcp.seq = 424242
        assert simple_connection.packets[0].tcp.seq != 424242

    def test_injected_indices_empty_for_benign(self, simple_connection):
        assert simple_connection.injected_indices() == []

    def test_sort_by_time(self, simple_connection):
        clone = simple_connection.copy()
        clone.packets.reverse()
        clone.sort_by_time()
        timestamps = [p.timestamp for p in clone.packets]
        assert timestamps == sorted(timestamps)


class TestAssembler:
    def test_single_connection_reassembled(self, simple_connection):
        connections = assemble_connections(list(simple_connection.packets))
        assert len(connections) == 1
        assert len(connections[0]) == len(simple_connection)

    def test_interleaved_connections_are_separated(self):
        generator = TrafficGenerator(seed=11)
        packets = generator.generate_packets(6)
        connections = assemble_connections(packets)
        assert len(connections) == 6
        assert sum(len(c) for c in connections) == len(packets)

    def test_new_syn_after_close_starts_new_connection(self, simple_connection):
        # Replay the same (closed) connection twice: the second SYN must open a
        # fresh connection object even though the flow key matches.
        packets = list(simple_connection.packets)
        shifted = [p.copy(timestamp=p.timestamp + 100.0) for p in simple_connection.packets]
        assembler = ConnectionAssembler()
        assembler.add_all(packets + shifted)
        assert len(assembler.connections()) == 2


def _grouping(connections):
    """Keys, packets (by identity, in order) and per-packet directions."""
    return [
        (conn.key, [id(p) for p in conn.packets], [p.direction for p in conn.packets])
        for conn in connections
    ]


def _assert_groups_like_oracle(packets):
    production = _grouping(assemble_connections(packets))
    oracle = ConnectionAssembler()
    oracle.add_all(packets)
    assert production == _grouping(oracle.connections())


_READERS = {
    "views": lambda path: read_packet_columns(path).views(),
    "objects": read_pcap,
}


class TestAssemblerMatchesOracle:
    """``assemble_connections`` (one timer-less ``FlowTable``) groups every
    capture exactly as the oracle assembler that rescans each tail."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_benign_capture(self, tmp_path, reader):
        path = tmp_path / "benign.pcap"
        connections = TrafficGenerator(seed=2020).generate_connections(120)
        # Replaying the corpus 30 s later reuses every 5-tuple after its close.
        replay = [conn.copy() for conn in connections]
        for conn in replay:
            for packet in conn.packets:
                packet.timestamp += 30.0
        write_pcap(path, packet_stream(connections + replay))
        _assert_groups_like_oracle(_READERS[reader](path))

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("strategy", all_strategies(), ids=lambda s: s.name)
    def test_attacked_capture(self, tmp_path, strategy, reader):
        benign = TrafficGenerator(seed=73).generate_connections(12)
        injector = AttackInjector(seed=11)
        attacked = [injector.attack_connection(strategy, c).connection for c in benign[:6]]
        path = tmp_path / "attacked.pcap"
        write_pcap(path, packet_stream(attacked + benign[6:]))
        _assert_groups_like_oracle(_READERS[reader](path))


class TestTieOrder:
    """Connections whose first packets share a timestamp are ordered by flow
    key, and connections of one key in the order they started."""

    def test_ties_order_by_flow_key(self):
        connections = TrafficGenerator(seed=5).generate_connections(5)
        for conn in connections:
            for packet in conn.packets:
                packet.timestamp = 7.0
        # Feed the connections in descending key order, one after another.
        connections.sort(key=lambda c: (c.key.ip_a, c.key.port_a, c.key.ip_b, c.key.port_b))
        packets = [p for conn in reversed(connections) for p in conn.packets]
        assembled = assemble_connections(packets)
        assert [c.key for c in assembled] == [c.key for c in connections]

    def test_ties_on_one_key_keep_start_order(self, simple_connection):
        first = [p.copy(timestamp=1.0) for p in simple_connection.packets]
        second = [p.copy(timestamp=1.0) for p in simple_connection.packets]
        assembled = assemble_connections(first + second)
        assert len(assembled) == 2
        assert assembled[0].packets[0] is first[0]
        assert assembled[1].packets[0] is second[0]


class TestSplit:
    def test_split_sizes(self):
        connections = TrafficGenerator(seed=3).generate_connections(20)
        train, test = split_connections(connections, 0.75, np.random.default_rng(0))
        assert len(train) == 15
        assert len(test) == 5

    def test_split_is_disjoint_and_complete(self):
        connections = TrafficGenerator(seed=4).generate_connections(12)
        train, test = split_connections(connections, 0.5, np.random.default_rng(0))
        train_ids = {id(c) for c in train}
        test_ids = {id(c) for c in test}
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 12

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_connections([], 1.5, np.random.default_rng(0))
