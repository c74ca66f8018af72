"""Unit tests for the columnar packet representation (netstack.columns)."""

import struct

import numpy as np
import pytest

from repro.netstack.columns import _ARRAY_FIELDS, PacketColumns, _field_dtype
from repro.netstack.flow import FlowKey, assemble_connections, packet_stream
from repro.netstack.packet import Packet
from repro.netstack.pcap import (
    LINKTYPE_LINUX_SLL,
    PcapReader,
    read_packet_columns,
    write_pcap,
)
from repro.traffic.generator import TrafficGenerator
from tests.reference_oracle import read_pcap


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    path = tmp_path_factory.mktemp("columns") / "benign.pcap"
    connections = TrafficGenerator(seed=21).generate_connections(30)
    write_pcap(path, packet_stream(connections))
    return path


class TestParseAgainstObjects:
    def test_every_scalar_field_matches_from_bytes(self, capture):
        packets = read_pcap(capture)
        columns = read_packet_columns(capture)
        assert len(columns) == len(packets)
        for i, packet in enumerate(packets):
            assert columns.timestamp[i] == packet.timestamp
            assert columns.src[i] == packet.ip.src
            assert columns.dst[i] == packet.ip.dst
            assert columns.src_port[i] == packet.tcp.src_port
            assert columns.dst_port[i] == packet.tcp.dst_port
            assert columns.seq[i] == packet.tcp.seq
            assert columns.ack[i] == packet.tcp.ack
            assert columns.flags[i] == packet.tcp.flags
            assert columns.window[i] == packet.tcp.window
            assert columns.urgent[i] == packet.tcp.urgent_pointer
            assert columns.data_offset[i] == packet.tcp.data_offset
            assert columns.payload_len[i] == len(packet.payload)
            assert columns.ihl[i] == packet.ip.effective_ihl()
            assert columns.ttl[i] == packet.ip.ttl
            assert columns.version[i] == packet.ip.version
            assert bool(columns.tcp_ok[i]) == packet.tcp_checksum_ok()
            assert bool(columns.ip_ok[i]) == packet.ip_checksum_ok()

    def test_flow_keys_match_and_are_deduplicated(self, capture):
        packets = read_pcap(capture)
        columns = read_packet_columns(capture)
        keys = columns.flow_keys()
        seen = {}
        for i, packet in enumerate(packets):
            expected = FlowKey.from_packet(packet)
            assert keys[i] == expected
            if expected in seen:
                assert keys[i] is seen[expected]  # same object, not just equal
            seen[expected] = keys[i]

    def test_views_materialize_back_to_identical_packets(self, capture):
        packets = read_pcap(capture)
        columns = read_packet_columns(capture)
        for view, packet in zip(columns.views(), packets):
            rebuilt = view.materialize()
            assert rebuilt.to_bytes() == packet.to_bytes()
            assert rebuilt.timestamp == packet.timestamp

    def test_view_exposes_packet_surface(self, capture):
        view = read_packet_columns(capture).views()[0]
        assert view.ip is view and view.tcp is view
        assert view.tcp.is_syn == bool(view.flags & 0x2)
        assert view.payload_length == int(view.columns.payload_len[0])
        copied = view.copy()
        assert isinstance(copied, Packet)
        assert copied.tcp.seq == view.seq

    def test_assembly_matches_object_path(self, capture):
        object_connections = assemble_connections(read_pcap(capture))
        view_connections = assemble_connections(read_packet_columns(capture).views())
        assert len(object_connections) == len(view_connections)
        for a, b in zip(object_connections, view_connections):
            assert a.key == b.key
            assert len(a) == len(b)
            assert [p.direction for p in a] == [p.direction for p in b]

    def test_empty_capture_parses_to_empty_columns(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
        columns = read_packet_columns(path)
        assert len(columns) == 0
        assert columns.views() == []


class TestBlockStreaming:
    def test_tiny_blocks_carry_records_across_boundaries(self, capture):
        whole = read_packet_columns(capture)
        with PcapReader(capture) as reader:
            blocks = list(reader.iter_column_blocks(block_bytes=1500))
        assert len(blocks) > 1
        stitched = PacketColumns.concatenate(blocks)
        assert len(stitched) == len(whole)
        assert np.array_equal(stitched.timestamp, whole.timestamp)
        assert np.array_equal(stitched.seq, whole.seq)
        assert np.array_equal(stitched.tcp_ok, whole.tcp_ok)
        # Materialisation works across the stitched buffers too.
        assert stitched.packet(len(stitched) - 1).to_bytes() == whole.packet(
            len(whole) - 1
        ).to_bytes()

    def test_strict_raises_on_non_tcp_records(self, tmp_path):
        path = tmp_path / "udp.pcap"
        header = struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        udp = bytes([0x45, 0, 0, 28, 0, 0, 0, 0, 64, 17]) + b"\x00" * 18
        record = struct.pack("IIII", 1, 0, len(udp), len(udp)) + udp
        path.write_bytes(header + record)
        with PcapReader(path) as reader:
            assert len(reader.read_columns()) == 0
        with PcapReader(path) as reader, pytest.raises(ValueError):
            reader.read_columns(strict=True)

    def test_linux_sll_link_type(self, tmp_path):
        path = tmp_path / "sll.pcap"
        ip_bytes = TrafficGenerator(seed=3).generate_packets(1)[0].to_bytes()
        frame = b"\x00" * 14 + struct.pack("!H", 0x0800) + ip_bytes
        header = struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_LINUX_SLL)
        record = struct.pack("IIII", 5, 250000, len(frame), len(frame)) + frame
        path.write_bytes(header + record)
        columns = read_packet_columns(path)
        assert len(columns) == 1
        assert columns.timestamp[0] == pytest.approx(5.25)
        assert columns.packet(0).to_bytes() == ip_bytes

    def test_swapped_byte_order_capture(self, tmp_path):
        path = tmp_path / "swapped.pcap"
        ip_bytes = TrafficGenerator(seed=4).generate_packets(1)[0].to_bytes()
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack(">IIII", 7, 0, len(ip_bytes), len(ip_bytes)) + ip_bytes
        path.write_bytes(header + record)
        columns = read_packet_columns(path)
        assert len(columns) == 1
        assert columns.timestamp[0] == 7.0


class TestFromPackets:
    def test_round_trips_in_memory_packets(self):
        connections = TrafficGenerator(seed=9).generate_connections(5)
        packets = packet_stream(connections)
        columns = PacketColumns.from_packets(packets)
        assert len(columns) == len(packets)
        views = columns.views()
        for view, packet in zip(views, packets):
            assert view.timestamp == packet.timestamp
            assert view.direction == packet.direction
            assert view.materialize() is packet  # object-backed, no re-parse

    def test_injected_ground_truth_survives_views_and_copies(self):
        packets = TrafficGenerator(seed=9).generate_packets(2)[:3]
        packets[1].injected = True
        views = PacketColumns.from_packets(packets).views()
        assert [view.injected for view in views] == [False, True, False]
        assert views[1].copy().injected is True
        assert views[0].copy().injected is False

    def test_materialize_respects_reassigned_direction(self):
        packets = TrafficGenerator(seed=9).generate_packets(2)
        view = PacketColumns.from_packets(packets).views()[0]
        view.direction = view.direction.flipped()
        materialized = view.materialize()
        assert materialized.direction is view.direction
        assert materialized is not packets[0]  # copy, shared packet untouched


class TestGather:
    def test_keeps_dtypes_and_row_order_across_three_blocks(self, capture):
        with PcapReader(capture) as reader:
            blocks = list(reader.iter_column_blocks(block_bytes=4096))
        assert len(blocks) >= 3
        whole = read_packet_columns(capture)
        bases = np.cumsum([0] + [len(block) for block in blocks])
        picks = [
            (2, np.array([3, 0, 1])),
            (0, np.array([5, 5, 2])),
            (1, np.arange(len(blocks[1]))[::-1]),
        ]
        gathered = PacketColumns.gather(
            [blocks[number] for number, _ in picks],
            np.repeat(np.arange(len(picks)), [rows.size for _, rows in picks]),
            np.concatenate([rows for _, rows in picks]),
        )
        expected = np.concatenate([rows + bases[number] for number, rows in picks])
        assert len(gathered) == expected.size
        for name in _ARRAY_FIELDS:
            column = getattr(gathered, name)
            assert column.dtype == _field_dtype(name), name
            assert np.array_equal(column, getattr(whole, name)[expected]), name
        assert gathered.buffer is None and gathered.packets is None

    def test_copies_only_the_named_fields(self, capture):
        columns = read_packet_columns(capture)
        gathered = PacketColumns.gather(
            [columns, columns],
            np.array([0, 0, 1]),
            np.array([4, 1, 0]),
            fields=("timestamp", "seq"),
        )
        assert np.array_equal(gathered.seq, columns.seq[[4, 1, 0]])
        assert np.array_equal(gathered.timestamp, columns.timestamp[[4, 1, 0]])
        assert gathered.src is None and gathered.tsval is None


class TestPackBlock:
    def _assert_columns_equal(self, left, right):
        assert len(left) == len(right)
        for name in _ARRAY_FIELDS:
            assert np.array_equal(getattr(left, name), getattr(right, name)), name

    def test_wire_backed_block_round_trips_bit_for_bit(self, capture):
        from repro.netstack.columns import unpack_block

        columns = read_packet_columns(capture)
        unpacked = unpack_block(columns.pack_block())
        self._assert_columns_equal(columns, unpacked)
        # Columns only: the raw packet bytes stay behind.
        assert unpacked.buffer is None
        with pytest.raises(ValueError):
            unpacked.packet(0)

    def test_row_subset_packs_in_the_requested_order(self, capture):
        from repro.netstack.columns import unpack_block

        columns = read_packet_columns(capture)
        picks = np.array([5, 2, 9, 2], dtype=np.int64)
        unpacked = unpack_block(columns.pack_block(picks))
        assert np.array_equal(unpacked.timestamp, columns.timestamp[picks])
        assert np.array_equal(unpacked.seq, columns.seq[picks])

    def test_packet_backed_block_packs_columns_only(self):
        from repro.netstack.columns import unpack_block

        packets = packet_stream(TrafficGenerator(seed=8).generate_connections(3))
        columns = PacketColumns.from_packets(packets)
        unpacked = unpack_block(columns.pack_block())
        self._assert_columns_equal(columns, unpacked)
        assert unpacked.packets is None
        with pytest.raises(ValueError):
            unpacked.packet(0)

    def test_unpacked_views_extract_identically(self, capture):
        """The process-pool guarantee: features computed from an unpacked
        block equal those from the original, bit for bit."""
        from repro.features.fields import RawFeatureExtractor
        from repro.netstack.columns import unpack_block
        from repro.netstack.flow import assemble_connections as _assemble

        extractor = RawFeatureExtractor()
        original = _assemble(read_packet_columns(capture).views())
        unpacked = _assemble(unpack_block(read_packet_columns(capture).pack_block()).views())
        for left, right in zip(original, unpacked):
            assert np.array_equal(
                extractor.extract_packets(left.packets),
                extractor.extract_packets(right.packets),
            )

    def test_empty_and_garbage_blocks(self):
        from repro.netstack.columns import unpack_block

        empty = unpack_block(PacketColumns.empty().pack_block())
        assert len(empty) == 0
        with pytest.raises(ValueError, match="bad magic"):
            unpack_block(b"XXX" + bytes(32))
        header = bytearray(PacketColumns.empty().pack_block())
        header[3] = 2  # version
        with pytest.raises(ValueError, match="version 2"):
            unpack_block(bytes(header))
        header[3], header[4] = 1, 1  # a materialisation backing kind
        with pytest.raises(ValueError, match="backing kind 1"):
            unpack_block(bytes(header))


class TestUnpackedColumns:
    """``unpack_block`` maps the wire payload in place, read-only."""

    @staticmethod
    def _packed(count: int = 64) -> bytes:
        from repro.traffic.flood import syn_flood_columns

        return syn_flood_columns(count).pack_block()

    def test_unpacked_columns_are_read_only_views(self):
        from repro.netstack.columns import unpack_block

        columns = unpack_block(self._packed())
        assert columns.timestamp.flags.writeable is False
        assert columns.src.flags.writeable is False
        with pytest.raises(ValueError):
            columns.timestamp[0] = 0.0
        with pytest.raises(ValueError):
            columns.flags[:] = 0

    def test_read_only_even_over_a_writable_buffer(self):
        from repro.netstack.columns import unpack_block

        columns = unpack_block(bytearray(self._packed()))
        assert columns.seq.flags.writeable is False
        with pytest.raises(ValueError):
            columns.seq[3] = 99

    def test_columns_view_the_wire_payload_zero_copy(self):
        from repro.netstack.columns import unpack_block

        payload = bytearray(self._packed(16))
        columns = unpack_block(payload)
        raw = np.frombuffer(payload, dtype=np.uint8)
        # Every scalar column maps the wire payload in place — no copies.
        for name in ("timestamp", "src", "seq", "key_port_b"):
            assert np.shares_memory(getattr(columns, name), raw), name


class TestViews:
    def test_explicit_directions_set_each_view(self, capture):
        from repro.netstack.packet import Direction

        columns = read_packet_columns(capture)
        directions = [
            Direction.SERVER_TO_CLIENT if index % 3 else Direction.CLIENT_TO_SERVER
            for index in range(len(columns))
        ]
        views = columns.views(directions)
        assert [view.direction for view in views] == directions
        assert [view.flow_key() for view in views] == columns.flow_keys()
