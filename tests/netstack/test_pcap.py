"""Unit tests for the pcap reader/writer (the object reader is the test oracle's)."""

import struct

import pytest

from repro.netstack.addresses import ip_to_int
from repro.netstack.ip import Ipv4Header
from repro.netstack.packet import Packet
from repro.netstack.pcap import (
    LINKTYPE_ETHERNET,
    PcapReader,
    PcapWriter,
    read_packet_columns,
    write_pcap,
)
from repro.netstack.tcp import TcpFlags, TcpHeader
from repro.traffic.generator import TrafficGenerator
from tests.reference_oracle import read_pcap


def read_views(path):
    return read_packet_columns(path).views()


def make_packet(seq: int, timestamp: float) -> Packet:
    return Packet(
        ip=Ipv4Header(src=ip_to_int("1.1.1.1"), dst=ip_to_int("2.2.2.2")),
        tcp=TcpHeader(src_port=1000, dst_port=2000, seq=seq, flags=TcpFlags.ACK, ack=1),
        payload=b"x" * 10,
        timestamp=timestamp,
    )


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "capture.pcap"
        packets = [make_packet(i, 100.0 + i * 0.25) for i in range(5)]
        assert write_pcap(path, packets) == 5
        recovered = read_views(path)
        assert len(recovered) == 5
        assert [p.tcp.seq for p in recovered] == list(range(5))

    def test_timestamps_preserved_to_microseconds(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_pcap(path, [make_packet(1, 1234.567891)])
        recovered = read_views(path)
        assert recovered[0].timestamp == pytest.approx(1234.567891, abs=1e-5)

    def test_generator_traffic_round_trips(self, tmp_path):
        path = tmp_path / "generated.pcap"
        packets = TrafficGenerator(seed=1).generate_packets(5)
        write_pcap(path, packets)
        recovered = read_views(path)
        assert len(recovered) == len(packets)


class TestReaderRobustness:
    def test_rejects_non_pcap_file(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"this is not a pcap file at all....")
        with pytest.raises(ValueError):
            PcapReader(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
        with pytest.raises(ValueError):
            PcapReader(path)

    def test_truncated_record_is_ignored(self, tmp_path):
        path = tmp_path / "truncated.pcap"
        with PcapWriter(path) as writer:
            writer.write_packet(make_packet(1, 1.0))
        # Chop the last 10 bytes off the final record.
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        assert read_views(path) == []
        assert read_pcap(path) == []

    def test_ethernet_link_type_is_stripped(self, tmp_path):
        path = tmp_path / "ether.pcap"
        ip_payload = make_packet(7, 2.0).to_bytes()
        frame = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", 0x0800) + ip_payload
        global_header = struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
        record_header = struct.pack("IIII", 2, 0, len(frame), len(frame))
        path.write_bytes(global_header + record_header + frame)
        packets = read_views(path)
        assert len(packets) == 1
        assert packets[0].tcp.seq == 7

    def test_non_ip_ethernet_frames_are_skipped(self, tmp_path):
        path = tmp_path / "arp.pcap"
        frame = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", 0x0806) + b"\x00" * 28
        global_header = struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
        record_header = struct.pack("IIII", 2, 0, len(frame), len(frame))
        path.write_bytes(global_header + record_header + frame)
        assert read_views(path) == []

    @pytest.mark.parametrize("link_type", [0, 105, 127, 276])
    def test_unknown_link_type_raises(self, tmp_path, link_type):
        """An unsupported link type must raise, not pass through as raw IPv4.

        The old fallthrough silently treated e.g. an 802.11 capture's frames
        as IP headers, producing garbage features instead of an error.
        """
        path = tmp_path / "unknown.pcap"
        data = make_packet(1, 1.0).to_bytes()
        global_header = struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, link_type)
        record_header = struct.pack("IIII", 1, 0, len(data), len(data))
        path.write_bytes(global_header + record_header + data)
        with PcapReader(path) as reader, pytest.raises(ValueError, match=f"link type {link_type}"):
            reader.read_columns()
        # The object oracle rejects the same captures with the same error.
        with pytest.raises(ValueError, match=f"link type {link_type}"):
            read_pcap(path)

    def test_corrupt_record_length_is_dropped_by_both_paths(self, tmp_path):
        """A bogus captured-length must not hang or buffer the whole file.

        The record claims 0x7FFFFFF0 bytes; the reader and the object oracle
        drop it (and anything after it) exactly like a truncated trailing
        record.
        """
        path = tmp_path / "corrupt.pcap"
        good = make_packet(3, 1.0).to_bytes()
        global_header = struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        good_record = struct.pack("IIII", 1, 0, len(good), len(good)) + good
        bogus_record = struct.pack("IIII", 2, 0, 0x7FFFFFF0, 0x7FFFFFF0) + b"\x00" * 64
        path.write_bytes(global_header + good_record + bogus_record)
        assert [p.tcp.seq for p in read_pcap(path)] == [3]
        with PcapReader(path) as reader:
            columns = reader.read_columns()
        assert list(columns.seq) == [3]
        with PcapReader(path) as reader:
            blocks = list(reader.iter_column_blocks(block_bytes=32))
        assert sum(len(block) for block in blocks) == 1

    def test_unknown_link_type_does_not_raise_before_first_record(self, tmp_path):
        """Opening the file still works; only reading records fails."""
        path = tmp_path / "empty-unknown.pcap"
        path.write_bytes(struct.pack("IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 147))
        with PcapReader(path) as reader:
            assert reader.link_type == 147
            assert len(reader.read_columns()) == 0
