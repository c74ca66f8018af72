"""The one-pass block parse: word sums, the TCP-option walk and its memory.

``parse_packet_columns`` verifies every IP/TCP checksum of a block from
``reduceat`` word sums and decodes the common TCP option layouts with one
vectorized cursor walk; every other options area goes to the per-row
``decode_options`` oracle.  These tests pin each piece against a pure-Python
or object-path oracle.
"""

import struct
import tracemalloc

import numpy as np
import pytest

import repro.netstack.columns as columns_module
from repro.netstack.addresses import ip_to_int
from repro.netstack.checksum import tcp_checksum
from repro.netstack.columns import _ARRAY_FIELDS, _LABEL_FIELDS, PacketColumns, _word_sums
from repro.netstack.flow import packet_stream
from repro.netstack.ip import Ipv4Header
from repro.netstack.options import (
    EndOfOptions,
    MaximumSegmentSize,
    Md5Signature,
    NoOperation,
    SackPermitted,
    Timestamp,
    UserTimeout,
    WindowScale,
    encode_options,
)
from repro.netstack.pcap import PcapReader, PcapWriter, read_packet_columns, write_pcap
from repro.netstack.tcp import TcpFlags
from repro.traffic.generator import TrafficGenerator
from tests.reference_oracle import read_pcap


def be16_sum(raw: bytes) -> int:
    """Pure-Python big-endian 16-bit word sum, odd tail zero-padded."""
    if len(raw) % 2:
        raw += b"\x00"
    return sum(struct.unpack(f"!{len(raw) // 2}H", raw))


def assert_word_sums(buffer: bytes, spans: list[tuple[int, int]]) -> None:
    data = np.frombuffer(buffer, dtype=np.uint8)
    starts = np.array([start for start, _ in spans], dtype=np.int64)
    lengths = np.array([length for _, length in spans], dtype=np.int64)
    got = _word_sums(data, starts, lengths)
    expected = [be16_sum(buffer[start : start + length]) for start, length in spans]
    assert got.dtype == np.int64
    assert got.tolist() == expected


class TestWordSums:
    @pytest.mark.parametrize("size", [1, 2, 3, 64, 999, 1000, 4097])
    def test_random_spans_match_the_python_sum(self, size):
        rng = np.random.default_rng(size)
        buffer = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        starts = rng.integers(0, size, 300)
        spans = [(int(s), int(rng.integers(0, size - s + 1))) for s in starts]
        assert {start % 2 for start, _ in spans} == ({0, 1} if size > 1 else {0})
        assert_word_sums(buffer, spans)

    @pytest.mark.parametrize("size", [40, 41])
    def test_edge_spans(self, size):
        buffer = bytes(range(7, 7 + size))
        assert_word_sums(
            buffer,
            [
                (0, 0),  # empty at the start
                (5, 0),  # empty at an odd offset
                (size, 0),  # empty at the very end
                (3, 1),  # one byte: the high half of a padded word
                (4, 1),
                (2, 7),  # odd length, even start
                (9, 7),  # odd length, odd start
                (10, 6),  # adjacent spans ...
                (16, 6),
                (22, 5),  # ... of mixed parity
                (27, 4),
                (0, size),  # the whole buffer
                (1, size - 1),  # ends on the last byte, odd start
                (size - 2, 2),  # last whole word
                (size - 1, 1),  # the last byte alone
                (size - 3, 3),
            ],
        )

    def test_a_huge_record_widens_the_accumulator(self):
        # 100,000 words of 0xFFFF sum past 2**32: a uint32 accumulator wraps.
        size = 200_000
        buffer = b"\x01" * 16 + b"\xff" * size + b"\x02" * 16
        assert be16_sum(b"\xff" * size) > 2**32
        assert_word_sums(buffer, [(16, size), (17, size - 1), (0, 20), (16 + size, 16)])

    def test_no_spans(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _word_sums(np.zeros(8, dtype=np.uint8), empty, empty).size == 0


SRC = ip_to_int("10.9.9.1")
DST = ip_to_int("192.0.2.7")


def wire_packet(area: bytes, payload: bytes = b"", tcp_checksum_value: int | None = None) -> bytes:
    """A SYN carrying the raw TCP options ``area`` (a multiple of 4 bytes)."""
    assert len(area) % 4 == 0 and len(area) <= 40
    header = struct.pack(
        "!HHIIHHHH",
        40000,
        443,
        1000,
        0,
        ((5 + len(area) // 4) << 12) | TcpFlags.SYN,
        64000,
        0,
        0,
    ) + area
    checksum = tcp_checksum(SRC, DST, header + payload)
    if tcp_checksum_value is not None:
        checksum = tcp_checksum_value
    segment = header[:16] + struct.pack("!H", checksum) + header[18:] + payload
    return Ipv4Header(src=SRC, dst=DST).to_bytes(payload_length=len(segment)) + segment


TIMESTAMP = Timestamp(tsval=0xDEADBEEF, tsecr=0x01020304)

#: The generator's seven SYN/SYN-ACK option layouts (MSS first,
#: ``encode_options`` NOP padding), its Timestamp-only data-segment layout and
#: duplicates of each walked kind (the first one of each kind wins).
WALKED_LAYOUTS = {
    "mss-ws-sack-ts": [MaximumSegmentSize(1460), WindowScale(7), SackPermitted(), TIMESTAMP],
    "mss-ws-sack": [MaximumSegmentSize(1460), WindowScale(7), SackPermitted()],
    "mss-ws-ts": [MaximumSegmentSize(1400), WindowScale(9), TIMESTAMP],
    "mss-sack-ts": [MaximumSegmentSize(1360), SackPermitted(), TIMESTAMP],
    "mss-ws": [MaximumSegmentSize(536), WindowScale(14)],
    "mss-ts": [MaximumSegmentSize(1460), TIMESTAMP],
    "mss-sack": [MaximumSegmentSize(1200), SackPermitted()],
    "ts": [TIMESTAMP],
    "duplicates": [
        MaximumSegmentSize(1400),
        MaximumSegmentSize(900),
        WindowScale(7),
        WindowScale(3),
        TIMESTAMP,
        Timestamp(tsval=5, tsecr=6),
    ],
}

#: Options areas the walk must hand to the per-row oracle.
FALLBACK_AREAS = {
    "eol-zero-padding": bytes.fromhex("020405b4 00000000".replace(" ", "")),
    "eol-nop-padding": encode_options([MaximumSegmentSize(1460), EndOfOptions()]),
    "md5": encode_options([Md5Signature(digest=bytes(range(16))), NoOperation(), NoOperation()]),
    "user-timeout": encode_options(
        [MaximumSegmentSize(1460), UserTimeout(granularity_minutes=False, timeout=120)]
    ),
    "sack-blocks": bytes.fromhex("0101050a 00000010 00000020 01010101".replace(" ", "")),
    "malformed-mss-before-good": bytes.fromhex("02050102 01020405 b4010101".replace(" ", "")),
    "ws-length-4": bytes.fromhex("03040701 020405b4".replace(" ", "")),
    "runs-past-data-offset": bytes.fromhex("0101080a 00000001".replace(" ", "")),
    "trailing-single-byte": bytes.fromhex("020405b4 01010103".replace(" ", "")),
    "zero-length-option": bytes.fromhex("02000000".replace(" ", "")),
    "unknown-kind": bytes.fromhex("fe040000 020405b4".replace(" ", "")),
}


def assert_columns_match_object_path(path) -> None:
    wire = read_packet_columns(path)
    objects = PacketColumns.from_packets(read_pcap(path))
    assert len(wire) == len(objects) > 0
    for name in _ARRAY_FIELDS + _LABEL_FIELDS:
        got, expected = getattr(wire, name), getattr(objects, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), (name, got, expected)


@pytest.fixture
def decode_calls(monkeypatch):
    """Every options area the per-row oracle decodes during the parse."""
    calls = []
    decode = columns_module.decode_options

    def spy(raw):
        calls.append(raw)
        return decode(raw)

    monkeypatch.setattr(columns_module, "decode_options", spy)
    return calls


def write_areas(path, areas) -> None:
    """Each area with payloads of 3, 1 and 0 bytes, each with a bad and a good
    TCP checksum; the odd-length records start later records at both parities,
    and the capture ends on the last options byte."""
    with PcapWriter(path) as writer:
        for index, area in enumerate(areas):
            for payload in (b"xyz", b"x", b""):
                writer.write_raw(wire_packet(area, payload, tcp_checksum_value=0x1234), 2.0)
                writer.write_raw(wire_packet(area, payload), 1.0 + index)


class TestOptionWalk:
    @pytest.mark.parametrize("layout", sorted(WALKED_LAYOUTS))
    def test_common_layouts_are_walked_without_the_oracle(
        self, tmp_path, decode_calls, layout
    ):
        path = tmp_path / "walked.pcap"
        write_areas(path, [encode_options(WALKED_LAYOUTS[layout])])
        assert_columns_match_object_path(path)
        wire = read_packet_columns(path)
        assert decode_calls == []
        assert wire.tcp_ok.tolist() == [False, True] * 3

    @pytest.mark.parametrize("case", sorted(FALLBACK_AREAS))
    def test_irregular_areas_fall_back_to_the_oracle(self, tmp_path, decode_calls, case):
        path = tmp_path / "fallback.pcap"
        area = FALLBACK_AREAS[case]
        write_areas(path, [area])
        assert_columns_match_object_path(path)
        decode_calls.clear()
        read_packet_columns(path)
        assert decode_calls == [area] * 6

    def test_mixed_block_matches_the_object_path(self, tmp_path):
        path = tmp_path / "mixed.pcap"
        walked = [encode_options(options) for options in WALKED_LAYOUTS.values()]
        write_areas(path, walked + list(FALLBACK_AREAS.values()))
        assert_columns_match_object_path(path)

    def test_generator_capture_rarely_reaches_the_oracle(self, tmp_path, decode_calls):
        path = tmp_path / "benign.pcap"
        write_pcap(path, packet_stream(TrafficGenerator(seed=11).generate_connections(60)))
        columns = read_packet_columns(path)
        syn_rows = int(np.count_nonzero(columns.flags & TcpFlags.SYN))
        assert syn_rows >= 60
        assert len(decode_calls) < 0.01 * len(columns)


class TestParseMemory:
    def test_one_block_peaks_under_six_times_its_bytes(self, tmp_path):
        path = tmp_path / "big.pcap"
        packets = packet_stream(TrafficGenerator(seed=12).generate_connections(40))
        block_bytes = 4 << 20
        records = [(packet.to_bytes(), packet.timestamp) for packet in packets]
        with PcapWriter(path) as writer:
            written = 0
            while written < block_bytes + (1 << 20):
                for data, timestamp in records:
                    writer.write_raw(data, timestamp)
                    written += 16 + len(data)
        with PcapReader(path) as reader:
            blocks = reader.iter_column_blocks(block_bytes=block_bytes)
            tracemalloc.start()
            try:
                first = next(blocks)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert first.buffer.nbytes >= block_bytes
        assert peak <= 6 * first.buffer.nbytes, f"peak {peak / first.buffer.nbytes:.1f}x"
