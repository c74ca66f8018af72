"""Columnar-vs-reference feature equivalence over adversarial corpora.

The columnar extractor (:func:`repro.features.fields.extract_columns_segments`
over a :class:`repro.netstack.columns.PacketColumns`) must be **exactly**
equal — ``np.array_equal``, not allclose — to the per-packet reference
extractor of ``tests/reference_oracle.py`` on every input the system can see:

* every attack scenario in :mod:`repro.attacks` (all 73 strategies), both as
  in-memory packet objects and after a pcap round trip;
* hand-built wire-level edge cases: malformed and duplicate TCP options, bad
  IP/TCP checksums, reserved header bits, sequence/ACK/TSval wraparound,
  truncated and oversized header-length fields, connections shorter than the
  stack length;
* connections whose packets span several capture read blocks, batched
  together with single-block, empty, object-``Packet`` and mixed trains.
"""

import struct

import numpy as np
import pytest

from repro.attacks.base import all_strategies
from repro.attacks.injector import AttackInjector
from repro.features.fields import RawFeatureExtractor
from repro.netstack.addresses import ip_to_int
from repro.netstack.columns import PacketColumns
from repro.netstack.flow import assemble_connections, packet_stream
from repro.netstack.ip import Ipv4Header
from repro.netstack.options import (
    MaximumSegmentSize,
    RawOption,
    Timestamp,
    UserTimeout,
    WindowScale,
)
from repro.netstack.packet import Direction, Packet
from repro.netstack.pcap import PcapWriter, read_packet_columns, write_pcap
from repro.netstack.tcp import TcpFlags, TcpHeader
from repro.serve.sources import PcapSource
from repro.traffic.generator import TrafficGenerator

from tests.reference_oracle import connection_profiles, extract_packets_reference, read_pcap

EXTRACTOR = RawFeatureExtractor()


def assert_wire_equivalent(tmp_path, packets, name="capture"):
    """Write ``packets`` to a pcap and compare both read+extract paths."""
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
    path = tmp_path / f"{safe}.pcap"
    write_pcap(path, packets)
    object_connections = assemble_connections(read_pcap(path))
    view_connections = assemble_connections(read_packet_columns(path).views())
    assert len(object_connections) == len(view_connections)
    for obj, col in zip(object_connections, view_connections):
        reference = extract_packets_reference(obj.packets)
        columnar = EXTRACTOR.extract_packets(col.packets)
        assert reference.shape == columnar.shape
        assert np.array_equal(reference, columnar), (
            f"{name}: columnar features diverge at "
            f"{np.argwhere(reference != columnar)[:5].tolist()}"
        )
    return object_connections


def assert_memory_equivalent(connection):
    """Compare the reference with the columnar path over from_packets."""
    columns = PacketColumns.from_packets(connection.packets)
    reference = extract_packets_reference(connection.packets)
    columnar = EXTRACTOR.extract_packet_trains([columns.views()])[0]
    assert np.array_equal(reference, columnar)


@pytest.fixture(scope="module")
def benign_corpus():
    return TrafficGenerator(seed=2718).generate_connections(6)


@pytest.mark.parametrize("strategy", all_strategies(), ids=lambda s: s.name)
def test_attack_scenario_equivalence(tmp_path, benign_corpus, strategy):
    """Every evasion strategy: identical features in memory and on the wire."""
    injector = AttackInjector(seed=7)
    attacked = [
        injector.attack_connection(strategy, connection.copy()).connection
        for connection in benign_corpus
    ]
    for connection in attacked:
        assert_memory_equivalent(connection)
    packets = sorted(
        (packet for connection in attacked for packet in connection.packets),
        key=lambda packet: packet.timestamp,
    )
    assert_wire_equivalent(tmp_path, packets, name=f"attack-{strategy.name[:40]}")


# ---------------------------------------------------------------------------
# Hand-built wire-level edge cases
# ---------------------------------------------------------------------------


def _segment(
    index,
    *,
    direction=Direction.CLIENT_TO_SERVER,
    seq=None,
    ack=None,
    flags=TcpFlags.ACK,
    payload=b"",
    options=None,
    ip_options=b"",
    timestamp=None,
    **header_overrides,
):
    """One packet of the fixed test connection, with optional header abuse."""
    client = ("10.9.9.1", 40000)
    server = ("192.0.2.7", 443)
    src, dst = (client, server) if direction is Direction.CLIENT_TO_SERVER else (server, client)
    ip_kwargs = {
        key: value
        for key, value in header_overrides.items()
        if key in ("ihl", "tos", "total_length", "ttl", "checksum", "version",
                   "identification", "dont_fragment", "more_fragments",
                   "fragment_offset")
    }
    tcp = TcpHeader(
        src_port=src[1],
        dst_port=dst[1],
        seq=1000 + index * 10 if seq is None else seq,
        ack=(2000 + index * 5 if ack is None else ack) if flags & TcpFlags.ACK else 0,
        flags=flags,
        options=list(options) if options else [],
        data_offset=header_overrides.get("data_offset"),
        checksum=header_overrides.get("tcp_checksum"),
        urgent_pointer=header_overrides.get("urgent_pointer", 0),
        window=header_overrides.get("window", 64000),
    )
    return Packet(
        ip=Ipv4Header(
            src=ip_to_int(src[0]), dst=ip_to_int(dst[0]), options=ip_options, **ip_kwargs
        ),
        tcp=tcp,
        payload=payload,
        timestamp=100.0 + index * 0.01 if timestamp is None else timestamp,
        direction=direction,
    )


class TestWireEdgeCases:
    def test_malformed_and_duplicate_options(self, tmp_path):
        packets = [
            # Duplicate MSS: first well-formed one wins.
            _segment(0, flags=TcpFlags.SYN, options=[
                MaximumSegmentSize(1400), MaximumSegmentSize(900), WindowScale(7),
            ]),
            # Malformed MSS (RawOption stand-in) before a well-formed one.
            _segment(1, direction=Direction.SERVER_TO_CLIENT,
                     flags=TcpFlags.SYN | TcpFlags.ACK,
                     options=[RawOption(kind=2, data=b"\x01"), MaximumSegmentSize(1200)]),
            # Truncated option tail (length byte past the end).
            _segment(2, options=[RawOption(kind=8, data=b"\x00\x01")]),
            # Unknown option kinds around a timestamp.
            _segment(3, options=[RawOption(kind=254, data=b"\xab\xcd"),
                                 Timestamp(tsval=1_000, tsecr=2_000)]),
            # User timeout + window scale on a data segment (unusual but legal).
            _segment(4, payload=b"hello", options=[
                UserTimeout(granularity_minutes=True, timeout=300), WindowScale(9),
            ]),
        ]
        assert_wire_equivalent(tmp_path, packets, "options")

    def test_bad_checksums_and_reserved_bits(self, tmp_path):
        packets = [
            _segment(0, flags=TcpFlags.SYN),
            # Wrong TCP checksum, correct IP checksum.
            _segment(1, payload=b"data", tcp_checksum=0xBEEF),
            # Wrong IP checksum.
            _segment(2, checksum=0x1234),
            # Both zeroed.
            _segment(3, checksum=0, tcp_checksum=0),
        ]
        raw = [packet.to_bytes() for packet in packets]
        # Reserved/evil IP flag bit set with an otherwise-correct wire
        # checksum: re-serialisation drops the bit, so validity flips.
        evil = bytearray(raw[1])
        evil[6] |= 0x80
        raw.append(bytes(evil))
        # TCP reserved bits set.
        tcp_reserved = bytearray(raw[2])
        tcp_reserved[20 + 12] |= 0x0E
        raw.append(bytes(tcp_reserved))
        packets = [Packet.from_bytes(data, timestamp=50.0 + i) for i, data in enumerate(raw)]
        assert_wire_equivalent(tmp_path, packets, "checksums")

    def test_sequence_and_timestamp_wraparound(self, tmp_path):
        near_wrap = 2**32 - 5
        packets = [
            _segment(0, flags=TcpFlags.SYN, seq=near_wrap,
                     options=[Timestamp(tsval=2**32 - 3, tsecr=0)]),
            _segment(1, direction=Direction.SERVER_TO_CLIENT,
                     flags=TcpFlags.SYN | TcpFlags.ACK, seq=2**31 - 2, ack=near_wrap + 1,
                     options=[Timestamp(tsval=5, tsecr=2**32 - 3)]),
            # Client sequence wraps past zero; TSval wraps too.
            _segment(2, seq=3, ack=2**31 - 1, payload=b"xyz",
                     options=[Timestamp(tsval=4, tsecr=5)]),
            # ACK number wraps backwards (stale ACK).
            _segment(3, direction=Direction.SERVER_TO_CLIENT, seq=2**31 + 10,
                     ack=near_wrap - 100, options=[Timestamp(tsval=9, tsecr=4)]),
        ]
        assert_wire_equivalent(tmp_path, packets, "wraparound")

    def test_missing_timestamps_leave_delta_untouched(self, tmp_path):
        packets = [
            _segment(0, options=[Timestamp(tsval=100, tsecr=0)]),
            _segment(1),  # no TS option: no delta, no reset
            _segment(2, options=[Timestamp(tsval=175, tsecr=0)]),
            _segment(3, direction=Direction.SERVER_TO_CLIENT,
                     options=[Timestamp(tsval=9000, tsecr=175)]),
            _segment(4, options=[Timestamp(tsval=150, tsecr=9000)]),  # negative delta
        ]
        connections = assert_wire_equivalent(tmp_path, packets, "tsdelta")
        features = extract_packets_reference(connections[0].packets)
        assert features[2, 23] == 75.0  # delta skips the optionless packet
        assert features[4, 23] == -25.0

    def test_header_length_abuse(self, tmp_path):
        base = _segment(0, payload=b"abcdefghijklmnopqrstuvwxyz")
        raw = base.to_bytes()
        variants = [raw]
        # IHL of 15: the claimed 60-byte header swallows the TCP header, so
        # the remaining 6 bytes fail TCP parsing — both paths must DROP it.
        big_ihl = bytearray(raw)
        big_ihl[0] = 0x4F
        variants.append(bytes(big_ihl))
        # IHL slightly large: TCP parse shifts into the payload.
        shifted_ihl = bytearray(raw)
        shifted_ihl[0] = 0x46
        variants.append(bytes(shifted_ihl))
        # IHL below the minimum, and IHL zero (both clamp to 20).
        small_ihl = bytearray(raw)
        small_ihl[0] = 0x43
        variants.append(bytes(small_ihl))
        zero_ihl = bytearray(raw)
        zero_ihl[0] = 0x40
        variants.append(bytes(zero_ihl))
        # Data offset beyond the segment (payload swallowed, options empty).
        big_offset = bytearray(raw)
        big_offset[20 + 12] = 0xF0
        variants.append(bytes(big_offset))
        # Data offset below 5 (clamped to 20 bytes).
        small_offset = bytearray(raw)
        small_offset[20 + 12] = 0x30
        variants.append(bytes(small_offset))
        # Wrong total length + wrong version + odd TOS.
        weird = bytearray(raw)
        weird[0] = 0x65
        weird[1] = 0x1C
        weird[2:4] = struct.pack("!H", 9)
        variants.append(bytes(weird))
        # Records go on the wire verbatim — some are rejected by the packet
        # parser, and the two read paths must agree on which survive.
        path = tmp_path / "header-length.pcap"
        with PcapWriter(path) as writer:
            for i, data in enumerate(variants):
                writer.write_raw(data, 10.0 + i)
        object_connections = assemble_connections(read_pcap(path))
        view_connections = assemble_connections(read_packet_columns(path).views())
        assert sum(len(c) for c in object_connections) == len(variants) - 1  # big_ihl dropped
        assert len(object_connections) == len(view_connections)
        for obj, col in zip(object_connections, view_connections):
            assert np.array_equal(
                extract_packets_reference(obj.packets),
                EXTRACTOR.extract_packets(col.packets),
            )

    def test_ip_options_and_urgent_and_ns(self, tmp_path):
        packets = [
            _segment(0, ihl=7, ip_options=b"\x07\x07\x04\x00\x00\x00\x01\x00"),
            _segment(1, flags=TcpFlags.ACK | TcpFlags.URG | TcpFlags.NS,
                     urgent_pointer=17, payload=b"!urgent!"),
            _segment(2, flags=TcpFlags.ACK | TcpFlags.ECE | TcpFlags.CWR,
                     payload=b"x" * 101),  # odd payload length: checksum pad
        ]
        assert_wire_equivalent(tmp_path, packets, "ip-options")

    def test_short_connections_and_single_packets(self, tmp_path):
        packets = [
            _segment(0, flags=TcpFlags.SYN),
            # A lone RST on a different 5-tuple: one-packet connection.
            Packet(
                ip=Ipv4Header(src=ip_to_int("10.0.0.9"), dst=ip_to_int("10.0.0.10")),
                tcp=TcpHeader(src_port=5, dst_port=6, seq=1, flags=TcpFlags.RST),
                timestamp=100.5,
            ),
        ]
        connections = assert_wire_equivalent(tmp_path, packets, "short")
        assert {len(connection) for connection in connections} == {1}


class TestEngineEquivalence:
    def test_profile_builder_matches_over_columnar_batch(self, trained_clap, benign_corpus):
        """batch_connection_profiles on views == per-connection reference."""
        columns = PacketColumns.from_packets(packet_stream(benign_corpus))
        view_connections = assemble_connections(columns.views())
        builder = trained_clap.engine.builder
        batched = builder.batch_connection_profiles(view_connections)
        for connection, profiles in zip(view_connections, batched):
            reference = connection_profiles(builder, connection)
            assert np.array_equal(reference.raw_features, profiles.raw_features)
            assert np.allclose(reference.profiles, profiles.profiles, atol=1e-12)

    def test_detection_scores_identical_for_views(self, trained_clap, benign_corpus):
        object_results = trained_clap.detect_batch(benign_corpus)
        columns = PacketColumns.from_packets(packet_stream(benign_corpus))
        view_connections = assemble_connections(columns.views())
        view_results = trained_clap.detect_batch(view_connections)
        for a, b in zip(object_results, view_results):
            assert a.key == b.key
            assert a.score == pytest.approx(b.score, abs=1e-12)


class TestCrossBlockTrains:
    """Connections read in tiny capture blocks span several blocks; they must
    stay on the columnar path and match the reference bit for bit."""

    @pytest.fixture(scope="class")
    def capture(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cross-block") / "capture.pcap"
        write_pcap(path, packet_stream(TrafficGenerator(seed=4096).generate_connections(24)))
        return path

    def test_batch_matches_reference_and_runs_it_only_for_object_trains(
        self, capture, monkeypatch
    ):
        objects = assemble_connections(read_pcap(capture))
        spanning = assemble_connections(PcapSource(capture, block_bytes=4096))
        single = assemble_connections(read_packet_columns(capture).views())
        assert len(objects) == len(spanning) == len(single)
        spans = [len({id(packet.columns) for packet in c.packets}) for c in spanning]
        assert sum(span >= 2 for span in spans) > len(spans) // 2
        references = [extract_packets_reference(c.packets) for c in objects]
        mixed = list(spanning[1].packets)
        mixed[0] = mixed[0].materialize()
        trains = [
            spanning[0].packets,
            single[0].packets,
            [],
            objects[2].packets,
            mixed,
            single[3].packets,
            *(connection.packets for connection in spanning[4:]),
        ]
        expected = [
            references[0],
            references[0],
            np.zeros((0, 32)),
            references[2],
            references[1],
            references[3],
            *references[4:],
        ]

        calls = []
        from_packets = PacketColumns.from_packets

        def spy(cls, packets):
            packets = list(packets)
            calls.append(packets)
            return from_packets(packets)

        monkeypatch.setattr(PacketColumns, "from_packets", classmethod(spy))
        got = EXTRACTOR.extract_packet_trains(trains)
        assert len(got) == len(expected)
        for index, (features, wanted) in enumerate(zip(got, expected, strict=True)):
            assert features.shape == wanted.shape, index
            assert np.array_equal(features, wanted), index
        # One conversion per call, over exactly the object packets of the
        # object and mixed trains; the mixed train's views stay rows of
        # their own blocks.
        assert len(calls) == 1
        assert [id(packet) for packet in calls[0]] == [
            *(id(packet) for packet in trains[3]),
            id(mixed[0]),
        ]

    def test_single_train_across_blocks(self, capture):
        objects = assemble_connections(read_pcap(capture))
        spanning = assemble_connections(PcapSource(capture, block_bytes=4096))
        for obj, col in zip(objects, spanning, strict=True):
            assert np.array_equal(
                EXTRACTOR.extract_packets(col.packets),
                extract_packets_reference(obj.packets),
            )

    def test_single_block_batch_is_not_copied(self, capture, monkeypatch):
        def no_gather(*args, **kwargs):
            raise AssertionError("a single-block batch must index its block in place")

        monkeypatch.setattr(PacketColumns, "gather", no_gather)
        single = assemble_connections(read_packet_columns(capture).views())
        got = EXTRACTOR.extract_packet_trains([c.packets for c in single])
        assert sum(len(features) for features in got) == sum(len(c) for c in single)
