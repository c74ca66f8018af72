"""Packet sources: pcap/NDJSON parsing, replay pacing, tick heartbeats."""

from __future__ import annotations

import io
import json

import pytest

from repro.netstack.flow import packet_stream as _stream
from repro.netstack.pcap import write_pcap
from repro.serve.sources import (
    IterableSource,
    NDJSONSource,
    PacketSource,
    PcapSource,
    ReplaySource,
    Tick,
    open_source,
)
from repro.traffic.generator import TrafficGenerator


@pytest.fixture
def packets():
    return _stream(TrafficGenerator(seed=5).generate_connections(4))


class FakeClock:
    """Deterministic clock + sleep pair for pacing tests."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestPcapSource:
    def test_streams_the_capture(self, tmp_path, packets):
        path = tmp_path / "cap.pcap"
        write_pcap(path, packets)
        streamed = list(PcapSource(path))
        assert len(streamed) == len(packets)
        assert [p.timestamp for p in streamed] == pytest.approx(
            [p.timestamp for p in packets], abs=1e-5
        )

    def test_satisfies_the_protocol(self, tmp_path, packets):
        path = tmp_path / "cap.pcap"
        write_pcap(path, packets)
        assert isinstance(PcapSource(path), PacketSource)
        assert isinstance(IterableSource(packets), PacketSource)


class TestNDJSONSource:
    def test_round_trip(self, tmp_path, packets):
        path = tmp_path / "cap.ndjson"
        path.write_text(
            "".join(NDJSONSource.format_packet(p) + "\n" for p in packets)
        )
        streamed = list(NDJSONSource(path))
        assert len(streamed) == len(packets)
        assert [p.tcp.seq for p in streamed] == [p.tcp.seq for p in packets]
        assert [p.timestamp for p in streamed] == [p.timestamp for p in packets]

    def test_reads_file_objects_and_skips_garbage(self, packets):
        lines = [NDJSONSource.format_packet(packets[0]), "", "not json", json.dumps({"ts": 1.0})]
        streamed = list(NDJSONSource(io.StringIO("\n".join(lines))))
        assert len(streamed) == 1

    def test_strict_mode_raises_on_garbage(self):
        with pytest.raises(ValueError, match="malformed NDJSON"):
            list(NDJSONSource(io.StringIO("not json\n"), strict=True))


class TestReplaySource:
    def test_rate_paces_packets_per_second(self, packets):
        fake = FakeClock()
        source = ReplaySource(packets[:10], rate=100.0, clock=fake.clock, sleep=fake.sleep)
        out = [item for item in source if not isinstance(item, Tick)]
        assert len(out) == 10
        # 10 packets at 100 pps: the last is due 0.09s after the first.
        assert fake.now == pytest.approx(0.09, abs=1e-6)

    def test_speed_paces_against_capture_spacing(self, packets):
        fake = FakeClock()
        span = packets[-1].timestamp - packets[0].timestamp
        source = ReplaySource(packets, speed=2.0, clock=fake.clock, sleep=fake.sleep)
        list(source)
        assert fake.now == pytest.approx(span / 2.0, rel=1e-6)

    def test_ticks_fill_long_gaps(self, packets):
        fake = FakeClock()
        for packet, stamp in zip(packets, (0.0, 10.0, 20.0, 30.0)):
            packet.timestamp = stamp
        source = ReplaySource(
            packets[:4], speed=1.0, tick_interval=2.5, clock=fake.clock, sleep=fake.sleep
        )
        items = list(source)
        ticks = [item for item in items if isinstance(item, Tick)]
        assert len(ticks) >= 9  # three 10s gaps, a tick every 2.5s inside each
        # Speed-paced ticks carry the reconstructed stream timestamp.
        stamps = [tick.now for tick in ticks]
        assert all(stamp is not None for stamp in stamps)
        assert stamps == sorted(stamps)

    def test_rate_mode_ticks_carry_stream_time(self, packets):
        """Regression: rate-paced ticks used to carry ``now=None``, which a
        detector's poll() treats as a no-op — the quiet-link heartbeat never
        fired in the only pacing mode the CLI exposes (--replay-rate)."""
        fake = FakeClock()
        for packet, stamp in zip(packets, (5.0, 6.0, 7.0)):
            packet.timestamp = stamp
        source = ReplaySource(
            packets[:3], rate=0.5, tick_interval=0.5, clock=fake.clock, sleep=fake.sleep
        )
        items = list(source)
        ticks = [item for item in items if isinstance(item, Tick)]
        assert ticks  # 2s between packets, a tick every 0.5s of the pause
        stamps = [tick.now for tick in ticks]
        assert all(stamp is not None for stamp in stamps)
        # Pauses count as live-link time: stamps advance from the last
        # emitted packet's timestamp, monotonically.
        assert stamps == sorted(stamps)
        assert stamps[0] >= 5.0

    def test_unpaced_source_passes_through(self, packets):
        source = ReplaySource(packets[:5])
        assert [item.tcp.seq for item in source] == [p.tcp.seq for p in packets[:5]]

    def test_validation(self, packets):
        with pytest.raises(ValueError):
            ReplaySource(packets, rate=1.0, speed=1.0)
        with pytest.raises(ValueError):
            ReplaySource(packets, rate=0.0)
        with pytest.raises(ValueError):
            ReplaySource(packets, speed=-1.0)
        with pytest.raises(ValueError):
            ReplaySource(packets, tick_interval=0.0)


class TestOpenSource:
    def test_dispatch_by_extension(self, tmp_path):
        assert isinstance(open_source(tmp_path / "x.pcap"), PcapSource)
        assert isinstance(open_source(tmp_path / "x.ndjson"), NDJSONSource)
        assert isinstance(open_source(tmp_path / "x.jsonl"), NDJSONSource)

    def test_explicit_kind_overrides_extension(self, tmp_path):
        assert isinstance(open_source(tmp_path / "x.pcap", "ndjson"), NDJSONSource)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_source(tmp_path / "x.pcap", "socket")

    def test_strict_and_block_bytes_are_forwarded(self, tmp_path):
        """Satellite regression: open_source() used to drop strict= on the
        floor, so strict parsing was unreachable from the CLI."""
        pcap = open_source(tmp_path / "x.pcap", strict=True, block_bytes=1 << 16)
        assert pcap.strict is True
        assert pcap.block_bytes == 1 << 16
        ndjson = open_source(tmp_path / "x.ndjson", strict=True)
        assert ndjson.strict is True
        assert open_source(tmp_path / "x.pcap").strict is False

    def test_strict_pcap_source_raises_end_to_end(self, tmp_path):
        """A capture holding a non-TCP record: lax skips it, strict raises —
        through open_source."""
        import struct as _struct

        from repro.netstack.ip import Ipv4Header

        path = tmp_path / "mixed.pcap"
        udp = Ipv4Header(src=1, dst=2, protocol=17).to_bytes(payload_length=0)
        header = _struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = _struct.pack("<IIII", 0, 0, len(udp), len(udp)) + udp
        path.write_bytes(header + record)
        assert list(open_source(path)) == []
        with pytest.raises(ValueError):
            list(open_source(path, strict=True))
