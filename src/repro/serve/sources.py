"""Pluggable packet sources feeding the streaming runtime.

A packet source is anything iterable that yields :class:`StreamItem`s — packets
(``Packet`` objects or column views) interleaved with optional
:class:`Tick` markers.  A ``Tick`` carries a stream timestamp but no packet;
the runtime turns it into a :meth:`poll` call so close-grace/idle timers keep
firing on quiet links where no packet would otherwise advance the clock.

Concrete sources:

* :class:`PcapSource` — lazily streams a capture file block by block as
  column views (bounded memory, unlike
  :func:`repro.netstack.pcap.read_packet_columns`);
* :class:`NDJSONSource` — newline-delimited JSON, one packet per line
  (``{"ts": <float>, "data": "<hex>"}``), the lingua franca for piping
  packets between processes; :meth:`NDJSONSource.format_packet` is the
  matching writer;
* :class:`ReplaySource` — wraps another source and paces it against a clock
  (fixed packets/second or a multiple of capture time), emitting ``Tick``
  heartbeats through idle gaps;
* :class:`IterableSource` — adapter for any in-memory packet iterable.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator
from typing import IO, Protocol, runtime_checkable

from repro.netstack.packet import Packet
from repro.netstack.pcap import PcapReader


@dataclass(frozen=True)
class Tick:
    """A packet-less advance of stream time (wall-clock heartbeat)."""

    now: float | None = None


StreamItem = Packet | Tick


def _none_stamp() -> float | None:
    """Stamp for ticks before the first packet: no stream time known yet."""
    return None


def parse_packet_line(line: str, *, strict: bool = False) -> Packet | None:
    """Parse one NDJSON packet line (``{"ts": <float>, "data": "<hex>"}``).

    The line-level decoder behind :class:`NDJSONSource`.  Malformed lines
    return ``None`` unless ``strict`` is set, in which case they raise
    ``ValueError``.
    """
    try:
        record = json.loads(line)
        return Packet.from_bytes(
            bytes.fromhex(record["data"]), timestamp=float(record.get("ts", 0.0))
        )
    except (ValueError, KeyError, TypeError) as exc:
        if strict:
            raise ValueError(f"malformed NDJSON packet line: {line[:80]!r}") from exc
        return None


@runtime_checkable
class PacketSource(Protocol):
    """Anything that yields packets (and optional ticks) in stream order."""

    def __iter__(self) -> Iterator[StreamItem]: ...


class IterableSource:
    """Adapter presenting any packet iterable as a :class:`PacketSource`."""

    def __init__(self, packets: Iterable[StreamItem]) -> None:
        self._packets = packets

    def __iter__(self) -> Iterator[StreamItem]:
        return iter(self._packets)


class PcapSource:
    """Stream a ``.pcap`` capture lazily, block by block, as column views.

    Each block of ``block_bytes`` is parsed vectorized into a
    :class:`~repro.netstack.columns.PacketColumns`, and the source yields
    lightweight :class:`~repro.netstack.columns.ColumnPacketView` handles,
    which the flow table assembles and the feature extractor consumes
    without ever building ``Packet`` objects.  Replay memory is bounded by
    the blocks still referenced: a block (raw bytes + columns) stays alive
    only while some yielded packet of it is — in a streaming detector, until
    every connection it touches completes, so size
    ``idle_timeout``/``max_flows`` accordingly on captures with very
    long-lived flows.  Non-TCP/malformed records are skipped
    (``strict=True`` raises instead).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        strict: bool = False,
        block_bytes: int = 4 << 20,
    ) -> None:
        self.path = Path(path)
        self.strict = strict
        self.block_bytes = int(block_bytes)

    def __iter__(self) -> Iterator[StreamItem]:
        with PcapReader(self.path) as reader:
            for columns in reader.iter_column_blocks(
                block_bytes=self.block_bytes, strict=self.strict
            ):
                yield from columns.views()


class NDJSONSource:
    """Packets as newline-delimited JSON: ``{"ts": <float>, "data": "<hex>"}``.

    ``data`` is the hex-encoded raw IPv4 packet (what
    :meth:`Packet.to_bytes` returns); ``ts`` is the capture timestamp in
    seconds.  Blank lines are ignored; lines that fail to parse are skipped
    unless ``strict=True``.  Accepts a path or any open text-file object
    (e.g. ``sys.stdin``), so packets can be piped between processes.
    """

    def __init__(
        self, source: str | Path | IO[str], *, strict: bool = False
    ) -> None:
        self._source = source
        self.strict = strict

    @staticmethod
    def format_packet(packet: Packet) -> str:
        """The NDJSON line encoding ``packet`` (inverse of parsing)."""
        return json.dumps({"ts": packet.timestamp, "data": packet.to_bytes().hex()})

    def _parse_line(self, line: str) -> Packet | None:
        return parse_packet_line(line, strict=self.strict)

    def __iter__(self) -> Iterator[StreamItem]:
        if isinstance(self._source, (str, Path)):
            with open(self._source, encoding="utf-8") as handle:
                yield from self._iter_lines(handle)
        else:
            yield from self._iter_lines(self._source)

    def _iter_lines(self, handle: IO[str]) -> Iterator[Packet]:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            packet = self._parse_line(line)
            if packet is not None:
                yield packet


class ReplaySource:
    """Pace another source against a clock, with heartbeat ticks.

    ``rate`` replays at a fixed number of packets per second; ``speed``
    replays at a multiple of the capture's own timestamp spacing (``1.0`` =
    real time, ``10.0`` = ten times faster).  At most one of the two may be
    set; with neither, packets flow unpaced and only the tick logic applies.

    ``tick_interval`` inserts a :class:`Tick` whenever more than that many
    stream-seconds pass without a packet — on a quiet link this is what keeps
    the flow table's close-grace/idle timers firing.  The clock and sleep
    functions are injectable so tests (and dry runs) replay instantly.
    """

    def __init__(
        self,
        source: PacketSource | Iterable[StreamItem],
        *,
        rate: float | None = None,
        speed: float | None = None,
        tick_interval: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate is not None and speed is not None:
            raise ValueError("set at most one of rate and speed")
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if speed is not None and speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        if tick_interval is not None and tick_interval <= 0:
            raise ValueError(f"tick_interval must be positive, got {tick_interval}")
        self._source = source
        self.rate = rate
        self.speed = speed
        self.tick_interval = tick_interval
        self._clock = clock
        self._sleep = sleep

    def _pause(
        self, seconds: float, stamp: Callable[[], float | None]
    ) -> Iterator[StreamItem]:
        """Sleep ``seconds``, emitting ticks through gaps longer than the
        tick interval so flow-table timers keep firing on a quiet link.
        ``stamp`` reconstructs the stream timestamp a tick represents (see
        :meth:`_gap_stamp`; ``None`` only before the first packet)."""
        interval = self.tick_interval
        if interval is None:
            self._sleep(seconds)
            return
        while seconds > 0:
            step = min(seconds, interval)
            self._sleep(step)
            seconds -= step
            if seconds > 0:
                yield Tick(stamp())

    def _gap_stamp(self, last_stamp: float, last_wall: float) -> float:
        """The stream timestamp a tick represents: the last emitted packet's
        timestamp advanced by the wall time elapsed since (scaled by the
        replay speed).  Speed replays make this the exact wall→stream
        mapping; rate replays treat pauses as live-link time, which is what
        lets close-grace/idle timers keep firing through quiet spells."""
        return last_stamp + (self._clock() - last_wall) * (self.speed or 1.0)

    def __iter__(self) -> Iterator[StreamItem]:
        start_wall: float | None = None
        first_stamp: float | None = None
        last_stamp: float | None = None
        last_wall: float | None = None
        emitted = 0
        for item in self._source:
            if isinstance(item, Tick):
                yield item
                continue
            packet = item
            if start_wall is None:
                start_wall = self._clock()
                first_stamp = packet.timestamp
            due: float | None = None
            if self.rate is not None:
                due = start_wall + emitted / self.rate
            elif self.speed is not None and first_stamp is not None:
                due = start_wall + (packet.timestamp - first_stamp) / self.speed
            if due is not None:
                behind = due - self._clock()
                if behind > 0:
                    stamp: Callable[[], float | None] = _none_stamp
                    if last_stamp is not None and last_wall is not None:
                        stamp = functools.partial(self._gap_stamp, last_stamp, last_wall)
                    yield from self._pause(behind, stamp)
            yield packet
            emitted += 1
            last_stamp = packet.timestamp
            last_wall = self._clock()


def open_source(
    path: str | Path,
    kind: str = "auto",
    *,
    strict: bool = False,
    block_bytes: int = 4 << 20,
) -> PacketSource:
    """Build the right source for ``path`` (CLI ``--source`` dispatch).

    ``kind`` is ``"pcap"``, ``"ndjson"`` or ``"auto"`` — auto picks NDJSON
    for ``.ndjson``/``.jsonl``/``.json`` suffixes and pcap otherwise.  A pcap
    streams as column views (:class:`PcapSource`), NDJSON as ``Packet``
    objects.  ``strict`` makes malformed records raise instead of being
    skipped; ``block_bytes`` sizes the pcap read blocks.
    """
    path = Path(path)
    if kind == "auto":
        kind = "ndjson" if path.suffix in (".ndjson", ".jsonl", ".json") else "pcap"
    if kind == "pcap":
        return PcapSource(path, strict=strict, block_bytes=block_bytes)
    if kind == "ndjson":
        return NDJSONSource(path, strict=strict)
    raise ValueError(f"unknown source kind {kind!r} (expected pcap, ndjson or auto)")
