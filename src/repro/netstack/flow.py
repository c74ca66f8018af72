"""Flow keys and connection assembly.

The CLAP pipeline is connection-oriented: detection scores, localisation and
labelling all operate on one TCP connection at a time.  This module groups a
stream of packets (e.g. read from a capture) into :class:`Connection` objects
keyed by the canonical 5-tuple, and assigns each packet its logical direction
relative to the connection originator.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

from repro.netstack.addresses import int_to_ip
from repro.netstack.columns import ColumnPacketView
from repro.netstack.packet import Direction, Packet
from repro.netstack.tcp import TcpFlags

_CLOSING_FLAGS = TcpFlags.FIN | TcpFlags.RST


@dataclass(frozen=True)
class FlowKey:
    """Canonical bidirectional 5-tuple (protocol fixed to TCP).

    The key is normalised so that both directions of the same connection map
    to the same value: the (address, port) pair that sorts lower is stored
    first.

    The hash is computed once at construction and cached: the flow table
    probes a dict with the key once per packet, and the dataclass-generated
    ``__hash__`` would rebuild and hash the 4-tuple on every probe
    (``benchmarks/results/flowkey_hash_microbench.txt``).
    """

    ip_a: int
    port_a: int
    ip_b: int
    port_b: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.ip_a, self.port_a, self.ip_b, self.port_b))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @classmethod
    def from_packet(cls, packet: Packet) -> "FlowKey":
        src = (packet.ip.src, packet.tcp.src_port)
        dst = (packet.ip.dst, packet.tcp.dst_port)
        first, second = (src, dst) if src <= dst else (dst, src)
        return cls(ip_a=first[0], port_a=first[1], ip_b=second[0], port_b=second[1])

    def __str__(self) -> str:
        return (
            f"{int_to_ip(self.ip_a)}:{self.port_a} <-> "
            f"{int_to_ip(self.ip_b)}:{self.port_b}"
        )


def flow_key_of(packet) -> FlowKey:
    """The :class:`FlowKey` of ``packet``, via its precomputed key if any.

    :class:`~repro.netstack.columns.ColumnPacketView` rows normalise their
    key vectorized (and deduplicated) at parse time; plain packets fall back
    to :meth:`FlowKey.from_packet`.
    """
    if type(packet) is ColumnPacketView:
        key = packet._key
        return key if key is not None else packet.flow_key()
    fast = getattr(packet, "flow_key", None)
    if fast is not None:
        return fast()
    return FlowKey.from_packet(packet)


@dataclass
class Connection:
    """An ordered train of packets belonging to one TCP connection."""

    key: FlowKey
    packets: list[Packet] = field(default_factory=list)
    # The connection originator (client); set from the first packet seen.
    client_ip: int | None = None
    client_port: int | None = None

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def append(self, packet: Packet) -> None:
        """Append ``packet``, assigning its direction relative to the client."""
        if type(packet) is ColumnPacketView:
            src, src_port = packet.src, packet.src_port  # direct slot reads
        else:
            src, src_port = packet.ip.src, packet.tcp.src_port
        if self.client_ip is None:
            self.client_ip = src
            self.client_port = src_port
        if src == self.client_ip and src_port == self.client_port:
            packet.direction = Direction.CLIENT_TO_SERVER
        else:
            packet.direction = Direction.SERVER_TO_CLIENT
        self.packets.append(packet)

    @property
    def has_handshake(self) -> bool:
        """True if the connection contains a SYN followed by a SYN-ACK."""
        saw_syn = False
        for packet in self.packets:
            if packet.tcp.is_syn and not packet.tcp.is_ack:
                saw_syn = True
            elif saw_syn and packet.tcp.is_syn and packet.tcp.is_ack:
                return True
        return False

    def injected_indices(self) -> list[int]:
        """Indices of packets flagged as injected/modified by an attack."""
        return [index for index, packet in enumerate(self.packets) if packet.injected]

    def copy(self) -> "Connection":
        """Deep-enough copy: packets (and their headers) are duplicated."""
        clone = Connection(key=self.key, client_ip=self.client_ip, client_port=self.client_port)
        clone.packets = [packet.copy() for packet in self.packets]
        return clone

    def sort_by_time(self) -> None:
        """Stable-sort packets by capture timestamp."""
        self.packets.sort(key=lambda packet: packet.timestamp)


class CompletionReason(enum.Enum):
    """Why the flow table handed a connection back to the caller."""

    # FIN/RST among the last three packets, then the close grace elapsed or a
    # fresh SYN reused the 5-tuple (without timers, only the SYN splits).
    CLOSED = "closed"
    IDLE = "idle"  # no packet for ``idle_timeout`` stream-seconds
    CAPACITY = "capacity"  # evicted by the ``max_flows``/``max_packets`` bounds
    DRAIN = "drain"  # explicitly drained (end of stream / shutdown)


@dataclass
class _FlowEntry:
    connection: Connection
    last_seen: float
    # Rolling FIN/RST bits of the last three appended packets: the
    # connection looks closed while any bit is set.  Every packet of a
    # tracked connection arrives through :meth:`FlowTable.add`, so the
    # per-packet close check reads one int instead of rescanning the tail.
    tail_close_bits: int = 0


class FlowTable:
    """Incremental connection assembly: CLAP's one connection-assembly rule.

    ``FlowTable`` ingests one packet at a time and *emits* connections as
    soon as they complete, under bounded memory.  Run without timers
    (infinite ``idle_timeout`` and ``close_grace``) and drained at the end,
    it *is* the offline assembler, :func:`assemble_connections`:

    * **FIN/RST completion** — once a connection looks closed (FIN or RST in
      its last three packets) it is emitted after ``close_grace``
      stream-seconds of silence, or immediately when a fresh SYN reuses its
      5-tuple.  The grace period keeps the trailing FIN/ACK exchange (and
      attack-injected RSTs that the endpoints ignore) attached to the
      connection, so a time-ordered stream groups as it does offline, where
      only the fresh SYN splits.  The effective grace is capped at
      ``idle_timeout`` (a closed connection never outlives an idle one), and
      such completions are always reported as ``CLOSED``, never ``IDLE``.
    * **Idle eviction** — connections silent for ``idle_timeout`` seconds are
      emitted as :attr:`CompletionReason.IDLE`.
    * **Size eviction** — the table never tracks more than ``max_flows``
      connections (least-recently-active evicted first) and force-completes
      any connection reaching ``max_packets`` packets.

    Time advances only through packet timestamps (and explicit :meth:`poll`
    calls), so replaying a capture is deterministic and independent of
    wall-clock speed.
    """

    def __init__(
        self,
        *,
        idle_timeout: float = 60.0,
        close_grace: float = 1.0,
        max_flows: int | None = None,
        max_packets: int | None = None,
    ) -> None:
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        if close_grace < 0:
            raise ValueError(f"close_grace must be non-negative, got {close_grace}")
        if max_flows is not None and max_flows < 1:
            raise ValueError(f"max_flows must be at least 1, got {max_flows}")
        if max_packets is not None and max_packets < 1:
            raise ValueError(f"max_packets must be at least 1, got {max_packets}")
        self.idle_timeout = float(idle_timeout)
        self.close_grace = float(close_grace)
        self.max_flows = max_flows
        self.max_packets = max_packets
        # Ordered by recency of activity: the front is the LRU eviction victim.
        self._flows: "OrderedDict[FlowKey, _FlowEntry]" = OrderedDict()
        self._closing: dict[FlowKey, None] = {}  # insertion-ordered set
        self._clock = float("-inf")
        # The effective grace (a closed connection never outlives an idle one)
        # and the cached stream time at which the *current* closing front
        # expires.  Any mutation of ``_closing`` resets the cache to -inf
        # ("must rescan"), so skipping the scan while ``clock`` is before the
        # cached deadline reproduces the scan-every-packet behaviour exactly —
        # the front entry and its ``last_seen`` cannot have changed without a
        # mutation passing through :meth:`add`/:meth:`_remove`.
        self._grace = min(self.close_grace, self.idle_timeout)
        self._closing_due = float("-inf")
        self._idle_finite = self.idle_timeout != float("inf")
        self._grace_finite = self._grace != float("inf")

    def __len__(self) -> int:
        return len(self._flows)

    @property
    def clock(self) -> float:
        """The latest stream timestamp observed."""
        return self._clock

    # ------------------------------------------------------------- ingestion
    def add(self, packet: Packet) -> list[tuple[Connection, CompletionReason]]:
        """Route ``packet`` and return every connection completed by it.

        Completions triggered by this packet include the connection it closed
        by reusing a 5-tuple, connections whose close-grace/idle timers
        expired as stream time advanced, and capacity evictions.
        """
        completed: list[tuple[Connection, CompletionReason]] = []
        key = flow_key_of(packet)
        entry = self._flows.get(key)
        flags = packet.flags
        starts_new = (flags & TcpFlags.SYN) and not (flags & TcpFlags.ACK)
        if entry is not None and starts_new and entry.tail_close_bits:
            self._remove(key)
            completed.append((entry.connection, CompletionReason.CLOSED))
            entry = None
        if entry is None:
            entry = _FlowEntry(Connection(key=key), packet.timestamp)
            self._flows[key] = entry
        entry.connection.append(packet)
        entry.tail_close_bits = (
            (entry.tail_close_bits << 1) | (1 if flags & _CLOSING_FLAGS else 0)
        ) & 0b111
        if packet.timestamp > entry.last_seen:
            entry.last_seen = packet.timestamp
        self._flows.move_to_end(key)
        # ``_closing`` mirrors the recency ordering of ``_flows`` (pop +
        # reinsert moves an active key to the back), so the grace scan in
        # :meth:`poll` can stop at the first entry still inside its grace.
        # Without a finite grace (the offline assembler) no closed entry can
        # expire, so none is tracked and the timer scan below never runs.
        if self._grace_finite:
            closing = self._closing
            if key in closing:
                del closing[key]
                self._closing_due = float("-inf")
            if entry.tail_close_bits:
                closing[key] = None
                self._closing_due = float("-inf")
        if self.max_packets is not None and len(entry.connection) >= self.max_packets:
            self._remove(key)
            completed.append((entry.connection, CompletionReason.CAPACITY))
        timestamp = packet.timestamp
        if timestamp > self._clock:
            self._clock = timestamp
        # Timer scan only when a timer can actually fire: a close grace is
        # pending, or idle eviction is finite (poll() itself would conclude
        # the same, but the call and list churn are per-packet costs).
        if self._closing or self._idle_finite:
            completed.extend(self.poll())
        if self.max_flows is not None:
            while len(self._flows) > self.max_flows:
                victim_key = next(iter(self._flows))
                victim = self._remove(victim_key)
                completed.append((victim.connection, CompletionReason.CAPACITY))
        return completed

    def poll(self, now: float | None = None) -> list[tuple[Connection, CompletionReason]]:
        """Advance stream time to ``now`` and expire close-grace/idle timers."""
        if now is not None:
            self._clock = max(self._clock, float(now))
        now = self._clock
        completed: list[tuple[Connection, CompletionReason]] = []
        # Closed connections wait only for the (short) grace period.  The set
        # is ordered by last activity, so the scan stops at the first entry
        # whose grace has not elapsed — per-packet cost stays proportional to
        # the completions produced, even under a FIN/RST flood.  (Packets
        # arriving out of timestamp order can leave a stale ``last_seen``
        # behind the front entry; its completion is then merely deferred to
        # the poll that clears the front, never lost.)  The front's expiry is
        # cached between scans: while the set is untouched, re-checking it
        # every packet would just re-derive the same deadline.
        if self._closing and now >= self._closing_due:
            grace = self._grace
            while self._closing:
                key = next(iter(self._closing))
                entry = self._flows[key]
                if now - entry.last_seen < grace:
                    self._closing_due = entry.last_seen + grace
                    break
                self._remove(key)
                completed.append((entry.connection, CompletionReason.CLOSED))
        # The LRU front has the stalest activity, so the scan stops at the
        # first non-idle connection instead of touching the whole table (and
        # an infinite idle timeout skips it entirely).
        if self._idle_finite:
            while self._flows:
                key, entry = next(iter(self._flows.items()))
                if now - entry.last_seen < self.idle_timeout:
                    break
                self._remove(key)
                completed.append((entry.connection, CompletionReason.IDLE))
        return completed

    def drain(self) -> list[tuple[Connection, CompletionReason]]:
        """Complete every tracked connection (end of stream), oldest first."""
        entries = sorted(
            self._flows.values(),
            key=lambda entry: entry.connection.packets[0].timestamp
            if entry.connection.packets
            else 0.0,
        )
        self._flows.clear()
        self._closing.clear()
        return [(entry.connection, CompletionReason.DRAIN) for entry in entries]

    def _remove(self, key: FlowKey) -> _FlowEntry:
        if key in self._closing:
            del self._closing[key]
            self._closing_due = float("-inf")
        return self._flows.pop(key)


def assemble_connections(packets: Iterable[Packet]) -> list[Connection]:
    """Group a finite packet sequence (e.g. a capture) into connections.

    One :class:`FlowTable` without timers, drained at the end: a 5-tuple
    splits only when a fresh SYN (SYN without ACK) arrives while a FIN or
    RST is among its connection's last three packets, never on silence.
    Connections are ordered by their first packet's timestamp.  Connections
    whose first packets share a timestamp are ordered by flow key
    (``ip_a``, ``port_a``, ``ip_b``, ``port_b``), and those of one key in the
    order they started.
    """
    table = FlowTable(idle_timeout=float("inf"), close_grace=float("inf"))
    connections = [done for packet in packets for done, _ in table.add(packet)]
    connections += [done for done, _ in table.drain()]
    connections.sort(key=_first_packet_order)
    return connections


def _first_packet_order(connection: Connection) -> tuple:
    key = connection.key
    return (connection.packets[0].timestamp, key.ip_a, key.port_a, key.ip_b, key.port_b)


def packet_stream(connections: Iterable[Connection]) -> list[Packet]:
    """The time-ordered raw packet stream of ``connections``.

    Every packet is copied (so replaying never mutates the source
    connections) and the result is stably sorted by capture timestamp — the
    canonical way to turn assembled connections back into the stream a
    :class:`FlowTable`/streaming detector would observe on the wire.
    """
    packets = [packet.copy() for connection in connections for packet in connection]
    packets.sort(key=lambda packet: packet.timestamp)
    return packets


def split_connections(
    connections: list[Connection], train_fraction: float, rng
) -> tuple[list[Connection], list[Connection]]:
    """Randomly split connections into train/test according to ``train_fraction``."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = rng.permutation(len(connections))
    cut = int(round(len(connections) * train_fraction))
    train = [connections[i] for i in order[:cut]]
    test = [connections[i] for i in order[cut:]]
    return train, test
