"""Building blocks shared by all attack strategies.

Two families of helpers live here:

* **field corruptions** -- small functions that garble one aspect of a packet
  (checksum, sequence number, TTL, data offset, ...), each mirroring a
  manipulation used by SymTCP / lib-erate / Geneva strategies;
* **injection helpers** -- locate meaningful positions inside a benign
  connection (end of handshake, data packets, ...) and craft/insert packets
  that are consistent with the connection state at that position.

Every corrupted or crafted packet is flagged ``injected=True`` so that the
evaluation harness knows the ground-truth position of the attack vector.
"""

from __future__ import annotations


import numpy as np

from repro.netstack.flow import Connection
from repro.netstack.ip import Ipv4Header
from repro.netstack.options import (
    Md5Signature,
    Timestamp,
    UserTimeout,
    WindowScale,
)
from repro.netstack.packet import Direction, Packet
from repro.netstack.tcp import TcpFlags, TcpHeader
from repro.tcpstate.conntrack import ConnectionLabeler
from repro.tcpstate.states import MasterState
from repro.tcpstate.window import seq_add

# ---------------------------------------------------------------------------
# Position helpers
# ---------------------------------------------------------------------------


def state_trace(connection: Connection) -> list[MasterState]:
    """Per-packet master state according to the reference tracker."""
    return [
        observation.state_after
        for observation in ConnectionLabeler().observe_connection(connection.packets)
    ]


def handshake_completion_index(connection: Connection) -> int:
    """Index of the packet that moves the connection into ESTABLISHED.

    Falls back to ``min(2, len - 1)`` when the connection never completes the
    handshake (the attack is then simply injected near the beginning).
    """
    for index, state in enumerate(state_trace(connection)):
        if state is MasterState.ESTABLISHED:
            return index
    return min(2, max(len(connection.packets) - 1, 0))


def synack_index(connection: Connection) -> int | None:
    """Index of the server's SYN-ACK (i.e. the packet entering SYN_RECV)."""
    for index, packet in enumerate(connection.packets):
        if packet.tcp.is_syn and packet.tcp.is_ack and packet.direction is Direction.SERVER_TO_CLIENT:
            return index
    return None


def data_packet_indices(
    connection: Connection, direction: Direction | None = Direction.CLIENT_TO_SERVER
) -> list[int]:
    """Indices of payload-carrying packets (optionally of one direction)."""
    indices = []
    for index, packet in enumerate(connection.packets):
        if len(packet.payload) == 0:
            continue
        if direction is not None and packet.direction is not direction:
            continue
        indices.append(index)
    return indices


def matching_packet_indices(connection: Connection, count: int) -> list[int]:
    """The first ``count`` data packets after the handshake (lib-erate style).

    These model the "matching packets" a DPI-based traffic classifier would
    inspect; evasion packets are inserted in front of each of them.
    """
    established_at = handshake_completion_index(connection)
    candidates = [index for index in data_packet_indices(connection, direction=None) if index >= established_at]
    if not candidates:
        candidates = [min(established_at + 1, len(connection.packets) - 1)]
    return candidates[:count]


# ---------------------------------------------------------------------------
# Crafting and inserting packets
# ---------------------------------------------------------------------------


def _last_packet_of_direction(
    connection: Connection, direction: Direction, before_index: int
) -> Packet | None:
    for packet in reversed(connection.packets[: before_index + 1]):
        if packet.direction is direction:
            return packet
    for packet in connection.packets:
        if packet.direction is direction:
            return packet
    return None


def expected_seq(connection: Connection, direction: Direction, at_index: int) -> int:
    """The next in-order sequence number ``direction`` would use at ``at_index``."""
    last = _last_packet_of_direction(connection, direction, at_index)
    if last is None:
        return 1000
    return seq_add(last.tcp.seq, last.sequence_span())


def expected_ack(connection: Connection, direction: Direction, at_index: int) -> int:
    """The acknowledgement number ``direction`` would use at ``at_index``."""
    peer = _last_packet_of_direction(connection, direction.flipped(), at_index)
    if peer is None:
        return 0
    return seq_add(peer.tcp.seq, peer.sequence_span())


def craft_packet(
    connection: Connection,
    at_index: int,
    direction: Direction,
    flags: int,
    *,
    payload: bytes = b"",
    seq: int | None = None,
    ack: int | None = None,
) -> Packet:
    """Craft a packet consistent with the connection state at ``at_index``.

    Source/destination addresses, ports, TTL and window are copied from the
    most recent packet travelling in the same direction; sequence and
    acknowledgement numbers default to the in-order expected values (individual
    strategies then garble whichever field they attack).
    """
    template = _last_packet_of_direction(connection, direction, at_index)
    if template is None:
        template = connection.packets[min(at_index, len(connection.packets) - 1)]
    packet = Packet(
        ip=Ipv4Header(
            src=template.ip.src if template.direction is direction else template.ip.dst,
            dst=template.ip.dst if template.direction is direction else template.ip.src,
            ttl=template.ip.ttl,
            identification=(template.ip.identification + 7) % 65536,
        ),
        tcp=TcpHeader(
            src_port=template.tcp.src_port if template.direction is direction else template.tcp.dst_port,
            dst_port=template.tcp.dst_port if template.direction is direction else template.tcp.src_port,
            seq=seq if seq is not None else expected_seq(connection, direction, at_index),
            ack=(ack if ack is not None else expected_ack(connection, direction, at_index))
            if flags & TcpFlags.ACK
            else 0,
            flags=flags,
            window=template.tcp.window,
        ),
        payload=payload,
        direction=direction,
        injected=True,
    )
    return packet


def insert_packet(connection: Connection, at_index: int, packet: Packet) -> int:
    """Insert ``packet`` so it appears at position ``at_index`` in the train.

    The timestamp is interpolated between the surrounding packets so the
    resulting capture remains chronologically ordered.  Returns the index the
    packet ended up at.
    """
    packets = connection.packets
    at_index = max(0, min(at_index, len(packets)))
    if not packets:
        packet.timestamp = 0.0
    elif at_index == 0:
        packet.timestamp = packets[0].timestamp - 0.0005
    elif at_index >= len(packets):
        packet.timestamp = packets[-1].timestamp + 0.0005
    else:
        before = packets[at_index - 1].timestamp
        after = packets[at_index].timestamp
        packet.timestamp = before + max((after - before) / 2.0, 1e-6)
    packet.injected = True
    packets.insert(at_index, packet)
    return at_index


# ---------------------------------------------------------------------------
# Field corruptions
# ---------------------------------------------------------------------------


def mark(packet: Packet) -> Packet:
    """Flag a modified benign packet as part of the attack vector."""
    packet.injected = True
    return packet


def garble_tcp_checksum(packet: Packet, rng: np.random.Generator) -> Packet:
    """Set an incorrect TCP checksum (dropped by the endhost, ignored by DPIs)."""
    packet.tcp.checksum = int(rng.integers(1, 0xFFFF))
    packet.tcp.checksum_valid_hint = False
    return mark(packet)


def garble_ip_checksum(packet: Packet, rng: np.random.Generator) -> Packet:
    """Set an incorrect IP header checksum."""
    correct = packet.ip.copy(checksum=None)
    packet.ip.checksum = (int(rng.integers(1, 0xFFFF)) ^ 0x5555) or 0x1234
    # Ensure it is actually wrong.
    if packet.ip.has_correct_checksum(packet.tcp.header_length + len(packet.payload)):
        packet.ip.checksum = (packet.ip.checksum + 1) & 0xFFFF
    del correct
    return mark(packet)


def bad_seq(packet: Packet, rng: np.random.Generator, *, offset_range=(100_000, 2_000_000)) -> Packet:
    """Move the sequence number far outside the receive window."""
    offset = int(rng.integers(*offset_range))
    packet.tcp.seq = seq_add(packet.tcp.seq, offset)
    return mark(packet)


def underflow_seq(packet: Packet, rng: np.random.Generator, *, amount: int = 4) -> Packet:
    """Shift the sequence number slightly backwards (partial overlap/underflow)."""
    packet.tcp.seq = seq_add(packet.tcp.seq, -int(amount))
    return mark(packet)


def bad_ack(packet: Packet, rng: np.random.Generator, *, offset_range=(100_000, 2_000_000)) -> Packet:
    """Acknowledge data the peer never sent."""
    packet.tcp.flags |= TcpFlags.ACK
    packet.tcp.ack = seq_add(packet.tcp.ack, int(rng.integers(*offset_range)))
    return mark(packet)


def strip_ack_flag(packet: Packet, rng: np.random.Generator) -> Packet:
    """Remove the ACK flag from an established-state data packet."""
    packet.tcp.flags &= ~TcpFlags.ACK
    packet.tcp.ack = 0
    return mark(packet)


def low_ttl(packet: Packet, rng: np.random.Generator, *, maximum: int = 3) -> Packet:
    """Set a TTL too small to reach the server (but enough to pass the DPI)."""
    packet.ip.ttl = int(rng.integers(1, maximum + 1))
    return mark(packet)


def invalid_data_offset(packet: Packet, rng: np.random.Generator) -> Packet:
    """Set a data offset that is inconsistent with the actual header length."""
    packet.tcp.data_offset = int(rng.choice([1, 2, 3, 4, 15]))
    return mark(packet)


def invalid_flags(packet: Packet, rng: np.random.Generator, *, variant: int = 0) -> Packet:
    """Set a nonsensical flag combination (SYN+FIN, null flags, everything on)."""
    combinations = (
        TcpFlags.SYN | TcpFlags.FIN,
        0,
        TcpFlags.SYN | TcpFlags.FIN | TcpFlags.RST | TcpFlags.PSH | TcpFlags.ACK | TcpFlags.URG,
        TcpFlags.FIN | TcpFlags.RST,
    )
    packet.tcp.flags = combinations[variant % len(combinations)]
    return mark(packet)


def bad_ip_length(packet: Packet, rng: np.random.Generator, *, too_long: bool = True) -> Packet:
    """Declare an IP total length longer or shorter than the real packet."""
    actual = packet.ip.header_length + packet.tcp.header_length + len(packet.payload)
    delta = int(rng.integers(8, 64))
    packet.ip.total_length = actual + delta if too_long else max(actual - delta, 20)
    return mark(packet)


def invalid_ip_version(packet: Packet, rng: np.random.Generator) -> Packet:
    """Set a non-existent IP version (e.g. 5)."""
    packet.ip.version = int(rng.choice([5, 6, 7, 0]))
    return mark(packet)


def invalid_ip_header_length(packet: Packet, rng: np.random.Generator) -> Packet:
    """Declare an IHL inconsistent with the actual header."""
    packet.ip.ihl = int(rng.choice([2, 3, 4, 12, 15]))
    return mark(packet)


def bad_md5_option(packet: Packet, rng: np.random.Generator) -> Packet:
    """Attach an MD5 signature option that does not verify."""
    digest = bytes(int(b) for b in rng.integers(0, 256, size=16))
    packet.tcp.replace_option(Md5Signature(digest=digest, valid=False))
    return mark(packet)


def bad_timestamp(packet: Packet, rng: np.random.Generator) -> Packet:
    """Attach a TCP timestamp option far in the past (fails PAWS)."""
    existing = packet.tcp.timestamp_option()
    tsecr = existing.tsecr if existing is not None else 0
    old_value = int(rng.integers(1, 1000))
    packet.tcp.replace_option(Timestamp(tsval=old_value, tsecr=tsecr))
    return mark(packet)


def bad_uto_option(packet: Packet, rng: np.random.Generator) -> Packet:
    """Attach an absurd User Timeout option."""
    packet.tcp.replace_option(UserTimeout(granularity_minutes=True, timeout=0x7FFF))
    return mark(packet)


def invalid_wscale_option(packet: Packet, rng: np.random.Generator) -> Packet:
    """Attach a window-scale option with an out-of-spec shift (> 14)."""
    packet.tcp.replace_option(WindowScale(shift=int(rng.integers(15, 256) % 256)))
    return mark(packet)


def nonstandard_ip_option(packet: Packet, rng: np.random.Generator) -> Packet:
    """Attach a non-standard IP option (router alert style filler)."""
    packet.ip.options = bytes([0x94, 0x04, 0x00, 0x00])
    return mark(packet)


def add_payload(packet: Packet, rng: np.random.Generator, *, length: int = 12) -> Packet:
    """Attach payload bytes (e.g. payload on a SYN packet)."""
    packet.payload = bytes(int(b) for b in rng.integers(32, 127, size=length))
    return mark(packet)


def set_urgent_pointer(packet: Packet, rng: np.random.Generator) -> Packet:
    """Set the URG flag and a non-zero urgent pointer."""
    packet.tcp.flags |= TcpFlags.URG
    packet.tcp.urgent_pointer = int(rng.integers(1, max(len(packet.payload), 2)))
    return mark(packet)


def bad_payload_length(packet: Packet, rng: np.random.Generator) -> Packet:
    """Break the payload-length equivalence by inflating the IP total length."""
    actual = packet.ip.header_length + packet.tcp.header_length + len(packet.payload)
    packet.ip.total_length = actual + int(rng.integers(4, 32))
    return mark(packet)
