"""Raw header-field feature extraction (features #1-#32 of Table 7).

The paper's guiding principle is to use header fields "in the raw form to the
extent possible", with only minimal preprocessing: sequence/acknowledgement
numbers are made incremental (relative to the connection's initial sequence
numbers), checksums are turned into validity bits, and timestamps are made
relative to the connection start.  Everything else is the literal field value.

Two implementations coexist:

* the per-packet path (:meth:`RawFeatureExtractor.extract_packets_reference`)
  — one Python loop per packet, kept as the tested oracle;
* the columnar path (:func:`extract_columns_segments`, reached through
  :meth:`RawFeatureExtractor.extract_packet_trains`) — all 32 features for
  many connections at once as NumPy array operations over one
  :class:`~repro.netstack.columns.PacketColumns`, numerically identical to
  the reference (``tests/features/test_columnar_equivalence.py``), also for
  connections that span several capture blocks (the batch gathers their rows
  into one block).  Only object or mixed packet lists fall back to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.features.schema import NUM_RAW_FEATURES
from repro.netstack.columns import ColumnPacketView, PacketColumns
from repro.netstack.flow import Connection
from repro.netstack.options import encode_options, summarize_feature_options
from repro.netstack.packet import Direction, Packet
from repro.netstack.tcp import TCP_BASE_HEADER_LENGTH, TcpFlags
from repro.tcpstate.window import seq_diff


@dataclass
class _ConnectionContext:
    """Per-connection reference values needed to make fields incremental."""

    client_isn: int | None = None
    server_isn: int | None = None
    start_time: float | None = None
    previous_tsval: dict | None = None

    def __post_init__(self) -> None:
        if self.previous_tsval is None:
            self.previous_tsval = {}


class RawFeatureExtractor:
    """Extract the 32 raw IP/TCP features for every packet of a connection."""

    feature_count = NUM_RAW_FEATURES

    def extract_connection(self, connection: Connection) -> np.ndarray:
        """Return an array of shape ``(len(connection), 32)``."""
        return self.extract_packets(connection.packets)

    def extract_packets(self, packets: Sequence[Packet]) -> np.ndarray:
        """Extract features for an ordered packet train of one connection."""
        return self.extract_packet_trains([packets])[0]

    def extract_packets_reference(self, packets: Sequence[Packet]) -> np.ndarray:
        """The per-packet oracle: one Python loop, one row list per packet."""
        packets = [
            packet.materialize() if isinstance(packet, ColumnPacketView) else packet
            for packet in packets
        ]
        context = self._build_context(packets)
        rows = [self._extract_packet(packet, context) for packet in packets]
        if not rows:
            return np.zeros((0, NUM_RAW_FEATURES), dtype=np.float64)
        return np.array(rows, dtype=np.float64)

    def extract_packet_trains(self, trains: Sequence[Sequence[Packet]]) -> list[np.ndarray]:
        """Feature matrices for many packet trains (one per connection).

        Every train of :class:`~repro.netstack.columns.ColumnPacketView`
        handles, whichever capture blocks it spans, joins one vectorized pass
        (:func:`extract_columns_segments`); object-``Packet`` and mixed trains
        go through the per-packet reference.  Output order matches the input.
        """
        results: list[np.ndarray | None] = [None] * len(trains)
        members: list[int] = []
        blocks: list[PacketColumns] = []
        rows: list[int] = []
        directions: list[int] = []
        bounds = [0]
        for train_index, train in enumerate(trains):
            if not train:
                results[train_index] = np.zeros((0, NUM_RAW_FEATURES), dtype=np.float64)
            elif all(type(packet) is ColumnPacketView for packet in train):
                members.append(train_index)
                blocks.extend([packet.columns for packet in train])
                rows.extend([packet.index for packet in train])
                directions.extend([packet.direction for packet in train])
                bounds.append(len(rows))
            else:
                results[train_index] = self.extract_packets_reference(train)
        if members:
            indices = np.asarray(rows, dtype=np.int64)
            distinct = {id(block): block for block in blocks}
            columns = blocks[0]
            if len(distinct) > 1:
                # Gather every block's rows (block by block), then renumber
                # each packet to its row in the gathered block.
                number = {key: position for position, key in enumerate(distinct)}
                block_of = np.fromiter((number[id(b)] for b in blocks), np.int64, len(blocks))
                order = np.argsort(block_of, kind="stable")
                split = np.split(indices[order], np.cumsum(np.bincount(block_of))[:-1])
                columns = PacketColumns.gather(
                    list(zip(distinct.values(), split, strict=True)), _FEATURE_COLUMNS
                )
                indices[order] = np.arange(order.size)
            matrix = extract_columns_segments(
                columns,
                indices,
                np.asarray(bounds, dtype=np.int64),
                np.asarray(directions, dtype=np.int64),
            )
            for position, train_index in enumerate(members):
                results[train_index] = matrix[bounds[position] : bounds[position + 1]]
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ private
    def _build_context(self, packets: Sequence[Packet]) -> _ConnectionContext:
        context = _ConnectionContext()
        for packet in packets:
            if context.start_time is None:
                context.start_time = packet.timestamp
            if packet.direction is Direction.CLIENT_TO_SERVER:
                if context.client_isn is None:
                    context.client_isn = packet.tcp.seq
            elif context.server_isn is None:
                context.server_isn = packet.tcp.seq
            if context.client_isn is not None and context.server_isn is not None:
                break
        if context.start_time is None:
            context.start_time = 0.0
        return context

    @staticmethod
    def _relative_seq(value: int, base: int | None) -> float:
        if base is None:
            return 0.0
        return float(seq_diff(value, base))

    def _extract_packet(self, packet: Packet, context: _ConnectionContext) -> list[float]:
        """One packet's 32 raw features, as a plain list.

        This was the hottest Python loop of the testing phase (columnar
        extraction has since taken over the bulk path; this stays as the
        oracle), so it avoids repeated work the convenience accessors would
        do: the options are scanned once via
        :func:`~repro.netstack.options.summarize_feature_options` (which also
        skips malformed stand-ins instead of tripping over them), encoded
        once (``TcpHeader.header_length`` re-encodes on every call), and the
        row is built as a list — one ``np.array`` call per connection beats
        per-element writes into a numpy vector.
        """
        tcp = packet.tcp
        ip = packet.ip
        flags = tcp.flags
        payload_length = len(packet.payload)

        is_client = packet.direction is Direction.CLIENT_TO_SERVER
        own_isn = context.client_isn if is_client else context.server_isn
        peer_isn = context.server_isn if is_client else context.client_isn

        mss, timestamp_option, window_scale, user_timeout, md5 = summarize_feature_options(
            tcp.options
        )

        header_length = TCP_BASE_HEADER_LENGTH + len(encode_options(tcp.options))
        data_offset = tcp.data_offset if tcp.data_offset is not None else header_length // 4
        tcp_segment_length = header_length + payload_length

        # #18-#20 and #24: timestamp option values and the per-direction delta
        # relative to the previous packet (0 when absent or on the first one).
        if timestamp_option is not None:
            tsval = float(timestamp_option.tsval % 2**31)
            tsecr = float(timestamp_option.tsecr % 2**31)
            previous = context.previous_tsval.get(packet.direction)
            tsval_delta = (
                float(seq_diff(timestamp_option.tsval, previous)) if previous is not None else 0.0
            )
            context.previous_tsval[packet.direction] = timestamp_option.tsval
        else:
            tsval = tsecr = tsval_delta = 0.0

        return [
            # --- TCP layer (1..25) -------------------------------------------
            0.0 if is_client else 1.0,
            self._relative_seq(tcp.seq, own_isn),
            self._relative_seq(tcp.ack, peer_isn) if flags & TcpFlags.ACK else 0.0,
            float(data_offset),
            1.0 if flags & TcpFlags.FIN else 0.0,
            1.0 if flags & TcpFlags.SYN else 0.0,
            1.0 if flags & TcpFlags.RST else 0.0,
            1.0 if flags & TcpFlags.PSH else 0.0,
            1.0 if flags & TcpFlags.ACK else 0.0,
            1.0 if flags & TcpFlags.URG else 0.0,
            1.0 if flags & TcpFlags.ECE else 0.0,
            1.0 if flags & TcpFlags.CWR else 0.0,
            1.0 if flags & TcpFlags.NS else 0.0,
            float(tcp.window),
            1.0 if packet.tcp_checksum_ok() else 0.0,
            float(tcp.urgent_pointer),
            float(payload_length),
            float(mss.value) if mss is not None else 0.0,
            tsval,
            tsecr,
            float(window_scale.shift) if window_scale is not None else 0.0,
            float(user_timeout.timeout) if user_timeout is not None else 0.0,
            1.0 if (md5 is None or md5.valid) else 0.0,
            tsval_delta,
            # #25: frame timestamp relative to the first packet, in ms.
            (packet.timestamp - (context.start_time or 0.0)) * 1000.0,
            # --- IP layer (26..32) -------------------------------------------
            float(ip.effective_total_length(tcp_segment_length)),
            float(ip.ttl),
            float(ip.effective_ihl() * 4),
            1.0 if ip.has_correct_checksum(payload_length=tcp_segment_length) else 0.0,
            float(ip.version),
            float(ip.tos),
            1.0 if len(ip.options) > 0 else 0.0,
        ]


def _seq_diff_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.tcpstate.window.seq_diff` over int64 arrays."""
    diff = (a - b) & 0xFFFFFFFF
    return np.where(diff >= 2**31, diff - 2**32, diff)


_FLAG_COLUMNS: tuple[tuple[int, int], ...] = (
    (4, TcpFlags.FIN),
    (5, TcpFlags.SYN),
    (6, TcpFlags.RST),
    (7, TcpFlags.PSH),
    (8, TcpFlags.ACK),
    (9, TcpFlags.URG),
    (10, TcpFlags.ECE),
    (11, TcpFlags.CWR),
    (12, TcpFlags.NS),
)


#: The columns :func:`extract_columns_segments` reads: all a batch gathered
#: from several capture blocks has to carry.
_FEATURE_COLUMNS = (
    "timestamp", "seq", "ack", "flags", "data_offset", "window", "tcp_ok", "urgent",
    "payload_len", "mss", "ts_present", "tsval", "tsecr", "ws_shift", "ut_timeout",
    "md5_ok", "total_length", "ttl", "ihl", "ip_ok", "version", "tos", "ip_options",
)


def extract_columns_segments(
    columns: PacketColumns,
    indices: np.ndarray,
    bounds: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """All 32 raw features for many connections in one vectorized pass.

    ``indices`` selects the packets (rows of ``columns``) of every
    connection back to back; segment ``s`` owns
    ``indices[bounds[s] : bounds[s + 1]]`` (segments must be non-empty) and
    ``directions`` carries each packet's assembled direction.  Per-connection
    reference values — initial sequence numbers per direction, the previous
    TSval per direction, the first timestamp — are resolved with segment-wise
    reductions, so no Python runs per packet.  Output is bit-identical to the
    per-packet reference.
    """
    total = int(indices.shape[0])
    out = np.zeros((total, NUM_RAW_FEATURES), dtype=np.float64)
    if total == 0:
        return out

    seq = columns.seq[indices]
    ack = columns.ack[indices]
    flags = columns.flags[indices]
    timestamps = columns.timestamp[indices]
    segment_count = bounds.shape[0] - 1
    segment_starts = bounds[:-1]
    segment_sizes = np.diff(bounds)
    segment_of = np.repeat(np.arange(segment_count), segment_sizes)
    position = np.arange(total)
    is_client = directions == 0

    # Initial sequence numbers: the first packet of each direction (the same
    # first-occurrence rule ``_build_context`` applies).
    candidates = np.where(is_client, position, total)
    first_c2s = np.minimum.reduceat(candidates, segment_starts)
    candidates = np.where(is_client, total, position)
    first_s2c = np.minimum.reduceat(candidates, segment_starts)
    own_first = np.where(is_client, first_c2s[segment_of], first_s2c[segment_of])
    peer_first = np.where(is_client, first_s2c[segment_of], first_c2s[segment_of])
    has_peer = peer_first < total
    peer_isn = seq[np.minimum(peer_first, total - 1)]
    ack_flag = (flags & TcpFlags.ACK) != 0

    out[:, 0] = directions
    out[:, 1] = _seq_diff_array(seq, seq[own_first])
    out[:, 2] = np.where(ack_flag & has_peer, _seq_diff_array(ack, peer_isn), 0.0)
    out[:, 3] = columns.data_offset[indices]
    for column, mask in _FLAG_COLUMNS:
        out[:, column] = (flags & mask) != 0
    out[:, 13] = columns.window[indices]
    out[:, 14] = columns.tcp_ok[indices]
    out[:, 15] = columns.urgent[indices]
    out[:, 16] = columns.payload_len[indices]
    out[:, 17] = columns.mss[indices]
    ts_present = columns.ts_present[indices]
    tsval = columns.tsval[indices]
    out[:, 18] = np.where(ts_present, tsval % 2**31, 0)
    out[:, 19] = np.where(ts_present, columns.tsecr[indices] % 2**31, 0)
    out[:, 20] = columns.ws_shift[indices]
    out[:, 21] = columns.ut_timeout[indices]
    out[:, 22] = columns.md5_ok[indices]

    # #24: per-direction TSval delta — grouped consecutive diffs over the
    # packets that carry a Timestamp option (others neither emit nor reset).
    with_ts = np.flatnonzero(ts_present)
    if with_ts.size:
        group = segment_of[with_ts] * 2 + directions[with_ts]
        order = np.argsort(group, kind="stable")
        ordered_rows = with_ts[order]
        ordered_group = group[order]
        ordered_tsval = tsval[with_ts][order]
        same_group = ordered_group[1:] == ordered_group[:-1]
        deltas = _seq_diff_array(ordered_tsval[1:], ordered_tsval[:-1])
        out[ordered_rows[1:][same_group], 23] = deltas[same_group]

    # #25: frame timestamp relative to the connection's first packet, in ms.
    out[:, 24] = (timestamps - np.repeat(timestamps[segment_starts], segment_sizes)) * 1000.0

    out[:, 25] = columns.total_length[indices]
    out[:, 26] = columns.ttl[indices]
    out[:, 27] = columns.ihl[indices] * 4
    out[:, 28] = columns.ip_ok[indices]
    out[:, 29] = columns.version[indices]
    out[:, 30] = columns.tos[indices]
    out[:, 31] = columns.ip_options[indices]
    return out


def extract_raw_features(connections: Sequence[Connection]) -> list[np.ndarray]:
    """Extract raw features for a list of connections (one array each)."""
    extractor = RawFeatureExtractor()
    return extractor.extract_packet_trains([connection.packets for connection in connections])
