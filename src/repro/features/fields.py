"""Raw header-field feature extraction (features #1-#32 of Table 7).

The paper's guiding principle is to use header fields "in the raw form to the
extent possible", with only minimal preprocessing: sequence/acknowledgement
numbers are made incremental (relative to the connection's initial sequence
numbers), checksums are turned into validity bits, and timestamps are made
relative to the connection start.  Everything else is the literal field value.

One implementation computes them: :func:`extract_columns_segments`, reached
through :meth:`RawFeatureExtractor.extract_packet_trains`, derives all 32
features for many connections at once as NumPy array operations over one
:class:`~repro.netstack.columns.PacketColumns`.  Column views index their own
capture blocks (connections spanning several blocks are gathered into one),
and in-memory ``Packet`` objects are converted by one
:meth:`~repro.netstack.columns.PacketColumns.from_packets` call per batch.
The per-packet reference it is tested against lives with the tests
(``tests/reference_oracle.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.features.schema import NUM_RAW_FEATURES
from repro.netstack.columns import PacketColumns, train_rows
from repro.netstack.flow import Connection
from repro.netstack.packet import Packet
from repro.netstack.tcp import TcpFlags


class RawFeatureExtractor:
    """Extract the 32 raw IP/TCP features for every packet of a connection."""

    feature_count = NUM_RAW_FEATURES

    def extract_connection(self, connection: Connection) -> np.ndarray:
        """Return an array of shape ``(len(connection), 32)``."""
        return self.extract_packets(connection.packets)

    def extract_packets(self, packets: Sequence[Packet]) -> np.ndarray:
        """Extract features for an ordered packet train of one connection."""
        return self.extract_packet_trains([packets])[0]

    # The traced perfbench pass patches this name; delete it with the next
    # change to perfbench.
    extract_packets_reference = extract_packets

    def extract_packet_trains(self, trains: Sequence[Sequence[Packet]]) -> list[np.ndarray]:
        """Feature matrices for many packet trains (one per connection).

        Every train joins one vectorized pass (:func:`extract_columns_segments`)
        over the rows :func:`~repro.netstack.columns.train_rows` locates.
        Output order matches the input.
        """
        columns, rows, bounds = train_rows(trains, _FEATURE_COLUMNS)
        total = bounds[-1]
        directions = np.fromiter(
            (packet.direction for train in trains for packet in train), np.int64, total
        )
        matrix = extract_columns_segments(
            columns,
            np.arange(total, dtype=np.int64) if rows is None else rows,
            np.unique(np.asarray(bounds, dtype=np.int64)),  # empty trains own no segment
            directions,
        )
        return [matrix[start:stop] for start, stop in zip(bounds[:-1], bounds[1:], strict=True)]


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
#: from several blocks has to carry.
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

    # Initial sequence numbers: the first packet of each direction.
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
