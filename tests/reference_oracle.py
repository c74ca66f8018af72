"""Test oracle for feature extraction and scoring: the seed's per-connection path.

``RawFeatureExtractor.extract_packet_trains`` computes the 32 raw features
for a whole batch as array operations over packet columns, and ``Clap``
scores every connection through the batched engine.  The oracle shares none
of that machinery:

* :func:`extract_packets_reference` walks one connection packet by packet in
  Python, reading each header through the ``Packet`` accessors;
* :func:`connection_profiles` builds one connection's context profiles from
  those features, with a single-sequence GRU call;
* :func:`window_errors`, :func:`score_connection`, :func:`verdict`,
  :func:`detect` and :func:`localize` score one connection with the scalar
  Stage-(d) functions of :mod:`repro.core.detector`.

It imports only NumPy and ``repro`` (no pytest), so the CI ingest smoke can
use it as the per-packet contender.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.detector import (
    ConnectionVerdict,
    Verdicts,
    adversarial_score,
    localize_window,
    localized_packets,
    window_center_packet,
)
from repro.core.results import DetectionResult
from repro.features.profile import ConnectionProfiles, stack_profiles
from repro.features.schema import NUM_RAW_FEATURES
from repro.netstack.columns import ColumnPacketView
from repro.netstack.options import encode_options, summarize_feature_options
from repro.netstack.packet import Direction, Packet
from repro.netstack.tcp import TCP_BASE_HEADER_LENGTH, TcpFlags
from repro.tcpstate.window import seq_diff

# ---------------------------------------------------------------------------
# Raw features (#1-#32), one packet at a time
# ---------------------------------------------------------------------------


@dataclass
class _ConnectionContext:
    """Per-connection reference values needed to make fields incremental."""

    client_isn: int | None = None
    server_isn: int | None = None
    start_time: float | None = None
    previous_tsval: dict = field(default_factory=dict)


def _build_context(packets: Sequence[Packet]) -> _ConnectionContext:
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


def _relative_seq(value: int, base: int | None) -> float:
    if base is None:
        return 0.0
    return float(seq_diff(value, base))


def _extract_packet(packet: Packet, context: _ConnectionContext) -> list[float]:
    """One packet's 32 raw features, as a plain list."""
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
        # --- TCP layer (1..25) -----------------------------------------------
        0.0 if is_client else 1.0,
        _relative_seq(tcp.seq, own_isn),
        _relative_seq(tcp.ack, peer_isn) if flags & TcpFlags.ACK else 0.0,
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
        # --- IP layer (26..32) -----------------------------------------------
        float(ip.effective_total_length(tcp_segment_length)),
        float(ip.ttl),
        float(ip.effective_ihl() * 4),
        1.0 if ip.has_correct_checksum(payload_length=tcp_segment_length) else 0.0,
        float(ip.version),
        float(ip.tos),
        1.0 if len(ip.options) > 0 else 0.0,
    ]


def extract_packets_reference(packets: Sequence[Packet]) -> np.ndarray:
    """The ``(len(packets), 32)`` raw features of one connection's packet train.

    Column views are materialised first, so every packet is read through the
    ``Packet`` accessors.
    """
    packets = [
        packet.materialize() if isinstance(packet, ColumnPacketView) else packet
        for packet in packets
    ]
    context = _build_context(packets)
    rows = [_extract_packet(packet, context) for packet in packets]
    if not rows:
        return np.zeros((0, NUM_RAW_FEATURES), dtype=np.float64)
    return np.array(rows, dtype=np.float64)


def prepare(stage, connections) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``RnnStage.prepare`` one connection at a time: raw features and
    conntrack label indices per non-empty connection."""
    feature_arrays = []
    label_arrays = []
    for connection in connections:
        if len(connection) == 0:
            continue
        feature_arrays.append(extract_packets_reference(connection.packets))
        label_arrays.append(
            np.array(stage.labeler.label_class_indices(connection.packets), dtype=np.int64)
        )
    return feature_arrays, label_arrays


# ---------------------------------------------------------------------------
# Context profiles and scoring, one connection at a time
# ---------------------------------------------------------------------------


def connection_profiles(builder, connection) -> ConnectionProfiles:
    """Per-packet context profiles of one connection."""
    raw = extract_packets_reference(connection.packets)
    scaled = builder.scaler.transform(raw)
    amplification = builder.amplification_extractor.extract(raw)
    parts = [scaled]
    if builder.include_amplification:
        parts.append(amplification)
    if builder.include_gate_weights and builder.rnn is not None and raw.shape[0] > 0:
        update_gates, reset_gates, _ = builder.rnn.gate_activations_concat([scaled])
        parts.extend([update_gates, reset_gates])
    else:
        hidden = builder.rnn.hidden_size if builder.rnn is not None else 0
        update_gates = np.zeros((raw.shape[0], hidden))
        reset_gates = np.zeros((raw.shape[0], hidden))
        if builder.include_gate_weights and builder.rnn is not None:
            parts.extend([update_gates, reset_gates])
    profiles = np.hstack(parts) if raw.shape[0] > 0 else np.zeros((0, builder.profile_size))
    return ConnectionProfiles(
        raw_features=raw,
        scaled_features=scaled,
        amplification=amplification,
        update_gates=update_gates,
        reset_gates=reset_gates,
        profiles=profiles,
    )


def stacked_profiles(builder, connection) -> np.ndarray:
    """Sliding-window stacked profiles of one connection."""
    return stack_profiles(connection_profiles(builder, connection).profiles, builder.stack_length)


def window_errors(clap, connection) -> np.ndarray:
    """Per-window reconstruction errors of one connection."""
    stacked = stacked_profiles(clap.builder, connection)
    if stacked.shape[0] == 0:
        return np.zeros(0)
    return clap.autoencoder.reconstruction_error(stacked)


def score_connection(clap, connection) -> float:
    return adversarial_score(window_errors(clap, connection), clap.config.detector.score_window)


def score_connections(clap, connections) -> np.ndarray:
    """The per-connection scoring loop."""
    return np.array([score_connection(clap, connection) for connection in connections])


def verdict(clap, connection, threshold: float | None = None) -> ConnectionVerdict:
    verdicts = Verdicts(
        stack_length=clap.config.detector.stack_length,
        score_window=clap.config.detector.score_window,
        threshold=clap.threshold if threshold is None else threshold,
    )
    return verdicts.verdict(window_errors(clap, connection), packet_count=len(connection))


def localize(clap, connection, top_n: int = 1) -> list[int]:
    return localized_packets(
        window_errors(clap, connection),
        stack_length=clap.config.detector.stack_length,
        packet_count=len(connection),
        top_n=top_n,
    )


def detect(clap, connection, *, threshold: float | None = None, top_n: int = 1) -> DetectionResult:
    limit = clap.threshold if threshold is None else threshold
    errors = window_errors(clap, connection)
    stack_length = clap.config.detector.stack_length
    score = adversarial_score(errors, clap.config.detector.score_window)
    window_index = localize_window(errors)
    if top_n == 1:
        center = window_center_packet(window_index, stack_length, len(connection))
        packets = (center,) if center >= 0 else ()
    else:
        packets = tuple(
            localized_packets(
                errors, stack_length=stack_length, packet_count=len(connection), top_n=top_n
            )
        )
    return DetectionResult(
        key=connection.key,
        score=score,
        threshold=float(limit),
        is_adversarial=score > limit,
        localized_window=window_index,
        localized_packets=packets,
        packet_count=len(connection),
    )
