"""Test oracle for ingest, labelling, features and scoring: the seed's
per-packet, per-connection path.

Production reads every capture as packet columns, labels and extracts
features for whole batches as array operations over those columns, and
``Clap`` scores every connection through the batched engine.  The oracle
shares none of that machinery:

* :func:`read_pcap` parses a capture one record at a time into ``Packet``
  objects with :meth:`Packet.from_bytes`;
* :class:`ConnectionAssembler` groups packets into connections by rescanning
  each connection's tail, where production runs one timer-less
  :class:`~repro.netstack.flow.FlowTable`;
* :class:`ConntrackMachine` replays one connection packet by packet and
  validates each packet through the ``Packet`` accessors;
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

import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

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
from repro.netstack.flow import Connection, FlowKey, flow_key_of
from repro.netstack.options import encode_options, summarize_feature_options
from repro.netstack.packet import Direction, Packet
from repro.netstack.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_RAW,
    PCAP_MAGIC,
    PCAP_MAGIC_SWAPPED,
)
from repro.netstack.tcp import TCP_BASE_HEADER_LENGTH, TcpFlags
from repro.tcpstate.conntrack import PacketObservation
from repro.tcpstate.states import MasterState, StateLabel, WindowVerdict
from repro.tcpstate.window import EndpointWindow, in_window, seq_diff

# ---------------------------------------------------------------------------
# Capture reading, one Packet per record
# ---------------------------------------------------------------------------

#: Link-layer header bytes and the offset of their EtherType-style protocol.
_LINK_LAYERS = {LINKTYPE_ETHERNET: (14, 12), LINKTYPE_LINUX_SLL: (16, 14)}


def pcap_records(path: str | Path) -> Iterator[tuple[float, bytes]]:
    """``(timestamp, IPv4 bytes)`` per record, link layer stripped; non-IPv4
    frames are skipped and a truncated trailing record ends the capture."""
    with open(path, "rb") as capture:
        header = capture.read(24)
        if len(header) < 24:
            raise ValueError(f"not a pcap file (truncated global header): {path}")
        magic = struct.unpack("<I", header[:4])[0]
        if magic not in (PCAP_MAGIC, PCAP_MAGIC_SWAPPED):
            raise ValueError(f"not a pcap file (bad magic 0x{magic:08x}): {path}")
        order = "<" if magic == PCAP_MAGIC else ">"
        link_type = struct.unpack(order + "I", header[20:24])[0]
        if link_type != LINKTYPE_RAW and link_type not in _LINK_LAYERS:
            raise ValueError(f"unsupported pcap link type {link_type} in {path}")
        skip, type_at = _LINK_LAYERS.get(link_type, (0, 0))
        while True:
            record = capture.read(16)
            if len(record) < 16:
                return
            seconds, microseconds, captured, _ = struct.unpack(order + "IIII", record)
            data = capture.read(captured)
            if len(data) < captured:
                return
            if skip:
                if len(data) < skip or struct.unpack("!H", data[type_at:skip])[0] != 0x0800:
                    continue
                data = data[skip:]
            yield seconds + microseconds / 1_000_000, data


def read_pcap(path: str | Path, *, strict: bool = False) -> list[Packet]:
    """Every TCP/IPv4 packet of a capture; malformed or non-TCP records are
    skipped, or raise with ``strict``."""
    packets = []
    for timestamp, data in pcap_records(path):
        try:
            packets.append(Packet.from_bytes(data, timestamp=timestamp))
        except ValueError:
            if strict:
                raise
    return packets


def _materialize(packets: Sequence[Packet]) -> list[Packet]:
    """Column views as full ``Packet`` objects; objects pass through."""
    return [
        packet.materialize() if isinstance(packet, ColumnPacketView) else packet
        for packet in packets
    ]


# ---------------------------------------------------------------------------
# Connection assembly, rescanning each connection's tail
# ---------------------------------------------------------------------------


def connection_looks_closed(connection: Connection) -> bool:
    """Heuristic shared by the assembler and the flow table: a connection
    looks closed once a FIN or RST appears in its last three packets."""
    if not connection.packets:
        return False
    tail = connection.packets[-3:]
    return any(p.tcp.is_rst or p.tcp.is_fin for p in tail)


class ConnectionAssembler:
    """Group an arbitrary packet stream into connections.

    A new connection is opened for a flow key when either the key has not been
    seen before or the previous connection on that key was closed by RST/FIN
    exchange and the new packet is a fresh SYN.
    """

    def __init__(self) -> None:
        self._active: dict[FlowKey, Connection] = {}
        self._finished: list[Connection] = []

    def add(self, packet: Packet) -> Connection:
        """Route ``packet`` to its connection, creating one if needed."""
        key = flow_key_of(packet)
        connection = self._active.get(key)
        starts_new = packet.tcp.is_syn and not packet.tcp.is_ack
        if connection is None or (starts_new and self._looks_closed(connection)):
            if connection is not None:
                self._finished.append(connection)
            connection = Connection(key=key)
            self._active[key] = connection
        connection.append(packet)
        return connection

    def add_all(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.add(packet)

    _looks_closed = staticmethod(connection_looks_closed)

    def connections(self) -> list[Connection]:
        """All connections assembled so far, in order of first packet."""
        everything = self._finished + list(self._active.values())
        everything.sort(key=lambda conn: conn.packets[0].timestamp if conn.packets else 0.0)
        return everything


# ---------------------------------------------------------------------------
# Conntrack labels, one packet at a time
# ---------------------------------------------------------------------------

# Flag combinations that a rigorous stack treats as invalid/bogus segments.
_INVALID_FLAG_COMBINATIONS = (
    TcpFlags.SYN | TcpFlags.FIN,
    TcpFlags.SYN | TcpFlags.RST,
    TcpFlags.FIN | TcpFlags.RST,
)


class ConntrackMachine:
    """Track one TCP connection and label each packet as conntrack would.

    Options are looked up as the feature columns do: the first well-formed
    option of each kind counts, and a malformed one counts as absent.
    """

    def __init__(self) -> None:
        self.state: MasterState = MasterState.NONE
        self._endpoints: dict[Direction, EndpointWindow] = {
            Direction.CLIENT_TO_SERVER: EndpointWindow(),
            Direction.SERVER_TO_CLIENT: EndpointWindow(),
        }
        self._offered_scale: dict[Direction, int | None] = {
            Direction.CLIENT_TO_SERVER: None,
            Direction.SERVER_TO_CLIENT: None,
        }
        self._scaling_resolved = False
        self._last_tsval: dict[Direction, int] = {}
        self.history: list[PacketObservation] = []

    def process(self, packet: Packet) -> PacketObservation:
        """Feed one packet; returns the observation (and records it)."""
        state_before = self.state
        drop_reason = self._validate(packet)
        verdict = self._window_verdict(packet)
        accepted = drop_reason is None

        if accepted:
            self._negotiate_scaling(packet)
            self._advance_state(packet)
            self._update_window(packet)

        observation = PacketObservation(
            label=StateLabel(state=self.state, window=verdict),
            accepted=accepted,
            state_before=state_before,
            state_after=self.state,
            window_verdict=verdict,
            drop_reason=drop_reason,
        )
        self.history.append(observation)
        return observation

    @staticmethod
    def _options(packet: Packet):
        """``(timestamp, window scale, md5)``: the first well-formed of each."""
        _, timestamp, window_scale, _, md5 = summarize_feature_options(packet.tcp.options)
        return timestamp, window_scale, md5

    # -------------------------------------------------------------- validation
    def _validate(self, packet: Packet) -> str | None:
        """Return a drop reason, or ``None`` when a rigorous endhost accepts."""
        if packet.ip.version != 4:
            return "ip-version"
        effective_ihl = packet.ip.effective_ihl()
        if effective_ihl < 5:
            return "ip-header-length"
        if not packet.ip.has_correct_checksum(packet.tcp.header_length + len(packet.payload)):
            return "ip-checksum"
        if not packet.ip_total_length_consistent():
            return "ip-total-length"
        if packet.ip.ttl == 0:
            return "ttl-zero"
        offset = packet.tcp.effective_data_offset()
        if offset < 5:
            return "tcp-data-offset"
        if offset * 4 > packet.tcp.header_length + len(packet.payload):
            return "tcp-data-offset"
        if not packet.tcp_checksum_ok():
            return "tcp-checksum"
        flags = packet.tcp.flags
        if flags & 0x1FF == 0:
            return "null-flags"
        for combination in _INVALID_FLAG_COMBINATIONS:
            if flags & combination == combination:
                return "invalid-flag-combination"
        md5 = self._options(packet)[2]
        if md5 is not None and not md5.valid:
            return "md5-signature"
        if packet.tcp.is_syn and not packet.tcp.is_ack and len(packet.payload) > 0:
            return "syn-with-payload"
        if packet.tcp.is_rst:
            reason = self._validate_rst(packet)
            if reason is not None:
                return reason
        if packet.tcp.has_flag(TcpFlags.ACK):
            receiver = self._endpoints[packet.direction.flipped()]
            if receiver.initialised and seq_diff(packet.tcp.ack, receiver.snd_end) > 0:
                return "ack-of-unsent-data"
        timestamp_reason = self._validate_timestamp(packet)
        if timestamp_reason is not None:
            return timestamp_reason
        if self.state is MasterState.ESTABLISHED and not packet.tcp.has_flag(TcpFlags.ACK) \
                and not packet.tcp.is_rst and not packet.tcp.is_syn:
            return "missing-ack-flag"
        return None

    def _validate_rst(self, packet: Packet) -> str | None:
        """RST acceptability: must land exactly on the expected sequence."""
        receiver = self._endpoints[packet.direction.flipped()]
        sender = self._endpoints[packet.direction]
        if not sender.initialised and self.state is MasterState.NONE:
            return "rst-without-connection"
        if receiver.initialised and receiver.rcv_limit != 0 and not in_window(
            sender, receiver, packet.tcp.seq, max(packet.sequence_span(), 1),
            packet.tcp.ack, has_ack=packet.tcp.has_flag(TcpFlags.ACK),
        ):
            return "rst-out-of-window"
        return None

    def _validate_timestamp(self, packet: Packet) -> str | None:
        """PAWS-style check: timestamps must not run backwards."""
        option = self._options(packet)[0]
        if option is None:
            return None
        if option.tsval == 0 and self.state is not MasterState.NONE:
            return "timestamp-zero"
        last = self._last_tsval.get(packet.direction)
        if last is not None:
            delta = (option.tsval - last) % (2**32)
            if delta >= 2**31:
                return "timestamp-regression"
        return None

    # ---------------------------------------------------------- state machine
    def _advance_state(self, packet: Packet) -> None:
        flags = packet.tcp.flags
        direction = packet.direction
        is_syn = bool(flags & TcpFlags.SYN)
        is_ack = bool(flags & TcpFlags.ACK)
        is_fin = bool(flags & TcpFlags.FIN)
        is_rst = bool(flags & TcpFlags.RST)
        state = self.state

        if is_rst:
            if state is not MasterState.NONE:
                self.state = MasterState.CLOSE
            return

        if state is MasterState.NONE:
            if is_syn and not is_ack and direction is Direction.CLIENT_TO_SERVER:
                self.state = MasterState.SYN_SENT
            return

        if state is MasterState.SYN_SENT:
            if is_syn and is_ack and direction is Direction.SERVER_TO_CLIENT:
                self.state = MasterState.SYN_RECV
            elif is_syn and not is_ack and direction is Direction.SERVER_TO_CLIENT:
                self.state = MasterState.SYN_SENT2
            return

        if state is MasterState.SYN_SENT2:
            if is_syn and is_ack:
                self.state = MasterState.SYN_RECV
            return

        if state is MasterState.SYN_RECV:
            if is_fin:
                self.state = MasterState.FIN_WAIT
            elif is_ack and not is_syn and direction is Direction.CLIENT_TO_SERVER:
                self.state = MasterState.ESTABLISHED
            return

        if state is MasterState.ESTABLISHED:
            if is_fin:
                self.state = MasterState.FIN_WAIT
            return

        if state is MasterState.FIN_WAIT:
            if is_fin:
                self.state = MasterState.CLOSING
            elif is_ack:
                self.state = MasterState.CLOSE_WAIT
            return

        if state is MasterState.CLOSE_WAIT:
            if is_fin:
                self.state = MasterState.LAST_ACK
            return

        if state is MasterState.CLOSING:
            if is_ack:
                self.state = MasterState.TIME_WAIT
            return

        if state is MasterState.LAST_ACK:
            if is_ack:
                self.state = MasterState.TIME_WAIT
            return

        if state is MasterState.TIME_WAIT:
            if is_syn and not is_ack:
                self.state = MasterState.SYN_SENT
            return

        if state is MasterState.CLOSE:
            if is_syn and not is_ack:
                self.state = MasterState.SYN_SENT
            return

    # ------------------------------------------------------- window tracking
    def _window_verdict(self, packet: Packet) -> WindowVerdict:
        sender = self._endpoints[packet.direction]
        receiver = self._endpoints[packet.direction.flipped()]
        if packet.tcp.is_syn and not sender.initialised:
            return WindowVerdict.IN_WINDOW
        if not sender.initialised and not receiver.initialised:
            return WindowVerdict.IN_WINDOW
        ok = in_window(
            sender,
            receiver,
            packet.tcp.seq,
            packet.sequence_span(),
            packet.tcp.ack,
            has_ack=packet.tcp.has_flag(TcpFlags.ACK),
        )
        return WindowVerdict.IN_WINDOW if ok else WindowVerdict.OUT_OF_WINDOW

    def _negotiate_scaling(self, packet: Packet) -> None:
        if not packet.tcp.is_syn:
            if not self._scaling_resolved and self.state in (
                MasterState.ESTABLISHED,
                MasterState.SYN_RECV,
            ):
                self._resolve_scaling()
            return
        option = self._options(packet)[1]
        self._offered_scale[packet.direction] = option.shift if option is not None else None

    def _resolve_scaling(self) -> None:
        client = self._offered_scale[Direction.CLIENT_TO_SERVER]
        server = self._offered_scale[Direction.SERVER_TO_CLIENT]
        if client is not None and server is not None:
            self._endpoints[Direction.CLIENT_TO_SERVER].scale = client
            self._endpoints[Direction.SERVER_TO_CLIENT].scale = server
        self._scaling_resolved = True

    def _update_window(self, packet: Packet) -> None:
        sender = self._endpoints[packet.direction]
        is_handshake = packet.tcp.is_syn
        if is_handshake and not sender.initialised:
            option = self._options(packet)[1]
            sender.initialise_from_syn(
                packet.tcp.seq,
                packet.sequence_span(),
                packet.tcp.window,
                option.shift if option is not None else 0,
            )
        sender.observe_sent(
            packet.tcp.seq,
            packet.sequence_span(),
            packet.tcp.ack,
            packet.tcp.window,
            has_ack=packet.tcp.has_flag(TcpFlags.ACK),
            handshake=is_handshake,
        )
        option = self._options(packet)[0]
        if option is not None:
            self._last_tsval[packet.direction] = option.tsval


def observe_connection(packets: Sequence[Packet]) -> list[PacketObservation]:
    """The machine's observation of every packet of one connection (column
    views are materialised first)."""
    machine = ConntrackMachine()
    return [machine.process(packet) for packet in _materialize(packets)]


def label_class_indices(packets: Sequence[Packet]) -> list[int]:
    """Dense class indices of one connection's conntrack labels."""
    return [observation.label.class_index for observation in observe_connection(packets)]


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
    packets = _materialize(packets)
    context = _build_context(packets)
    rows = [_extract_packet(packet, context) for packet in packets]
    if not rows:
        return np.zeros((0, NUM_RAW_FEATURES), dtype=np.float64)
    return np.array(rows, dtype=np.float64)


def prepare(connections) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``RnnStage.prepare`` one connection at a time: raw features and
    conntrack label indices per non-empty connection."""
    feature_arrays = []
    label_arrays = []
    for connection in connections:
        if len(connection) == 0:
            continue
        feature_arrays.append(extract_packets_reference(connection.packets))
        label_arrays.append(np.array(label_class_indices(connection.packets), dtype=np.int64))
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
