"""Reference TCP connection tracking (the label source), computed from columns.

The paper instruments the Linux ``conntrack`` module and replays benign
captures through it to harvest, for every packet, the connection state the
kernel transitions to plus an in-/out-of-window verdict.  This module
re-implements that reference behaviour: netfilter-flavoured master states,
rigorous endhost-style packet validation (checksums, header consistency, flag
combinations) and simplified ``tcp_in_window`` sequence tracking.

The tracker deliberately models a *rigorous endhost*: packets that a real TCP
stack would silently discard (bad checksum, bogus data offset, invalid flag
combination, failed MD5 option) do not advance the state machine.  It is this
very rigour that DPI evasion attacks exploit, and that the labels must encode
so the RNN can learn the benign inter-packet context.

:class:`ConnectionLabeler` labels a batch of packet trains at once.  The
checks that need no connection state are one vectorized pass over the
trains' rows of :class:`~repro.netstack.columns.PacketColumns`, whose
validity bits carry each verdict; only the RST, ACK and timestamp checks,
the state transitions and the window tracking run per packet, over scalars
read from the same rows.  The per-packet machine it is tested against lives
with the tests (``tests/reference_oracle.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.netstack.columns import PacketColumns, train_rows
from repro.netstack.packet import Packet
from repro.netstack.tcp import TcpFlags
from repro.tcpstate.states import NUM_WINDOW_VERDICTS, MasterState, StateLabel, WindowVerdict
from repro.tcpstate.window import EndpointWindow, in_window, seq_diff


@dataclass(frozen=True)
class PacketObservation:
    """Everything the reference implementation reports for one packet."""

    label: StateLabel
    accepted: bool
    state_before: MasterState
    state_after: MasterState
    window_verdict: WindowVerdict
    drop_reason: str | None = None


#: Drop reasons decided without connection state, in validation order.
STATELESS_DROP_REASONS = (
    "ip-version",
    "ip-header-length",
    "ip-checksum",
    "ip-total-length",
    "ttl-zero",
    "tcp-data-offset",
    "tcp-checksum",
    "null-flags",
    "invalid-flag-combination",
    "md5-signature",
    "syn-with-payload",
)

# Flag combinations that a rigorous stack treats as invalid/bogus segments.
_INVALID_FLAG_COMBINATIONS = (
    TcpFlags.SYN | TcpFlags.FIN,
    TcpFlags.SYN | TcpFlags.RST,
    TcpFlags.FIN | TcpFlags.RST,
)

# Flags of which an established connection's segments must carry one.
_HANDSHAKE_OR_ACK = TcpFlags.ACK | TcpFlags.RST | TcpFlags.SYN

#: The columns labelling reads: all a batch gathered from several blocks has
#: to carry.
_LABEL_COLUMNS = (
    "version", "ihl", "ip_ok", "length_ok", "ttl", "offset_ok", "tcp_ok", "flags",
    "md5_ok", "payload_len", "seq", "ack", "window", "ts_present", "tsval",
    "ws_shift", "ws_present",
)


def stateless_drop_reasons(columns: PacketColumns, rows: np.ndarray) -> np.ndarray:
    """Per row, the index into :data:`STATELESS_DROP_REASONS` of its first
    failed check, or -1 when the row passes them all."""
    flags = columns.flags[rows]
    invalid_flags = np.zeros(rows.shape[0], dtype=bool)
    for combination in _INVALID_FLAG_COMBINATIONS:
        invalid_flags |= flags & combination == combination
    failed = np.stack(
        (
            columns.version[rows] != 4,
            columns.ihl[rows] < 5,
            ~columns.ip_ok[rows],
            ~columns.length_ok[rows],
            columns.ttl[rows] == 0,
            ~columns.offset_ok[rows],
            ~columns.tcp_ok[rows],
            flags & 0x1FF == 0,
            invalid_flags,
            columns.md5_ok[rows] == 0.0,
            # Data on an initial SYN is technically legal but conntrack-style
            # trackers treat it as suspicious; a rigorous endhost queues it
            # but our reference (like the paper's) rejects SYN payloads.
            (flags & (TcpFlags.SYN | TcpFlags.ACK) == TcpFlags.SYN)
            & (columns.payload_len[rows] > 0),
        ),
        axis=1,
    )
    return np.where(failed.any(axis=1), failed.argmax(axis=1), -1)


def _next_state(state: MasterState, flags: int, from_client: bool) -> MasterState:
    """The master state an accepted packet moves the connection to."""
    is_syn = bool(flags & TcpFlags.SYN)
    is_ack = bool(flags & TcpFlags.ACK)
    is_fin = bool(flags & TcpFlags.FIN)
    if flags & TcpFlags.RST:
        return state if state is MasterState.NONE else MasterState.CLOSE
    if state is MasterState.NONE:
        return MasterState.SYN_SENT if is_syn and not is_ack and from_client else state
    if state is MasterState.SYN_SENT:
        if is_syn and not from_client:
            return MasterState.SYN_RECV if is_ack else MasterState.SYN_SENT2
        return state
    if state is MasterState.SYN_SENT2:
        return MasterState.SYN_RECV if is_syn and is_ack else state
    if state is MasterState.SYN_RECV:
        if is_fin:
            return MasterState.FIN_WAIT
        return MasterState.ESTABLISHED if is_ack and not is_syn and from_client else state
    if state is MasterState.ESTABLISHED:
        return MasterState.FIN_WAIT if is_fin else state
    if state is MasterState.FIN_WAIT:
        if is_fin:
            return MasterState.CLOSING
        return MasterState.CLOSE_WAIT if is_ack else state
    if state is MasterState.CLOSE_WAIT:
        return MasterState.LAST_ACK if is_fin else state
    if state in (MasterState.CLOSING, MasterState.LAST_ACK):
        return MasterState.TIME_WAIT if is_ack else state
    # TIME_WAIT and CLOSE: a fresh SYN may reopen the conversation.
    return MasterState.SYN_SENT if is_syn and not is_ack else state


class _Tracker:
    """One connection's state: master state, the two endpoints' windows,
    their offered window scales and their last TSvals (all indexed by
    :class:`~repro.netstack.packet.Direction`)."""

    def __init__(self) -> None:
        self.state = MasterState.NONE
        self.endpoints = (EndpointWindow(), EndpointWindow())
        self.offered_scale: list[int | None] = [None, None]
        self.scaling_resolved = False
        self.last_tsval: list[int | None] = [None, None]

    def step(self, drop_reason, direction, flags, seq, ack, window, payload_len, tsval, ws_shift):
        """Feed one packet that passed (``drop_reason is None``) or failed the
        stateless checks; ``tsval``/``ws_shift`` are ``None`` when the
        packet has no such option.  Returns ``(drop_reason, window verdict)``."""
        is_syn = bool(flags & TcpFlags.SYN)
        is_ack = bool(flags & TcpFlags.ACK)
        span = payload_len + is_syn + bool(flags & TcpFlags.FIN)
        sender = self.endpoints[direction]
        receiver = self.endpoints[1 - direction]
        state = self.state
        if drop_reason is None:
            drop_reason = self._stateful_reason(
                state, sender, receiver, direction, flags, seq, ack, span, tsval
            )
        if (is_syn and not sender.initialised) or not (sender.initialised or receiver.initialised):
            verdict = WindowVerdict.IN_WINDOW
        elif in_window(sender, receiver, seq, span, ack, has_ack=is_ack):
            verdict = WindowVerdict.IN_WINDOW
        else:
            verdict = WindowVerdict.OUT_OF_WINDOW
        if drop_reason is not None:
            return drop_reason, verdict

        # Window-scale negotiation resolves once the handshake completes.
        if is_syn:
            self.offered_scale[direction] = ws_shift
        elif not self.scaling_resolved and state in (MasterState.ESTABLISHED, MasterState.SYN_RECV):
            client, server = self.offered_scale
            if client is not None and server is not None:
                self.endpoints[0].scale = client
                self.endpoints[1].scale = server
            self.scaling_resolved = True
        self.state = _next_state(state, flags, direction == 0)
        if is_syn and not sender.initialised:
            sender.initialise_from_syn(seq, span, window, ws_shift or 0)
        sender.observe_sent(seq, span, ack, window, has_ack=is_ack, handshake=is_syn)
        if tsval is not None:
            self.last_tsval[direction] = tsval
        return None, verdict

    def _stateful_reason(self, state, sender, receiver, direction, flags, seq, ack, span, tsval):
        if flags & TcpFlags.RST:
            # RST acceptability: it must land exactly on the expected sequence.
            if not sender.initialised and state is MasterState.NONE:
                return "rst-without-connection"
            if receiver.initialised and receiver.rcv_limit != 0 and not in_window(
                sender, receiver, seq, max(span, 1), ack, has_ack=bool(flags & TcpFlags.ACK)
            ):
                return "rst-out-of-window"
        if flags & TcpFlags.ACK and receiver.initialised and seq_diff(ack, receiver.snd_end) > 0:
            return "ack-of-unsent-data"
        if tsval is not None:
            if tsval == 0 and state is not MasterState.NONE:
                return "timestamp-zero"
            last = self.last_tsval[direction]
            # PAWS (RFC 7323): a timestamp earlier than the last one seen from
            # the same sender marks the segment as unacceptably old.
            if last is not None and (tsval - last) % 2**32 >= 2**31:
                return "timestamp-regression"
        if state is MasterState.ESTABLISHED and not flags & _HANDSHAKE_OR_ACK:
            # Data segments after the handshake must carry ACK (RFC 793).
            return "missing-ack-flag"
        return None


class ConnectionLabeler:
    """Replay whole connections through the reference tracker.

    This is the "traffic replayer" of the paper's Section 4.1: it harvests,
    per packet, the ``(master state, window verdict)`` label used to train the
    Stage-(a) RNN.  Trains may hold ``Packet`` objects, column views or both;
    a TCP option that is present but malformed counts as absent (the
    feature columns' first-well-formed-option rule).
    """

    def _replay(self, trains: Sequence[Sequence[Packet]]):
        """Per train, ``(state_before, state_after, drop_reason, verdict)`` per packet."""
        columns, rows, bounds = train_rows(trains, _LABEL_COLUMNS)
        if rows is None:
            rows = np.arange(bounds[-1], dtype=np.int64)
        reasons = [
            STATELESS_DROP_REASONS[code] if code >= 0 else None
            for code in stateless_drop_reasons(columns, rows).tolist()
        ]
        tsvals = [
            value if present else None
            for value, present in zip(
                columns.tsval[rows].tolist(), columns.ts_present[rows].tolist(), strict=True
            )
        ]
        shifts = [
            int(value) if present else None
            for value, present in zip(
                columns.ws_shift[rows].tolist(), columns.ws_present[rows].tolist(), strict=True
            )
        ]
        packets = zip(
            reasons,
            (packet.direction for train in trains for packet in train),
            columns.flags[rows].tolist(),
            columns.seq[rows].tolist(),
            columns.ack[rows].tolist(),
            columns.window[rows].tolist(),
            columns.payload_len[rows].tolist(),
            tsvals,
            shifts,
            strict=True,
        )
        for start, stop in zip(bounds[:-1], bounds[1:], strict=True):
            tracker = _Tracker()
            steps = []
            for _ in range(stop - start):
                before = tracker.state
                reason, verdict = tracker.step(*next(packets))
                steps.append((before, tracker.state, reason, verdict))
            yield steps

    def observe_trains(
        self, trains: Sequence[Sequence[Packet]]
    ) -> list[list[PacketObservation]]:
        """Full per-packet observations for many connections, in input order."""
        return [
            [
                PacketObservation(
                    label=StateLabel(state=after, window=verdict),
                    accepted=reason is None,
                    state_before=before,
                    state_after=after,
                    window_verdict=verdict,
                    drop_reason=reason,
                )
                for before, after, reason, verdict in steps
            ]
            for steps in self._replay(trains)
        ]

    def class_indices(self, trains: Sequence[Sequence[Packet]]) -> list[np.ndarray]:
        """Dense class indices (``[0, 22)``) per connection: RNN targets."""
        return [
            np.array(
                [after * NUM_WINDOW_VERDICTS + verdict for _, after, _, verdict in steps],
                dtype=np.int64,
            )
            for steps in self._replay(trains)
        ]

    def observe_connection(self, packets: Sequence[Packet]) -> list[PacketObservation]:
        """:meth:`observe_trains` for a single connection."""
        return self.observe_trains([packets])[0]

    def label_connection(self, packets: Sequence[Packet]) -> list[StateLabel]:
        """One label per packet of a single connection."""
        return [observation.label for observation in self.observe_connection(packets)]
