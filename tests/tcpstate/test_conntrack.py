"""Unit tests for the reference conntrack state machine and labeller."""

import numpy as np
import pytest

from repro.attacks.primitives import (
    bad_md5_option,
    bad_timestamp,
    garble_tcp_checksum,
    invalid_flags,
)
from repro.netstack.flow import Connection, FlowKey
from repro.netstack.packet import Direction
from repro.tcpstate.conntrack import ConnectionLabeler
from repro.tcpstate.states import MasterState, WindowVerdict
from repro.traffic.session import TcpSessionBuilder


def build_connection(script) -> Connection:
    """Run ``script(session)`` and wrap the packets into a Connection."""
    session = TcpSessionBuilder(
        client_ip=0x0A000001,
        server_ip=0x0A000002,
        client_port=50000,
        server_port=80,
        client_isn=100,
        server_isn=777_000,
    )
    script(session)
    connection = Connection(key=FlowKey.from_packet(session.packets[0]))
    for packet in session.packets:
        connection.append(packet)
    return connection


class TestStateTransitions:
    def test_handshake_reaches_established(self):
        connection = build_connection(lambda s: s.handshake())
        states = [obs.state_after for obs in ConnectionLabeler().observe_connection(connection.packets)]
        assert states == [MasterState.SYN_SENT, MasterState.SYN_RECV, MasterState.ESTABLISHED]

    def test_graceful_close_reaches_time_wait(self):
        def script(session):
            session.handshake()
            session.send(Direction.CLIENT_TO_SERVER, 100)
            session.graceful_close(Direction.CLIENT_TO_SERVER)

        connection = build_connection(script)
        final = ConnectionLabeler().observe_connection(connection.packets)[-1]
        assert final.state_after is MasterState.TIME_WAIT

    def test_rst_moves_to_close(self):
        def script(session):
            session.handshake()
            session.rst(Direction.CLIENT_TO_SERVER, with_ack=True)

        connection = build_connection(script)
        final = ConnectionLabeler().observe_connection(connection.packets)[-1]
        assert final.state_after is MasterState.CLOSE

    def test_data_does_not_leave_established(self):
        def script(session):
            session.handshake()
            session.send(Direction.CLIENT_TO_SERVER, 500)
            session.send(Direction.SERVER_TO_CLIENT, 1500)
            session.ack(Direction.CLIENT_TO_SERVER)

        connection = build_connection(script)
        observations = ConnectionLabeler().observe_connection(connection.packets)
        assert all(obs.state_after is MasterState.ESTABLISHED for obs in observations[2:])

    def test_connection_starting_without_syn_stays_none(self):
        def script(session):
            session.handshake()
            session.send(Direction.CLIENT_TO_SERVER, 50)

        connection = build_connection(script)
        # Drop the handshake packets: the tracker never saw a SYN.
        tail = connection.packets[3:]
        observations = ConnectionLabeler().observe_connection(tail)
        assert observations[0].state_after is MasterState.NONE


class TestPacketValidation:
    def _established_connection(self):
        def script(session):
            session.handshake()
            session.send(Direction.CLIENT_TO_SERVER, 200)
            session.send(Direction.SERVER_TO_CLIENT, 400)
            session.ack(Direction.CLIENT_TO_SERVER)

        return build_connection(script)

    def test_benign_connection_fully_accepted(self):
        connection = self._established_connection()
        observations = ConnectionLabeler().observe_connection(connection.packets)
        assert all(obs.accepted for obs in observations)

    @staticmethod
    def _undersized_data_offset(packet, rng):
        packet.tcp.data_offset = 2
        return packet

    @pytest.mark.parametrize(
        "corruption, expected_reason",
        [
            (garble_tcp_checksum, "tcp-checksum"),
            (bad_md5_option, "md5-signature"),
            (_undersized_data_offset.__func__, "tcp-data-offset"),
            (lambda p, r: invalid_flags(p, r, variant=0), "invalid-flag-combination"),
            (lambda p, r: invalid_flags(p, r, variant=1), "null-flags"),
        ],
    )
    def test_corrupted_packets_are_dropped(self, corruption, expected_reason):
        rng = np.random.default_rng(0)
        connection = self._established_connection()
        corruption(connection.packets[3], rng)
        observations = ConnectionLabeler().observe_connection(connection.packets)
        assert not observations[3].accepted
        assert observations[3].drop_reason == expected_reason

    def test_dropped_packet_does_not_advance_state(self):
        rng = np.random.default_rng(0)
        connection = self._established_connection()
        packet = connection.packets[3]
        packet.tcp.flags |= 0  # data packet in ESTABLISHED
        garble_tcp_checksum(packet, rng)
        observations = ConnectionLabeler().observe_connection(connection.packets)
        assert observations[3].state_before == observations[3].state_after

    def test_bad_timestamp_rst_is_dropped(self):
        rng = np.random.default_rng(0)
        connection = self._established_connection()
        packet = connection.packets[3]
        bad_timestamp(packet, rng)
        observations = ConnectionLabeler().observe_connection(connection.packets)
        assert not observations[3].accepted


class TestWindowVerdicts:
    def test_benign_traffic_is_in_window(self):
        def script(session):
            session.handshake()
            session.send(Direction.CLIENT_TO_SERVER, 300)
            session.send(Direction.SERVER_TO_CLIENT, 600)
            session.ack(Direction.CLIENT_TO_SERVER)

        connection = build_connection(script)
        labels = ConnectionLabeler().label_connection(connection.packets)
        assert all(label.window is WindowVerdict.IN_WINDOW for label in labels)

    def test_far_out_of_window_data_is_flagged(self):
        def script(session):
            session.handshake()
            session.send(Direction.CLIENT_TO_SERVER, 300)

        connection = build_connection(script)
        data_packet = connection.packets[3]
        data_packet.tcp.seq = (data_packet.tcp.seq + 50_000_000) % 2**32
        labels = ConnectionLabeler().label_connection(connection.packets)
        assert labels[3].window is WindowVerdict.OUT_OF_WINDOW

    def test_label_class_indices_match_labels(self):
        connection = build_connection(lambda s: s.handshake())
        labeler = ConnectionLabeler()
        labels = labeler.label_connection(connection.packets)
        indices = labeler.class_indices([connection.packets])[0].tolist()
        assert [label.class_index for label in labels] == indices
