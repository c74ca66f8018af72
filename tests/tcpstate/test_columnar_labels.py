"""The columnar conntrack labeller against the per-packet oracle machine.

``ConnectionLabeler`` decides the stateless drop reasons in one vectorized
pass over packet columns and replays only the stateful checks per packet.
Every observation — state before and after, window verdict, drop reason —
must equal ``tests/reference_oracle.py``'s ``ConntrackMachine`` for ``Packet``
objects and for column views read back from a capture, on benign traffic,
on every attack strategy and on packets crafted to hit each check.
"""

import numpy as np
import pytest

from repro.attacks import primitives
from repro.attacks.base import all_strategies
from repro.attacks.injector import AttackInjector
from repro.core.config import ClapConfig, RnnConfig
from repro.core.pipeline import Clap
from repro.core.rnn_stage import RnnStage
from repro.netstack.flow import Connection, FlowKey, assemble_connections, packet_stream
from repro.netstack.options import Md5Signature, RawOption, Timestamp, WindowScale
from repro.netstack.packet import Direction
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.tcpstate.conntrack import STATELESS_DROP_REASONS, ConnectionLabeler
from repro.traffic.generator import TrafficGenerator
from repro.traffic.session import TcpSessionBuilder
from tests import reference_oracle as oracle


def assert_matches_oracle(trains) -> list:
    """Every observation of every train equals the oracle's; returns them."""
    observed = ConnectionLabeler().observe_trains(trains)
    assert len(observed) == len(trains)
    for train, observations in zip(trains, observed, strict=True):
        assert observations == oracle.observe_connection(train)
    return [observation for observations in observed for observation in observations]


def round_trip(tmp_path, connections) -> list:
    """The connections' packets written to a capture and re-assembled as
    column views."""
    path = tmp_path / "round-trip.pcap"
    write_pcap(path, packet_stream(connections))
    return [c.packets for c in assemble_connections(read_packet_columns(path).views())]


# ---------------------------------------------------------------------------
# Crafted packets: one connection per corruption
# ---------------------------------------------------------------------------


def _session(port: int, **kwargs) -> TcpSessionBuilder:
    session = TcpSessionBuilder(
        client_ip=0x0A000001,
        server_ip=0x0A000002,
        client_port=port,
        server_port=80,
        client_isn=100 + port,
        server_isn=777_000,
        **kwargs,
    )
    return session


def _established(port: int, **kwargs) -> list:
    session = _session(port, **kwargs)
    session.handshake()
    session.send(Direction.CLIENT_TO_SERVER, 200)
    session.send(Direction.SERVER_TO_CLIENT, 400)
    session.ack(Direction.CLIENT_TO_SERVER)
    session.send(Direction.CLIENT_TO_SERVER, 30)
    session.graceful_close(Direction.CLIENT_TO_SERVER)
    return session.packets


def _set(**fields):
    """A corruption assigning header fields (``ip_*`` / ``tcp_*``)."""

    def corrupt(packet, rng):
        for name, value in fields.items():
            layer, field = name.split("_", 1)
            setattr(getattr(packet, layer), field, value)

    return corrupt


def _options(*options):
    def corrupt(packet, rng):
        packet.tcp.options = list(options)

    return corrupt


def _paws_edge(offset):
    """Data whose TSval lies ``offset`` past the client's previous one."""

    def corrupt(packets, rng):
        last = packets[2].tcp.timestamp_option()
        tsval = (last.tsval + offset) % 2**32
        packets[3].tcp.options = [Timestamp(tsval=tsval, tsecr=last.tsecr)]

    return corrupt


MALFORMED_TS = RawOption(kind=8, data=b"\x00\x00\x00\x09")
MALFORMED_WS = RawOption(kind=3, data=b"\x05\x00")

#: (name, packet index, corruption); index 0 is the client SYN, 1 the
#: SYN-ACK, 3 the first data segment and 5 a pure ACK.  A ``None`` index
#: hands the corruption the whole packet list.
CORRUPTIONS = [
    ("ip-checksum", 3, primitives.garble_ip_checksum),
    ("tcp-checksum", 3, primitives.garble_tcp_checksum),
    ("ip-version", 3, primitives.invalid_ip_version),
    ("ttl-zero", 3, _set(ip_ttl=0)),
    ("low-ttl", 3, primitives.low_ttl),
    ("ip-options", 3, primitives.nonstandard_ip_option),
    ("ip-options-bad-ihl", 3, lambda p, r: _set(ip_options=b"\x94\x04\x00\x00", ip_ihl=5)(p, r)),
    ("ip-length-long", 3, lambda p, r: primitives.bad_ip_length(p, r, too_long=True)),
    ("ip-length-short", 3, lambda p, r: primitives.bad_ip_length(p, r, too_long=False)),
    ("payload-length", 3, primitives.bad_payload_length),
    ("md5-invalid", 3, primitives.bad_md5_option),
    ("md5-valid", 3, _options(Md5Signature(digest=bytes(range(16))))),
    ("ts-regression", 3, primitives.bad_timestamp),
    ("ts-zero", 3, _options(Timestamp(tsval=0, tsecr=1))),
    ("ts-malformed-before-good", 3, _options(MALFORMED_TS, Timestamp(tsval=1, tsecr=2))),
    ("ts-malformed-alone", 3, _options(MALFORMED_TS)),
    ("ts-paws-inside", None, _paws_edge(2**31 - 1)),
    ("ts-paws-edge", None, _paws_edge(2**31)),
    ("uto", 3, primitives.bad_uto_option),
    ("syn-payload", 0, primitives.add_payload),
    ("syn-bad-checksum", 0, primitives.garble_tcp_checksum),
    ("syn-ws-invalid", 0, primitives.invalid_wscale_option),
    ("syn-ws-malformed-before-good", 0, _options(MALFORMED_WS, WindowScale(3))),
    ("syn-ws-malformed-alone", 0, _options(MALFORMED_WS)),
    ("strip-ack", 3, primitives.strip_ack_flag),
    ("bad-ack", 3, primitives.bad_ack),
    ("bad-seq", 3, primitives.bad_seq),
    ("rst-out-of-window", 3, _set(tcp_flags=0x14, tcp_seq=5)),
    ("urgent", 3, primitives.set_urgent_pointer),
    *[(f"ihl-{ihl}", 3, _set(ip_ihl=ihl)) for ihl in (0, 2, 4, 6, 12, 15)],
    *[(f"offset-{offset}", 3, _set(tcp_data_offset=offset)) for offset in (1, 4, 6, 8, 15)],
    *[(f"ack-offset-{offset}", 5, _set(tcp_data_offset=offset)) for offset in (2, 6, 15)],
    # A bare header whose data offset overruns it: on the wire only the
    # offset check can reject it.
    ("bare-ack-offset-8", 5, _set(tcp_data_offset=8, tcp_options=[])),
    *[(f"flags-{variant}", 3, lambda p, r, v=variant: primitives.invalid_flags(p, r, variant=v))
      for variant in range(4)],
]


def crafted_connections() -> list[Connection]:
    rng = np.random.default_rng(2020)
    connections = []
    for port, (_, index, corrupt) in enumerate(CORRUPTIONS, start=40000):
        packets = _established(port)
        corrupt(packets, rng) if index is None else corrupt(packets[index], rng)
        connection = Connection(key=FlowKey.from_packet(packets[0]))
        connection.packets = packets
        connections.append(connection)
    return connections


def scaling_connections() -> dict[tuple, Connection]:
    """Handshakes whose SYNs carry no WS option, shift 0 or shift 7, keyed by
    ``(client offer, server offer, retransmitted client offer)``: the client
    SYN is resent with a changed offer unless the last entry is ``False``.
    The server then sends more than the client's unscaled window."""
    connections = {}
    offers = [None, 0, 7]
    port = 41000
    for client in offers:
        for server in offers:
            for resent in (False, *offers):
                port += 1
                session = _session(port, client_wscale=client, server_wscale=server)
                first = session.client_syn()
                if resent is not False:
                    again = first.copy()
                    again.tcp.options = [
                        option
                        for option in first.tcp.options
                        if not isinstance(option, WindowScale)
                    ]
                    if resent is not None:
                        again.tcp.options.append(WindowScale(resent))
                    session.packets.append(again)
                session.server_synack()
                session.client_ack()
                session.send(Direction.SERVER_TO_CLIENT, 70_000)
                connection = Connection(key=FlowKey.from_packet(first))
                connection.packets = session.packets
                connections[client, server, resent] = connection
    return connections


class TestCraftedPackets:
    def test_objects_match_the_oracle_and_hit_every_stateless_check(self):
        trains = [c.packets for c in crafted_connections()]
        reasons = {observation.drop_reason for observation in assert_matches_oracle(trains)}
        assert set(STATELESS_DROP_REASONS) <= reasons

    def test_views_after_a_pcap_round_trip_match_the_oracle(self, tmp_path):
        trains = round_trip(tmp_path, crafted_connections())
        reasons = {observation.drop_reason for observation in assert_matches_oracle(trains)}
        # MD5 validity does not survive serialisation: a parsed option verifies.
        assert set(STATELESS_DROP_REASONS) - {"md5-signature"} <= reasons

    def test_window_scale_offers_match_the_oracle(self, tmp_path):
        connections = scaling_connections()
        assert_matches_oracle([c.packets for c in connections.values()])
        assert_matches_oracle(round_trip(tmp_path, list(connections.values())))
        # The corpus tells a withdrawn offer from a zero shift: only the zero
        # shift rescales the client's window, so the server's data overruns it.
        labeler = ConnectionLabeler()
        withdrawn, zero = (
            labeler.label_connection(connections[7, 7, resent].packets) for resent in (None, 0)
        )
        assert withdrawn != zero


class TestCorpora:
    def test_benign_corpus(self, tmp_path):
        connections = TrafficGenerator(seed=2020).generate_connections(60)
        assert_matches_oracle([c.packets for c in connections])
        assert_matches_oracle(round_trip(tmp_path, connections))

    def test_every_attack_strategy(self, tmp_path):
        strategies = all_strategies()
        benign = TrafficGenerator(seed=73).generate_connections(len(strategies))
        injector = AttackInjector(seed=11)
        attacked = [
            injector.attack_connection(strategy, connection).connection
            for strategy, connection in zip(strategies, benign, strict=True)
        ]
        assert_matches_oracle([c.packets for c in attacked])
        assert_matches_oracle(round_trip(tmp_path, attacked))

    def test_mixed_batch_of_objects_and_views(self, tmp_path):
        """Trains of objects, of views from two captures and of both at once
        label exactly as they do one at a time."""
        first = TrafficGenerator(seed=5).generate_connections(6)
        second = TrafficGenerator(seed=6).generate_connections(6)
        views = round_trip(tmp_path, first)
        (tmp_path / "round-trip.pcap").unlink()
        more_views = round_trip(tmp_path, second)
        mixed = [views[0][:4] + first[1].packets[4:]]
        trains = [*views, *[c.packets for c in second], *more_views, *mixed, []]
        labeler = ConnectionLabeler()
        batch = labeler.class_indices(trains)
        for train, indices in zip(trains, batch, strict=True):
            assert indices.tolist() == oracle.label_class_indices(train)


class TestTrainingOnViews:
    """Training from a capture reads column views; it must equal training on
    the same capture read as objects."""

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("views") / "train.pcap"
        write_pcap(path, packet_stream(TrafficGenerator(seed=2020).generate_connections(24)))
        views = assemble_connections(read_packet_columns(path).views())
        objects = assemble_connections(oracle.read_pcap(path))
        return views, objects

    def test_prepare_on_views_equals_objects(self, corpora):
        views, objects = corpora
        stage = RnnStage(RnnConfig(epochs=1))
        view_features, view_labels = stage.prepare(views)
        object_features, object_labels = stage.prepare(objects)
        for got, wanted in zip(view_features, object_features, strict=True):
            assert np.array_equal(got, wanted)
        for got, wanted in zip(view_labels, object_labels, strict=True):
            assert np.array_equal(got, wanted)

    def test_fit_on_views_gives_identical_weights(self, corpora):
        fitted = []
        for connections in corpora:
            config = ClapConfig.fast()
            config.rnn.epochs = 2
            config.autoencoder.epochs = 3
            clap = Clap(config)
            clap.fit(connections)
            fitted.append(clap)
        views, objects = fitted
        assert views.threshold == objects.threshold
        for got, wanted in (
            (views.builder.rnn.state_dict(), objects.builder.rnn.state_dict()),
            (views.autoencoder.state_dict(), objects.autoencoder.state_dict()),
        ):
            assert got.keys() == wanted.keys()
            for key in got:
                assert np.array_equal(got[key], wanted[key]), key
