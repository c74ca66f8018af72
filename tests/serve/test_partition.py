"""Flow-hash partitioned fan-out: wire protocol, serde, and equivalence.

The scale-out acceptance criterion: a :class:`FlowPartitioner` fanning one
time-ordered stream out to N detector instances over localhost sockets
emits the same connections with scores within 1e-9 of a single
unpartitioned detector, at any instance count, for both object-packet and
columnar sources (both ride ``BLCK``/``ROWS`` frames) — and the remote
``endpoints=`` topology speaks the identical protocol.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.attacks.primitives import bad_md5_option
from repro.core.results import DetectionResult, _parse_flow_key
from repro.netstack.columns import PacketColumns
from repro.netstack.flow import CompletionReason, FlowKey, packet_stream
from repro.serve import (
    DetectorInstance,
    FlowPartitioner,
    InstanceConfig,
    StreamingDetector,
    event_from_dict,
    make_event,
)
from repro.serve.wire import (
    TAG_CTRL,
    TAG_EVNT,
    WireError,
    decode_block,
    decode_control,
    decode_events,
    decode_rows,
    encode_block,
    encode_control,
    encode_events,
    encode_rows,
    recv_frame,
    send_frame,
)
from repro.traffic.generator import TrafficGenerator

IDLE_TIMEOUT = 50.0
CLOSE_GRACE = 0.5


# --------------------------------------------------------------------- helpers
def _sequential_connections(count, seed=311, spacing=10.0):
    connections = TrafficGenerator(seed=seed).generate_connections(count)
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * spacing + position * 0.01
    return connections


def _rows(events):
    return sorted(
        (str(e.result.key), e.result.packet_count, e.result.score) for e in events
    )


def _assert_rows_match(actual_events, expected_events):
    actual, expected = _rows(actual_events), _rows(expected_events)
    assert [row[:2] for row in actual] == [row[:2] for row in expected]
    for got, want in zip(actual, expected, strict=True):
        assert abs(got[2] - want[2]) <= 1e-9, got[0]


def _drain_all(target, stream):
    target.ingest_many(stream)
    interim = list(target.events())
    target.close()
    return interim + list(target.events())


@pytest.fixture(scope="module")
def partition_model_dir(trained_clap, tmp_path_factory):
    directory = tmp_path_factory.mktemp("partition") / "model"
    trained_clap.save(directory)
    return str(directory)


@pytest.fixture(scope="module")
def replay_packets():
    return sorted(
        packet_stream(_sequential_connections(16)), key=lambda p: p.timestamp
    )


@pytest.fixture(scope="module")
def baseline_events(trained_clap, replay_packets):
    detector = StreamingDetector(
        trained_clap, idle_timeout=IDLE_TIMEOUT, close_grace=CLOSE_GRACE
    )
    return _drain_all(detector, replay_packets)


def _instance_config(**overrides) -> InstanceConfig:
    defaults = dict(idle_timeout=IDLE_TIMEOUT, close_grace=CLOSE_GRACE)
    defaults.update(overrides)
    return InstanceConfig(**defaults)


# ----------------------------------------------------------------- wire codec
class TestWireCodec:
    def test_frame_round_trip_over_a_socket(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, TAG_CTRL, encode_control({"op": "hello"}))
            tag, payload = recv_frame(right)
            assert tag == TAG_CTRL
            assert decode_control(payload) == {"op": "hello"}
        finally:
            left.close()
            right.close()

    def test_eof_at_frame_boundary_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises_wire_error(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, TAG_EVNT, b"x" * 100)
            # Steal part of the stream, then close: the reader sees a torn
            # frame, not a clean EOF.
            right.recv(10)
            left.close()
            with pytest.raises(WireError):
                while recv_frame(right) is not None:
                    pass
        finally:
            right.close()

    def test_unknown_tag_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"XXXX" + (0).to_bytes(4, "little"))
            with pytest.raises(WireError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_block_codec_round_trip(self):
        source = PacketColumns.from_packets(
            packet_stream(_sequential_connections(2))
        )
        payload = source.pack_block()
        chunks = encode_block(1234, payload)
        block_id, packed = decode_block(b"".join(bytes(c) for c in chunks))
        assert block_id == 1234
        assert bytes(packed) == payload

    def test_rows_codec_round_trip(self):
        indices = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        clocks = np.array([0.1, 0.2, 0.3, 0.4, 0.5], dtype=np.float64)
        chunks = encode_rows(77, indices.tobytes(), clocks.tobytes())
        block_id, out_indices, out_clocks = decode_rows(
            b"".join(bytes(c) for c in chunks)
        )
        assert block_id == 77
        assert np.array_equal(out_indices, indices)
        assert np.array_equal(out_clocks, clocks)

    def test_rows_codec_rejects_torn_payload(self):
        chunks = encode_rows(1, b"\x00" * 8, b"\x00" * 8)
        torn = b"".join(bytes(c) for c in chunks)[:-3]
        with pytest.raises(WireError):
            decode_rows(torn)

    def test_events_codec_round_trip(self):
        result = DetectionResult(
            key=FlowKey(ip_a=0x0A000001, port_a=1024, ip_b=0xC0A80001, port_b=80),
            score=0.1 + 0.2,  # not exactly representable in decimal
            threshold=0.25,
            is_adversarial=True,
            localized_window=3,
            localized_packets=(7, 2),
            packet_count=11,
        )
        event = make_event(result, CompletionReason.CLOSED, 1.0, 2.0)
        [decoded] = decode_events(encode_events([event]))
        assert decoded == event


# ---------------------------------------------------------------------- serde
class TestEventSerde:
    def test_detection_result_round_trip_is_exact(self):
        result = DetectionResult(
            key=FlowKey(ip_a=1, port_a=2, ip_b=3, port_b=4),
            score=1.0 / 3.0,
            threshold=2.0 / 7.0,
            is_adversarial=True,
            localized_window=5,
            localized_packets=(9, 8, 7),
            packet_count=42,
        )
        rebuilt = DetectionResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result
        assert rebuilt.score == result.score  # bit-exact through JSON

    def test_keyless_result_round_trips(self):
        result = DetectionResult(
            key=None,
            score=0.5,
            threshold=1.0,
            is_adversarial=False,
            localized_window=-1,
            localized_packets=(),
            packet_count=1,
        )
        assert DetectionResult.from_dict(result.to_dict()) == result

    def test_parse_flow_key_inverts_str(self):
        key = FlowKey(ip_a=0x0A000001, port_a=1024, ip_b=0xC0A80001, port_b=80)
        assert _parse_flow_key(str(key)) == key

    def test_parse_flow_key_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_flow_key("not a flow key")

    def test_event_round_trip_rederives_subtype(self):
        result = DetectionResult(
            key=FlowKey(ip_a=1, port_a=2, ip_b=3, port_b=4),
            score=2.0,
            threshold=1.0,
            is_adversarial=True,
            localized_window=0,
            localized_packets=(0,),
            packet_count=3,
        )
        event = make_event(result, CompletionReason.IDLE, 10.0, 20.0)
        rebuilt = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event
        assert rebuilt.is_alert


# ----------------------------------------------------------------- validation
class TestPartitionerValidation:
    def test_requires_exactly_one_topology(self, partition_model_dir):
        with pytest.raises(ValueError, match="exactly one"):
            FlowPartitioner(partition_model_dir)
        with pytest.raises(ValueError, match="exactly one"):
            FlowPartitioner(
                partition_model_dir, instances=2, endpoints=["127.0.0.1:1"]
            )

    def test_rejects_zero_instances(self, partition_model_dir):
        with pytest.raises(ValueError, match="at least 1"):
            FlowPartitioner(partition_model_dir, instances=0)

    def test_local_spawn_needs_a_model(self):
        with pytest.raises(ValueError, match="model_dir"):
            FlowPartitioner(instances=2)

    def test_rejects_bad_chunk_size(self, partition_model_dir):
        with pytest.raises(ValueError, match="chunk_size"):
            FlowPartitioner(partition_model_dir, instances=1, chunk_size="huge")
        with pytest.raises(ValueError, match="chunk_size"):
            FlowPartitioner(partition_model_dir, instances=1, chunk_size=0)

    def test_instance_config_needs_process_mode_for_workers(self):
        with pytest.raises(ValueError, match="worker_mode='process'"):
            InstanceConfig(workers=2)
        assert InstanceConfig(workers=2, worker_mode="process").workers == 2

    def test_endpoint_parsing_rejects_garbage(self):
        from repro.serve.partition import _parse_endpoint

        assert _parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _parse_endpoint(("host", 1)) == ("host", 1)
        with pytest.raises(ValueError):
            _parse_endpoint("no-port-here")


# ---------------------------------------------------------------- equivalence
class TestPartitionedEquivalence:
    @pytest.mark.parametrize("instances", [1, 2])
    def test_object_path_matches_single_detector(
        self, partition_model_dir, replay_packets, baseline_events, instances
    ):
        partitioner = FlowPartitioner(
            partition_model_dir,
            instances=instances,
            config=_instance_config(),
        )
        events = _drain_all(partitioner, replay_packets)
        _assert_rows_match(events, baseline_events)
        assert partitioner.connections_seen == len(events)

    def test_invalid_md5_option_scores_as_in_process(
        self, trained_clap, partition_model_dir
    ):
        # An invalid MD5 signature exists only on the in-memory option
        # (``valid=False``); re-parsing the packet's bytes would read it as
        # valid and change the connection's score.
        packets = sorted(
            packet_stream(_sequential_connections(4, seed=17)),
            key=lambda p: p.timestamp,
        )
        bad_md5_option(packets[2], np.random.default_rng(0))
        assert PacketColumns.from_packets([packets[2]]).md5_ok[0] == 0.0
        single = StreamingDetector(
            trained_clap, idle_timeout=IDLE_TIMEOUT, close_grace=CLOSE_GRACE
        )
        expected = _drain_all(single, packets)
        partitioner = FlowPartitioner(
            partition_model_dir, instances=2, config=_instance_config()
        )
        _assert_rows_match(_drain_all(partitioner, packets), expected)

    def test_columnar_path_matches_single_detector(
        self, partition_model_dir, replay_packets, baseline_events
    ):
        views = PacketColumns.from_packets(replay_packets).views()
        partitioner = FlowPartitioner(
            partition_model_dir, instances=2, config=_instance_config()
        )
        events = _drain_all(partitioner, views)
        _assert_rows_match(events, baseline_events)
        # The block was broadcast (not re-parsed): front-end accounting saw
        # one packed segment cross the sockets.
        shm = partitioner.metrics_snapshot()["shared_memory"]
        assert shm["segments_created"] >= 1
        assert shm["bytes_broadcast"] > 0

    def test_remote_endpoint_topology(
        self, trained_clap, replay_packets, baseline_events
    ):
        instance = DetectorInstance(trained_clap, config=_instance_config())
        server = threading.Thread(target=instance.serve, daemon=True)
        server.start()
        host, port = instance.address
        partitioner = FlowPartitioner(endpoints=[f"{host}:{port}"])
        assert partitioner.threshold == pytest.approx(trained_clap.threshold)
        events = _drain_all(partitioner, replay_packets)
        server.join(timeout=30.0)
        assert not server.is_alive()
        _assert_rows_match(events, baseline_events)

    def test_close_is_idempotent_and_reports_survive(
        self, partition_model_dir, replay_packets
    ):
        partitioner = FlowPartitioner(
            partition_model_dir, instances=2, config=_instance_config()
        )
        partitioner.ingest_many(replay_packets)
        final = partitioner.close()
        assert partitioner.close() == []
        assert len(partitioner.instance_reports) == 2
        assert sum(partitioner.peak_occupancy()) >= 1
        rendered = partitioner.render_metrics()
        assert "instance[0]:" in rendered and "instance[1]:" in rendered
        # Final drain arrives in the deterministic (first_seen, key) order.
        order = [(e.first_seen, str(e.result.key)) for e in final]
        assert order == sorted(order)

    def test_ingest_after_close_raises(self, partition_model_dir, replay_packets):
        partitioner = FlowPartitioner(
            partition_model_dir, instances=1, config=_instance_config()
        )
        partitioner.close()
        with pytest.raises(RuntimeError, match="close"):
            partitioner.ingest(replay_packets[0])


# ------------------------------------------------------------- startup faults
def _refused_port() -> int:
    """A localhost port that was bound a moment ago and is now closed."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestStartupFailure:
    def test_refused_endpoint_does_not_leak_connected_peers(self, trained_clap):
        # PR 9 regression: when a later endpoint refuses the connection, the
        # instances that already connected must be torn down, not leaked as
        # half-open peers waiting on a front-end that will never speak.
        instance = DetectorInstance(trained_clap, config=_instance_config())
        server = threading.Thread(target=instance.serve, daemon=True)
        server.start()
        with pytest.raises(OSError):
            FlowPartitioner(
                endpoints=[instance.address, ("127.0.0.1", _refused_port())]
            )
        server.join(timeout=30.0)
        assert not server.is_alive(), "connected peer was leaked half-open"
        instance.close()
        assert instance.teardown_errors == []

    def test_refused_single_endpoint_raises(self):
        with pytest.raises(OSError):
            FlowPartitioner(endpoints=[("127.0.0.1", _refused_port())])


class TestInstanceTeardown:
    def test_close_survives_half_open_socket(self, trained_clap):
        # The front-end dies mid-handshake leaving the socket half-open; the
        # torn-frame error must surface from serve() while close() runs on
        # the exit path without masking it.
        instance = DetectorInstance(trained_clap, config=_instance_config())
        failures = []

        def serve():
            try:
                instance.serve()
            except WireError as error:
                failures.append(error)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        sock = socket.create_connection(instance.address, timeout=5.0)
        sock.sendall(b"CTRL")  # four of the eight header bytes, then vanish
        sock.close()
        server.join(timeout=30.0)
        assert not server.is_alive()
        assert failures and "mid-frame" in str(failures[0])
        # serve() already closed on its way out; more closes are no-ops.
        instance.close()
        instance.close()
        assert instance.teardown_errors == []

    def test_close_without_serving_is_idempotent(self, trained_clap):
        instance = DetectorInstance(trained_clap, config=_instance_config())
        instance.close()
        instance.close()
        assert instance.teardown_errors == []
