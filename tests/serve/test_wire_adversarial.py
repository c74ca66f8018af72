"""Adversarial wire-codec suite: hostile peers get typed errors, never hangs.

Every failure mode a misbehaving or malicious peer can produce on a
partition socket — truncation mid-length-prefix, corrupted tags, oversized
declared lengths, slow-loris dribble — must surface as a typed
:class:`WireError`/:class:`WireTimeout` with context, within its deadline.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.netstack.columns import PacketColumns
from repro.netstack.flow import packet_stream
from repro.serve import DetectorInstance
from repro.serve.wire import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    TAG_BLCK,
    TAG_CTRL,
    TAG_EVNT,
    WireError,
    WireTimeout,
    decode_block,
    decode_control,
    decode_rows,
    encode_block,
    encode_control,
    encode_rows,
    recv_frame,
    send_frame,
)
from repro.traffic.generator import TrafficGenerator

#: Set by :func:`_flip_on_load`, which only an unpickled payload calls.
_PICKLE_LOADED = threading.Event()


def _flip_on_load() -> None:
    _PICKLE_LOADED.set()


class _FlipOnLoad:
    def __reduce__(self):
        return _flip_on_load, ()


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def _deadline(budget: float = 1.0) -> float:
    return time.monotonic() + budget


class TestTruncation:
    def test_eof_mid_length_prefix_is_a_torn_frame(self, pair):
        left, right = pair
        # Three bytes of the eight-byte header, then the peer vanishes.
        left.sendall(b"CTR")
        left.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(right)

    def test_eof_between_header_and_payload(self, pair):
        left, right = pair
        left.sendall(FRAME_HEADER.pack(TAG_CTRL, 64))
        left.close()
        with pytest.raises(WireError, match="payload|mid-frame"):
            recv_frame(right)

    def test_eof_mid_payload(self, pair):
        left, right = pair
        left.sendall(FRAME_HEADER.pack(TAG_EVNT, 100) + b"x" * 37)
        left.close()
        with pytest.raises(WireError, match="37/100"):
            recv_frame(right)

    def test_clean_eof_is_none_not_an_error(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None


class TestCorruption:
    def test_unknown_tag_is_named_in_the_error(self, pair):
        left, right = pair
        left.sendall(FRAME_HEADER.pack(b"EVIL", 4) + b"zzzz")
        with pytest.raises(WireError, match="EVIL"):
            recv_frame(right)

    def test_oversized_declared_length_is_rejected_without_allocating(self, pair):
        left, right = pair
        left.sendall(struct.pack("<4sI", TAG_EVNT, 0xFFFFFFFF))
        with pytest.raises(WireError, match="MAX_FRAME_BYTES"):
            recv_frame(right)

    def test_oversized_send_is_rejected_before_the_wire(self, pair):
        left, _ = pair

        class _HugeChunk:
            def __len__(self) -> int:
                return MAX_FRAME_BYTES + 1

        with pytest.raises(WireError, match="MAX_FRAME_BYTES"):
            send_frame(left, TAG_EVNT, _HugeChunk())

    def test_corrupted_control_payload_raises(self):
        with pytest.raises((WireError, ValueError)):
            decode_control(b"\xff\xfe not json")

    def test_control_without_op_is_malformed(self):
        with pytest.raises(WireError, match="malformed"):
            decode_control(b'{"not_op": 1}')

    def test_truncated_block_prefix(self):
        with pytest.raises(WireError, match="BLCK"):
            decode_block(memoryview(b"\x01\x02"))

    def test_rows_length_mismatch_is_rejected(self):
        chunks = encode_rows(7, b"\x00" * 16, b"\x00" * 16)
        torn = b"".join(bytes(c) for c in chunks)[:-5]
        with pytest.raises(WireError, match="expected"):
            decode_rows(memoryview(torn))

    def test_rows_declared_count_must_match_payload(self):
        # Header says 4 rows, payload carries 2: must not read past the end.
        payload = struct.pack("<QI", 1, 4) + b"\x00" * 32
        with pytest.raises(WireError, match="expected"):
            decode_rows(memoryview(payload))


class TestSlowLoris:
    def test_idle_peer_times_out_as_recoverable(self, pair):
        _, right = pair
        started = time.monotonic()
        with pytest.raises(WireTimeout) as caught:
            recv_frame(right, _deadline(0.3))
        assert time.monotonic() - started < 2.0
        assert caught.value.partial is False, "an idle peer is recoverable"

    def test_dribbled_header_times_out_as_torn(self, pair):
        left, right = pair

        def dribble():
            left.sendall(b"C")
            time.sleep(0.1)
            left.sendall(b"T")

        feeder = threading.Thread(target=dribble, daemon=True)
        feeder.start()
        started = time.monotonic()
        with pytest.raises(WireTimeout) as caught:
            recv_frame(right, _deadline(0.4))
        assert time.monotonic() - started < 2.0
        assert caught.value.partial is True, "a torn frame is a protocol fault"
        feeder.join()

    def test_dribbled_payload_times_out_as_torn(self, pair):
        left, right = pair
        left.sendall(FRAME_HEADER.pack(TAG_EVNT, 1000) + b"y" * 10)
        with pytest.raises(WireTimeout) as caught:
            recv_frame(right, _deadline(0.3))
        assert caught.value.partial is True
        assert "10/1000" in str(caught.value)

    def test_send_to_a_full_pipe_times_out(self, pair):
        left, _right = pair
        # Never read from the right side: the kernel buffers fill and the
        # bounded send must give up rather than block forever.
        payload = b"z" * (1 << 20)
        started = time.monotonic()
        with pytest.raises(WireTimeout) as caught:
            while True:
                send_frame(left, TAG_EVNT, payload, deadline=_deadline(0.4))
        assert time.monotonic() - started < 5.0
        assert caught.value.partial is True

    def test_expired_deadline_fails_fast_without_reading(self, pair):
        left, right = pair
        send_frame(left, TAG_CTRL, encode_control({"op": "hello"}))
        with pytest.raises(WireTimeout):
            recv_frame(right, time.monotonic() - 1.0)
        # The frame is still intact on the socket for a patient caller.
        tag, payload = recv_frame(right, _deadline(1.0))
        assert tag == TAG_CTRL
        assert decode_control(payload) == {"op": "hello"}


class TestUntrustedBlocks:
    def test_instance_refuses_a_pickled_backing_unloaded(self, trained_clap):
        # A packet-backed block carries its packets as a pickle; a socket
        # peer must not be able to make the instance load one.
        _PICKLE_LOADED.clear()
        packets = packet_stream(TrafficGenerator(seed=5).generate_connections(1))
        columns = PacketColumns.from_packets(packets)
        columns.packets = [_FlipOnLoad()]
        packed = columns.pack_block()
        instance = DetectorInstance(trained_clap)
        failures = []

        def serve():
            try:
                instance.serve()
            except WireError as error:
                failures.append(error)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        with socket.create_connection(instance.address, timeout=5.0) as sock:
            send_frame(sock, TAG_BLCK, *encode_block(1, packed), deadline=_deadline(5.0))
            server.join(timeout=30.0)
        assert not server.is_alive()
        assert not _PICKLE_LOADED.is_set()
        assert failures and "packet-backed" in str(failures[0])
