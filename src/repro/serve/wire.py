"""Length-prefixed socket frames for partitioned serving.

The :class:`~repro.serve.partition.FlowPartitioner` front-end and its
:class:`~repro.serve.instance.DetectorInstance` back-ends speak a small framed
protocol over one TCP connection per instance.  Every frame is::

    <4-byte tag> <u32 little-endian payload length> <payload>

Control and events reuse the existing NDJSON text formats (one JSON
document, or one NDJSON line per record), so the payloads stay debuggable
with ``tcpdump``/``xxd`` and interoperable with the pipe-based CLI.  Packet
data rides two binary frames built on
:meth:`~repro.netstack.columns.PacketColumns.pack_block`:

===========  ==============================================================
``CTRL``     One JSON object: ``{"op": "hello" | "ready" | "poll" | "close"}``
             plus op-specific fields.
``BLCK``     ``u64 block id`` + a packed column block with no
             materialisation backing (broadcast once per block; instances
             cache a FIFO window of unpacked blocks and refuse a
             packet-backed block, whose backing is a pickle).
``ROWS``     ``u64 block id, u32 count`` + ``int64[count]`` row indices +
             ``float64[count]`` per-row ingest clocks — the per-instance row
             slice of a broadcast block.
``EVNT``     NDJSON, one :meth:`DetectionEvent.to_dict` document per line —
             interim events flowing back to the front-end mid-stream.
``DONE``     One JSON object closing the stream: the final drain's events,
             the instance's metrics snapshot and flow-table occupancy.
===========  ==============================================================

Framing is symmetric: either side sends with :func:`send_frame` and receives
with :func:`recv_frame`.  A clean EOF between frames returns ``None``; a
truncated frame raises :class:`WireError`.

Both functions accept ``deadline`` — a **monotonic** absolute limit
(``time.monotonic() + budget``).  Past the deadline they raise
:class:`WireTimeout`, whose ``partial`` flag distinguishes an idle peer
(nothing read yet — the receiver may keep serving) from a slow-loris torn
frame (bytes arrived, then stalled mid-frame — a protocol fault).
"""

from __future__ import annotations

import json
import socket
import struct
import time

import numpy as np

from repro.serve.events import DetectionEvent, event_from_dict

FRAME_HEADER = struct.Struct("<4sI")

TAG_CTRL = b"CTRL"
TAG_BLCK = b"BLCK"
TAG_ROWS = b"ROWS"
TAG_EVNT = b"EVNT"
TAG_DONE = b"DONE"

_TAGS = frozenset((TAG_CTRL, TAG_BLCK, TAG_ROWS, TAG_EVNT, TAG_DONE))

#: Hard per-frame ceiling: a corrupted length field must not allocate the
#: machine away.  Generously above any packed capture block the runtime ships.
MAX_FRAME_BYTES = 1 << 31

_BLOCK_PREFIX = struct.Struct("<Q")
_ROWS_PREFIX = struct.Struct("<QI")


class WireError(ConnectionError):
    """A malformed or truncated frame on a partition socket."""


class WireTimeout(WireError):
    """A frame read/write exceeded its deadline.

    ``partial`` is True when bytes had already moved for the current frame
    (a torn frame / slow-loris peer) and False when the deadline expired
    between frames (an idle peer — often recoverable by the caller).
    """

    def __init__(self, message: str, *, partial: bool = False) -> None:
        super().__init__(message)
        self.partial = partial


def _arm(sock: socket.socket, limit: float | None, context: str, partial: bool) -> None:
    """Set the socket timeout to the time remaining before ``limit``."""
    if limit is None:
        sock.settimeout(None)
        return
    remaining = limit - time.monotonic()
    if remaining <= 0:
        raise WireTimeout(f"{context}: deadline exceeded", partial=partial)
    sock.settimeout(remaining)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def send_frame(
    sock: socket.socket,
    tag: bytes,
    *chunks: bytes | memoryview,
    deadline: float | None = None,
) -> None:
    """Send one frame; ``chunks`` are concatenated without copying.

    ``deadline`` is an absolute ``time.monotonic()`` limit for the whole
    frame; past it :class:`WireTimeout` is raised with ``partial=True`` if
    any bytes may already be on the wire.
    """
    total = sum(len(chunk) for chunk in chunks)
    if total > MAX_FRAME_BYTES:
        raise WireError(f"frame of {total} bytes exceeds MAX_FRAME_BYTES")
    limit = None if deadline is None else deadline
    started = False
    try:
        _arm(sock, limit, "send_frame header", partial=False)
        sock.sendall(FRAME_HEADER.pack(tag, total))
        started = True
        for chunk in chunks:
            _arm(sock, limit, "send_frame payload", partial=True)
            sock.sendall(chunk)
    except TimeoutError as error:
        raise WireTimeout(
            f"send of {bytes(tag)!r} frame timed out", partial=started
        ) from error
    finally:
        if limit is not None:
            sock.settimeout(None)


def _recv_exact(
    sock: socket.socket, count: int, limit: float | None = None, *, started: bool = False
) -> memoryview | None:
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary.

    ``limit`` is an absolute monotonic deadline; ``started`` seeds the
    torn-frame flag (True once any earlier bytes of this frame arrived).
    """
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        partial = started or received > 0
        _arm(sock, limit, f"recv ({received}/{count} bytes)", partial)
        try:
            read = sock.recv_into(view[received:])
        except TimeoutError as error:
            raise WireTimeout(
                f"recv timed out ({received}/{count} bytes)", partial=partial
            ) from error
        if read == 0:
            if received == 0:
                return None
            raise WireError(f"connection closed mid-frame ({received}/{count} bytes)")
        received += read
    return view


def recv_frame(
    sock: socket.socket, deadline: float | None = None
) -> tuple[bytes, memoryview] | None:
    """Receive one ``(tag, payload)`` frame; ``None`` on clean EOF.

    ``deadline`` is an absolute ``time.monotonic()`` limit for the whole
    frame.  A deadline that expires with zero bytes read raises
    :class:`WireTimeout` with ``partial=False`` (idle peer); once any byte
    of the frame has arrived the timeout is ``partial=True`` (torn frame).
    """
    try:
        header = _recv_exact(sock, FRAME_HEADER.size, deadline)
        if header is None:
            return None
        tag, length = FRAME_HEADER.unpack(header)
        if tag not in _TAGS:
            raise WireError(f"unknown frame tag {bytes(tag)!r}")
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds MAX_FRAME_BYTES")
        if length == 0:
            return tag, memoryview(b"")
        payload = _recv_exact(sock, length, deadline, started=True)
        if payload is None:
            raise WireError("connection closed before frame payload")
        return tag, payload
    finally:
        if deadline is not None:
            sock.settimeout(None)


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


def encode_control(record: dict[str, object]) -> bytes:
    return json.dumps(record).encode("utf-8")


def decode_control(payload: memoryview | bytes) -> dict[str, object]:
    record = json.loads(bytes(payload).decode("utf-8"))
    if not isinstance(record, dict) or "op" not in record:
        raise WireError(f"malformed control frame: {record!r}")
    return record


def encode_block(block_id: int, payload: bytes) -> tuple[bytes, bytes]:
    """``BLCK`` chunks: the id prefix and the packed block, uncopied."""
    return _BLOCK_PREFIX.pack(block_id), payload


def decode_block(payload: memoryview) -> tuple[int, memoryview]:
    if len(payload) < _BLOCK_PREFIX.size:
        raise WireError("truncated BLCK frame")
    (block_id,) = _BLOCK_PREFIX.unpack_from(payload, 0)
    return block_id, payload[_BLOCK_PREFIX.size :]


def encode_rows(
    block_id: int, indices: bytes, clocks: bytes
) -> tuple[bytes, bytes, bytes]:
    """``ROWS`` chunks for ``int64`` index / ``float64`` clock arrays."""
    count = len(indices) // 8
    if len(clocks) != count * 8:
        raise WireError("ROWS index/clock arrays disagree on row count")
    return _ROWS_PREFIX.pack(block_id, count), indices, clocks


def decode_rows(payload: memoryview) -> tuple[int, np.ndarray, np.ndarray]:
    if len(payload) < _ROWS_PREFIX.size:
        raise WireError("truncated ROWS frame")
    block_id, count = _ROWS_PREFIX.unpack_from(payload, 0)
    expected = _ROWS_PREFIX.size + count * 16
    if len(payload) != expected:
        raise WireError(f"ROWS frame of {len(payload)} bytes, expected {expected}")
    offset = _ROWS_PREFIX.size
    indices = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
    clocks = np.frombuffer(
        payload, dtype=np.float64, count=count, offset=offset + count * 8
    )
    return block_id, indices, clocks


def iter_ndjson(payload: memoryview | bytes):
    """Yield the parsed JSON documents of an NDJSON payload."""
    for line in bytes(payload).decode("utf-8").splitlines():
        line = line.strip()
        if line:
            yield json.loads(line)


def encode_events(events: list[DetectionEvent]) -> bytes:
    """``EVNT`` payload: one ``to_dict`` NDJSON line per event."""
    return ("\n".join(json.dumps(event.to_dict()) for event in events)).encode("utf-8")


def decode_events(payload: memoryview | bytes) -> list[DetectionEvent]:
    return [event_from_dict(record) for record in iter_ndjson(payload)]
