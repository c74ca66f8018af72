"""One partitioned-serving back-end: a detector instance behind a socket.

A :class:`DetectorInstance` wraps a full
:class:`~repro.serve.runtime.ParallelStreamingDetector` (so each instance may
itself shard across worker processes) and serves exactly one front-end
connection speaking the :mod:`repro.serve.wire` frame protocol.  The loop
mirrors the process-shard worker in :mod:`repro.serve.runtime` one message
kind at a time:

* ``BLCK`` frames are unpacked once into a FIFO window of cached column
  views (lockstep with the front-end's broadcast order, so a ``ROWS`` frame
  always finds its block cached); a packet-backed block is refused before
  its pickled backing could be loaded;
* ``ROWS`` frames carry each packet's routed stream clock, and the
  instance polls its flow table up to that clock before ingesting — an
  instance that owns a quiet subset of flows still expires idle/close-grace
  timers exactly when a single unpartitioned detector would have;
* interim events stream back as ``EVNT`` frames after every data frame, and
  the ``close`` control op answers with one ``DONE`` frame carrying the
  final deterministic drain, the instance's metrics snapshot and its
  flow-table occupancy (current and peak).

:func:`run_instance` is the process entry point used both by the
``repro-clap serve-instance`` CLI subcommand and by
:meth:`~repro.serve.partition.FlowPartitioner`'s local spawn path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import Clap
from repro.netstack.columns import ColumnPacketView, is_packet_backed, unpack_block
from repro.serve.metrics import DropPolicy
from repro.serve.runtime import _BLOCK_CACHE_DEPTH, ParallelStreamingDetector
from repro.serve.streaming import FlushPolicy
from repro.serve.wire import (
    TAG_BLCK,
    TAG_CTRL,
    TAG_DONE,
    TAG_EVNT,
    TAG_ROWS,
    WireError,
    WireTimeout,
    decode_block,
    decode_control,
    decode_rows,
    encode_control,
    encode_events,
    recv_frame,
    send_frame,
)

#: Bound on waiting for the front-end to connect; a spawned instance whose
#: partitioner died before connecting exits instead of listening forever.
_ACCEPT_TIMEOUT = 60.0

#: Budget for completing one frame once its first byte arrived, and for
#: writing EVNT/DONE frames back.  An idle front-end is fine (reads retry);
#: a torn frame or a wedged reader is not.
_IO_DEADLINE = 30.0


@dataclass(frozen=True)
class InstanceConfig:
    """Detector knobs one instance applies; picklable for local spawn.

    Mirrors the :class:`~repro.serve.runtime.ParallelStreamingDetector`
    constructor.  ``workers``/``worker_mode`` size the shard pool *inside*
    the instance, so a 2-instance × 4-process topology is two of these with
    ``workers=4, worker_mode="process"``.
    """

    workers: int = 1
    worker_mode: str = "thread"
    flush_policy: FlushPolicy = field(default_factory=FlushPolicy)
    threshold: float | None = None
    top_n: int = 1
    idle_timeout: float = 60.0
    close_grace: float = 1.0
    max_flows: int | None = None
    max_packets: int | None = None
    drop_policy: DropPolicy | None = None
    chunk_size: int | str = "adaptive"

    def __post_init__(self) -> None:
        # Fail in the front-end, not later inside a spawned instance.
        if self.workers > 1 and self.worker_mode != "process":
            raise ValueError(f"workers={self.workers} requires worker_mode='process'")


class DetectorInstance:
    """Serve one front-end connection over ``listen_sock`` with ``clap``."""

    def __init__(
        self,
        clap: Clap,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: InstanceConfig | None = None,
        model_dir: str | Path | None = None,
        block_cache: int = _BLOCK_CACHE_DEPTH,
    ) -> None:
        self.config = config or InstanceConfig()
        self._detector = ParallelStreamingDetector(
            clap,
            workers=self.config.workers,
            worker_mode=self.config.worker_mode,
            flush_policy=self.config.flush_policy,
            threshold=self.config.threshold,
            top_n=self.config.top_n,
            idle_timeout=self.config.idle_timeout,
            close_grace=self.config.close_grace,
            max_flows=self.config.max_flows,
            max_packets=self.config.max_packets,
            drop_policy=self.config.drop_policy,
            chunk_size=self.config.chunk_size,
            model_dir=model_dir if self.config.worker_mode == "process" else None,
        )
        self._blocks: "OrderedDict[int, list[ColumnPacketView]]" = OrderedDict()
        self._block_cache = int(block_cache)
        self._clock = float("-inf")
        self._peak_occupancy = 0
        self._conn: socket.socket | None = None
        self._closed = False
        self.teardown_errors: list[str] = []
        self._listener: socket.socket | None = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------ serve
    def serve(self) -> None:
        """Accept one front-end connection and serve it to completion.

        The accept itself runs under a deadline (``_ACCEPT_TIMEOUT``), so an
        instance whose front-end died before connecting exits instead of
        listening forever; :meth:`close` runs on every exit path.
        """
        try:
            listener = self._listener
            if listener is None:
                raise RuntimeError("serve() after close()")
            listener.settimeout(_ACCEPT_TIMEOUT)
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                raise WireTimeout(
                    f"no front-end connected within {_ACCEPT_TIMEOUT}s"
                ) from None
            finally:
                listener.close()
                self._listener = None
            self._conn = conn
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._serve_connection(conn)
        finally:
            self.close()

    def close(self) -> None:
        """Release the listener, connection and detector (idempotent).

        Safe on a half-open socket (front-end died mid-handshake) and safe
        to call twice; it never raises, so teardown in an ``except`` path
        cannot mask the original error — anything that goes wrong here is
        recorded on :attr:`teardown_errors` instead.
        """
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError as error:  # pragma: no cover - close rarely fails
                self.teardown_errors.append(f"listener close: {error}")
            self._listener = None
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError as error:  # pragma: no cover - close rarely fails
                self.teardown_errors.append(f"connection close: {error}")
            self._conn = None
        try:
            self._detector.close()
        except Exception as error:
            # A worker that died mid-stream surfaces here; the front-end is
            # already gone, so record rather than raise from teardown.
            self.teardown_errors.append(f"detector close: {error}")

    def _serve_connection(self, conn: socket.socket) -> None:
        while True:
            try:
                frame = recv_frame(conn, time.monotonic() + _IO_DEADLINE)
            except WireTimeout as error:
                if not error.partial:
                    # Idle front-end between frames: keep serving.
                    continue
                raise
            if frame is None:
                # Front-end vanished without a close op: drain for the logs'
                # sake, but there is nobody left to send DONE to.
                self._detector.close()
                return
            tag, payload = frame
            if tag == TAG_CTRL:
                if self._handle_control(conn, decode_control(payload)):
                    return
            elif tag == TAG_BLCK:
                self._handle_block(payload)
            elif tag == TAG_ROWS:
                self._handle_rows(payload)
                self._after_data(conn)
            else:
                raise WireError(f"unexpected frame tag {bytes(tag)!r} at instance")

    def _handle_control(self, conn: socket.socket, record: dict) -> bool:
        """Apply one control op; ``True`` when the stream is finished."""
        op = record["op"]
        if op == "hello":
            send_frame(
                conn,
                TAG_CTRL,
                encode_control(
                    {
                        "op": "ready",
                        "pid": os.getpid(),
                        "workers": self.config.workers,
                        "worker_mode": self.config.worker_mode,
                        "threshold": self._detector.threshold,
                    }
                ),
                deadline=time.monotonic() + _IO_DEADLINE,
            )
            return False
        if op == "wedge":
            # Fault injection: stop reading the socket without dying, so the
            # front-end's deadlines (not a crash) must detect the stall.
            # Exits once the parent process is gone (or on SIGTERM).
            parent = multiprocessing.parent_process()
            while parent is None or parent.is_alive():
                time.sleep(0.2)
            return True
        if op == "poll":
            self._advance(float(record["now"]))
            self._after_data(conn)
            return False
        if op == "close":
            # Interim events first, then the deterministic final drain in
            # DONE — close() re-queues the drain on the detector's own event
            # deque, which must not be double-shipped as EVNT.
            self._flush_events(conn)
            final = self._detector.close()
            self._track_occupancy()
            send_frame(
                conn,
                TAG_DONE,
                json.dumps(
                    {
                        "events": [event.to_dict() for event in final],
                        "metrics": self._detector.metrics_snapshot(),
                        "occupancy": self._detector.occupancy(),
                        "peak_occupancy": self._peak_occupancy,
                        "connections_seen": self._detector.connections_seen,
                        "alerts_emitted": self._detector.alerts_emitted,
                    }
                ).encode("utf-8"),
                deadline=time.monotonic() + _IO_DEADLINE,
            )
            return True
        raise WireError(f"unknown control op {op!r}")

    # ------------------------------------------------------------------- data
    def _handle_block(self, payload) -> None:
        block_id, packed = decode_block(payload)
        if is_packet_backed(packed):
            raise WireError(
                f"refusing packet-backed BLCK {block_id}: its backing is a pickle"
            )
        self._blocks[block_id] = unpack_block(packed).views()
        while len(self._blocks) > self._block_cache:
            self._blocks.popitem(last=False)

    def _handle_rows(self, payload) -> None:
        block_id, indices, clocks = decode_rows(payload)
        views = self._blocks[block_id]
        for index, clock in zip(indices.tolist(), clocks.tolist(), strict=True):
            view = views[index]
            self._advance(clock)
            self._detector.ingest(view)
            if view.timestamp > self._clock:
                self._clock = view.timestamp

    def _advance(self, clock: float) -> None:
        """Poll flow-table timers up to the routed global stream clock."""
        if clock > self._clock:
            self._detector.poll(clock)
            self._clock = clock

    def _track_occupancy(self) -> None:
        occupancy = self._detector.active_flows
        if occupancy > self._peak_occupancy:
            self._peak_occupancy = occupancy

    def _after_data(self, conn: socket.socket) -> None:
        self._track_occupancy()
        self._flush_events(conn)

    def _flush_events(self, conn: socket.socket) -> None:
        events = list(self._detector.events())
        if events:
            send_frame(
                conn,
                TAG_EVNT,
                encode_events(events),
                deadline=time.monotonic() + _IO_DEADLINE,
            )


def run_instance(
    model_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: InstanceConfig | None = None,
    backend: str | None = None,
    ready=None,
) -> int:
    """Load a model and serve one partitioner connection (process entry).

    ``ready``, when given, receives the bound ``(host, port)`` address once
    the listener exists — the local-spawn handshake of
    :class:`~repro.serve.partition.FlowPartitioner`.  Returns a process exit
    code so the CLI can call it directly.

    SIGTERM/SIGINT are translated into a graceful shutdown: the detector
    drains through :meth:`DetectorInstance.close` (via ``serve``'s finally)
    and the process exits ``128 + signum`` instead of printing a traceback.
    """

    def _graceful_exit(signum, _frame):
        raise SystemExit(128 + signum)

    if threading.current_thread() is threading.main_thread():
        # Embedded callers (tests driving run_instance from a worker thread)
        # own their signal handling; only a real process entry installs ours.
        signal.signal(signal.SIGTERM, _graceful_exit)
        signal.signal(signal.SIGINT, _graceful_exit)
    clap = Clap.load(model_dir, mmap_mode="r")
    if backend is not None:
        clap = clap.with_backend(backend)
    instance = DetectorInstance(
        clap,
        host=host,
        port=port,
        config=config,
        # Process workers mmap the artifact already on disk unless a backend
        # conversion made the in-memory pipeline diverge from it.
        model_dir=model_dir if backend is None else None,
    )
    if ready is not None:
        ready.put(instance.address)
    instance.serve()
    return 0
