"""Flow-hash partitioned fan-out: one front-end, N detector instances.

:class:`FlowPartitioner` is the scale-out layer above
:class:`~repro.serve.runtime.ParallelStreamingDetector`: where the runtime
fans packets to shard workers *inside* one host, the partitioner hashes each
:class:`~repro.netstack.flow.FlowKey` once and fans packet blocks to N
detector **instances** over sockets — local processes spawned on demand, or
remote hosts reached by ``host:port`` endpoint.  The wire protocol
(:mod:`repro.serve.wire`) reuses the NDJSON pipe formats for control and
events, and a length-prefixed binary frame carrying
:meth:`~repro.netstack.columns.PacketColumns.pack_block` payloads for
packet data, so a capture block crosses the socket packed exactly once per
instance and is never re-parsed.  Object packets are packed into blocks of
their own (:meth:`~repro.netstack.columns.PacketColumns.from_packets`) and
ride the same frames.

The transport mirrors the process-mode runtime message for message: capture
blocks are broadcast to every instance on first sight and re-broadcast when
they leave the FIFO window, per-instance row slices ride ``ROWS`` frames
with their routed stream clocks (so every instance's flow-table timers fire
exactly as one unpartitioned detector's would), and buffered rows are
chunked under the same :class:`~repro.serve.metrics.AdaptiveChunker` the
runtime uses — a socket whose send buffer is full is the backpressure
signal.  Interim events stream back as ``EVNT`` frames and are drained
before every send, so the front-end never deadlocks against an instance
that is itself blocked sending events.  :meth:`close` merges every
instance's final drain into the deterministic ``(first_seen, key)`` order —
on a time-ordered capture the merged event stream matches a
single-instance detector's scores within 1e-9 at any instance count
(``tests/serve/test_partition.py``, ``tools/partition_smoke.py``).

Fault tolerance
---------------
Every socket operation runs under an ``io_deadline`` and every instance
failure (dead peer, torn frame, wire timeout) is routed through one policy,
``on_instance_failure``:

``fail``
    Record the loss, tear the whole fleet down (no leaked processes), and
    raise :class:`~repro.serve.supervise.InstanceFailure` (a
    ``ConnectionError``, so the CLI exits 2).
``respawn``
    Locally spawned instances are restarted (bounded by ``max_respawns``
    per instance) and remote endpoints reconnected under a deterministic
    :class:`~repro.serve.supervise.Backoff`; the live block window is
    re-shipped to the new incarnation and unsent buffered rows are
    requeued.  Packets in flight inside the dead incarnation are lost and
    attributed; with none in flight the stream is score-identical to an
    unfaulted run.  Budget exhaustion escalates to ``degrade``.
``degrade``
    The lost instance's hash slots are rehashed to the survivors, future
    flows on those slots carry ``DetectionResult.degraded=True``, typed
    :class:`~repro.serve.events.InstanceLost` /
    :class:`~repro.serve.events.DegradedMode` service events are emitted
    (drain with :meth:`service_events`), and :meth:`close` completes and
    returns the surviving events instead of raising.

The accounting identity ``packets_routed = packets_scored +
packets_lost_inflight`` holds exactly at :meth:`close` when no
:class:`~repro.serve.metrics.DropPolicy` is configured: any routed packet
the instances never scored (including silently dropped frames injected by a
:class:`~repro.serve.faults.FaultPlan`) is attributed to a loss record in
:meth:`degradation_report`.  Failures are deterministic to test: a
``FaultPlan`` kills/wedges instances at exact packet counts and
drops/corrupts/delays exact frames.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import select
import signal
import socket
import time
from queue import Empty as _ReadyQueueEmpty
from collections import OrderedDict, deque
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.netstack.columns import ColumnPacketView, PacketColumns
from repro.netstack.flow import flow_key_of, key_slot
from repro.netstack.packet import Packet
from repro.serve.events import (
    Alert,
    DegradedMode,
    DetectionEvent,
    InstanceLost,
    event_from_dict,
)
from repro.serve.faults import FaultPlan
from repro.serve.instance import InstanceConfig, run_instance
from repro.serve.metrics import AdaptiveChunker, StreamingMetrics
from repro.serve.runtime import _BLOCK_CACHE_DEPTH, _event_order
from repro.serve.sources import PacketSource, Tick
from repro.serve.streaming import AlertCallback, EventCallback
from repro.serve.supervise import (
    Backoff,
    DegradationReport,
    FailurePolicy,
    InstanceFailure,
    InstanceLossRecord,
)
from repro.serve.wire import (
    TAG_BLCK,
    TAG_CTRL,
    TAG_DONE,
    TAG_EVNT,
    TAG_ROWS,
    WireError,
    decode_control,
    decode_events,
    encode_block,
    encode_control,
    encode_rows,
    recv_frame,
    send_frame,
)

_HANDSHAKE_TIMEOUT = 60.0


def _local_instance_main(model_dir: str, config: InstanceConfig, ready) -> None:
    """Entry point of one locally spawned instance process."""
    run_instance(model_dir, host="127.0.0.1", port=0, config=config, ready=ready)


def _parse_endpoint(endpoint: str | tuple[str, int]) -> tuple[str, int]:
    if isinstance(endpoint, tuple):
        return endpoint[0], int(endpoint[1])
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be 'host:port', got {endpoint!r}")
    return host, int(port)


class _TaggedReady:
    """Ready-queue shim tagging each address report with its instance index.

    The shared ready queue delivers addresses in *completion* order; without
    the tag the front-end could pair instance 0's socket with instance 1's
    process, which breaks targeted fault injection and respawn.
    """

    def __init__(self, queue, index: int) -> None:
        self.queue = queue
        self.index = index

    def put(self, item) -> None:
        # clap-lint: allow[RL007] reason=unbounded ready queue; put never blocks on capacity
        self.queue.put((self.index, item))


class _InstanceDown(Exception):
    """Internal signal: an instance's socket just failed.

    Carries the failed instance, the underlying error and any packets whose
    ship was interrupted (``requeue``), so the failure handler can re-home
    them under the active policy.
    """

    def __init__(self, instance: "_Instance", error: BaseException, requeue=()) -> None:
        super().__init__(str(error))
        self.instance = instance
        self.error = error
        self.requeue = list(requeue)


class _Instance:
    """Front-end handle of one detector instance (socket + row buffer)."""

    def __init__(
        self,
        index: int,
        sock: socket.socket | None,
        process=None,
        endpoint: tuple[str, int] | None = None,
    ) -> None:
        self.index = index
        self.sock = sock
        self.process = process
        self.endpoint = endpoint
        self.buffer: list[tuple[Packet, float]] = []
        self.report: dict[str, object] | None = None
        self.ready: dict[str, object] | None = None
        self.lost = False
        self.respawns = 0
        # Per-incarnation accounting: packets shipped to this incarnation
        # and packets covered by the events it reported back.  The delta at
        # loss time is the incarnation's in-flight loss.
        self.routed = 0
        self.scored = 0


class FlowPartitioner:
    """Hash flows once, fan packet blocks out to N detector instances.

    Exactly one of ``instances`` (spawn that many local instance processes
    serving ``model_dir``) or ``endpoints`` (connect to already-running
    instances, e.g. started with ``repro-clap serve-instance`` on other
    hosts) must be provided.  The front-end itself never loads the model —
    it only hashes, chunks and forwards.

    The ingest surface mirrors the runtime: :meth:`ingest` /
    :meth:`ingest_many` / :meth:`poll` / :meth:`run`, interim events through
    :meth:`events` / ``on_event`` / ``on_alert``, and a :meth:`close` that
    returns the merged final drain in deterministic ``(first_seen, key)``
    order.  ``config`` sizes each instance's internal worker pool; a global
    ``config.max_flows`` budget is split evenly across instances just as the
    sharded runtime splits it across workers.

    ``on_instance_failure`` selects the failure policy (see the module
    docstring), ``io_deadline`` bounds every socket read/write (0 disables),
    ``max_respawns`` budgets restarts per instance, and ``fault_plan``
    injects deterministic faults for testing.
    """

    def __init__(
        self,
        model_dir: str | Path | None = None,
        *,
        instances: int | None = None,
        endpoints: Sequence[str | tuple[str, int]] | None = None,
        config: InstanceConfig | None = None,
        backend: str | None = None,
        chunk_size: int | str | AdaptiveChunker = "adaptive",
        on_event: EventCallback | None = None,
        on_alert: AlertCallback | None = None,
        metrics: StreamingMetrics | None = None,
        start_method: str | None = None,
        on_instance_failure: str = "fail",
        max_respawns: int = 2,
        io_deadline: float | None = 30.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if (instances is None) == (endpoints is None):
            raise ValueError("provide exactly one of instances= or endpoints=")
        if instances is not None and instances < 1:
            raise ValueError(f"instances must be at least 1, got {instances}")
        if instances is not None and model_dir is None:
            raise ValueError("local instances need a model_dir to serve")
        if on_instance_failure not in FailurePolicy:
            raise ValueError(
                f"on_instance_failure must be one of {FailurePolicy}, "
                f"got {on_instance_failure!r}"
            )
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be non-negative, got {max_respawns}")
        if isinstance(chunk_size, AdaptiveChunker):
            self._chunker: AdaptiveChunker | None = chunk_size
            self._fixed_chunk = 0
        elif chunk_size == "adaptive":
            self._chunker = AdaptiveChunker()
            self._fixed_chunk = 0
        elif isinstance(chunk_size, str):
            raise ValueError(
                f"chunk_size must be an integer or 'adaptive', got {chunk_size!r}"
            )
        else:
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
            self._chunker = None
            self._fixed_chunk = int(chunk_size)
        self.config = config or InstanceConfig()
        self.on_event = on_event
        self.on_alert = on_alert
        self.on_instance_failure = on_instance_failure
        self.max_respawns = int(max_respawns)
        self.io_deadline = None if not io_deadline else float(io_deadline)
        self._fault_plan = fault_plan
        self._backoff = Backoff()
        self._closed = False
        self._failed = False
        self._clock = float("-inf")
        self._events: deque[DetectionEvent] = deque()
        self._service_events: deque = deque()
        self._connections_seen = 0
        self._alerts_emitted = 0
        self._live_blocks: "OrderedDict[int, PacketColumns]" = OrderedDict()
        self._current_columns: PacketColumns | None = None
        # Degradation state: loss records, rehashed slots, cumulative
        # identity counters (never reset across respawn incarnations).
        self._losses: list[InstanceLossRecord] = []
        self._degraded_slots: set[int] = set()
        self._teardown_errors: list[str] = []
        self._respawns = 0
        self._degraded_flows = 0
        self._routed_total = 0
        self._scored_total = 0
        self.instances = instances if instances is not None else len(endpoints)
        self._route = list(range(self.instances))
        self.metrics = metrics or StreamingMetrics(shard_count=self.instances)
        if self._chunker is not None:
            self.metrics.attach_chunker(self._chunker)
        # Local-spawn state kept for respawn (None in endpoint mode).
        self._model_dir: str | None = None
        self._instance_config: InstanceConfig | None = None
        self._context = None
        self._ready_queue = None
        self._instances: list[_Instance] = []
        try:
            if endpoints is not None:
                self._instances = self._connect_remote(endpoints)
            else:
                self._instances = self._spawn_local(
                    str(model_dir), int(instances), backend, start_method
                )
            for instance in self._instances:
                if instance.lost:
                    self._apply_degrade(instance)
            self._handshake()
        except BaseException:
            # Satellite fix: never leak a partial fleet — instances that did
            # spawn/connect before the failing one are torn down here.
            self._teardown()
            raise

    # ----------------------------------------------------------------- set-up
    def _connect(
        self, index: int, address: tuple[str, int], *, retry: bool
    ) -> socket.socket:
        """Connect to one instance, honouring injected refusals and backoff."""

        def attempt(_try_number: int) -> socket.socket:
            if self._fault_plan is not None and self._fault_plan.connect_attempt(index):
                raise ConnectionRefusedError(
                    f"injected connection refusal for instance {index}"
                )
            sock = socket.create_connection(
                tuple(address), timeout=self.io_deadline or _HANDSHAKE_TIMEOUT
            )
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock

        if retry:
            return self._backoff.run(attempt, retry_on=(OSError,))
        return attempt(0)

    def _spawn_local(
        self,
        model_dir: str,
        instances: int,
        backend: str | None,
        start_method: str | None,
    ) -> list[_Instance]:
        config = self.config
        if config.max_flows is not None:
            # Split the global flow budget evenly, exactly as the sharded
            # runtime splits max_flows across its workers.
            config = dataclasses.replace(
                config, max_flows=-(-config.max_flows // instances)
            )
        method = start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        context = multiprocessing.get_context(method)
        self._model_dir = model_dir
        self._instance_config = config
        self._context = context
        self._ready_queue = context.Queue()
        processes = []
        handles: list[_Instance] = []
        try:
            for index in range(instances):
                process = context.Process(
                    target=_local_instance_main,
                    args=(model_dir, config, _TaggedReady(self._ready_queue, index)),
                    name=f"clap-instance-{index}",
                    daemon=True,
                )
                process.start()
                processes.append(process)
            addresses: dict[int, tuple] = {}
            for _ in processes:
                index, address = self._ready_queue.get(timeout=_HANDSHAKE_TIMEOUT)
                addresses[index] = address
            for index, process in enumerate(processes):
                try:
                    sock = self._connect(
                        index,
                        addresses[index],
                        retry=self.on_instance_failure == "respawn",
                    )
                except OSError as error:
                    if self.on_instance_failure != "degrade":
                        raise
                    handle = _Instance(index, None, process)
                    handle.lost = True
                    handles.append(handle)
                    self._record_loss(handle, f"startup connect failed: {error}", "degrade")
                    continue
                handles.append(_Instance(index, sock, process))
        except BaseException as error:
            for handle in handles:
                if handle.sock is not None:
                    handle.sock.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                self._reap(process, timeout=5.0)
            if isinstance(error, _ReadyQueueEmpty):
                raise RuntimeError(
                    "local detector instance failed to start (no address reported)"
                ) from None
            raise
        return handles

    def _connect_remote(
        self, endpoints: Sequence[str | tuple[str, int]]
    ) -> list[_Instance]:
        handles: list[_Instance] = []
        try:
            for index, endpoint in enumerate(endpoints):
                address = _parse_endpoint(endpoint)
                try:
                    sock = self._connect(
                        index, address, retry=self.on_instance_failure == "respawn"
                    )
                except OSError as error:
                    if self.on_instance_failure != "degrade":
                        raise
                    handle = _Instance(index, None, endpoint=address)
                    handle.lost = True
                    handles.append(handle)
                    self._record_loss(handle, f"startup connect failed: {error}", "degrade")
                    continue
                handles.append(_Instance(index, sock, endpoint=address))
        except BaseException:
            for handle in handles:
                if handle.sock is not None:
                    handle.sock.close()
            raise
        return handles

    def _handshake(self) -> None:
        deadline = time.monotonic() + _HANDSHAKE_TIMEOUT
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                send_frame(
                    instance.sock,
                    TAG_CTRL,
                    encode_control({"op": "hello"}),
                    deadline=deadline,
                )
            except (OSError, WireError) as error:
                self._on_down(instance, error)
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                frame = recv_frame(instance.sock, deadline)
                if frame is None or frame[0] != TAG_CTRL:
                    raise WireError(
                        f"instance {instance.index} failed the hello handshake"
                    )
                instance.ready = decode_control(frame[1])
            except (OSError, WireError) as error:
                self._on_down(instance, error)

    # ------------------------------------------------------- failure handling
    def _record_loss(self, instance: _Instance, reason: str, policy: str) -> None:
        record = InstanceLossRecord(
            index=instance.index,
            kind="instance",
            reason=reason,
            policy=policy,
            packets_routed=instance.routed,
            packets_scored=instance.scored,
        )
        self._losses.append(record)
        self.metrics.record_instance_lost(record.packets_lost_inflight)
        self._service_events.append(
            InstanceLost(
                index=instance.index,
                kind="instance",
                reason=reason,
                policy=policy,
                packets_lost_inflight=record.packets_lost_inflight,
            )
        )

    def _reap(self, process, timeout: float = 5.0) -> None:
        """Join one child process, escalating terminate -> kill."""
        if process is None:
            return
        process.join(timeout=timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=timeout)
        if process.is_alive():  # pragma: no cover - needs an unkillable child
            process.kill()
            process.join(timeout=timeout)

    def _close_instance(self, instance: _Instance) -> None:
        """Close one instance's socket and reap its process (idempotent)."""
        if instance.sock is not None:
            try:
                instance.sock.close()
            except OSError as error:  # pragma: no cover - close rarely fails
                self._teardown_errors.append(
                    f"instance {instance.index} socket close: {error}"
                )
            instance.sock = None
        if instance.process is not None:
            if instance.process.is_alive():
                instance.process.terminate()
            self._reap(instance.process)
            instance.process = None

    def _rehome(self, pending: list[tuple[Packet, float]]) -> None:
        """Requeue unsent packets onto their (possibly rerouted) owners."""
        for packet, clock in pending:
            slot = key_slot(flow_key_of(packet), self.instances)
            target = self._instances[self._route[slot]]
            if not target.lost:
                target.buffer.append((packet, clock))

    def _apply_degrade(self, instance: _Instance) -> None:
        """Rehash ``instance``'s slots to the survivors; emit DegradedMode."""
        instance.lost = True
        survivors = [i.index for i in self._instances if not i.lost]
        if not survivors:
            self._failed = True
            raise InstanceFailure(
                "every detector instance has been lost", index=instance.index
            )
        for slot in range(self.instances):
            if self._route[slot] == instance.index:
                self._route[slot] = survivors[slot % len(survivors)]
                self._degraded_slots.add(slot)
        self._service_events.append(
            DegradedMode(
                survivors=tuple(survivors),
                lost=tuple(i.index for i in self._instances if i.lost),
            )
        )

    def _on_down(
        self,
        instance: _Instance,
        error: BaseException,
        requeue=(),
        closing: bool = False,
    ) -> None:
        """One instance's socket failed: apply the failure policy."""
        pending = list(requeue)
        pending.extend(instance.buffer)
        instance.buffer = []
        if instance.lost:
            # Already handled (e.g. block broadcast and row ship both hit the
            # same dead peer); just re-home whatever was still uncovered.
            self._rehome(pending)
            return
        reason = f"{type(error).__name__}: {error}" if str(error) else type(error).__name__
        self._close_instance(instance)
        policy = self.on_instance_failure
        if policy == "respawn" and closing:
            # The stream is over; a fresh incarnation has no state to drain.
            policy = "degrade"
        if policy == "respawn":
            if instance.respawns >= self.max_respawns:
                reason = f"{reason}; respawn budget ({self.max_respawns}) exhausted"
                policy = "degrade"
            else:
                self._record_loss(instance, reason, "respawn")
                try:
                    self._respawn(instance, pending)
                    return
                except (OSError, WireError, RuntimeError) as respawn_error:
                    reason = f"{reason}; respawn failed: {respawn_error}"
                    policy = "degrade"
        if policy == "fail":
            self._record_loss(instance, reason, "fail")
            instance.lost = True
            self._failed = True
            if self._closed:
                self._teardown()
            raise InstanceFailure(
                f"instance {instance.index} lost ({reason})", index=instance.index
            ) from error
        # degrade
        self._record_loss(instance, reason, "degrade")
        if closing:
            instance.lost = True
            return
        self._apply_degrade(instance)
        self._rehome(pending)

    def _respawn(self, instance: _Instance, pending: list[tuple[Packet, float]]) -> None:
        """Start a fresh incarnation of ``instance`` and re-register state."""
        if instance.endpoint is not None:
            sock = self._connect(instance.index, instance.endpoint, retry=True)
        else:
            if self._context is None or self._model_dir is None:
                raise RuntimeError("instance is not locally respawnable")
            process = self._context.Process(
                target=_local_instance_main,
                args=(
                    self._model_dir,
                    self._instance_config,
                    _TaggedReady(self._ready_queue, instance.index),
                ),
                name=f"clap-instance-{instance.index}r{instance.respawns + 1}",
                daemon=True,
            )
            process.start()
            try:
                _, address = self._ready_queue.get(timeout=_HANDSHAKE_TIMEOUT)
                sock = self._connect(instance.index, address, retry=True)
            except BaseException:
                self._reap(process, timeout=5.0)
                raise
            instance.process = process
        # Fresh incarnation: reset the per-incarnation accounting (the old
        # incarnation's counters were captured in its loss record).
        instance.sock = sock
        instance.routed = 0
        instance.scored = 0
        instance.report = None
        instance.respawns += 1
        deadline = time.monotonic() + _HANDSHAKE_TIMEOUT
        send_frame(sock, TAG_CTRL, encode_control({"op": "hello"}), deadline=deadline)
        frame = recv_frame(sock, deadline)
        if frame is None or frame[0] != TAG_CTRL:
            raise WireError(
                f"respawned instance {instance.index} failed the hello handshake"
            )
        instance.ready = decode_control(frame[1])
        # State re-registration: the live block window must reach the new
        # incarnation before any requeued ROWS slice references it.
        for block_id, columns in self._live_blocks.items():
            payload = columns.pack_block(backing="none")
            send_frame(
                sock,
                TAG_BLCK,
                *encode_block(block_id, payload),
                deadline=time.monotonic() + (self.io_deadline or _HANDSHAKE_TIMEOUT),
            )
        instance.buffer = pending
        self._respawns += 1
        self.metrics.record_respawn()

    def _apply_faults(self, count: int) -> None:
        """Fire any process-level faults due at the current packet count."""
        if self._fault_plan is None:
            return
        for kind, index in self._fault_plan.packet_routed(count):
            instance = self._instances[index]
            if kind == "kill-instance":
                process = instance.process
                if process is not None and process.pid is not None:
                    os.kill(process.pid, signal.SIGKILL)
                    # Wait for the exit, so the next send sees the dead peer
                    # instead of racing the kernel's teardown of its socket.
                    self._reap(process)
            elif kind == "wedge-instance" and not instance.lost:
                try:
                    send_frame(
                        instance.sock,
                        TAG_CTRL,
                        encode_control({"op": "wedge"}),
                        deadline=time.monotonic()
                        + (self.io_deadline or _HANDSHAKE_TIMEOUT),
                    )
                except (OSError, WireError) as error:
                    self._on_down(instance, error)
            # kill-worker / wedge-worker target the runtime's shard pool and
            # are applied by ParallelStreamingDetector, not the partitioner.

    # -------------------------------------------------------------- ingestion
    def ingest(self, packet: Packet) -> None:
        """Route one packet to the instance owning its flow (may block)."""
        if self._closed:
            raise RuntimeError("ingest() after close()")
        if (
            type(packet) is ColumnPacketView
            and packet.columns is not self._current_columns
        ):
            # New capture block: flush buffered rows first so queued slices
            # always precede the broadcast that may evict their block from
            # the instances' FIFO caches.
            for instance in self._instances:
                self._guarded_submit(instance)
            self._ship_block(packet.columns)
            self._current_columns = packet.columns
        instance = self._instances[self._route[key_slot(flow_key_of(packet), self.instances)]]
        instance.buffer.append((packet, self._clock))
        if packet.timestamp > self._clock:
            self._clock = packet.timestamp
        self._apply_faults(1)
        if len(instance.buffer) >= self._chunk_target():
            self._guarded_submit(instance)

    def ingest_many(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.ingest(packet)

    def poll(self, now: float | None = None) -> None:
        """Advance stream time on every instance without a packet."""
        if self._closed:
            return
        now = self._clock if now is None else float(now)
        if now == float("-inf"):
            return
        if now > self._clock:
            self._clock = now
        payload = encode_control({"op": "poll", "now": now})
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                self._submit(instance)
                self._send(instance, TAG_CTRL, payload)
            except _InstanceDown as down:
                self._on_down(instance, down.error, requeue=down.requeue)

    def run(self, source: PacketSource) -> list[DetectionEvent]:
        """Consume a packet source to exhaustion, then :meth:`close`."""
        try:
            for item in source:
                if isinstance(item, Tick):
                    self.poll(item.now)
                else:
                    self.ingest(item)
        except BaseException:
            try:
                self.close()
            except Exception as teardown_error:
                # Teardown must not mask the original stream error; keep it
                # for the degradation report instead.
                self._teardown_errors.append(
                    f"close during error teardown: {teardown_error!r}"
                )
            raise
        return self.close()

    # -------------------------------------------------------------- transport
    def _chunk_target(self) -> int:
        return self._fixed_chunk if self._chunker is None else self._chunker.size

    def _send(self, instance: _Instance, tag: bytes, *chunks) -> None:
        """One frame to one instance: pump events first, note backpressure."""
        self._pump()
        if instance.lost or instance.sock is None:
            raise _InstanceDown(
                instance, ConnectionError(f"instance {instance.index} is lost")
            )
        if self._fault_plan is not None:
            action = self._fault_plan.frame_fault(tag.decode("ascii"))
            if action == "drop":
                return
            if action == "corrupt":
                chunks = (self._fault_plan.corrupt(b"".join(bytes(c) for c in chunks)),)
            elif isinstance(action, tuple) and action[0] == "delay":
                time.sleep(action[1])
        if self._chunker is not None:
            _, writable, _ = select.select((), (instance.sock,), (), 0)
            if not writable:
                # The socket's send buffer is full — the instance is behind.
                # sendall below then blocks, which is the backpressure
                # contract; record it so the chunker grows the chunk.
                self._chunker.record_backpressure()
        deadline = (
            time.monotonic() + self.io_deadline if self.io_deadline else None
        )
        try:
            send_frame(instance.sock, tag, *chunks, deadline=deadline)
        except (OSError, WireError) as error:
            raise _InstanceDown(instance, error) from None
        if self._chunker is not None:
            self._chunker.record_submit()

    def _guarded_submit(self, instance: _Instance) -> None:
        try:
            self._submit(instance)
        except _InstanceDown as down:
            self._on_down(down.instance, down.error, requeue=down.requeue)

    def _submit(self, instance: _Instance) -> None:
        """Ship one instance's buffered rows as ROWS runs (in order).

        Object packets (not rows of a capture block) are packed into a block
        of their own, so ``BLCK``/``ROWS`` is the only data path and every
        column reaches the instance exactly as the front-end extracted it.
        """
        chunk = instance.buffer
        if not chunk or instance.lost:
            return
        instance.buffer = []
        # Group the chunk into runs first, so a mid-chunk socket failure
        # knows exactly which packets were covered by already-sent frames
        # and which must be requeued under the failure policy.
        runs: list[tuple[PacketColumns, list[int], list[tuple[Packet, float]]]] = []
        object_run: list[tuple[Packet, float]] = []

        def close_object_run() -> None:
            if object_run:
                columns = PacketColumns.from_packets([p for p, _ in object_run])
                runs.append((columns, list(range(len(object_run))), list(object_run)))
                object_run.clear()

        for packet, clock in chunk:
            if type(packet) is ColumnPacketView:
                close_object_run()
                if not runs or runs[-1][0] is not packet.columns:
                    runs.append((packet.columns, [], []))
                runs[-1][1].append(packet.index)
                runs[-1][2].append((packet, clock))
            else:
                object_run.append((packet, clock))
        close_object_run()

        sent = 0
        covered_count = 0
        try:
            for columns, indices, covered in runs:
                # No-op unless the block left the FIFO window, was buffered
                # before first sight, or is a fresh object-run block.
                self._ship_block(columns)
                self._send(
                    instance,
                    TAG_ROWS,
                    *encode_rows(
                        id(columns),
                        np.asarray(indices, dtype=np.int64).tobytes(),
                        np.asarray([c for _, c in covered], dtype=np.float64).tobytes(),
                    ),
                )
                sent += 1
                covered_count += len(covered)
                instance.routed += len(covered)
                self._routed_total += len(covered)
        except _InstanceDown as down:
            for _columns, _indices, covered in runs[sent:]:
                down.requeue.extend(covered)
            raise
        finally:
            if covered_count:
                self.metrics.record_ingest(instance.index, covered_count)

    def _ship_block(self, columns: PacketColumns) -> None:
        """Broadcast one capture block to every live instance (first sight only).

        FIFO eviction by ship order, never refreshed on re-sight, for the
        same reason as the process runtime: the instances evict their
        unpacked caches in broadcast arrival order, and only identical FIFO
        windows on both sides keep a queued row slice guaranteed to find its
        block cached.
        """
        block_id = id(columns)
        if block_id in self._live_blocks:
            return
        # Instances never materialise packets, and must not unpickle socket
        # input: ship the columns without a materialisation backing.
        payload = columns.pack_block(backing="none")
        chunks = encode_block(block_id, payload)
        downs: list[_InstanceDown] = []
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                self._send(instance, TAG_BLCK, *chunks)
            except _InstanceDown as down:
                downs.append(down)
        self.metrics.record_shm_segment(len(payload), len(self._live_blocks) + 1)
        self._live_blocks[block_id] = columns
        while len(self._live_blocks) > _BLOCK_CACHE_DEPTH:
            self._live_blocks.popitem(last=False)
        for down in downs:
            self._on_down(down.instance, down.error, requeue=down.requeue)

    def _pump(self) -> None:
        """Drain every readable instance socket (interim EVNT frames)."""
        while True:
            by_sock = {
                instance.sock: instance
                for instance in self._instances
                if not instance.lost
                and instance.sock is not None
                and instance.report is None
            }
            if not by_sock:
                return
            readable, _, _ = select.select(list(by_sock), (), (), 0)
            if not readable:
                return
            for sock in readable:
                instance = by_sock[sock]
                try:
                    self._read_frame(instance)
                except _InstanceDown as down:
                    self._on_down(instance, down.error)

    def _read_frame(self, instance: _Instance, deadline: float | None = None) -> bool:
        """Read one frame from ``instance``; ``True`` once DONE arrived."""
        if deadline is None and self.io_deadline:
            # Even a select()-readable socket may hold only part of a frame;
            # bound the completion read so a wedged peer cannot hang ingest.
            deadline = time.monotonic() + self.io_deadline
        try:
            frame = recv_frame(instance.sock, deadline)
        except (OSError, WireError) as error:
            raise _InstanceDown(instance, error) from None
        if frame is None:
            raise _InstanceDown(
                instance,
                WireError(
                    f"instance {instance.index} closed its connection mid-stream"
                ),
            )
        tag, payload = frame
        if tag == TAG_EVNT:
            events = decode_events(payload)
            scored = sum(event.result.packet_count for event in events)
            instance.scored += scored
            self._scored_total += scored
            self._dispatch(events)
            return False
        if tag == TAG_DONE:
            instance.report = json.loads(bytes(payload).decode("utf-8"))
            return True
        raise _InstanceDown(
            instance, WireError(f"unexpected frame tag {bytes(tag)!r} at front-end")
        )

    def _dispatch(self, events: list[DetectionEvent]) -> list[DetectionEvent]:
        out: list[DetectionEvent] = []
        alerts = 0
        degraded = 0
        for event in events:
            if self._degraded_slots and event.result.key is not None:
                slot = key_slot(event.result.key, self.instances)
                if slot in self._degraded_slots and not event.result.degraded:
                    event = dataclasses.replace(
                        event,
                        result=dataclasses.replace(event.result, degraded=True),
                    )
                    degraded += 1
            self._connections_seen += 1
            is_alert = event.is_alert
            if is_alert:
                alerts += 1
                self._alerts_emitted += 1
            self._events.append(event)
            if self.on_event is not None:
                self.on_event(event)
            if is_alert and self.on_alert is not None:
                self.on_alert(event)  # type: ignore[arg-type]
            out.append(event)
        if degraded:
            self._degraded_flows += degraded
            self.metrics.record_degraded_flows(degraded)
        self.metrics.record_events(len(out), alerts)
        return out

    # ----------------------------------------------------------------- output
    def events(self) -> Iterator[DetectionEvent]:
        """Drain the events received since the last call (non-blocking)."""
        if not self._closed:
            self._pump()
        while True:
            try:
                yield self._events.popleft()
            except IndexError:
                return

    def alerts(self) -> Iterator[Alert]:
        for event in self.events():
            if isinstance(event, Alert):
                yield event

    def service_events(self) -> Iterator:
        """Drain typed service events (InstanceLost / DegradedMode)."""
        while True:
            try:
                yield self._service_events.popleft()
            except IndexError:
                return

    def close(self) -> list[DetectionEvent]:
        """End of stream: drain every instance, merge the final events.

        Returns the merged final drains sorted by ``(first_seen, key)`` —
        the same deterministic order a single unpartitioned detector's
        :meth:`close` produces.  Local instance processes are joined; the
        per-instance ``DONE`` reports (metrics, occupancy, peaks) stay
        available as :attr:`instance_reports`.

        Under ``respawn``/``degrade``, a mid-close fault never raises: the
        affected instance's loss is recorded (deadline-bounded DONE waits,
        so a wedged peer cannot hang shutdown) and the surviving events are
        returned; consult :meth:`degradation_report` afterwards.  Under
        ``fail`` the fleet is torn down and
        :class:`~repro.serve.supervise.InstanceFailure` is raised.
        """
        if self._closed:
            return []
        self._closed = True
        if self._failed:
            self._teardown()
            return []
        final_clock = self._clock
        close_payload = encode_control({"op": "close"})
        poll_payload = (
            encode_control({"op": "poll", "now": final_clock})
            if final_clock > float("-inf")
            else None
        )
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                self._submit(instance)
                if poll_payload is not None:
                    self._send(instance, TAG_CTRL, poll_payload)
                self._send(instance, TAG_CTRL, close_payload)
            except _InstanceDown as down:
                self._on_down(instance, down.error, requeue=down.requeue, closing=True)
        final: list[DetectionEvent] = []
        for instance in self._instances:
            if instance.lost or instance.sock is None:
                continue
            deadline = (
                time.monotonic() + self.io_deadline if self.io_deadline else None
            )
            try:
                while instance.report is None:
                    self._read_frame(instance, deadline)
            except _InstanceDown as down:
                self._on_down(instance, down.error, closing=True)
                continue
            report_events = [
                event_from_dict(record)
                for record in instance.report.get("events", ())
            ]
            scored = sum(event.result.packet_count for event in report_events)
            instance.scored += scored
            self._scored_total += scored
            final.extend(report_events)
        if self.config.drop_policy is None:
            # Honest accounting: any routed packet an instance never scored
            # (e.g. a silently dropped frame) is attributed, keeping
            # packets_routed = packets_scored + packets_lost_inflight exact.
            # With a drop policy, capacity-dropped flows are legitimately
            # unscored, so residuals are not attributable to faults.
            for instance in self._instances:
                if instance.lost:
                    continue
                residual = instance.routed - instance.scored
                if residual > 0:
                    self._record_loss(
                        instance,
                        f"{residual} routed packets unaccounted at close",
                        self.on_instance_failure,
                    )
        final.sort(key=_event_order)
        final = self._dispatch(final)
        self._teardown()
        return final

    def degradation_report(self) -> DegradationReport:
        """Everything the stream lost (empty and falsy for a clean run)."""
        return DegradationReport(
            losses=list(self._losses),
            respawns=self._respawns,
            degraded_flows=self._degraded_flows,
            teardown_errors=list(self._teardown_errors),
        )

    def _teardown(self) -> None:
        """Close every socket and reap every child process (idempotent)."""
        for instance in self._instances:
            self._close_instance(instance)

    # ------------------------------------------------------------- monitoring
    @property
    def connections_seen(self) -> int:
        return self._connections_seen

    @property
    def alerts_emitted(self) -> int:
        return self._alerts_emitted

    @property
    def threshold(self) -> float:
        """The (shared) operating threshold reported by the instances."""
        for instance in self._instances:
            if instance.ready is not None:
                return float(instance.ready.get("threshold", float("nan")))
        return float("nan")

    @property
    def instance_reports(self) -> list[dict[str, object]]:
        """Each instance's DONE report (valid after :meth:`close`)."""
        return [instance.report or {} for instance in self._instances]

    def occupancy(self) -> list[int]:
        """Final tracked connections per instance (from the DONE reports)."""
        return [
            sum(int(n) for n in (instance.report or {}).get("occupancy", ()))
            for instance in self._instances
        ]

    def peak_occupancy(self) -> list[int]:
        """Peak concurrently tracked connections per instance."""
        return [
            int((instance.report or {}).get("peak_occupancy", 0))
            for instance in self._instances
        ]

    def metrics_snapshot(self) -> dict:
        """Front-end metrics plus every instance's own snapshot."""
        snapshot = self.metrics.snapshot(self.occupancy() if self._closed else None)
        snapshot["instances"] = [
            (instance.report or {}).get("metrics") for instance in self._instances
        ]
        degradation = snapshot.get("degradation")
        if isinstance(degradation, dict):
            degradation["packets_routed"] = self._routed_total
            degradation["packets_scored"] = self._scored_total
        return snapshot

    def render_metrics(self) -> str:
        """Human-readable front-end summary plus per-instance peaks."""
        lines = [self.metrics.render(self.occupancy() if self._closed else None)]
        for instance in self._instances:
            report = instance.report
            if report is None:
                continue
            lines.append(
                f"instance[{instance.index}]: connections={report.get('connections_seen', 0)} "
                f"alerts={report.get('alerts_emitted', 0)} "
                f"peak-occupancy={report.get('peak_occupancy', 0)}"
            )
        return "\n".join(lines)


def format_event_line(event: DetectionEvent) -> str:
    """One NDJSON line per event — shared by the CLI and the smoke tests."""
    return json.dumps(event.to_dict())


__all__ = [
    "FlowPartitioner",
    "InstanceConfig",
    "format_event_line",
]
