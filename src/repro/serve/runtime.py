"""Sharded parallel streaming runtime: N shard worker processes.

:class:`ParallelStreamingDetector` scales the single-threaded
:class:`~repro.serve.streaming.StreamingDetector` out to N worker processes
while keeping its contract.  The layering:

* the ingest thread (the caller) only records each packet's row and advances
  the stream clock; once a chunk of rows is pending, one routing step maps
  them all to the shards owning their flows
  (:func:`~repro.netstack.flow.flow_slot`, a fixed integer mix over the
  block's ``key_*`` columns, so every process agrees) and hands each shard
  one ``rows`` message through its bounded queue — a full queue blocks
  ingestion, which **is** the backpressure signal;
* each shard worker owns one :class:`~repro.netstack.flow.FlowTable` and its
  own pending buffer: it assembles connections, applies the
  :class:`~repro.serve.metrics.DropPolicy` to capacity evictions, and pushes
  completed connections through the batched inference engine under the
  :class:`~repro.serve.streaming.FlushPolicy`;
* every worker funnels its events back through its own result queue into
  one ordered dispatch consumed via :meth:`events` / the ``on_event``/``on_alert``
  callbacks (invoked under a dispatch lock, so callbacks never run
  concurrently).

``worker_mode`` selects where scoring runs:

* ``"thread"`` (the default) spawns nothing: the runtime delegates to one
  plain ``StreamingDetector`` on the caller's thread, bit-identical to using
  it directly.  It requires ``workers=1`` — flow assembly is Python-level
  work that serialises on the GIL, so thread shards never beat one detector.
* ``"process"`` spawns one OS process per shard.  Every worker loads the
  model **read-only** from the artifact directory with ``mmap_mode="r"``
  (all workers share one page-cache copy of the ``.npz``), receives columnar
  work as :meth:`~repro.netstack.columns.PacketColumns.pack_block` wire
  blocks — columns only, since workers never materialise packets; broadcast
  once per capture block, shared-memory-backed for large payloads, with
  per-step row-index slices riding the per-shard queues.  Object ``Packet``
  runs become :meth:`~repro.netstack.columns.PacketColumns.from_packets`
  blocks at their routing step.  ``workers=4`` means four cores.  Even
  ``workers=1`` moves scoring off the ingest thread.
  :class:`~repro.serve.metrics.StreamingMetrics` aggregates across the pool
  by merging per-worker counter structs on snapshot.

Equivalence guarantee: on a time-ordered capture the runtime emits the same
set of :class:`~repro.serve.events.DetectionEvent`\\ s — same connection
keys, scores within 1e-9 — at any worker count **and in either worker
mode**, and :meth:`close` returns the end-of-stream drain in deterministic
``(first_seen, key)`` order (``tests/serve/test_runtime.py``,
``tests/serve/test_process_runtime.py``).

Fault tolerance (process mode): only the worker holds the write end of its
result pipe, so a worker that has exited leaves a pipe that reads as ended.
Every routing step drains the result pipes before it routes, so a death is
noticed mid-stream rather than only at a barrier, and a worker killed
mid-report leaves a torn message that fails the read instead of blocking it.
``on_worker_failure`` selects what happens when a shard worker process dies,
wedges past ``stall_deadline``, or reports an internal failure — ``"fail"``
(the failure is raised on every later ingest/poll/flush, and by close()
only if not raised before or no worker is left to drain; every worker is
still joined), ``"respawn"`` (the dead worker is replaced from its
:class:`_WorkerSpec`, live blocks are re-broadcast to the new incarnation,
and work that was in flight through the dead queue is recorded as a known
loss), or ``"degrade"`` (the dead shard's slots, and rows not yet handed to
it, are rerouted onto the survivors, and their events carry
``DetectionResult.degraded=True``).  Every loss is recorded as an
:class:`~repro.serve.supervise.InstanceLossRecord` with ``kind="worker"`` and
counted into the metrics degradation section.  Thread mode has no workers to
lose, so any policy other than ``"fail"`` is rejected at construction.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import os
import queue
import shutil
import signal
import tempfile
import threading
import time
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from pathlib import Path
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.pipeline import Clap
from repro.netstack.columns import (
    BlockLease,
    ColumnPacketView,
    PacketColumns,
    unpack_block,
)
from repro.netstack.flow import (
    CompletionReason,
    Connection,
    FlowTable,
    flow_slot,
    key_slot,
)
from repro.netstack.packet import Packet
from repro.serve.events import Alert, DetectionEvent
from repro.serve.metrics import (
    AdaptiveChunker,
    DropPolicy,
    StreamingMetrics,
    apply_drop_policy,
)
from repro.serve.faults import FaultPlan
from repro.serve.sources import PacketSource, Tick
from repro.serve.supervise import (
    DegradationReport,
    FailurePolicy,
    InstanceLossRecord,
)
from repro.serve.streaming import (
    AlertCallback,
    EventCallback,
    FlushPolicy,
    StreamingDetector,
    drain_pending,
)

try:  # pragma: no cover - available on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

#: Blocks whose packed payload is at least this large travel through POSIX
#: shared memory (one write, N readers) instead of being pickled into every
#: worker's queue pipe.
_SHM_MIN_BYTES = 64 * 1024

#: How many capture blocks parent and workers keep unpacked.  The parent
#: broadcasts every block to every worker in the same order, so both sides
#: evict in lockstep and a queued row slice always finds its block cached.
_BLOCK_CACHE_DEPTH = 8

_WORKER_JOIN_TIMEOUT = 10.0


def _emit_nothing(events: list[DetectionEvent]) -> None:
    """Dispatch sink for the final drain: close() dispatches it sorted."""


def _event_order(event: DetectionEvent) -> tuple[float, str]:
    """Deterministic event ordering: stream arrival, then connection key."""
    return (event.first_seen, str(event.result.key))


# ---------------------------------------------------------------------------
# Process worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a process shard worker needs, shipped picklable at spawn."""

    index: int
    model_dir: str
    threshold: float
    top_n: int
    policy: FlushPolicy
    drop_policy: DropPolicy | None
    idle_timeout: float
    close_grace: float
    max_flows: int | None
    max_packets: int | None
    block_cache: int = _BLOCK_CACHE_DEPTH
    #: Incarnation counter: bumped on every respawn so the parent can drop
    #: stale result-queue messages posted by a dead predecessor.
    generation: int = 0


def _attach_block(
    ref: tuple, retired: list
) -> tuple[bytes | memoryview, BlockLease | None, int]:
    """Attach a block reference shipped by the parent (worker side).

    Shared-memory refs are **mapped, not copied**: the returned payload is a
    memoryview straight into the segment, and the returned
    :class:`~repro.netstack.columns.BlockLease` keeps the segment mapped for
    the block's whole lifetime — the parent is free to unlink the segment
    after the ack (a POSIX mapping survives the unlink), and the worker
    appends the segment to ``retired`` only once every column view on it has
    been dropped (the lease's ``on_release``).  ``retired`` segments are then
    closed by the worker loop, retrying while NumPy still exports the
    mapping.

    Pipe-shipped refs (small blocks) arrive as bytes the queue already
    copied; the byte count is returned so the copy is visible in metrics.
    Returns ``(payload, lease, copied_bytes)``.
    """
    if ref[0] == "bytes":
        return ref[1], None, len(ref[1])
    name, size = ref[1], ref[2]
    # Attaching re-registers the segment with the resource tracker
    # (bpo-39959), but multiprocessing-spawned workers share the parent's
    # tracker process, whose registry is a set — the duplicate is harmless
    # and the parent's unlink() clears the single entry.
    segment = _shared_memory.SharedMemory(name=name)
    lease = BlockLease(on_release=functools.partial(retired.append, segment))
    return segment.buf[:size], lease, 0


def _post(out_queue, message: tuple) -> None:
    """Report a worker result to the parent over its (unbounded) result queue.

    An unbounded ``multiprocessing.Queue`` put never blocks on capacity, so
    this is the one audited place a queue call may omit a deadline.
    """
    # clap-lint: allow[RL007] reason=result queue is unbounded; put cannot block on capacity
    out_queue.put(message)


def _process_worker_main(spec: _WorkerSpec, in_queue, out_queue) -> None:
    """Entry point of one process shard worker.

    The model is loaded privately (read-only mmap), and events/metrics travel
    back to the parent's ordered dispatch through ``out_queue``.  A worker
    that failed keeps consuming its queue — acknowledging blocks and flush
    barriers — so the parent never deadlocks, and reports the failure
    alongside a clean ``closed`` handshake.

    Shared-memory blocks are unpacked **in place** — every scalar column is a
    read-only view straight into the mapped segment, held alive by a
    :class:`~repro.netstack.columns.BlockLease` for exactly as long as some
    connection still references a packet of the block.  Released segments
    land on ``retired`` and are closed between messages; a close can fail
    with :class:`BufferError` while a stray array still exports the mapping,
    so it is retried rather than forced.
    """
    metrics = StreamingMetrics(shard_count=1)
    table = FlowTable(
        idle_timeout=spec.idle_timeout,
        close_grace=spec.close_grace,
        max_flows=spec.max_flows,
        max_packets=spec.max_packets,
    )
    admission = spec.drop_policy.new_state() if spec.drop_policy is not None else None
    pending: list[tuple[Connection, CompletionReason]] = []
    blocks: "OrderedDict[int, list[ColumnPacketView]]" = OrderedDict()
    retired: list = []
    failed = False

    def close_retired_segments() -> None:
        for segment in retired[:]:
            try:
                segment.close()
            except BufferError:
                continue  # some view still exports the mapping; retry later
            retired.remove(segment)

    def gauges() -> dict[str, object]:
        state = metrics.worker_state()
        state["active_flows"] = len(table)
        state["pending"] = len(pending)
        return state

    def emit(events: list[DetectionEvent]) -> None:
        _post(out_queue, ("events", spec.index, events, gauges(), spec.generation))

    clap: Clap | None = None
    try:
        clap = Clap.load(spec.model_dir, mmap_mode="r")
        clap.engine  # build once, before the first flush
    except BaseException as error:
        failed = True
        _post(out_queue, ("failed", spec.index, f"{type(error).__name__}: {error}", spec.generation))

    def flush_pending(dispatch: bool = True) -> list[DetectionEvent]:
        return drain_pending(
            clap,
            pending,
            spec.policy.max_batch,
            spec.threshold,
            spec.top_n,
            metrics,
            emit if dispatch else _emit_nothing,
        )

    def buffer_completions(
        completions: list[tuple[Connection, CompletionReason]]
    ) -> None:
        if not completions:
            return
        completions = apply_drop_policy(completions, spec.drop_policy, metrics, admission)
        pending.extend(completions)
        metrics.record_pending_depth(len(pending))
        if spec.policy.auto_flush and len(pending) >= spec.policy.max_batch:
            flush_pending()
        elif len(pending) >= spec.policy.max_buffered:
            flush_pending()

    while True:
        try:
            item = in_queue.get(timeout=5.0)
        except queue.Empty:
            # Deadline discipline: never block forever on the work queue.  A
            # parent that died without the close handshake leaves an orphan
            # worker; detect it between polls and exit instead of lingering.
            parent = multiprocessing.parent_process()
            if parent is not None and not parent.is_alive():
                return
            continue
        kind = item[0]
        close_retired_segments()
        try:
            if kind == "wedge":
                # Injected fault: stop servicing the queue without exiting.
                # The parent's stall deadline is what must detect this.
                parent = multiprocessing.parent_process()
                while parent is None or parent.is_alive():
                    time.sleep(0.2)
                return
            if kind == "close":
                final: list[DetectionEvent] = []
                if not failed:
                    pending.extend(
                        apply_drop_policy(
                            table.drain(), spec.drop_policy, metrics, admission
                        )
                    )
                    final = flush_pending(dispatch=False)
                _post(out_queue, ("closed", spec.index, final, gauges(), spec.generation))
                # The drain released every connection, so all block views are
                # gone; one best-effort pass unmaps what the finalizers just
                # retired (anything still exporting is reclaimed at exit).
                blocks.clear()
                close_retired_segments()
                return
            if kind == "block":
                payload, lease, copied = _attach_block(item[2], retired)
                _post(out_queue, ("block_ack", spec.index, item[1], spec.generation))
                if failed:
                    if lease is not None:
                        lease.release()
                    continue
                if copied:
                    metrics.record_payload_copy(copied)
                columns = unpack_block(payload, lease=lease)
                if lease is not None:
                    # Refcount-style release: once the last view of this
                    # block is dropped, the lease retires the segment.
                    weakref.finalize(columns, lease.release)
                blocks[item[1]] = columns.views()
                while len(blocks) > spec.block_cache:
                    blocks.popitem(last=False)
                continue
            if kind == "flush":
                # The barrier's events travel once, inside flush_done.
                events = [] if failed else flush_pending(dispatch=False)
                _post(out_queue, ("flush_done", spec.index, item[1], events, gauges(), spec.generation))
                continue
            if failed:
                continue
            if kind == "poll":
                buffer_completions(table.poll(item[1]))
                continue
            if kind == "rows":
                views = blocks[item[1]]
                indices = np.frombuffer(item[2], dtype=np.int64)
                clocks = np.frombuffer(item[3], dtype=np.float64)
                completions: list[tuple[Connection, CompletionReason]] = []
                for index, clock in zip(indices.tolist(), clocks.tolist(), strict=True):
                    view = views[index]
                    if clock > table.clock:
                        completions.extend(table.poll(clock))
                    completions.extend(table.add(view, view.flow_key()))
                buffer_completions(completions)
                continue
        except BaseException as error:  # noqa: BLE001 - forwarded to parent
            failed = True
            _post(out_queue, ("failed", spec.index, f"{type(error).__name__}: {error}", spec.generation))
            if kind == "flush":
                _post(out_queue, ("flush_done", spec.index, item[1], [], gauges(), spec.generation))
            elif kind == "close":
                _post(out_queue, ("closed", spec.index, [], gauges(), spec.generation))
                return


class _ProcessShard:
    """Parent-side handle of one process shard worker."""

    def __init__(self, index: int, in_queue, results, process, spec: _WorkerSpec) -> None:
        self.index = index
        self.queue = in_queue
        # Each incarnation reports through a result queue of its own: a
        # worker killed while writing dies holding that queue's write lock,
        # which must not silence any other worker.  ``None`` once the pipe
        # has ended (the incarnation exited and everything it wrote is read).
        self.results = results
        self.process = process
        self.spec = spec
        self.final_events: list[DetectionEvent] = []
        self.failure: str | None = None
        self.failure_raised = False
        self.closed = False
        self.lost = False
        self.respawns = 0
        # Per-incarnation accounting: packets handed to this worker's queue
        # and packets that came back scored inside events.  The difference at
        # loss time is the known in-flight loss.
        self.routed_packets = 0
        self.scored_packets = 0
        self.state: dict[str, object] = {}


class ParallelStreamingDetector:
    """Multi-worker streaming CLAP: fan packets to shards, funnel events out.

    Parameters mirror :class:`~repro.serve.streaming.StreamingDetector`, plus:

    workers:
        Number of flow-table shards and worker processes.  Values above ``1``
        require ``worker_mode="process"``; process mode spawns a worker even
        at ``1``.
    worker_mode:
        ``"thread"`` (default: one ``StreamingDetector`` on the caller's
        thread) or ``"process"``; see the module docstring.
    model_dir:
        Process mode only: the artifact directory the workers load (read-only
        mmap).  Defaults to saving ``clap`` into a temporary directory that
        lives until :meth:`close`.
    start_method:
        Process mode only: the :mod:`multiprocessing` start method.  Defaults
        to ``"fork"`` where available (fast, POSIX), else ``"spawn"``.
    drop_policy:
        Applied to :attr:`CompletionReason.CAPACITY` evictions before they
        reach the engine (see :class:`~repro.serve.metrics.DropPolicy`).
    chunk_size:
        Packets per routing step and live worker: a step hands each shard
        its share of the pending rows in one queue message.  Larger chunks
        cut queue overhead; smaller chunks cut event latency.  The default
        ``"adaptive"`` installs an :class:`~repro.serve.metrics.AdaptiveChunker`
        that grows the chunk under queue backpressure and shrinks it when
        flush latency climbs; an integer pins it (the historical behaviour
        was ``64``).  Chunk size never changes *what* is scored — only how
        packets are grouped in transit.
    queue_depth:
        Bounded per-shard queue length (in chunks).  When a shard falls this
        far behind, :meth:`ingest` blocks — backpressure instead of
        unbounded buffering.
    metrics:
        Optional externally-owned :class:`StreamingMetrics`; one is created
        (and exposed as :attr:`metrics`) by default.
    """

    def __init__(
        self,
        clap: Clap,
        *,
        workers: int = 1,
        worker_mode: str = "thread",
        flush_policy: FlushPolicy | None = None,
        threshold: float | None = None,
        top_n: int = 1,
        idle_timeout: float = 60.0,
        close_grace: float = 1.0,
        max_flows: int | None = None,
        max_packets: int | None = None,
        drop_policy: DropPolicy | None = None,
        on_event: EventCallback | None = None,
        on_alert: AlertCallback | None = None,
        chunk_size: int | str | AdaptiveChunker = "adaptive",
        queue_depth: int = 8,
        metrics: StreamingMetrics | None = None,
        model_dir: str | Path | None = None,
        start_method: str | None = None,
        on_worker_failure: str = "fail",
        max_worker_respawns: int = 2,
        stall_deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got {worker_mode!r}"
            )
        if on_worker_failure not in FailurePolicy:
            raise ValueError(
                f"on_worker_failure must be one of {FailurePolicy}, got {on_worker_failure!r}"
            )
        if workers > 1 and worker_mode != "process":
            raise ValueError(
                f"workers={workers} requires worker_mode='process' "
                "(thread mode runs one StreamingDetector on the caller's thread)"
            )
        if on_worker_failure != "fail" and worker_mode != "process":
            raise ValueError(
                "worker failure policies beyond 'fail' require worker_mode='process' "
                "(thread mode has no workers to kill or respawn)"
            )
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
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be at least 1, got {queue_depth}")
        self.clap = clap
        self.workers = int(workers)
        self.worker_mode = worker_mode
        self.policy = flush_policy or FlushPolicy()
        self.threshold = clap.threshold if threshold is None else float(threshold)
        self.top_n = int(top_n)
        self.drop_policy = drop_policy
        self.on_event = on_event
        self.on_alert = on_alert
        self.metrics = metrics or StreamingMetrics(shard_count=self.workers)
        if self._chunker is not None:
            self.metrics.attach_chunker(self._chunker)
        self._closed = False
        self._single: StreamingDetector | None = None
        self.on_worker_failure = on_worker_failure
        self.max_worker_respawns = int(max_worker_respawns)
        self._stall_deadline = stall_deadline if stall_deadline else None
        self._fault_plan = fault_plan
        #: Every shard-worker loss recorded this stream (``kind="worker"``).
        self.worker_losses: list[InstanceLossRecord] = []
        #: Secondary errors swallowed during error-path teardown (see run()).
        self.teardown_errors: list[str] = []
        self._worker_respawns = 0
        self._degraded_flows = 0
        # Route table for degrade mode: slot -> surviving shard index.  The
        # identity mapping until a worker is lost under the degrade policy.
        self._proc_route = list(range(self.workers))
        self._degraded_slots: set[int] = set()
        if worker_mode == "thread":
            self._single = StreamingDetector(
                clap,
                flush_policy=self.policy,
                threshold=self.threshold,
                top_n=top_n,
                idle_timeout=idle_timeout,
                close_grace=close_grace,
                max_flows=max_flows,
                max_packets=max_packets,
                on_event=on_event,
                on_alert=on_alert,
                drop_policy=drop_policy,
                metrics=self.metrics,
            )
            return
        self._events: deque[DetectionEvent] = deque()
        # Reentrant so an on_event/on_alert callback (invoked while the lock
        # is held) may read the counter properties without deadlocking.
        self._dispatch_lock = threading.RLock()
        self._connections_seen = 0
        self._alerts_emitted = 0
        # Global stream high-water mark, written only by the ingest thread,
        # and the mark before the first pending row.  A routing step gives
        # each row the mark as it stood just before it, so a shard catches
        # up to global stream time before adding the packet and its timers
        # expire exactly as they would in a single table.
        self._clock = float("-inf")
        self._routed_clock = self._clock
        # Rows awaiting the next routing step: row indices of _pending_block,
        # or Packet objects when it is None.
        self._pending: list = []
        self._pending_block: PacketColumns | None = None
        self._live_workers = self.workers
        self._init_process_pool(
            idle_timeout=idle_timeout,
            close_grace=close_grace,
            max_flows=max_flows,
            max_packets=max_packets,
            model_dir=model_dir,
            start_method=start_method,
            queue_depth=queue_depth,
        )

    # ------------------------------------------------------ process pool setup
    def _init_process_pool(
        self,
        *,
        idle_timeout: float,
        close_grace: float,
        max_flows: int | None,
        max_packets: int | None,
        model_dir: str | Path | None,
        start_method: str | None,
        queue_depth: int,
    ) -> None:
        if max_flows is not None and max_flows < 1:
            raise ValueError(f"max_flows must be at least 1, got {max_flows}")
        per_shard_flows = None if max_flows is None else -(-max_flows // self.workers)
        # Validate the flow-table knobs eagerly (the workers would otherwise
        # surface a ValueError asynchronously, long after construction).
        FlowTable(
            idle_timeout=idle_timeout,
            close_grace=close_grace,
            max_flows=per_shard_flows,
            max_packets=max_packets,
        )
        method = start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        context = multiprocessing.get_context(method)
        self._mp_context = context
        self._queue_depth = queue_depth
        if _shared_memory is not None:
            try:
                # Start the resource tracker *before* the workers exist, so
                # every process shares one tracker: a worker attaching a
                # segment then re-registers into the same (set-backed)
                # registry instead of spinning up a private tracker that
                # would mis-report the parent's segments as leaked.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            # clap-lint: allow[RL005] reason=best-effort tracker warm-up; workers fall back to private trackers
            except Exception:  # pragma: no cover - tracker internals shifted
                pass
        self._tmp_model_cleanup = None
        if model_dir is None:
            tmp_dir = tempfile.mkdtemp(prefix="clap-shard-pool-")
            self.clap.save(tmp_dir)
            model_dir = tmp_dir
            self._tmp_model_cleanup = weakref.finalize(
                self, shutil.rmtree, tmp_dir, ignore_errors=True
            )
        # Blocks currently shipped to the workers (insertion-ordered; parent
        # and workers evict in lockstep) and the shm segments awaiting acks.
        self._live_blocks: "OrderedDict[int, PacketColumns]" = OrderedDict()
        self._block_shm: dict[int, tuple[object, set[int]]] = {}
        self._flush_results: dict[int, dict[int, list[DetectionEvent]]] = {}
        self._flush_counter = 0
        self._shards: list[_ProcessShard] = []
        for index in range(self.workers):
            spec = _WorkerSpec(
                index=index,
                model_dir=str(model_dir),
                threshold=self.threshold,
                top_n=self.top_n,
                policy=self.policy,
                drop_policy=self.drop_policy,
                idle_timeout=idle_timeout,
                close_grace=close_grace,
                max_flows=per_shard_flows,
                max_packets=max_packets,
            )
            self._shards.append(
                _ProcessShard(index, *self._start_worker(spec, f"clap-shard-{index}"), spec)
            )

    def _start_worker(self, spec: _WorkerSpec, name: str) -> tuple:
        """Start one worker incarnation; returns ``(in_queue, results, process)``."""
        in_queue = self._mp_context.Queue(maxsize=self._queue_depth)
        results = self._mp_context.Queue()
        process = self._mp_context.Process(
            target=_process_worker_main,
            args=(spec, in_queue, results),
            name=name,
            daemon=True,
        )
        process.start()
        # The worker now holds its own write end.  Closing the parent's copy
        # makes the pipe read as ended once the worker is gone, so a message
        # it was killed writing fails the read instead of blocking it.
        results._writer.close()
        return in_queue, results, process

    # -------------------------------------------------------------- ingestion
    def ingest(self, packet: Packet) -> None:
        """Queue one packet for routing (a routing step may block)."""
        if self._closed:
            raise RuntimeError("ingest() after close()")
        if self._single is not None:
            self._single.ingest(packet)
            return
        columns = packet.columns if type(packet) is ColumnPacketView else None
        if columns is not self._pending_block:
            self._route_pending()  # one block (or one object-packet run) per step
            self._pending_block = columns
        pending = self._pending
        if not pending:
            self._raise_worker_failure()
        pending.append(packet if columns is None else packet.index)
        if packet.timestamp > self._clock:
            self._clock = packet.timestamp
        if self._fault_plan is not None:
            self._apply_worker_faults(1)
        if len(pending) >= self._chunk_target() * self._live_workers:
            self._route_pending()

    def ingest_many(self, packets: Iterable[Packet]) -> None:
        """Feed a chunk of packets in stream order."""
        if self._single is not None:
            self._single.ingest_many(packets)
            return
        for packet in packets:
            self.ingest(packet)

    def poll(self, now: float | None = None) -> None:
        """Advance stream time on every shard without a packet."""
        if self._single is not None:
            self._single.poll(now)
            return
        if self._closed:
            return  # every shard already drained; nothing left to expire
        self._raise_worker_failure()
        now = self._clock if now is None else float(now)
        if now == float("-inf"):
            return
        self._route_pending()
        if now > self._clock:
            self._clock = self._routed_clock = now
        for shard in self._shards:
            self._put_shard(shard, ("poll", now))
        self._drain_results()

    def run(self, source: PacketSource) -> list[DetectionEvent]:
        """Consume a packet source to exhaustion, then :meth:`close`.

        :class:`~repro.serve.sources.Tick` items become :meth:`poll` calls,
        so paced sources keep flow-table timers firing through quiet spells.
        Returns the final end-of-stream events; interim events remain
        available through :meth:`events` / the callbacks.

        If the source (or a worker) raises mid-stream, the pool is shut down
        before the error propagates: workers are joined and queued state is
        released rather than leaked, and a worker failure discovered during
        that shutdown never masks the original error.
        """
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
                # Surfacing the source error matters more than a secondary
                # failure discovered while tearing the pool down; close()
                # has already joined the workers either way — record the
                # swallowed error instead of losing it.
                self.teardown_errors.append(
                    f"close during error teardown: {teardown_error!r}"
                )
            raise
        return self.close()

    def _chunk_target(self) -> int:
        """Current ingest chunk size (adaptive or pinned)."""
        return self._fixed_chunk if self._chunker is None else self._chunker.size

    # -------------------------------------------------------------- transport
    def _route_pending(self) -> None:
        """One routing step: hand every pending row to the shard owning it."""
        pending = self._pending
        if not pending:
            return
        # A worker that has exited ends its result pipe: draining first hands
        # it to the failure policy before any row is routed to it.
        self._drain_results()
        self._pending = []
        columns = self._pending_block
        if columns is None:
            columns = PacketColumns.from_packets(pending)
            rows = np.arange(len(pending), dtype=np.int64)
        else:
            rows = np.asarray(pending, dtype=np.int64)
        clocks = np.empty(len(rows))
        clocks[0] = self._routed_clock
        clocks[1:] = columns.timestamp[rows[:-1]]
        np.maximum.accumulate(clocks, out=clocks)
        self._routed_clock = self._clock
        self._route_rows(columns, rows, clocks)
        self._drain_results()

    def _route_rows(self, columns: PacketColumns, rows: np.ndarray, clocks: np.ndarray) -> None:
        """Send each shard its rows of ``columns`` (with their clocks) as one
        ``rows`` message; rows a lost shard never received are rerouted."""
        self._ship_block(columns)
        owners = np.asarray(self._proc_route)[
            flow_slot(
                columns.key_ip_a[rows],
                columns.key_port_a[rows],
                columns.key_ip_b[rows],
                columns.key_port_b[rows],
                self.workers,
            )
        ]
        unsent: list[np.ndarray] = []
        for shard in self._shards:
            mine = owners == shard.index
            count = int(np.count_nonzero(mine))
            if not count:
                continue
            try:
                self.metrics.record_queue_depth(shard.queue.qsize() + 1)
            except NotImplementedError:  # pragma: no cover - macOS qsize
                self.metrics.record_queue_depth(1)
            message = ("rows", id(columns), rows[mine].tobytes(), clocks[mine].tobytes())
            # Blocks while the shard is merely behind (backpressure), but
            # never wedges on a dead or wedged worker.
            if self._put_shard(shard, message):
                shard.routed_packets += count
                self.metrics.record_ingest(shard.index, count)
            elif shard.lost:
                # Degraded: these rows never reached a worker, so they were
                # never in flight — they follow the rerouted slots instead.
                unsent.append(mine)
        if unsent:
            mine = np.logical_or.reduce(unsent)
            self._route_rows(columns, rows[mine], clocks[mine])

    def _put_shard(self, shard: "_ProcessShard", message: tuple) -> bool:
        """Put on a shard's bounded queue without wedging on a dead worker.

        A healthy worker that is merely behind keeps the put blocking — that
        is the backpressure contract.  A worker that died without draining
        its queue (kill -9, OOM) would block the put forever, so the wait is
        chopped into short timeouts with a liveness check between them; a
        worker that stays alive but makes no progress past ``stall_deadline``
        is declared wedged.  Either way the failure policy runs: after a
        successful respawn the put is retried against the new incarnation,
        otherwise the message is dropped and ``False`` returned (under
        ``fail`` the recorded failure surfaces on the next
        ingest/flush/close; under ``degrade`` the caller reroutes).  Time
        spent waiting on a full queue is added to the metrics'
        ``backpressure_wait_seconds``.
        """
        stalled_since: float | None = None
        try:
            while True:
                if shard.lost or shard.closed:
                    return False
                try:
                    if stalled_since is None:
                        shard.queue.put(message, block=False)
                    else:
                        shard.queue.put(message, timeout=0.2)
                    if self._chunker is not None:
                        self._chunker.record_submit()
                    return True
                except queue.Full:
                    if stalled_since is None:
                        stalled_since = time.monotonic()
                        if self._chunker is not None:
                            self._chunker.record_backpressure()
                        continue
                if not shard.process.is_alive():
                    # Its pipe reads as ended once drained: that hands it to
                    # the failure policy.
                    self._drain_shard(shard)
                    continue
                if (
                    self._stall_deadline is not None
                    and time.monotonic() - stalled_since > self._stall_deadline
                ):
                    self._on_worker_down(
                        shard,
                        "worker wedged: queue made no progress for "
                        f"{self._stall_deadline:.1f}s",
                    )
        finally:
            if stalled_since is not None:
                self.metrics.record_backpressure_wait(time.monotonic() - stalled_since)

    def _ship_block(self, columns: PacketColumns) -> None:
        """Broadcast one capture block to every worker (first sight only).

        Eviction is strictly FIFO by ship order — deliberately *not*
        refreshed on re-sight — because the workers evict their unpacked
        caches in the order the ``block`` messages arrive; only identical
        FIFO windows on both sides keep a queued row slice guaranteed to
        find its block cached.  A block revisited after leaving the window
        is simply re-broadcast.
        """
        block_id = id(columns)
        if block_id in self._live_blocks:
            return
        ref = self._block_ref(block_id, columns.pack_block())
        for shard in self._shards:
            self._put_shard(shard, ("block", block_id, ref))
        self._live_blocks[block_id] = columns
        while len(self._live_blocks) > _BLOCK_CACHE_DEPTH:
            self._live_blocks.popitem(last=False)

    def _block_ref(self, block_id: int, payload: bytes) -> tuple:
        """Wrap a packed block for transport: shared memory when it pays."""
        if _shared_memory is None or len(payload) < _SHM_MIN_BYTES:
            return ("bytes", payload)
        try:
            segment = _shared_memory.SharedMemory(create=True, size=len(payload))
        except OSError:  # pragma: no cover - /dev/shm unavailable or full
            return ("bytes", payload)
        segment.buf[: len(payload)] = payload
        waiting = {shard.index for shard in self._shards if not shard.lost}
        self._block_shm[block_id] = (segment, waiting)
        self.metrics.record_shm_segment(len(payload), len(self._block_shm))
        return ("shm", segment.name, len(payload))

    def _release_block_shm(self, block_id: int, shard_index: int) -> None:
        entry = self._block_shm.get(block_id)
        if entry is None:
            return
        segment, waiting = entry
        waiting.discard(shard_index)
        if not waiting:
            del self._block_shm[block_id]
            segment.close()
            segment.unlink()

    def _handle_result(self, message: tuple) -> None:
        kind = message[0]
        shard = self._shards[message[1]]
        if message[-1] != shard.spec.generation:
            return  # stale message from a dead incarnation (pre-respawn)
        if kind in ("events", "flush_done", "closed"):
            # Every scored event reaches the parent in exactly one of these.
            events, state = message[-3], message[-2]
            self.metrics.absorb_worker_state(shard.index, state)
            shard.state = state
            shard.scored_packets += sum(e.result.packet_count for e in events)
            events = self._mark_degraded(events)
            if kind == "events":
                self._dispatch_many(events)
            elif kind == "closed":
                shard.final_events = events
                shard.closed = True
            elif (waiting := self._flush_results.get(message[2])) is not None:
                waiting[shard.index] = events
        elif kind == "block_ack":
            self._release_block_shm(message[2], message[1])
        elif kind == "failed":
            if self.on_worker_failure == "fail":
                if shard.failure is None:
                    shard.failure = message[2]
            else:
                self._on_worker_down(shard, f"worker reported failure: {message[2]}")

    def _drain_results(self) -> None:
        """Consume every result message available right now."""
        for shard in self._shards:
            self._drain_shard(shard)

    def _drain_shard(self, shard: "_ProcessShard") -> None:
        """Consume every result message ``shard`` has posted so far.

        An ended pipe means the incarnation has exited: its loss goes to the
        failure policy (a no-op after a clean ``closed`` handshake).
        """
        # Re-read per message: handling one may respawn the worker, which
        # replaces its result queue.
        while shard.results is not None:
            try:
                message = shard.results.get_nowait()
            except queue.Empty:
                return
            except (EOFError, OSError):
                shard.results = None
                self._on_worker_down(shard, "worker process died unexpectedly")
                continue
            self._handle_result(message)

    def _await_results(self, done) -> None:
        """Pump the result queues until ``done()`` — dead workers included.

        A worker that died without its final handshake (kill -9, interpreter
        abort) ends its result pipe once everything it wrote has been read,
        and is handed to the failure policy then, so barriers and close()
        terminate instead of waiting forever.  When a ``stall_deadline`` is
        configured, a worker that is alive but has produced nothing for that
        long while a barrier waits on it is declared wedged and handed to the
        failure policy the same way.
        """
        last_progress = time.monotonic()
        while not done():
            readers = {
                shard.results._reader: shard
                for shard in self._shards
                if shard.results is not None
            }
            ready = multiprocessing.connection.wait(list(readers), timeout=0.05)
            for reader in ready:
                self._drain_shard(readers[reader])
            if not ready:
                if (
                    self._stall_deadline is not None
                    and time.monotonic() - last_progress > self._stall_deadline
                ):
                    for shard in self._shards:
                        if shard.closed or shard.lost:
                            continue
                        # A wedged worker stops consuming, so its input
                        # queue retains items; an alive worker with an empty
                        # queue is merely busy (e.g. a slow close drain) and
                        # must not be shot — that would cascade respawns.
                        try:
                            consumed = shard.queue.qsize() == 0
                        except (NotImplementedError, OSError):
                            consumed = False
                        if consumed and shard.process.is_alive():
                            continue
                        self._on_worker_down(
                            shard,
                            "worker wedged: no results for "
                            f"{self._stall_deadline:.1f}s while a barrier waited",
                        )
                    last_progress = time.monotonic()
                continue
            last_progress = time.monotonic()

    # ------------------------------------------------------- worker supervision
    def _apply_worker_faults(self, count: int) -> None:
        """Fire due injected worker faults from the :class:`FaultPlan`."""
        for kind, index in self._fault_plan.packet_routed(count):
            shard = self._shards[index % self.workers]
            if shard.lost or shard.closed:
                continue
            if kind == "kill-worker":
                if shard.process.is_alive():
                    os.kill(shard.process.pid, signal.SIGKILL)
                    # Let the kill land, so the next routing step sees it
                    # and the plan replays identically.
                    shard.process.join(timeout=_WORKER_JOIN_TIMEOUT)
            else:
                self._put_shard(shard, ("wedge",))

    def _on_worker_down(self, shard: "_ProcessShard", reason: str) -> None:
        """Central worker-loss handler: reap, account, then apply the policy.

        Safe to call from any parent-side path that discovers the loss (an
        exited process, an ended result pipe, a stalled put, a
        worker-reported failure); the first caller wins, later calls see
        ``lost``/``closed`` and return.
        """
        if shard.lost or shard.closed:
            return
        policy = self.on_worker_failure
        if self._closed and policy == "respawn":
            # Mid-close there is no future work to respawn for; record the
            # loss and let the drain complete with what the survivors hold.
            policy = "degrade"
        routed, scored = shard.routed_packets, shard.scored_packets
        if shard.process.is_alive():
            shard.process.kill()
        shard.process.join(timeout=_WORKER_JOIN_TIMEOUT)
        # The dead incarnation's queue is abandoned (respawn replaces it,
        # degrade/fail never touch it again).  Without this, its feeder
        # thread can sit blocked on a full pipe nobody reads, and the
        # interpreter's atexit join on that feeder hangs shutdown.
        shard.queue.cancel_join_thread()
        shard.queue.close()
        shard.state = {}
        # The dead worker will never ack its shm blocks; release its claims
        # so segments are unlinked as soon as the survivors are done.
        for block_id in list(self._block_shm):
            self._release_block_shm(block_id, shard.index)
        # Nor will it answer outstanding flush barriers.
        for waiting in self._flush_results.values():
            waiting.setdefault(shard.index, [])
        if policy == "respawn" and shard.respawns >= self.max_worker_respawns:
            reason = f"{reason}; respawn budget ({self.max_worker_respawns}) exhausted"
            policy = "degrade"
        if policy == "respawn":
            try:
                self._respawn_worker(shard)
            except (OSError, RuntimeError, ValueError) as error:
                reason = f"{reason}; respawn failed: {error}"
                policy = "degrade"
        record = InstanceLossRecord(
            index=shard.index,
            kind="worker",
            reason=reason,
            policy=policy,
            packets_routed=routed,
            packets_scored=scored,
        )
        self.worker_losses.append(record)
        self.metrics.record_instance_lost(record.packets_lost_inflight)
        if policy == "respawn":
            return
        if policy == "fail":
            if shard.failure is None:
                shard.failure = reason
            shard.closed = True
            return
        shard.lost = True
        shard.closed = True
        self._live_workers -= 1
        self._apply_worker_degrade(shard)

    def _respawn_worker(self, shard: "_ProcessShard") -> None:
        """Replace a dead worker with a fresh incarnation of its spec.

        The new worker re-registers all state a shard needs that outlives an
        incarnation: every live capture block is re-broadcast (pipe-shipped;
        the old shm claims were already released) in FIFO ship order so
        queued row slices still find their blocks cached.  Work that was in
        flight through the dead queue is gone — the caller records it as a
        known loss before the counters reset.
        """
        spec = replace(shard.spec, generation=shard.spec.generation + 1)
        # Whatever the dead incarnation left unread is stale; its queue may
        # also be torn mid-message or locked by the dead writer, so it is
        # dropped with the old handle.
        shard.queue, shard.results, shard.process = self._start_worker(
            spec, f"clap-shard-{shard.index}r{shard.respawns + 1}"
        )
        shard.spec = spec
        shard.respawns += 1
        shard.failure = None
        shard.routed_packets = 0
        shard.scored_packets = 0
        for block_id, columns in self._live_blocks.items():
            if not self._put_shard(shard, ("block", block_id, ("bytes", columns.pack_block()))):
                raise RuntimeError("respawned worker died before re-registration")
        self._worker_respawns += 1
        self.metrics.record_respawn()

    def _apply_worker_degrade(self, shard: "_ProcessShard") -> None:
        """Rehash the lost shard's future flows onto the survivors."""
        survivors = [s.index for s in self._shards if not s.lost]
        if not survivors:
            shard.failure = "every shard worker has been lost"
            self._raise_worker_failure()
        for slot, target in enumerate(self._proc_route):
            if target == shard.index:
                self._proc_route[slot] = survivors[slot % len(survivors)]
                self._degraded_slots.add(slot)

    def _mark_degraded(self, events: list[DetectionEvent]) -> list[DetectionEvent]:
        """Flag events whose home shard was lost (scored by a survivor)."""
        if not self._degraded_slots:
            return events
        out: list[DetectionEvent] = []
        for event in events:
            key = event.result.key
            if (
                key is not None
                and key_slot(key, self.workers) in self._degraded_slots
                and not event.result.degraded
            ):
                event = replace(event, result=replace(event.result, degraded=True))
                self._degraded_flows += 1
                self.metrics.record_degraded_flows()
            out.append(event)
        return out

    def degradation_report(self) -> DegradationReport:
        """What this stream lost: worker losses, respawns, degraded flows."""
        return DegradationReport(
            losses=list(self.worker_losses),
            respawns=self._worker_respawns,
            degraded_flows=self._degraded_flows,
            teardown_errors=list(self.teardown_errors),
        )

    # ---------------------------------------------------------------- scoring
    def flush(self) -> list[DetectionEvent]:
        """Score everything currently buffered on every shard (barrier).

        Blocks until each worker has drained its pending buffer; returns the
        events produced by this flush in deterministic order.  In process
        mode they reach the callbacks but are not queued again for
        :meth:`events`: the return value is their one pull delivery.
        """
        if self._single is not None:
            return self._single.flush()
        if self._closed:
            return []  # close() already flushed everything and joined workers
        self._drain_results()
        self._raise_worker_failure()
        flush_id = self._flush_counter
        self._flush_counter += 1
        waiting: dict[int, list[DetectionEvent]] = {}
        self._flush_results[flush_id] = waiting
        self._route_pending()
        for index, shard in enumerate(self._shards):
            if not self._put_shard(shard, ("flush", flush_id)):
                # Lost (or failed) shards answer no barriers.
                waiting.setdefault(index, [])
        self._await_results(lambda: len(waiting) == self.workers)
        del self._flush_results[flush_id]
        flushed = [event for events in waiting.values() for event in events]
        flushed.sort(key=_event_order)
        self._dispatch_many(flushed, pull=False)
        self._raise_worker_failure()
        return flushed

    def close(self) -> list[DetectionEvent]:
        """End of stream: drain every shard, join the workers.

        Returns the events produced by the final drain, sorted by
        ``(first_seen, connection key)`` — deterministic at any worker count.
        A worker failure (including one discovered during the drain) still
        joins every worker and releases shared-memory blocks and the
        temporary model directory before the failure is raised.  A failure
        already raised by ingest/flush is raised again only when no worker
        is left to drain.
        """
        if self._single is not None:
            if self._closed:
                return []
            self._closed = True
            return sorted(self._single.close(), key=_event_order)
        if self._closed:
            return []
        self._closed = True
        # Route the leftover rows before the first close message: a step
        # may (re-)broadcast a block to *all* queues, which must never land
        # behind a worker's close.
        self._route_pending()
        for shard in self._shards:
            # Expire timers against global stream time before draining, so a
            # quiet shard still reports CLOSED/IDLE exactly as a single table
            # would have mid-stream.
            if self._clock > float("-inf"):
                self._put_shard(shard, ("poll", self._clock))
            self._put_shard(shard, ("close",))
        self._await_results(lambda: all(shard.closed for shard in self._shards))
        for shard in self._shards:
            shard.process.join(timeout=_WORKER_JOIN_TIMEOUT)
        self._drain_results()  # late block acks, nothing else outstanding
        self._cleanup_process_pool()
        # A failure the stream already raised is not raised again while
        # survivors hold a drain to return; with none left, the empty drain
        # must not pass for a clean end of stream.
        self._raise_worker_failure(
            skip_raised=not all(shard.failure is not None or shard.lost for shard in self._shards)
        )
        final = [event for shard in self._shards for event in shard.final_events]
        final.sort(key=_event_order)
        self._dispatch_many(final)
        return final

    def _cleanup_process_pool(self) -> None:
        for block_id in list(self._block_shm):
            segment, _ = self._block_shm.pop(block_id)
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._live_blocks.clear()
        if self._tmp_model_cleanup is not None:
            self._tmp_model_cleanup()

    def _dispatch_many(self, events: list[DetectionEvent], pull: bool = True) -> None:
        if not events:
            return
        with self._dispatch_lock:
            for event in events:
                self._connections_seen += 1
                is_alert = event.is_alert
                if is_alert:
                    self._alerts_emitted += 1
                if pull:
                    self._events.append(event)
                if self.on_event is not None:
                    self.on_event(event)
                if is_alert and self.on_alert is not None:
                    self.on_alert(event)  # type: ignore[arg-type]
        self.metrics.record_events(len(events), sum(1 for e in events if e.is_alert))

    def _raise_worker_failure(self, skip_raised: bool = False) -> None:
        """Raise the first recorded worker failure (with ``skip_raised``, the
        first one not raised yet)."""
        for shard in self._shards:
            if shard.failure is not None and not (skip_raised and shard.failure_raised):
                shard.failure_raised = True
                raise RuntimeError(f"shard worker {shard.index} failed: {shard.failure}")

    # ----------------------------------------------------------------- output
    def events(self) -> Iterator[DetectionEvent]:
        """Drain the events produced since the last call (non-blocking)."""
        if self._single is not None:
            yield from self._single.events()
            return
        if not self._closed:
            self._drain_results()
        while True:
            try:
                yield self._events.popleft()
            except IndexError:
                return

    def alerts(self) -> Iterator[Alert]:
        """Like :meth:`events`, but only threshold-exceeding connections."""
        for event in self.events():
            if isinstance(event, Alert):
                yield event

    # ------------------------------------------------------------- monitoring
    @property
    def connections_seen(self) -> int:
        if self._single is not None:
            return self._single.connections_seen
        with self._dispatch_lock:
            return self._connections_seen

    @property
    def alerts_emitted(self) -> int:
        if self._single is not None:
            return self._single.alerts_emitted
        with self._dispatch_lock:
            return self._alerts_emitted

    @property
    def pending_connections(self) -> int:
        """Completed connections buffered but not yet scored (approximate
        while workers are running)."""
        if self._single is not None:
            return self._single.pending_connections
        return sum(int(shard.state.get("pending", 0)) for shard in self._shards)

    @property
    def active_flows(self) -> int:
        """Connections currently assembled across all shards (approximate
        while workers are running)."""
        if self._single is not None:
            return self._single.active_flows
        return sum(self.occupancy())

    def occupancy(self) -> list[int]:
        """Tracked connections per shard."""
        if self._single is not None:
            return [self._single.active_flows]
        return [int(shard.state.get("active_flows", 0)) for shard in self._shards]

    def metrics_snapshot(self) -> dict:
        """The metrics snapshot plus current shard occupancy."""
        if self._single is not None:
            self.metrics.set_ingested(0, self._single.packets_ingested)
        elif not self._closed:
            self._drain_results()
        return self.metrics.snapshot(self.occupancy())

    def render_metrics(self) -> str:
        """Human-readable metrics summary (the CLI prints this to stderr)."""
        if self._single is not None:
            self.metrics.set_ingested(0, self._single.packets_ingested)
        elif not self._closed:
            self._drain_results()
        return self.metrics.render(self.occupancy())
