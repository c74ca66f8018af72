"""Process shard workers: the parent assembles, the workers score.

:class:`ParallelStreamingDetector` is a
:class:`~repro.serve.streaming.StreamingDetector` that, in process mode,
moves its engine calls into N worker processes.  The layering:

* the ingest thread (the caller) runs the inherited assembly path: one
  :class:`~repro.netstack.flow.FlowTable`, one
  :class:`~repro.serve.metrics.DropPolicy` admission state, and
  :class:`~repro.serve.streaming.FlushPolicy` batches of ``max_batch``
  completed connections, each cut into grains of at most
  :data:`~repro.serve.streaming.SCORING_GRAIN` connections.  Capacity
  evictions, admission verdicts, batch and grain boundaries are therefore
  exactly those of one detector, at any worker count;
* each grain travels to one worker as one queue message: the grain's packets,
  connection after connection, packed with
  :meth:`~repro.netstack.columns.PacketColumns.pack_block` (object ``Packet``
  runs through :meth:`~repro.netstack.columns.PacketColumns.from_packets`
  first), plus the connection bounds and completion reasons.  It goes to the
  live worker with the fewest grains in flight, and a worker holds at most
  one flush batch's worth of grains in flight (``ceil(max_batch /
  SCORING_GRAIN)``, two at the default ``max_batch`` of 128), so queued
  scoring cannot inflate alert latency;
* when every worker is full the caller runs, per grain: the parent scores
  the grain itself with the same engine call instead of idling, as long as
  the worker it would wait on has answered a grain since the parent last
  stood in for it.  Otherwise ingestion blocks — the backpressure signal —
  while the parent keeps draining results;
* a worker started by ``fork`` (the default where available) scores with
  the parent's already-loaded :class:`~repro.core.pipeline.Clap`, engine
  included: it loads nothing, and its pages stay shared with the parent
  until written.  Under any other start method a worker loads the model
  read-only from ``model_dir`` with ``mmap_mode="r"`` (all workers share one
  page-cache copy of the ``.npz``).  A worker rebuilds each grain's
  connections over the unpacked column views, calls
  :meth:`~repro.core.pipeline.Clap.detect_batch` on exactly the grain an
  in-process detector would score, and posts the events back.  Workers hold
  no flow or block state;
* the parent drains the result pipes before every grain it ships, every
  ``chunk_size`` ingested packets, and at every poll, flush and close, and
  dispatches the events through the inherited dispatch (:meth:`events`,
  ``on_event``/``on_alert``).  :meth:`flush` and
  :meth:`close` are barriers that every live worker answers in queue order,
  after the events of every grain queued before them.

``worker_mode`` selects where scoring runs:

* ``"thread"`` (the default) spawns nothing: the detector scores on the
  caller's thread exactly as its base class does.  It requires
  ``workers=1``.
* ``"process"`` spawns ``workers`` scoring processes; even ``workers=1``
  moves most engine calls off the ingest thread.  The parent's side (parse,
  views, assembly, grain packing) is serial and sets a ceiling however many
  workers score: on the 2-core development host it costs about 8 µs per
  packet on the ``fanout`` benchmark capture, roughly 125k pkt/s.

Equivalence guarantee: the runtime emits the same
:class:`~repro.serve.events.DetectionEvent`\\ s as one ``StreamingDetector``
— same connection keys, completion reasons, packet counts and localisation,
scores bit for bit — at any worker count and in either worker mode, and
:meth:`close` returns the end-of-stream drain in deterministic
``(first_seen, key)`` order (``tests/serve/test_runtime.py``,
``tests/serve/test_process_runtime.py``).

Fault tolerance (process mode): a grain is in flight from its put until its
events come back.  Only the worker holds the write end of its result pipe,
so a worker that has exited leaves a pipe that reads as ended, and a worker
killed mid-report leaves a torn message that fails the read instead of
blocking it.  A worker that dies, wedges past ``stall_deadline`` or reports
a failure loses exactly its grains in flight: their packets are recorded as
the :class:`~repro.serve.supervise.InstanceLossRecord`'s
``packets_lost_inflight``, so ``packets_routed = packets_scored +
packets_lost_inflight`` holds for every lost incarnation.
``on_worker_failure`` then selects what happens next — ``"fail"`` (the
failure is raised on every later ingest/poll/flush, and by close() only if
not raised before or no worker is left; every worker is still joined),
``"respawn"`` (a fresh incarnation takes later grains), or ``"degrade"``
(the survivors, and the parent when they are full, score every later
grain).  A grain the parent scores itself is never in flight, so it cannot
be lost.  Losses are counted into the metrics degradation section.  Thread
mode has no workers to lose, so any policy other than ``"fail"`` is rejected
at construction.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import multiprocessing.connection
import os
import queue
import shutil
import signal
import tempfile
import time
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.pipeline import Clap
from repro.netstack.columns import train_rows, unpack_block
from repro.netstack.flow import CompletionReason, Connection, FlowKey
from repro.netstack.packet import Direction, Packet
from repro.serve.events import DetectionEvent
from repro.serve.faults import FaultPlan
from repro.serve.metrics import StreamingMetrics
from repro.serve.sources import PacketSource, Tick
from repro.serve.supervise import (
    DegradationReport,
    FailurePolicy,
    InstanceLossRecord,
)
from repro.serve.streaming import (
    StreamingDetector,
    drain_pending,
    scoring_grains,
)
from repro.serve import streaming

_WORKER_JOIN_TIMEOUT = 10.0
_KEY_COLUMNS = ("key_ip_a", "key_port_a", "key_ip_b", "key_port_b")


def _event_order(event: DetectionEvent) -> tuple[float, str]:
    """Deterministic event ordering: stream arrival, then connection key."""
    return (event.first_seen, str(event.result.key))


# ---------------------------------------------------------------------------
# The grain message
# ---------------------------------------------------------------------------


def _pack_grain(connections: list[Connection]) -> tuple[bytes, list[int]]:
    """One grain's packets, connection after connection, as one packed block,
    plus the connection bounds (``len(connections) + 1`` row offsets).

    :func:`~repro.netstack.columns.train_rows` locates every packet's row
    (object ``Packet`` runs become rows of one ``from_packets`` block); a
    grain spanning several blocks is gathered once, in grain order.
    """
    columns, rows, bounds = train_rows([connection.packets for connection in connections])
    return columns.pack_block(rows), bounds


def _unpack_grain(payload: bytes, bounds: list[int]) -> list[Connection]:
    """The grain's connections, rebuilt over views of the unpacked block.

    Every packet gets the direction :meth:`Connection.append` gives it:
    relative to its connection's first packet.
    """
    columns = unpack_block(payload)
    starts = np.asarray(bounds[:-1], dtype=np.int64)
    first = np.repeat(starts, np.diff(bounds))
    outbound = (columns.src == columns.src[first]) & (columns.src_port == columns.src_port[first])
    client, server = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
    views = columns.views([client if out else server for out in outbound.tolist()])
    keys = zip(
        *(getattr(columns, name)[starts].tolist() for name in _KEY_COLUMNS), strict=True
    )
    return [
        Connection(FlowKey(*key), views[start:stop], views[start].src, views[start].src_port)
        for key, start, stop in zip(keys, bounds, bounds[1:])
    ]


# ---------------------------------------------------------------------------
# Process worker side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a process shard worker needs, shipped picklable at spawn."""

    index: int
    #: The artifact a worker loads; ``None`` for a forked worker, which
    #: scores with the parent's pipeline.
    model_dir: str | None
    threshold: float
    top_n: int
    #: Incarnation counter: bumped on every respawn so the parent can drop
    #: stale result-queue messages posted by a dead predecessor.
    generation: int = 0


def _trim_heap() -> None:
    """Hand the allocator's free heap back to the OS (glibc; elsewhere a
    no-op).

    A forked worker maps every page the parent holds, including heap an
    earlier stream freed but the allocator kept, so trimming before the
    fork keeps each worker's footprint to what it uses.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return
    trim(0)


def _post(out_queue, message: tuple) -> None:
    """Report a worker result to the parent over its (unbounded) result queue.

    An unbounded ``multiprocessing.Queue`` put never blocks on capacity, so
    this is the one audited place a queue call may omit a deadline.
    """
    # clap-lint: allow[RL007] reason=result queue is unbounded; put cannot block on capacity
    out_queue.put(message)


def _process_worker_main(
    spec: _WorkerSpec, in_queue, out_queue, clap: Clap | None = None
) -> None:
    """Entry point of one process shard worker: score grains with ``clap``
    (a forked worker's inherited pipeline) or, without one, with the model
    loaded read-only from ``spec.model_dir``.

    Every ``grain`` is answered with one ``events`` message, ``flush`` with
    ``flush_done`` and ``close`` with ``closed`` (after which the worker
    exits), all in queue order.  A failure — loading the model or scoring a
    grain — is reported once as ``failed`` and ends the worker; the parent's
    failure policy takes it from there.
    """
    metrics = StreamingMetrics()
    try:
        if clap is None:
            clap = Clap.load(spec.model_dir, mmap_mode="r")
            clap.engine  # build once, before the first grain
        while True:
            try:
                item = in_queue.get(timeout=5.0)
            except queue.Empty:
                # Deadline discipline: never block forever on the work queue.
                # A parent that died without the close handshake leaves an
                # orphan worker; detect it between polls and exit.
                parent = multiprocessing.parent_process()
                if parent is not None and not parent.is_alive():
                    return
                continue
            kind = item[0]
            if kind == "grain":
                _, grain_id, payload, bounds, reasons = item
                connections = _unpack_grain(payload, bounds)
                events: list[DetectionEvent] = []
                drain_pending(
                    clap,
                    list(zip(connections, reasons, strict=True)),
                    len(connections),
                    spec.threshold,
                    spec.top_n,
                    metrics,
                    events.extend,
                )
                state = metrics.worker_state()
                _post(out_queue, ("events", spec.index, grain_id, events, state, spec.generation))
            elif kind == "flush":
                _post(out_queue, ("flush_done", spec.index, spec.generation))
            elif kind == "close":
                _post(out_queue, ("closed", spec.index, spec.generation))
                return
            elif kind == "wedge":
                # Injected fault: stop servicing the queue without exiting.
                # The parent's stall deadline is what must detect this.
                parent = multiprocessing.parent_process()
                while parent is None or parent.is_alive():
                    time.sleep(0.2)
                return
    except BaseException as error:  # noqa: BLE001 - forwarded to parent
        _post(out_queue, ("failed", spec.index, f"{type(error).__name__}: {error}", spec.generation))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _ProcessShard:
    """Parent-side handle of one process shard worker."""

    def __init__(self, index: int, spec: _WorkerSpec, handles: tuple) -> None:
        self.index = index
        self.spec = spec
        # Each incarnation reports through a result queue of its own: a
        # worker killed while writing dies holding that queue's write lock,
        # which must not silence any other worker.  ``results`` is ``None``
        # once the pipe has ended (the incarnation exited and everything it
        # wrote is read).
        self.queue, self.results, self.process = handles
        self.failure: str | None = None
        self.failure_raised = False
        self.closed = False
        self.lost = False
        self.respawns = 0
        # Per-incarnation accounting: packets of the grains put on this
        # worker's queue, and of those whose events came back.
        self.routed_packets = 0
        self.scored_packets = 0
        #: Grains in flight on this incarnation: id -> (packets, connections).
        self.inflight: dict[int, tuple[int, int]] = {}
        #: Whether this incarnation answered a grain since the parent last
        #: scored one in its place (see ``_submit``).
        self.progressed = True


class ParallelStreamingDetector(StreamingDetector):
    """A :class:`~repro.serve.streaming.StreamingDetector` whose engine calls
    may run in worker processes.

    Flow table, admission, flush batches, grain cuts, dispatch, the event
    queue and :attr:`metrics` are the inherited ones.  In thread mode the
    detector scores on the caller's thread like its base class; in process
    mode :meth:`_score_pending` hands each grain to a worker instead of the
    engine.  ``options`` are :class:`StreamingDetector`'s keyword arguments;
    the parameters of its own are:

    workers:
        Number of scoring worker processes.  Values above ``1`` require
        ``worker_mode="process"``; process mode spawns a worker even at
        ``1``.
    worker_mode:
        ``"thread"`` (default: no workers; scoring stays on the caller's
        thread) or ``"process"``; see the module docstring.
    model_dir:
        Process mode with a start method other than ``"fork"`` only: the
        artifact directory the workers load (read-only mmap); it must hold
        ``clap``, which the parent scores with itself when every worker is
        full.  Defaults to saving ``clap`` into a temporary directory that
        lives until :meth:`close`.  Forked workers ignore it: they score
        with ``clap`` itself.
    start_method:
        Process mode only: the :mod:`multiprocessing` start method.  Defaults
        to ``"fork"`` where available (POSIX), else ``"spawn"``.  A forked
        worker, respawns included, inherits ``clap`` and starts without
        loading anything; a spawned one loads ``model_dir``.
    chunk_size:
        Process mode only: the parent drains the workers' results after this
        many ingested packets (and before every grain it ships).  It sets
        how often events are delivered, never what is scored.
    on_worker_failure / max_worker_respawns / stall_deadline / fault_plan:
        Process mode only: the failure policy and its respawn budget, the
        seconds a live worker may answer nothing before it is declared
        wedged, and injected faults; see the module docstring.
    """

    def __init__(
        self,
        clap: Clap,
        *,
        workers: int = 1,
        worker_mode: str = "thread",
        chunk_size: int = 512,
        model_dir: str | Path | None = None,
        start_method: str | None = None,
        on_worker_failure: str = "fail",
        max_worker_respawns: int = 2,
        stall_deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
        **options,
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
                "(thread mode scores on the caller's thread)"
            )
        if on_worker_failure != "fail" and worker_mode != "process":
            raise ValueError(
                "worker failure policies beyond 'fail' require worker_mode='process' "
                "(thread mode has no workers to kill or respawn)"
            )
        if not isinstance(chunk_size, int) or chunk_size < 1:
            raise ValueError(f"chunk_size must be a positive integer, got {chunk_size!r}")
        # Built before any worker starts, so invalid flow-table knobs raise
        # here instead of leaving processes behind.
        super().__init__(clap, **options)
        self.workers = int(workers)
        self.worker_mode = worker_mode
        self.on_worker_failure = on_worker_failure
        self.max_worker_respawns = int(max_worker_respawns)
        self._stall_deadline = stall_deadline if stall_deadline else None
        self._fault_plan = fault_plan
        #: Every shard-worker loss recorded this stream (``kind="worker"``).
        self.worker_losses: list[InstanceLossRecord] = []
        #: Secondary errors swallowed during error-path teardown (see run()).
        self.teardown_errors: list[str] = []
        self._worker_respawns = 0
        self._closed = False
        self._failed = False  # some shard holds a failure to raise
        self._shards: list[_ProcessShard] = []
        if worker_mode == "thread":
            return
        self._chunk_size = chunk_size
        self._since_drain = 0
        self._next_grain = 0
        # While a barrier runs: the first grain id it shipped, and the events
        # of its grains (dispatched sorted when the barrier ends).
        self._collect_from: int | None = None
        self._collected: list[DetectionEvent] = []
        # Shards a barrier still waits on.
        self._waiting: set[int] = set()
        method = start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._mp_context = multiprocessing.get_context(method)
        # Grains one worker may hold in flight: one full flush batch's worth,
        # so queued scoring cannot add to alert latency.
        self._allowance = math.ceil(self.policy.max_batch / streaming.SCORING_GRAIN)
        self._tmp_model_cleanup = None
        clap.engine  # built before any fork, so forked workers inherit it
        # A forked worker scores with ``clap`` itself; any other loads an
        # artifact, by default a temporary save of ``clap``.
        self._inherited = clap if method == "fork" else None
        artifact = None
        if self._inherited is None:
            if model_dir is None:
                model_dir = tempfile.mkdtemp(prefix="clap-shard-pool-")
                clap.save(model_dir)
                self._tmp_model_cleanup = weakref.finalize(
                    self, shutil.rmtree, model_dir, ignore_errors=True
                )
            artifact = str(model_dir)
        _trim_heap()
        for index in range(self.workers):
            spec = _WorkerSpec(index, artifact, self.threshold, self.top_n)
            self._shards.append(
                _ProcessShard(index, spec, self._start_worker(spec, f"clap-shard-{index}"))
            )

    def _start_worker(self, spec: _WorkerSpec, name: str) -> tuple:
        """Start one worker incarnation; returns ``(in_queue, results, process)``."""
        # Unbounded: the allowance caps the grains in flight on the parent's
        # side, so control messages never wait behind capacity.
        in_queue = self._mp_context.Queue()
        results = self._mp_context.Queue()
        process = self._mp_context.Process(
            target=_process_worker_main,
            args=(spec, in_queue, results, self._inherited),
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
        """Feed one packet; a batch it completes is scored (thread mode) or
        shipped to workers grain by grain, which may block on backpressure."""
        if self._closed:
            raise RuntimeError("ingest() after close()")
        if self._failed:
            self._raise_worker_failure()
        super().ingest(packet)
        if not self._shards:
            return
        if self._fault_plan is not None:
            self._apply_worker_faults()
        self._since_drain += 1
        if self._since_drain >= self._chunk_size:
            self._drain_results()

    def ingest_many(self, packets: Iterable[Packet]) -> None:
        """Feed a chunk of packets in stream order.  In process mode, and
        after :meth:`close`, each goes through :meth:`ingest`, so results
        drain every ``chunk_size`` packets, injected faults fire at their
        packet and a closed detector refuses the first one."""
        if not self._shards and not self._closed:
            super().ingest_many(packets)
            return
        for packet in packets:
            self.ingest(packet)

    def poll(self, now: float | None = None) -> None:
        """Advance stream time without a packet."""
        if self._closed:
            return  # everything was already drained; nothing left to expire
        if self._shards:
            self._drain_results()
            if self._failed:
                self._raise_worker_failure()
        super().poll(now)

    def run(self, source: PacketSource) -> list[DetectionEvent]:
        """Consume a packet source to exhaustion, then :meth:`close`.

        :class:`~repro.serve.sources.Tick` items become :meth:`poll` calls,
        so paced sources keep flow-table timers firing through quiet spells.
        Returns the final end-of-stream events; interim events remain
        available through :meth:`events` / the callbacks.

        If the source (or a worker) raises mid-stream, the pool is shut down
        before the error propagates: workers are joined rather than leaked,
        and a worker failure discovered during that shutdown never masks the
        original error.
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

    # -------------------------------------------------------------- transport
    def _submit(self, grain: list[tuple[Connection, CompletionReason]]) -> None:
        """Ship one grain to the live worker with the fewest grains in flight.

        When even that worker already holds its allowance of grains, the
        caller runs: the parent scores the grain itself instead of idling,
        as long as that worker has answered a grain since the parent last
        stood in for it.  Otherwise the call waits — the backpressure
        contract — draining results meanwhile: a worker that dies is noticed
        through its ended result pipe, and one that stays alive but answers
        nothing past ``stall_deadline`` is declared wedged.  Either way the
        failure policy runs and the grain goes to whichever worker is left.
        Time spent waiting is added to the metrics'
        ``backpressure_wait_seconds``.
        """
        # Reading results first hands a worker that has exited to the failure
        # policy before a grain is put on its queue.
        self._drain_results()
        grain_id = self._next_grain
        self._next_grain += 1
        waiting_since: float | None = None
        try:
            while True:
                live = [shard for shard in self._shards if not shard.closed]
                if not live:
                    self._raise_worker_failure()
                    raise RuntimeError("no shard worker is left to score a grain")
                shard = min(live, key=lambda candidate: len(candidate.inflight))
                if len(shard.inflight) < self._allowance:
                    self._ship(shard, grain_id, grain)
                    return
                if shard.progressed:
                    shard.progressed = False
                    events: list[DetectionEvent] = []
                    drain_pending(
                        self.clap,
                        list(grain),
                        len(grain),
                        self.threshold,
                        self.top_n,
                        self.metrics,
                        events.extend,
                    )
                    self._deliver(grain_id, events)
                    return
                if waiting_since is None:
                    waiting_since = time.monotonic()
                if (
                    not self._wait_results(0.05)
                    and self._stall_deadline is not None
                    and time.monotonic() - waiting_since > self._stall_deadline
                ):
                    self._on_worker_down(
                        shard,
                        f"worker wedged: no grain answered for {self._stall_deadline:.1f}s",
                    )
        finally:
            if waiting_since is not None:
                self.metrics.record_backpressure_wait(time.monotonic() - waiting_since)

    def _ship(
        self, shard: _ProcessShard, grain_id: int, grain: list[tuple[Connection, CompletionReason]]
    ) -> None:
        """Put one grain message on ``shard``'s queue and count it in flight."""
        payload, bounds = _pack_grain([connection for connection, _ in grain])
        reasons = [reason for _, reason in grain]
        shard.queue.put_nowait(("grain", grain_id, payload, bounds, reasons))
        shard.inflight[grain_id] = (bounds[-1], len(grain))
        shard.routed_packets += bounds[-1]
        self.metrics.record_queue_depth(len(shard.inflight))

    def _deliver(self, grain_id: int, events: list[DetectionEvent]) -> None:
        """Dispatch a grain's events, or hold them for the running barrier if
        it shipped the grain."""
        if self._collect_from is not None and grain_id >= self._collect_from:
            self._collected.extend(events)
        else:
            self._dispatch(events)

    def _put_shard(self, shard: _ProcessShard, message: tuple) -> bool:
        """Put a control message on a live shard's (unbounded) queue."""
        if shard.closed:
            return False
        shard.queue.put_nowait(message)
        return True

    def _handle_result(self, shard: _ProcessShard, message: tuple) -> None:
        if message[-1] != shard.spec.generation:
            return  # stale message from a dead incarnation (pre-respawn)
        kind = message[0]
        if kind == "events":
            _, _, grain_id, events, state, generation = message
            shard.scored_packets += shard.inflight.pop(grain_id)[0]
            shard.progressed = True
            self.metrics.absorb_worker_state((shard.index, generation), state)
            self._deliver(grain_id, events)
        elif kind == "failed":
            self._on_worker_down(shard, f"worker reported failure: {message[2]}")
        else:  # a barrier answer: flush_done or closed
            if kind == "closed":
                shard.closed = True
            self._waiting.discard(shard.index)

    def _drain_results(self) -> None:
        """Consume every result message available right now."""
        self._since_drain = 0
        for shard in self._shards:
            self._drain_shard(shard)

    def _drain_shard(self, shard: _ProcessShard) -> None:
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
            self._handle_result(shard, message)

    def _wait_results(self, timeout: float) -> bool:
        """Wait up to ``timeout`` for a result pipe to turn readable, drain
        the ones that did, and return whether any did."""
        readers = {
            shard.results._reader: shard for shard in self._shards if shard.results is not None
        }
        ready = multiprocessing.connection.wait(list(readers), timeout=timeout)
        for reader in ready:
            self._drain_shard(readers[reader])
        return bool(ready)

    def _await_results(self, done) -> None:
        """Pump the result queues until ``done()`` — dead workers included.

        A worker that died without its final handshake (kill -9, interpreter
        abort) ends its result pipe once everything it wrote has been read,
        and is handed to the failure policy then, so barriers terminate
        instead of waiting forever.  When a ``stall_deadline`` is configured,
        a worker that is alive but has produced nothing for that long while
        a barrier waits on it is declared wedged and handed to the failure
        policy the same way.
        """
        last_progress = time.monotonic()
        while not done():
            if self._wait_results(0.05):
                last_progress = time.monotonic()
                continue
            if (
                self._stall_deadline is None
                or time.monotonic() - last_progress <= self._stall_deadline
            ):
                continue
            for shard in self._shards:
                if shard.closed:
                    continue
                # A wedged worker stops consuming, so its input queue retains
                # items; an alive worker with an empty queue is merely busy
                # and must not be shot — that would cascade respawns.
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

    # ------------------------------------------------------- worker supervision
    def _apply_worker_faults(self) -> None:
        """Fire due injected worker faults from the :class:`FaultPlan`."""
        for kind, index in self._fault_plan.packet_routed(1):
            shard = self._shards[index % self.workers]
            if shard.closed:
                continue
            if kind == "kill-worker":
                if shard.process.is_alive():
                    os.kill(shard.process.pid, signal.SIGKILL)
                    # Let the kill land, so the next drain sees it and the
                    # plan replays identically.
                    shard.process.join(timeout=_WORKER_JOIN_TIMEOUT)
            else:
                self._put_shard(shard, ("wedge",))

    def _on_worker_down(self, shard: _ProcessShard, reason: str) -> None:
        """Central worker-loss handler: reap, account, then apply the policy.

        Safe to call from any parent-side path that discovers the loss (an
        exited process, an ended result pipe, a stalled put, a
        worker-reported failure); the first caller wins, later calls see
        ``closed`` and return.  The incarnation's grains in flight are its
        known loss.
        """
        if shard.closed:
            return
        policy = self.on_worker_failure
        if self._closed and policy == "respawn":
            # Mid-close there is no future work to respawn for; record the
            # loss and let the close complete with what the survivors hold.
            policy = "degrade"
        routed, scored = shard.routed_packets, shard.scored_packets
        if shard.process.is_alive():
            shard.process.kill()
        shard.process.join(timeout=_WORKER_JOIN_TIMEOUT)
        # The dead incarnation's queue is abandoned.  Without this, its
        # feeder thread can sit blocked on a full pipe nobody reads, and the
        # interpreter's atexit join on that feeder hangs shutdown.
        shard.queue.cancel_join_thread()
        shard.queue.close()
        # Nor will it answer a barrier.
        self._waiting.discard(shard.index)
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
        shard.closed = True
        if policy == "fail":
            shard.failure = shard.failure or reason
            self._failed = True
            return
        shard.lost = True
        if all(other.lost for other in self._shards):
            shard.failure = "every shard worker has been lost"
            self._failed = True
            self._raise_worker_failure()

    def _respawn_worker(self, shard: _ProcessShard) -> None:
        """Replace a dead worker with a fresh incarnation of its spec.

        Workers hold no stream state, so the new incarnation needs nothing
        but the model (inherited again when forked); it takes later grains.  The dead one's grains in
        flight are gone — the caller records them as a known loss before
        the counters reset.
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
        shard.routed_packets = 0
        shard.scored_packets = 0
        shard.inflight = {}
        shard.progressed = True
        self._worker_respawns += 1
        self.metrics.record_respawn()

    def degradation_report(self) -> DegradationReport:
        """What this stream lost: worker losses and respawns."""
        return DegradationReport(
            losses=list(self.worker_losses),
            respawns=self._worker_respawns,
            teardown_errors=list(self.teardown_errors),
        )

    # ---------------------------------------------------------------- scoring
    def _score_pending(self) -> list[DetectionEvent]:
        """Process mode: hand every buffered connection to :meth:`_submit`,
        one grain at a time; the events arrive later, through the result
        pipes.  A grain leaves the buffer only once ``_submit`` returned."""
        if not self._shards:
            return super()._score_pending()
        pending = self._pending
        for size in scoring_grains(len(pending), self.policy.max_batch):
            self._submit(pending[:size])
            del pending[:size]
        return []

    def _barrier(self, ship, kind: str) -> list[DetectionEvent]:
        """Run ``ship`` (which submits grains), send ``kind`` to every live
        worker and wait until each has answered.  The events of the grains
        ``ship`` submitted are dispatched and returned in deterministic order;
        events of earlier grains are dispatched as they arrive."""
        self._collect_from = self._next_grain
        try:
            ship()
            for shard in self._shards:
                if self._put_shard(shard, (kind,)):
                    self._waiting.add(shard.index)
            self._await_results(lambda: not self._waiting)
        finally:
            self._waiting.clear()
            self._collect_from = None
            events, self._collected = self._collected, []
            events.sort(key=_event_order)
            self._dispatch(events)
        return events

    def flush(self) -> list[DetectionEvent]:
        """Score everything currently buffered and return its events.

        In process mode this is a barrier: it returns once every live worker
        has scored every grain shipped so far, with the events of the
        grains this call shipped in deterministic order.  As in thread mode,
        those events also reach :meth:`events` and the callbacks.
        """
        if not self._shards:
            return super().flush()
        if self._closed:
            return []  # close() already scored everything and joined workers
        self._drain_results()
        if self._failed:
            self._raise_worker_failure()
        flushed = self._barrier(self._score_pending, "flush")
        if self._failed:
            self._raise_worker_failure()
        return flushed

    def close(self) -> list[DetectionEvent]:
        """End of stream: drain the flow table, score the drain, join the
        workers.

        Returns the events produced by the final drain, sorted by
        ``(first_seen, connection key)`` — deterministic at any worker count.
        A worker failure (including one discovered during the drain) still
        joins every worker and releases the temporary model directory before
        the failure is raised.  A failure already raised by ingest/flush is
        raised again only when no worker is left to drain.
        """
        if self._closed:
            return []
        self._closed = True
        if not self._shards:
            return sorted(super().close(), key=_event_order)
        try:
            final = self._barrier(super().close, "close")
        finally:
            for shard in self._shards:
                if not shard.closed and shard.process.is_alive():
                    shard.process.kill()  # a barrier that raised left it waiting
                shard.process.join(timeout=_WORKER_JOIN_TIMEOUT)
                shard.queue.cancel_join_thread()
            if self._tmp_model_cleanup is not None:
                self._tmp_model_cleanup()
        # A failure the stream already raised is not raised again while
        # survivors delivered a drain; with none left, the empty drain must
        # not pass for a clean end of stream.
        self._raise_worker_failure(
            skip_raised=not all(shard.failure is not None or shard.lost for shard in self._shards)
        )
        return final

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
        self._collect_results()
        return super().events()

    @property
    def pending_connections(self) -> int:
        """Completed connections not scored yet: buffered here, or in a grain
        in flight to a live worker."""
        inflight = sum(
            connections
            for shard in self._shards
            if not shard.closed
            for _, connections in shard.inflight.values()
        )
        return super().pending_connections + inflight

    def _settle_metrics(self) -> None:
        self._collect_results()
        super()._settle_metrics()

    def _collect_results(self) -> None:
        """Process mode, before close: take in what the workers have posted."""
        if self._shards and not self._closed:
            self._drain_results()
