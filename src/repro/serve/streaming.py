"""Streaming-first detection: raw packets in, typed alerts out.

The paper deploys CLAP as an online middlebox companion (Figure 3) that
watches a live packet stream.  :class:`StreamingDetector` is that deployment
surface: it ingests packets one at a time (or in chunks), assembles them into
connections with an incremental :class:`~repro.netstack.flow.FlowTable`,
micro-batches completed connections through the trained pipeline's batched
inference engine under a configurable :class:`FlushPolicy`, and emits typed
:class:`~repro.serve.events.DetectionEvent` / :class:`~repro.serve.events.Alert`
objects through both a pull iterator (:meth:`StreamingDetector.events`) and a
push callback API (``on_event`` / ``on_alert``).

On a time-ordered capture, streaming the packets and draining the detector
produces the same connections — and scores within 1e-9 — as assembling the
capture offline and calling :meth:`repro.core.pipeline.Clap.detect_batch`
(``tests/serve/test_streaming.py``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator

from repro.core.pipeline import Clap
from repro.netstack.flow import CompletionReason, Connection, FlowTable
from repro.netstack.packet import Packet
from repro.serve.events import Alert, DetectionEvent, make_event
from repro.serve.metrics import DropPolicy, StreamingMetrics, apply_drop_policy

EventCallback = Callable[[DetectionEvent], None]
AlertCallback = Callable[[Alert], None]


#: Connections per engine call.  Every topology scores a flush batch as
#: consecutive :meth:`~repro.core.pipeline.Clap.detect_batch` calls of at
#: most this many connections, in arrival order, so the in-process detector,
#: a process worker and the process runtime's parent make identical engine
#: calls and their scores agree bit for bit.  It is also the unit a process
#: runtime ships to a worker or scores itself.
SCORING_GRAIN = 64


def scoring_grains(count: int, max_batch: int) -> Iterator[int]:
    """Engine-call sizes for ``count`` buffered connections: ``max_batch``
    flush batches, each cut into consecutive grains of at most
    :data:`SCORING_GRAIN` connections."""
    while count > 0:
        batch = min(count, max_batch)
        count -= batch
        while batch > 0:
            size = min(batch, SCORING_GRAIN)
            batch -= size
            yield size


def drain_pending(
    clap: Clap,
    pending: list[tuple[Connection, CompletionReason]],
    max_batch: int,
    threshold: float,
    top_n: int,
    metrics: StreamingMetrics,
    emit: Callable[[list[DetectionEvent]], None],
) -> list[DetectionEvent]:
    """Score ``pending`` (in place) in ``max_batch`` flush batches, one
    engine call per :func:`scoring_grains` grain.

    The one flush loop shared by :class:`StreamingDetector`, the process
    runtime's workers and its parent (which each pass one grain).  ``emit``
    receives each grain's events as soon as that engine call completes, so an
    early grain's alert never waits behind the scoring of later grains.  A
    grain is dequeued only after its engine call succeeded — an exception
    leaves it buffered and the drain retryable (a retry cuts its batches
    afresh from the head of the buffer).
    """
    flushed: list[DetectionEvent] = []
    for size in scoring_grains(len(pending), max_batch):
        grain = pending[:size]
        connections = [connection for connection, _ in grain]
        started = time.perf_counter()
        results = clap.detect_batch(connections, threshold=threshold, top_n=top_n)
        metrics.record_flush(size, time.perf_counter() - started)
        del pending[:size]
        events = []
        for result, (connection, reason) in zip(results, grain, strict=True):
            first = connection.packets[0].timestamp if connection.packets else 0.0
            last = connection.packets[-1].timestamp if connection.packets else 0.0
            events.append(make_event(result, reason, first, last))
        emit(events)
        flushed.extend(events)
    return flushed


@dataclass(frozen=True)
class FlushPolicy:
    """When buffered completed connections are pushed through the engine.

    ``max_batch`` is the micro-batch size: with ``auto_flush`` enabled
    (the default) the pending buffer is flushed as soon as it holds that many
    completed connections — so an alert is never delayed by more than
    ``max_batch`` buffered completions.  A flush batch is scored as
    consecutive engine calls of at most :data:`SCORING_GRAIN` connections.
    ``max_buffered`` is the hard ceiling honoured even when ``auto_flush`` is
    off (for callers that prefer to :meth:`~StreamingDetector.flush` on their
    own schedule): reaching it forces a drain so memory stays bounded.

    The default of 128 is two grains, which a process runtime can score on
    two cores at once.  Splitting is not free, though: on the benchmark's
    ``fanout`` capture (2-core development host, one BLAS thread) 128
    connections took 45.1 ms as one engine call, 48.9 ms as two of 64 and
    52.4 ms as four of 32, which is why the grain is no smaller.  Lower
    ``max_batch`` when worst-case alert latency in *completions* matters
    more than throughput.
    """

    max_batch: int = 128
    max_buffered: int = 1024
    auto_flush: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {self.max_batch}")
        if self.max_buffered < self.max_batch:
            raise ValueError(
                f"max_buffered ({self.max_buffered}) must be >= max_batch ({self.max_batch})"
            )


class StreamingDetector:
    """Online CLAP: feed packets, collect :class:`DetectionEvent`/:class:`Alert`s.

    Parameters
    ----------
    clap:
        A fitted (or loaded) :class:`~repro.core.pipeline.Clap` pipeline.
    flush_policy:
        Micro-batching behaviour; see :class:`FlushPolicy`.
    threshold:
        Operating threshold; defaults to the pipeline's calibrated one.
    top_n:
        How many suspicious packet positions to localise per connection.
    idle_timeout / close_grace / max_flows / max_packets:
        Forwarded to the underlying :class:`~repro.netstack.flow.FlowTable`.
    on_event / on_alert:
        Optional callbacks invoked synchronously as events are produced;
        ``on_alert`` fires only for threshold-exceeding connections.  Events
        are queued for :meth:`events` regardless, so both APIs can be used
        together.
    drop_policy:
        Optional :class:`~repro.serve.metrics.DropPolicy` applied to
        capacity-evicted flows before they are scored; by default every
        completion is scored.

    Every detector records into its own
    :class:`~repro.serve.metrics.StreamingMetrics`, :attr:`metrics`.
    """

    def __init__(
        self,
        clap: Clap,
        *,
        flush_policy: FlushPolicy | None = None,
        threshold: float | None = None,
        top_n: int = 1,
        idle_timeout: float = 60.0,
        close_grace: float = 1.0,
        max_flows: int | None = None,
        max_packets: int | None = None,
        on_event: EventCallback | None = None,
        on_alert: AlertCallback | None = None,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        self.clap = clap
        self.policy = flush_policy or FlushPolicy()
        self.threshold = clap.threshold if threshold is None else float(threshold)
        self.top_n = int(top_n)
        self.on_event = on_event
        self.on_alert = on_alert
        self.drop_policy = drop_policy
        self._admission = drop_policy.new_state() if drop_policy is not None else None
        self.metrics = StreamingMetrics()
        self.flow_table = FlowTable(
            idle_timeout=idle_timeout,
            close_grace=close_grace,
            max_flows=max_flows,
            max_packets=max_packets,
        )
        self._pending: list[tuple[Connection, CompletionReason]] = []
        self._events: deque[DetectionEvent] = deque()
        self._packets_ingested = 0

    # -------------------------------------------------------------- ingestion
    def ingest(self, packet: Packet) -> None:
        """Feed one packet; completed connections are buffered and, per the
        flush policy, scored."""
        self._packets_ingested += 1
        completions = self.flow_table.add(packet)
        if completions:
            self._buffer(completions)

    def ingest_many(self, packets: Iterable[Packet]) -> None:
        """Feed a chunk of packets in stream order."""
        add = self.flow_table.add
        buffer = self._buffer
        for packet in packets:
            # Counted per packet so callbacks fired by an auto-flush (and
            # error handlers) observe an up-to-date ``packets_ingested``.
            self._packets_ingested += 1
            completions = add(packet)
            if completions:
                buffer(completions)

    def poll(self, now: float | None = None) -> None:
        """Advance stream time without a packet (e.g. on a wall-clock tick)."""
        self._buffer(self.flow_table.poll(now))

    def _buffer(self, completions: list[tuple[Connection, CompletionReason]]) -> None:
        if completions:
            completions = apply_drop_policy(
                completions, self.drop_policy, self.metrics, self._admission
            )
        self._pending.extend(completions)
        self.metrics.record_pending_depth(len(self._pending))
        if self.policy.auto_flush and len(self._pending) >= self.policy.max_batch:
            self._score_pending()
        elif len(self._pending) >= self.policy.max_buffered:
            self._score_pending()

    # ---------------------------------------------------------------- scoring
    def flush(self) -> list[DetectionEvent]:
        """Score every buffered completed connection now.

        The buffer is drained in ``max_batch`` flush batches of grain-sized
        engine calls (:func:`drain_pending`), and each grain's events are
        dispatched (queued for :meth:`events`, pushed to the callbacks) as
        soon as its engine call completes — an ``on_alert`` for an early
        grain never waits behind the scoring of later grains.
        The full flushed list is also returned for convenience.
        """
        return self._score_pending()

    def _score_pending(self) -> list[DetectionEvent]:
        """Score the pending buffer: the one place a flush reaches the engine
        (the auto-flush, :meth:`flush` and :meth:`close` all come here)."""
        return drain_pending(
            self.clap,
            self._pending,
            self.policy.max_batch,
            self.threshold,
            self.top_n,
            self.metrics,
            self._dispatch,
        )

    def _dispatch(self, events: list[DetectionEvent]) -> None:
        """Count ``events``, queue them for :meth:`events` and push them to
        the callbacks."""
        for event in events:
            self.metrics.record_events(1, 1 if event.is_alert else 0)
            self._events.append(event)
            if self.on_event is not None:
                self.on_event(event)
            if event.is_alert and self.on_alert is not None:
                self.on_alert(event)  # type: ignore[arg-type]

    # ----------------------------------------------------------------- output
    def events(self) -> Iterator[DetectionEvent]:
        """Drain the queued events produced since the last call (non-blocking)."""
        while self._events:
            yield self._events.popleft()

    def alerts(self) -> Iterator[Alert]:
        """Like :meth:`events`, but yields only threshold-exceeding connections."""
        for event in self.events():
            if isinstance(event, Alert):
                yield event

    def close(self) -> list[DetectionEvent]:
        """End of stream: drain the flow table and flush everything buffered.

        The drain rides the same drop-policy/metrics accounting as every
        mid-stream completion, so ``completions_by_reason`` counts the final
        DRAIN batch identically at any worker count (it used to bypass
        :func:`apply_drop_policy` here, leaving the ``workers=1`` counters
        short of the sharded runtime's).  It only skips :meth:`_buffer`'s
        auto-flush so the whole drain is returned from the single
        scoring pass below.
        """
        drained = self.flow_table.drain()
        if drained:
            drained = apply_drop_policy(
                drained, self.drop_policy, self.metrics, self._admission
            )
            self._pending.extend(drained)
            self.metrics.record_pending_depth(len(self._pending))
        return self._score_pending()

    # ------------------------------------------------------------- monitoring
    @property
    def pending_connections(self) -> int:
        """Completed connections buffered but not yet scored."""
        return len(self._pending)

    @property
    def active_flows(self) -> int:
        """Connections currently being assembled in the flow table."""
        return len(self.flow_table)

    @property
    def connections_seen(self) -> int:
        """Total connections scored so far."""
        return self.metrics.events_emitted

    @property
    def alerts_emitted(self) -> int:
        """Total alerts produced so far."""
        return self.metrics.alerts_emitted

    @property
    def packets_ingested(self) -> int:
        """Total packets fed through :meth:`ingest` so far."""
        return self._packets_ingested

    def occupancy(self) -> list[int]:
        """Tracked connections per flow table (there is one)."""
        return [len(self.flow_table)]

    def metrics_snapshot(self) -> dict:
        """The metrics snapshot plus current flow-table occupancy."""
        self._settle_metrics()
        return self.metrics.snapshot(self.occupancy())

    def render_metrics(self) -> str:
        """Human-readable metrics summary (the CLI prints this to stderr)."""
        self._settle_metrics()
        return self.metrics.render(self.occupancy())

    def _settle_metrics(self) -> None:
        """Bring :attr:`metrics` up to date before it is read."""
        self.metrics.set_ingested(0, self._packets_ingested)
