"""Backpressure monitoring and drop policies for the streaming runtime.

Grashöfer et al. ("Attacks on open-source network security monitors") show
that unbounded per-flow state is itself an attack surface: a SYN flood that
fills the flow table forces either unbounded memory or mass
:attr:`~repro.netstack.flow.CompletionReason.CAPACITY` evictions, and naively
scoring every evicted one-packet flow burns the inference budget exactly when
the system is under attack.  This module makes both concerns first-class:

* :class:`DropPolicy` decides what happens to capacity-evicted flows before
  they reach the scoring engine: score them all, drop them all, sample them
  deterministically, or budget them per source subnet so one flooding subnet
  cannot evict everyone else (the mutable budget counters live in
  :class:`AdmissionState`, one per worker, keeping the policy itself frozen
  and picklable);
* :class:`AdaptiveChunker` closes the loop between the runtime's two load
  signals — queue backpressure grows the ingest chunk size to amortise
  dispatch, rising flush latency shrinks it back down;
* :class:`StreamingMetrics` aggregates the runtime's operational signals —
  per-shard ingest/completion counters, drop counters, flush latency
  histogram, queue/pending depth high-water marks, shared-memory block
  accounting — behind one lock, so any thread may record into it.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from collections.abc import Iterable

from repro.netstack.flow import CompletionReason, Connection

#: Upper edges (seconds) of the flush-latency histogram buckets; the final
#: bucket is open-ended.  Engine flushes on commodity hardware land in the
#: single-digit-millisecond range, so the buckets climb log-ish from 1 ms.
LATENCY_BUCKET_EDGES: tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (Prometheus-style, cumulative render)."""

    def __init__(self, edges: tuple[float, ...] = LATENCY_BUCKET_EDGES) -> None:
        self.edges = tuple(float(edge) for edge in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_right(self.edges, seconds)] += 1
        self.total += seconds
        self.count += 1
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        buckets = {}
        cumulative = 0
        # counts carries one extra overflow bucket beyond the last edge (le_inf).
        for edge, bucket_count in zip(self.edges, self.counts, strict=False):
            cumulative += bucket_count
            buckets[f"le_{edge:g}"] = cumulative
        buckets["le_inf"] = self.count
        return {
            "count": self.count,
            "mean_seconds": self.mean,
            "max_seconds": self.max,
            "buckets": buckets,
        }


#: Resolution of the deterministic sampling draw: ``hash(FlowKey)`` is folded
#: into this many buckets, so ``sample_rate`` is honoured to ~1e-6.
_SAMPLE_BUCKETS = 1 << 20


@dataclass(frozen=True)
class DropPolicy:
    """What to do with :attr:`CompletionReason.CAPACITY` completions.

    ``mode="score"`` (the default, and the historical behaviour) sends every
    capacity eviction to the engine like any other completion.
    ``mode="drop"`` discards them unscored — under a flood the evicted flows
    are overwhelmingly attacker-created fragments, and dropping them keeps
    the engine budget for connections that completed organically.
    ``mode="sample"`` sits between the two: each eviction is admitted by a
    cheap admission score — a completed handshake always admits (the flow
    progressed organically before the table filled), everything else is
    admitted by a deterministic per-flow hash draw at ``sample_rate`` — so a
    fixed, reproducible fraction of the flood tail is still scored (enough to
    keep seeing what the flood *is*) without burning the inference budget on
    all of it.  The draw hashes the canonical :class:`FlowKey`, so the same
    flow gets the same verdict at any worker count and in any worker mode.
    ``min_packets`` refines ``"score"`` and ``"sample"``: capacity evictions
    shorter than this many packets (e.g. bare SYNs) are dropped outright.

    ``subnet_budget`` adds the per-source-subnet defense from Grashöfer et
    al.'s monitor-state attacks: within each ``budget_window`` stream-seconds
    at most this many capacity evictions per ``/subnet_prefix`` source subnet
    are admitted to scoring; the rest are counted as ``subnet_drops``.  One
    subnet flooding the flow table then costs bounded engine time instead of
    crowding out every other source.  The budget needs mutable counters,
    which live in :class:`AdmissionState` (one per worker, from
    :meth:`new_state`) so the policy itself stays frozen and picklable across
    the process-worker boundary.

    Only capacity evictions are ever dropped; CLOSED/IDLE/DRAIN completions
    always reach the engine regardless of policy.
    """

    mode: str = "score"
    min_packets: int = 0
    sample_rate: float = 0.1
    subnet_budget: int | None = None
    subnet_prefix: int = 24
    budget_window: float = 10.0

    _MODES = ("score", "drop", "sample")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(
                f"drop-policy mode must be one of {self._MODES}, got {self.mode!r}"
            )
        if self.min_packets < 0:
            raise ValueError(f"min_packets must be non-negative, got {self.min_packets}")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.subnet_budget is not None and self.subnet_budget < 1:
            raise ValueError(
                f"subnet_budget must be at least 1, got {self.subnet_budget}"
            )
        if not 0 <= self.subnet_prefix <= 32:
            raise ValueError(
                f"subnet_prefix must be in [0, 32], got {self.subnet_prefix}"
            )
        if self.budget_window <= 0:
            raise ValueError(
                f"budget_window must be positive, got {self.budget_window}"
            )

    def new_state(self) -> "AdmissionState | None":
        """Per-worker mutable admission counters, or ``None`` if stateless."""
        return AdmissionState(self) if self.subnet_budget is not None else None

    def _sample_admits(self, connection: Connection) -> bool:
        if connection.has_handshake:
            return True
        key = connection.key
        draw = (hash(key) & (_SAMPLE_BUCKETS - 1)) if key is not None else 0
        return draw < self.sample_rate * _SAMPLE_BUCKETS

    def verdict(
        self,
        connection: Connection,
        reason: CompletionReason,
        state: "AdmissionState | None" = None,
    ) -> str:
        """``"score"``, ``"drop"`` or ``"subnet"`` for this completion."""
        if reason is not CompletionReason.CAPACITY:
            return "score"
        if self.mode == "drop":
            return "drop"
        if len(connection) < self.min_packets:
            return "drop"
        if self.mode == "sample" and not self._sample_admits(connection):
            return "drop"
        if state is not None and not state.admit(connection):
            return "subnet"
        return "score"

    def drops(self, connection: Connection, reason: CompletionReason) -> bool:
        """True if this completion should be discarded without scoring.

        Stateless view of :meth:`verdict` — subnet budgets (which need an
        :class:`AdmissionState`) never drop through this entry point.
        """
        return self.verdict(connection, reason) != "score"


class AdmissionState:
    """Mutable per-worker counters behind :class:`DropPolicy` subnet budgets.

    One instance per detector or shard worker process, created through
    :meth:`DropPolicy.new_state`; the policy rides pickled worker specs while
    this object never crosses a process boundary.  Budget windows roll on
    stream time (the completing connection's last packet timestamp), so replay
    and live traffic behave identically.
    """

    __slots__ = ("policy", "_counts", "_window_start")

    def __init__(self, policy: DropPolicy) -> None:
        self.policy = policy
        self._counts: dict[int, int] = {}
        self._window_start = float("-inf")

    def _subnet(self, connection: Connection) -> int:
        source = connection.client_ip
        if source is None:
            source = connection.key.ip_a if connection.key is not None else 0
        shift = 32 - self.policy.subnet_prefix
        return int(source) >> shift if shift else int(source)

    def _stream_time(self, connection: Connection) -> float | None:
        packets = connection.packets
        return packets[-1].timestamp if packets else None

    def admit(self, connection: Connection) -> bool:
        """Charge this eviction against its source subnet's budget."""
        budget = self.policy.subnet_budget
        if budget is None:
            return True
        now = self._stream_time(connection)
        if now is not None and now - self._window_start >= self.policy.budget_window:
            self._counts.clear()
            self._window_start = now
        subnet = self._subnet(connection)
        used = self._counts.get(subnet, 0)
        if used >= budget:
            return False
        self._counts[subnet] = used + 1
        return True


class AdaptiveChunker:
    """Feedback controller for the runtime's ingest chunk size.

    The chunk size trades dispatch overhead against latency: bigger chunks
    amortise queue operations (and, in process mode, pickling), smaller
    chunks keep flush latency down.  No fixed value suits both a drizzle and
    a flood, so the runtime drives this controller with its two load signals:

    * **backpressure** — a shard queue reported full while submitting.  The
      workers are behind on per-chunk overhead, so the chunk size doubles
      (up to ``maximum``).
    * **flush latency** — the EWMA of engine flush time climbed past
      ``target_flush_seconds``.  Batches have grown past the latency budget,
      so the chunk size halves (down to ``minimum``).

    ``cooldown`` submissions must pass between two resizes, so one burst
    cannot slam the size across its whole range, and the two signals cannot
    fight each other into oscillation within a single flush interval.
    All methods are thread-safe.
    """

    def __init__(
        self,
        initial: int = 64,
        *,
        minimum: int = 16,
        maximum: int = 2048,
        target_flush_seconds: float = 0.25,
        ewma_alpha: float = 0.2,
        cooldown: int = 4,
    ) -> None:
        if minimum < 1 or maximum < minimum:
            raise ValueError(
                f"need 1 <= minimum <= maximum, got [{minimum}, {maximum}]"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if target_flush_seconds <= 0:
            raise ValueError(
                f"target_flush_seconds must be positive, got {target_flush_seconds}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown}")
        self.minimum = int(minimum)
        self.maximum = int(maximum)
        self.target_flush_seconds = float(target_flush_seconds)
        self.ewma_alpha = float(ewma_alpha)
        self.cooldown = int(cooldown)
        self._size = min(max(int(initial), self.minimum), self.maximum)
        self._lock = threading.Lock()
        self._cooldown_left = 0
        self._ewma: float | None = None
        self.grow_events = 0
        self.shrink_events = 0
        self.backpressure_events = 0

    @property
    def size(self) -> int:
        """The current chunk size (a plain read; always in bounds)."""
        # clap-lint: allow[RL001] reason=hot-path read; int reads never tear, a stale size stays in bounds
        return self._size

    def record_submit(self) -> None:
        """One chunk was submitted (advances the resize cooldown)."""
        with self._lock:
            if self._cooldown_left:
                self._cooldown_left -= 1

    def record_backpressure(self) -> None:
        """A shard queue was full while submitting: grow, cooldown permitting."""
        with self._lock:
            self.backpressure_events += 1
            if self._cooldown_left or self._size >= self.maximum:
                return
            self._size = min(self._size * 2, self.maximum)
            self.grow_events += 1
            self._cooldown_left = self.cooldown

    def record_flush(self, seconds: float) -> None:
        """Fold one flush latency into the EWMA; shrink if it runs hot."""
        with self._lock:
            alpha = self.ewma_alpha
            self._ewma = (
                seconds
                if self._ewma is None
                else alpha * seconds + (1.0 - alpha) * self._ewma
            )
            if self._cooldown_left or self._ewma <= self.target_flush_seconds:
                return
            if self._size <= self.minimum:
                return
            self._size = max(self._size // 2, self.minimum)
            self.shrink_events += 1
            self._cooldown_left = self.cooldown
            # Halving the chunk roughly halves the work behind one flush;
            # discount the EWMA the same way so the next flush is judged
            # against the new regime instead of re-shrinking on stale history.
            self._ewma *= 0.5

    def state(self) -> dict[str, object]:
        """JSON-friendly controller state for metrics snapshots."""
        with self._lock:
            return {
                "size": self._size,
                "minimum": self.minimum,
                "maximum": self.maximum,
                "grow_events": self.grow_events,
                "shrink_events": self.shrink_events,
                "backpressure_events": self.backpressure_events,
                "flush_ewma_seconds": self._ewma if self._ewma is not None else 0.0,
                "target_flush_seconds": self.target_flush_seconds,
            }


class StreamingMetrics:
    """Thread-safe operational counters for one streaming detector.

    One instance is shared by every shard worker; all mutation happens under
    a single lock (the recorded quantities are far coarser-grained than the
    per-packet hot path, so contention is negligible).

    Process-backed runtimes cannot share the instance across the process
    boundary, so each shard worker keeps its own local ``StreamingMetrics``
    and periodically ships :meth:`worker_state` — a picklable counter struct —
    back to the parent, which stores the latest struct per worker via
    :meth:`absorb_worker_state`.  :meth:`snapshot` (and therefore
    :meth:`render`) folds those structs into the parent-side counters, so one
    snapshot aggregates the whole pool regardless of worker mode.
    """

    def __init__(self, shard_count: int = 1) -> None:
        self._lock = threading.Lock()
        self.shard_count = int(shard_count)
        self.packets_ingested = [0] * self.shard_count
        self.completions: dict[str, int] = {reason.value: 0 for reason in CompletionReason}
        self.connections_scored = 0
        self.events_emitted = 0
        self.alerts_emitted = 0
        self.capacity_drops = 0
        self.subnet_drops = 0
        self.flush_latency = LatencyHistogram()
        self.max_pending_depth = 0
        self.max_queue_depth = 0
        # Parent side: seconds spent blocked on full shard queues.
        self.backpressure_wait_seconds = 0.0
        # Shared-memory block accounting (parent side): segments broadcast to
        # the worker pool, payload bytes that crossed through them, and the
        # most segments ever awaiting acks at once.
        self.shm_segments_created = 0
        self.shm_bytes_broadcast = 0
        self.shm_segments_high_water = 0
        # Worker side: payload bytes a worker had to *copy* to materialise a
        # block (pipe-shipped small blocks); the shared-memory path maps
        # instead of copying, so under load this staying at zero is the
        # observable form of the zero-copy contract.
        self.payload_bytes_copied = 0
        # Degradation accounting (parent side): losses, respawns and the
        # in-flight packets attributed to each loss.  Non-zero only after a
        # fault; the accounting identity packets_routed = packets_scored +
        # packets_lost_inflight is asserted by the fault-matrix tests.
        self.instances_lost = 0
        self.instance_respawns = 0
        self.packets_lost_inflight = 0
        self.flows_degraded = 0
        # Latest counter struct shipped by each external (process) worker,
        # keyed by worker id; folded into snapshot()/render().
        self._worker_states: dict[object, dict[str, object]] = {}
        # Optional AdaptiveChunker fed from flush latencies (parent side).
        self._chunker: AdaptiveChunker | None = None

    def attach_chunker(self, chunker: AdaptiveChunker) -> None:
        """Feed flush latencies (local and absorbed) into ``chunker``."""
        with self._lock:
            self._chunker = chunker

    # -------------------------------------------------------------- recording
    def record_ingest(self, shard: int, packets: int = 1) -> None:
        with self._lock:
            self.packets_ingested[shard] += packets

    def set_ingested(self, shard: int, packets: int) -> None:
        """Overwrite one shard's ingest counter (kept under the lock so
        readers of a concurrent :meth:`snapshot` never see a torn list)."""
        with self._lock:
            self.packets_ingested[shard] = int(packets)

    def record_completions(
        self, completions: Iterable[tuple[Connection, CompletionReason]]
    ) -> None:
        with self._lock:
            for _, reason in completions:
                self.completions[reason.value] += 1

    def record_drop(self, count: int = 1) -> None:
        with self._lock:
            self.capacity_drops += count

    def record_subnet_drop(self, count: int = 1) -> None:
        with self._lock:
            self.subnet_drops += count

    def record_shm_segment(self, nbytes: int, open_segments: int) -> None:
        """One shared-memory block segment was created and broadcast."""
        with self._lock:
            self.shm_segments_created += 1
            self.shm_bytes_broadcast += int(nbytes)
            if open_segments > self.shm_segments_high_water:
                self.shm_segments_high_water = int(open_segments)

    def record_payload_copy(self, nbytes: int) -> None:
        """A block payload was materialised by copy instead of mapping."""
        with self._lock:
            self.payload_bytes_copied += int(nbytes)

    def record_flush(self, connections: int, seconds: float) -> None:
        with self._lock:
            self.connections_scored += connections
            self.flush_latency.observe(seconds)
            chunker = self._chunker
        if chunker is not None:
            chunker.record_flush(seconds)

    def record_events(self, events: int, alerts: int) -> None:
        with self._lock:
            self.events_emitted += events
            self.alerts_emitted += alerts

    def record_pending_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.max_pending_depth:
                self.max_pending_depth = depth

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth

    def record_backpressure_wait(self, seconds: float) -> None:
        with self._lock:
            self.backpressure_wait_seconds += seconds

    def record_instance_lost(self, packets_lost_inflight: int = 0) -> None:
        """One worker incarnation was lost, with its in-flight loss."""
        with self._lock:
            self.instances_lost += 1
            self.packets_lost_inflight += int(packets_lost_inflight)

    def record_respawn(self) -> None:
        with self._lock:
            self.instance_respawns += 1

    def record_degraded_flows(self, count: int = 1) -> None:
        """``count`` flows were scored by a survivor after their home was lost."""
        with self._lock:
            self.flows_degraded += count

    # ------------------------------------------------ cross-process aggregation
    def worker_state(self) -> dict[str, object]:
        """This instance's worker-side counters as one picklable struct.

        A process shard worker records into a private ``StreamingMetrics``
        and ships this struct to the parent runtime; only the quantities a
        worker owns are included (completions, drops, scoring, flush latency,
        pending depth) — ingest and event counters belong to the parent.
        """
        with self._lock:
            return {
                "completions": dict(self.completions),
                "connections_scored": self.connections_scored,
                "capacity_drops": self.capacity_drops,
                "subnet_drops": self.subnet_drops,
                "payload_bytes_copied": self.payload_bytes_copied,
                "flush_counts": list(self.flush_latency.counts),
                "flush_total": self.flush_latency.total,
                "flush_count": self.flush_latency.count,
                "flush_max": self.flush_latency.max,
                "max_pending_depth": self.max_pending_depth,
            }

    def absorb_worker_state(self, worker: object, state: dict[str, object]) -> None:
        """Remember the latest counter struct shipped by ``worker``.

        With an attached :class:`AdaptiveChunker`, the flush-latency delta
        between this struct and the worker's previous one is folded into the
        controller — process workers flush in their own interpreter, so this
        is the parent's only view of their latency.
        """
        flush_signal: float | None = None
        with self._lock:
            previous = self._worker_states.get(worker)
            self._worker_states[worker] = dict(state)
            chunker = self._chunker
            if chunker is not None:
                base_total = float(previous["flush_total"]) if previous else 0.0  # type: ignore[arg-type]
                base_count = int(previous["flush_count"]) if previous else 0  # type: ignore[call-overload]
                delta_count = int(state.get("flush_count", 0)) - base_count  # type: ignore[call-overload]
                delta_total = float(state.get("flush_total", 0.0)) - base_total  # type: ignore[arg-type]
                if delta_count > 0:
                    flush_signal = delta_total / delta_count
        if chunker is not None and flush_signal is not None:
            chunker.record_flush(flush_signal)

    # -------------------------------------------------------------- reporting
    @property
    def total_packets(self) -> int:
        with self._lock:
            return sum(self.packets_ingested)

    @property
    def total_completions(self) -> int:
        snap = self.snapshot()
        return sum(snap["completions_by_reason"].values())  # type: ignore[union-attr]

    def snapshot(self, occupancy: list[int] | None = None) -> dict[str, object]:
        """One JSON-friendly dict with every signal (for logs / the CLI).

        External worker structs (process mode) are folded in, so the snapshot
        always describes the whole pool.
        """
        with self._lock:
            completions = dict(self.completions)
            scored = self.connections_scored
            drops = self.capacity_drops
            subnet_drops = self.subnet_drops
            copied = self.payload_bytes_copied
            max_pending = self.max_pending_depth
            latency = LatencyHistogram(self.flush_latency.edges)
            latency.counts = list(self.flush_latency.counts)
            latency.total = self.flush_latency.total
            latency.count = self.flush_latency.count
            latency.max = self.flush_latency.max
            for state in self._worker_states.values():
                for reason, count in state["completions"].items():  # type: ignore[union-attr]
                    completions[reason] = completions.get(reason, 0) + count
                scored += state["connections_scored"]  # type: ignore[operator]
                drops += state["capacity_drops"]  # type: ignore[operator]
                subnet_drops += state.get("subnet_drops", 0)  # type: ignore[operator]
                copied += state.get("payload_bytes_copied", 0)  # type: ignore[operator]
                max_pending = max(max_pending, state["max_pending_depth"])  # type: ignore[type-var]
                for index, count in enumerate(state["flush_counts"]):  # type: ignore[arg-type]
                    latency.counts[index] += count
                latency.total += state["flush_total"]  # type: ignore[operator]
                latency.count += state["flush_count"]  # type: ignore[operator]
                latency.max = max(latency.max, state["flush_max"])  # type: ignore[type-var]
            chunker = self._chunker
            return {
                "shards": self.shard_count,
                "packets_ingested": list(self.packets_ingested),
                "completions_by_reason": completions,
                "connections_scored": scored,
                "events_emitted": self.events_emitted,
                "alerts_emitted": self.alerts_emitted,
                "capacity_drops": drops,
                "subnet_drops": subnet_drops,
                "flush_latency": latency.to_dict(),
                "max_pending_depth": max_pending,
                "max_queue_depth": self.max_queue_depth,
                "backpressure_wait_seconds": self.backpressure_wait_seconds,
                "shared_memory": {
                    "segments_created": self.shm_segments_created,
                    "bytes_broadcast": self.shm_bytes_broadcast,
                    "segments_high_water": self.shm_segments_high_water,
                    "payload_bytes_copied": copied,
                },
                "adaptive_chunking": chunker.state() if chunker is not None else None,
                "shard_occupancy": list(occupancy) if occupancy is not None else None,
                "degradation": {
                    "instances_lost": self.instances_lost,
                    "respawns": self.instance_respawns,
                    "packets_lost_inflight": self.packets_lost_inflight,
                    "flows_degraded": self.flows_degraded,
                },
            }

    def render(self, occupancy: list[int] | None = None) -> str:
        """Short human-readable summary (printed to stderr by the CLI).

        Rendered strictly from one :meth:`snapshot`, so every printed number
        comes from the same locked read — a flush landing mid-render can
        never make the latency line disagree with the embedded counters.
        """
        snap = self.snapshot(occupancy)
        reasons = ", ".join(
            f"{name}={count}"
            for name, count in snap["completions_by_reason"].items()  # type: ignore[union-attr]
            if count
        )
        latency = snap["flush_latency"]
        shm = snap["shared_memory"]
        lines = [
            f"shards={snap['shards']} packets={sum(snap['packets_ingested'])} "
            f"completions=[{reasons or 'none'}]",
            f"scored={snap['connections_scored']} events={snap['events_emitted']} "
            f"alerts={snap['alerts_emitted']} capacity_drops={snap['capacity_drops']} "
            f"subnet_drops={snap['subnet_drops']}",
            f"flush latency: n={latency['count']} "  # type: ignore[index]
            f"mean={latency['mean_seconds'] * 1e3:.2f}ms "  # type: ignore[index]
            f"max={latency['max_seconds'] * 1e3:.2f}ms; "  # type: ignore[index]
            f"max pending={snap['max_pending_depth']} max queue={snap['max_queue_depth']} "
            f"backpressure wait={snap['backpressure_wait_seconds']:.3f}s",
            f"shared memory: segments={shm['segments_created']} "  # type: ignore[index]
            f"broadcast={shm['bytes_broadcast']}B "  # type: ignore[index]
            f"high-water={shm['segments_high_water']} "  # type: ignore[index]
            f"copied={shm['payload_bytes_copied']}B",  # type: ignore[index]
        ]
        chunking = snap["adaptive_chunking"]
        if chunking is not None:
            lines.append(
                f"chunking: size={chunking['size']} "  # type: ignore[index]
                f"grow={chunking['grow_events']} "  # type: ignore[index]
                f"shrink={chunking['shrink_events']} "  # type: ignore[index]
                f"backpressure={chunking['backpressure_events']}"  # type: ignore[index]
            )
        degradation = snap["degradation"]
        if any(degradation.values()):  # type: ignore[union-attr]
            lines.append(
                f"degradation: lost={degradation['instances_lost']} "  # type: ignore[index]
                f"respawns={degradation['respawns']} "  # type: ignore[index]
                f"lost_inflight={degradation['packets_lost_inflight']} "  # type: ignore[index]
                f"degraded_flows={degradation['flows_degraded']}"  # type: ignore[index]
            )
        if occupancy is not None:
            lines.append(f"shard occupancy: {occupancy}")
        return "\n".join(lines)


def apply_drop_policy(
    completions: list[tuple[Connection, CompletionReason]],
    policy: DropPolicy | None,
    metrics: StreamingMetrics | None,
    admission: AdmissionState | None = None,
) -> list[tuple[Connection, CompletionReason]]:
    """Filter ``completions`` through ``policy``, recording drops in ``metrics``.

    ``admission`` carries the worker's mutable subnet-budget counters (from
    :meth:`DropPolicy.new_state`); budget rejections are counted separately
    as ``subnet_drops`` on top of the ordinary capacity-drop counter.  With
    no policy (or nothing to drop) the input list is returned unchanged, so
    the default streaming path stays allocation-free.
    """
    if metrics is not None and completions:
        metrics.record_completions(completions)
    if policy is None:
        return completions
    kept = []
    subnet_dropped = 0
    for item in completions:
        verdict = policy.verdict(item[0], item[1], admission)
        if verdict == "score":
            kept.append(item)
        elif verdict == "subnet":
            subnet_dropped += 1
    dropped = len(completions) - len(kept)
    if dropped and metrics is not None:
        metrics.record_drop(dropped)
        if subnet_dropped:
            metrics.record_subnet_drop(subnet_dropped)
    return kept if dropped else completions
