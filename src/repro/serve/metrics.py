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
  :class:`AdmissionState`, one per detector, keeping the policy itself
  frozen);
* :class:`StreamingMetrics` aggregates the runtime's operational signals —
  ingest/completion counters, drop counters, flush latency histogram,
  queue/pending depth high-water marks, worker losses — behind one lock, so
  any thread may record into it.
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

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKET_EDGES) + 1)
        self.total = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_right(LATENCY_BUCKET_EDGES, seconds)] += 1
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
        for edge, bucket_count in zip(LATENCY_BUCKET_EDGES, self.counts, strict=False):
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
    which live in :class:`AdmissionState` (one per detector, from
    :meth:`new_state`) so the policy itself stays frozen.

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
        """Per-detector mutable admission counters, or ``None`` if stateless."""
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


class AdmissionState:
    """Mutable per-detector counters behind :class:`DropPolicy` subnet budgets.

    One instance per detector (in process mode, the parent's one), created
    through :meth:`DropPolicy.new_state`.  Budget windows roll on
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


class StreamingMetrics:
    """Thread-safe operational counters for one streaming detector.

    All mutation happens under a single lock (the recorded quantities are far
    coarser-grained than the per-packet hot path, so contention is
    negligible).

    Process workers cannot share the instance across the process boundary,
    so each one keeps its own local ``StreamingMetrics`` for what it owns —
    the engine calls — and ships :meth:`worker_state`, a picklable counter
    struct, back with every batch's events; the parent stores the latest
    struct per worker incarnation via :meth:`absorb_worker_state`.
    :meth:`snapshot` (and therefore :meth:`render`) folds those structs into
    the parent-side counters, so one snapshot describes the whole pool
    regardless of worker mode.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # One flow table; the snapshot keeps its per-shard list shape.
        self.packets_ingested = [0]
        self.completions: dict[str, int] = {reason.value: 0 for reason in CompletionReason}
        self.connections_scored = 0
        self.events_emitted = 0
        self.alerts_emitted = 0
        self.capacity_drops = 0
        self.subnet_drops = 0
        self.flush_latency = LatencyHistogram()
        self.max_pending_depth = 0
        # Parent side: most batches ever in flight to one worker.
        self.max_queue_depth = 0
        # Parent side: seconds spent blocked on full shard queues.
        self.backpressure_wait_seconds = 0.0
        # Degradation accounting (parent side): losses, respawns and the
        # in-flight packets attributed to each loss.  Non-zero only after a
        # fault; the accounting identity packets_routed = packets_scored +
        # packets_lost_inflight is asserted by the fault-matrix tests.
        self.instances_lost = 0
        self.instance_respawns = 0
        self.packets_lost_inflight = 0
        # Latest counter struct shipped by each external (process) worker,
        # keyed by worker id; folded into snapshot()/render().
        self._worker_states: dict[object, dict[str, object]] = {}

    # -------------------------------------------------------------- recording
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

    def record_flush(self, connections: int, seconds: float) -> None:
        with self._lock:
            self.connections_scored += connections
            self.flush_latency.observe(seconds)

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

    # ------------------------------------------------ cross-process aggregation
    def worker_state(self) -> dict[str, object]:
        """This instance's engine-call counters as one picklable struct.

        A process worker only scores: assembly, admission, ingest and event
        counters all belong to the parent.
        """
        with self._lock:
            return {
                "connections_scored": self.connections_scored,
                "flush_counts": list(self.flush_latency.counts),
                "flush_total": self.flush_latency.total,
                "flush_count": self.flush_latency.count,
                "flush_max": self.flush_latency.max,
            }

    def absorb_worker_state(self, worker: object, state: dict[str, object]) -> None:
        """Remember the latest counter struct shipped by ``worker``."""
        with self._lock:
            self._worker_states[worker] = dict(state)

    # -------------------------------------------------------------- reporting
    def snapshot(self, occupancy: list[int] | None = None) -> dict[str, object]:
        """One JSON-friendly dict with every signal (for logs / the CLI).

        External worker structs (process mode) are folded in, so the snapshot
        always describes the whole pool.
        """
        with self._lock:
            scored = self.connections_scored
            latency = LatencyHistogram()
            latency.counts = list(self.flush_latency.counts)
            latency.total = self.flush_latency.total
            latency.count = self.flush_latency.count
            latency.max = self.flush_latency.max
            for state in self._worker_states.values():
                scored += state["connections_scored"]  # type: ignore[operator]
                for index, count in enumerate(state["flush_counts"]):  # type: ignore[arg-type]
                    latency.counts[index] += count
                latency.total += state["flush_total"]  # type: ignore[operator]
                latency.count += state["flush_count"]  # type: ignore[operator]
                latency.max = max(latency.max, state["flush_max"])  # type: ignore[type-var]
            return {
                "shards": 1,
                "packets_ingested": list(self.packets_ingested),
                "completions_by_reason": dict(self.completions),
                "connections_scored": scored,
                "events_emitted": self.events_emitted,
                "alerts_emitted": self.alerts_emitted,
                "capacity_drops": self.capacity_drops,
                "subnet_drops": self.subnet_drops,
                "flush_latency": latency.to_dict(),
                "max_pending_depth": self.max_pending_depth,
                "max_queue_depth": self.max_queue_depth,
                "backpressure_wait_seconds": self.backpressure_wait_seconds,
                "shard_occupancy": list(occupancy) if occupancy is not None else None,
                "degradation": {
                    "instances_lost": self.instances_lost,
                    "respawns": self.instance_respawns,
                    "packets_lost_inflight": self.packets_lost_inflight,
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
        ]
        degradation = snap["degradation"]
        if any(degradation.values()):  # type: ignore[union-attr]
            lines.append(
                f"degradation: lost={degradation['instances_lost']} "  # type: ignore[index]
                f"respawns={degradation['respawns']} "  # type: ignore[index]
                f"lost_inflight={degradation['packets_lost_inflight']}"  # type: ignore[index]
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

    ``admission`` carries the detector's mutable subnet-budget counters (from
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
