"""The benchmark's workloads: input sizes and the serving configuration.

Shared by the input-preparation child (``prepare.py``), the measured child
(``measure.py``) and the orchestrator (``run.py``); stdlib only, so the
orchestrator never imports NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Benign connections in the cached generator pool every capture draws from.
POOL_CONNECTIONS = 6000
#: Seed of the pool and of the reference model; fixed, so every workload
#: seed draws from the same corpus and is scored by the same model.
POOL_SEED = 20201101
MODEL_SEED = 7
MODEL_TRAIN_CONNECTIONS = 60
MODEL_RNN_EPOCHS = 3
MODEL_AE_EPOCHS = 10
#: One labelled connection in this many is attacked; strategies cycle.
ATTACK_EVERY = 10
#: Mean gap between connection starts in stream seconds (the generator's).
MEAN_CONNECTION_GAP = 0.01
#: Cold starts are taken in rounds: one before the first timed pass and one
#: after each pass, so that they sample the whole run rather than one
#: moment of it.  A round lasts at least this long (stopping after the
#: start that crosses it) and takes at least ``SETUP_ROUND_MIN`` starts;
#: ``setup_s`` is the mean over the rounds of each round's median.
SETUP_ROUND_SECONDS = 0.5
SETUP_ROUND_MIN = 5
#: Closed-loop latency anchor: the measured process samples the wall clock
#: before every ``MARK_EVERY``-th packet is handed to the detector.
MARK_EVERY = 16
#: Paced replays heartbeat at the detector's default close grace, as the
#: CLI ``stream --replay-rate`` does.
TICK_INTERVAL = 1.0


@dataclass(frozen=True)
class Workload:
    """One input mix and the serving configuration it runs under."""

    name: str
    why: str
    connections: int
    flood_flows: int = 0
    #: Open-loop pacing as a multiple of capture time (``None`` = unpaced).
    speed: float | None = None
    detector: dict = field(default_factory=dict)
    #: Mean gap between labelled connection starts (stream seconds).
    connection_gap: float = MEAN_CONNECTION_GAP
    #: Captures are shared between workloads that name the same input.
    input_name: str = ""

    @property
    def capture(self) -> str:
        return self.input_name or self.name

    @property
    def process_mode(self) -> bool:
        return self.detector.get("worker_mode") == "process"


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="replay",
            why=(
                "Table 3 with parsing on the clock: 5k connections (>1e5 packets, many "
                "4 MiB blocks) unpaced through one worker, so features, nn and core dominate"
            ),
            connections=5000,
        ),
        Workload(
            name="flood",
            why=(
                "1k labelled connections in 150k single-SYN flows, max_flows=4096 and "
                "sampled admission: flow-table churn and eviction dominate, the model idles"
            ),
            connections=1000,
            flood_flows=150_000,
            # Spread so the flood's LRU survival window (max_flows / SYN rate,
            # ~1.5 stream-s) outlasts every labelled connection's longest
            # silence (~1.06 s) and the 1 s close grace: the flood churns the
            # table without evicting labelled traffic, so every labelled
            # connection is still scored.  Twice as dense, sampled admission
            # drops ~2% of them (handshake-less fragments), by design.
            connection_gap=0.05,
            detector={"max_flows": 4096, "drop_policy": {"mode": "sample"}},
        ),
        Workload(
            name="online",
            why=(
                "2k connections paced open-loop by their timestamps at ~6k pkt/s with the "
                "default flush policy: compute idles, so batching and flushing set latency"
            ),
            connections=2000,
            speed=4.0,
        ),
        Workload(
            name="fanout",
            why=(
                "the replay capture through a process shard worker: the only workload with "
                "block packing, shared memory, shard queues and result merging on the clock"
            ),
            connections=5000,
            # One worker, not nproc=2: with two, the parent and both workers
            # contend for the two cores, and throughput_pkt_s spread 21%
            # (IQR/median, 6 seeds) against 7% here.  The chunk is pinned:
            # the default adaptive chunker resizes on timing signals, which
            # spread alert_latency_p99_ms 30% over 10 seeds.
            detector={"workers": 1, "worker_mode": "process", "chunk_size": 512},
            input_name="replay",
        ),
    )
}

#: Down-scaled sizes for the benchmark's own smoke tests (``--size tiny``).
TINY = {"replay": 400, "flood": 200, "online": 300, "fanout": 400}
TINY_POOL_CONNECTIONS = 600
TINY_FLOOD_FLOWS = 3000
TINY_MAX_FLOWS = 256
TINY_CHUNK_SIZE = 64


def resolve(name: str, size: str = "full") -> Workload:
    """The workload ``name`` at ``size`` (``full`` or ``tiny``)."""
    workload = WORKLOADS[name]
    if size == "full":
        return workload
    if size != "tiny":
        raise ValueError(f"unknown size {size!r}")
    detector = dict(workload.detector)
    if "max_flows" in detector:
        detector["max_flows"] = TINY_MAX_FLOWS
    if "chunk_size" in detector:
        detector["chunk_size"] = TINY_CHUNK_SIZE
    return Workload(
        name=workload.name,
        why=workload.why,
        connections=TINY[name],
        flood_flows=TINY_FLOOD_FLOWS if workload.flood_flows else 0,
        speed=None if workload.speed is None else workload.speed * 4,
        detector=detector,
        connection_gap=workload.connection_gap,
        input_name=workload.input_name,
    )
