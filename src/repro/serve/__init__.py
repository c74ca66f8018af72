"""Streaming-first serving layer: the online deployment surface of CLAP.

``repro.serve`` turns the trained pipeline into the middlebox companion of
Figure 3, layered as a streaming runtime:

* :mod:`repro.serve.sources` — pluggable packet sources (:class:`PcapSource`,
  :class:`NDJSONSource`, rate-controlled :class:`ReplaySource` with
  :class:`Tick` heartbeats for quiet links);
* :class:`~repro.netstack.flow.FlowTable` — incremental connection
  assembly;
* :class:`StreamingDetector` — the single-threaded detector: micro-batches
  completed connections through the batched inference engine under a
  :class:`FlushPolicy` and emits typed :class:`DetectionEvent`/:class:`Alert`
  objects via iterator and callback APIs;
* :class:`ParallelStreamingDetector` (:mod:`repro.serve.runtime`) — fans
  packets, hash-partitioned by flow key, to per-shard worker processes
  behind bounded queues and funnels events into one ordered stream, with
  :class:`DropPolicy` handling of capacity floods and
  :class:`StreamingMetrics` backpressure monitoring (:mod:`repro.serve.metrics`);
* :class:`FlowPartitioner` (:mod:`repro.serve.partition`) — the scale-out
  layer above the runtime: hashes each flow once and fans packet blocks to N
  :class:`~repro.serve.instance.DetectorInstance` back-ends over sockets
  (local processes or remote hosts), speaking the :mod:`repro.serve.wire`
  frame protocol and merging events back into one deterministic stream.

The fault-tolerance layer rides across all of it: :class:`FaultPlan`
(:mod:`repro.serve.faults`) injects deterministic, seedable failures;
:class:`Backoff` / :class:`InstanceFailure` / :class:`DegradationReport`
(:mod:`repro.serve.supervise`) implement the ``fail`` / ``respawn`` /
``degrade`` policies; :class:`InstanceLost` / :class:`DegradedMode` service
events announce what happened; and :class:`~repro.serve.wire.WireTimeout`
bounds every frame read and write with a deadline.
"""

from repro.core.results import DetectionResult
from repro.netstack.flow import CompletionReason, FlowTable
from repro.serve.events import (
    Alert,
    DegradedMode,
    DetectionEvent,
    InstanceLost,
    event_from_dict,
    make_event,
)
from repro.serve.faults import FaultPlan, FaultSpecError, parse_fault_specs
from repro.serve.instance import DetectorInstance, InstanceConfig, run_instance
from repro.serve.metrics import (
    AdaptiveChunker,
    DropPolicy,
    LatencyHistogram,
    StreamingMetrics,
)
from repro.serve.partition import FlowPartitioner
from repro.serve.runtime import ParallelStreamingDetector
from repro.serve.supervise import (
    Backoff,
    DegradationReport,
    FailurePolicy,
    InstanceFailure,
    InstanceLossRecord,
)
from repro.serve.sources import (
    IterableSource,
    NDJSONSource,
    PacketSource,
    PcapSource,
    ReplaySource,
    Tick,
    open_source,
)
from repro.serve.streaming import FlushPolicy, StreamingDetector
from repro.serve.wire import WireError, WireTimeout

__all__ = [
    "AdaptiveChunker",
    "Alert",
    "Backoff",
    "CompletionReason",
    "DegradationReport",
    "DegradedMode",
    "DetectionEvent",
    "DetectionResult",
    "DetectorInstance",
    "DropPolicy",
    "FailurePolicy",
    "FaultPlan",
    "FaultSpecError",
    "FlowPartitioner",
    "FlowTable",
    "FlushPolicy",
    "InstanceConfig",
    "InstanceFailure",
    "InstanceLossRecord",
    "InstanceLost",
    "IterableSource",
    "LatencyHistogram",
    "NDJSONSource",
    "PacketSource",
    "ParallelStreamingDetector",
    "PcapSource",
    "ReplaySource",
    "StreamingDetector",
    "StreamingMetrics",
    "Tick",
    "WireError",
    "WireTimeout",
    "event_from_dict",
    "make_event",
    "open_source",
    "parse_fault_specs",
    "run_instance",
]
