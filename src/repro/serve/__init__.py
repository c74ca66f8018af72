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
* :class:`ParallelStreamingDetector` (:mod:`repro.serve.runtime`) — the one
  fan-out: a :class:`StreamingDetector` that ships each scoring grain to a
  worker process (at most one flush batch's worth in flight per worker) and
  dispatches the events it gets back as its own;
* :mod:`repro.serve.metrics` — :class:`DropPolicy` handling of capacity
  floods, and the :class:`StreamingMetrics` every detector records into.

The fault-tolerance layer rides on the process runtime: :class:`FaultPlan`
(:mod:`repro.serve.faults`) injects deterministic worker kills and wedges,
and :class:`DegradationReport` / :class:`InstanceLossRecord`
(:mod:`repro.serve.supervise`) account for what the ``fail`` / ``respawn`` /
``degrade`` policies lost.
"""

from repro.core.results import DetectionResult
from repro.netstack.flow import CompletionReason, FlowTable
from repro.serve.events import Alert, DetectionEvent, make_event
from repro.serve.faults import FaultPlan, FaultSpecError, parse_fault_specs
from repro.serve.metrics import DropPolicy, LatencyHistogram, StreamingMetrics
from repro.serve.runtime import ParallelStreamingDetector
from repro.serve.supervise import DegradationReport, FailurePolicy, InstanceLossRecord
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

__all__ = [
    "Alert",
    "CompletionReason",
    "DegradationReport",
    "DetectionEvent",
    "DetectionResult",
    "DropPolicy",
    "FailurePolicy",
    "FaultPlan",
    "FaultSpecError",
    "FlowTable",
    "FlushPolicy",
    "InstanceLossRecord",
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
    "make_event",
    "open_source",
    "parse_fault_specs",
]
