"""The measured process: cold starts, timed passes and the traced pass.

It reads only the capture and the model that ``prepare.py`` wrote, runs
them through the public serving path the CLI ``stream`` command uses —
``open_source`` → ``ReplaySource`` when paced →
``ParallelStreamingDetector(...).run`` with an ``on_event`` callback — and
writes raw observations (events with their arrival times, per-pass wall
and CPU time, cold-start samples, peak memory, metrics snapshots and, for
``--trace 1``, per-site span totals) to ``--out``.  Turning them into
metrics and checking them against the ground truth is the orchestrator's
job, so the ground truth never enters this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import time
from pathlib import Path

import numpy as np

import spans
import workloads as wl
from repro.core.pipeline import Clap
from repro.features.fields import RawFeatureExtractor
from repro.features.profile import ContextProfileBuilder
from repro.netstack.columns import PacketColumns
from repro.netstack.flow import FlowTable
from repro.netstack.pcap import PcapReader
from repro.nn.autoencoder import Autoencoder
from repro.serve import (
    DropPolicy,
    ParallelStreamingDetector,
    ReplaySource,
    StreamingDetector,
    Tick,
    open_source,
)
from repro.serve import streaming

def _rusage_cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _detector(clap: Clap, workload: wl.Workload, model_dir: Path, on_event):
    knobs = dict(workload.detector)
    if "drop_policy" in knobs:
        knobs["drop_policy"] = DropPolicy(**knobs["drop_policy"])
    if workload.process_mode:
        knobs["model_dir"] = model_dir
    detector = ParallelStreamingDetector(clap, on_event=on_event, **knobs)
    if workload.process_mode:
        detector.flush()  # barrier: every worker is up and has its model
    return detector


def cold_starts(workload: wl.Workload, model_dir: Path, loads: list, spawns: list) -> Clap:
    """One round of cold starts (load (mmap) + engine, then detector),
    appending the round's two lists of parts to ``loads`` and ``spawns``."""
    round_loads: list[float] = []
    round_spawns: list[float] = []
    loads.append(round_loads)
    spawns.append(round_spawns)
    began = time.perf_counter()
    while (
        len(round_loads) < wl.SETUP_ROUND_MIN
        or time.perf_counter() - began < wl.SETUP_ROUND_SECONDS
    ):
        started = time.perf_counter()
        clap = Clap.load(model_dir, mmap_mode="r")
        clap.engine  # the engine is built lazily; a cold start pays for it
        loaded = time.perf_counter()
        detector = _detector(clap, workload, model_dir, None)
        ready = time.perf_counter()
        detector.close()
        round_loads.append(loaded - started)
        round_spawns.append(ready - loaded)
    return clap


def _marked(source, marks: list[float]):
    """Yield ``source`` unchanged, sampling the wall clock before every
    ``wl.MARK_EVERY``-th item is handed over and once more when it ends."""
    clock = time.perf_counter
    append = marks.append
    for index, item in enumerate(source):
        if not index % wl.MARK_EVERY:
            append(clock())
        yield item
    append(clock())


class Pass:
    """One replay of the capture through a fresh detector."""

    def __init__(self, workload: wl.Workload, clap: Clap, model_dir: Path, capture: Path):
        self.workload = workload
        self.received: list[tuple[object, float]] = []
        append = self.received.append
        clock = time.perf_counter

        def on_event(event) -> None:
            append((event, clock()))

        self.detector = _detector(clap, workload, model_dir, on_event)
        self.capture = capture
        self.marks: list[float] = []
        self.start_wall: float | None = None
        self.sleep = time.sleep

    def _clock(self) -> float:
        now = time.perf_counter()
        if self.start_wall is None:
            self.start_wall = now
        return now

    def source(self):
        source = open_source(self.capture)
        if self.workload.speed is not None:
            source = ReplaySource(
                source,
                speed=self.workload.speed,
                tick_interval=wl.TICK_INTERVAL,
                clock=self._clock,
                sleep=self.sleep,
            )
        return _marked(source, self.marks)

    def run(self, wrap_source=None) -> dict:
        gc.collect()
        cpu0 = time.process_time()
        child0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        source = self.source()
        if wrap_source is not None:
            source = wrap_source(source)
        self.detector.run(source)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        child_cpu = _rusage_cpu(resource.RUSAGE_CHILDREN) - child0
        snapshot = self.detector.metrics_snapshot()
        packets = sum(snapshot["packets_ingested"])
        return {
            "wall": wall,
            "cpu": cpu,
            "child_cpu": child_cpu,
            "packets": packets,
            "snapshot": snapshot,
            "marks": self.marks,
            "start_wall": self.start_wall,
            "events": [
                [
                    str(event.result.key),
                    event.first_seen,
                    event.result.packet_count,
                    event.result.score,
                    event.result.localized_packet,
                    event.completed_by.value,
                    arrived,
                ]
                for event, arrived in self.received
            ],
        }


def traced_pass(workload, clap, model_dir, capture) -> dict:
    """One pass with every layer boundary wrapped; per-site totals out."""
    tracer = spans.Tracer()
    run = Pass(workload, clap, model_dir, capture)
    detector = run.detector

    def count_result(site, args, result):
        site.items += len(result)

    def count_argument(site, args, result):
        site.items += len(args[1])

    def flow_peak(site, args, result):
        site.extra = max(site.extra, len(args[0]))

    def occupancy(site, args, result):
        count_result(site, args, result)
        site.extra = max(site.extra, detector.active_flows)

    def train_packets(site, args, result):
        site.items += sum(len(train) for train in args[1])

    def gru_steps(site, args, result):
        lengths = [len(sequence) for sequence in args[1]]
        if lengths:
            site.items += sum(lengths)
            site.extra += len(lengths) * max(lengths)

    rnn_class = type(clap.builder.rnn)
    original_blocks = PcapReader.iter_column_blocks

    def iter_column_blocks(reader, *args, **kwargs):
        return tracer.wrap_iterator(
            "netstack.parse", original_blocks(reader, *args, **kwargs), hook=occupancy
        )

    patches = [
        (PcapReader, "iter_column_blocks", iter_column_blocks),
        (Clap, "detect_batch",
         tracer.wrap("core.detect", Clap.detect_batch, hook=count_argument)),
        (ContextProfileBuilder, "batch_stacked_profiles",
         tracer.wrap("features.profile", ContextProfileBuilder.batch_stacked_profiles)),
        (RawFeatureExtractor, "extract_packet_trains",
         tracer.wrap("features.extract", RawFeatureExtractor.extract_packet_trains,
                     hook=train_packets)),
        (RawFeatureExtractor, "extract_packets_reference",
         tracer.wrap("features.reference", RawFeatureExtractor.extract_packets_reference,
                     per_packet=True, hook=count_argument)),
        (rnn_class, "gate_activations_concat",
         tracer.wrap("nn.gru", rnn_class.gate_activations_concat, hook=gru_steps)),
        (Autoencoder, "reconstruction_error",
         tracer.wrap("nn.ae", Autoencoder.reconstruction_error, hook=count_argument)),
        (FlowTable, "add", tracer.wrap("netstack.flow", FlowTable.add, per_packet=True,
                                       hook=flow_peak)),
        (StreamingDetector, "ingest",
         tracer.wrap("serve.ingest", StreamingDetector.ingest, per_packet=True)),
        (streaming, "apply_drop_policy",
         tracer.wrap("serve.admission", streaming.apply_drop_policy, per_packet=True)),
        (streaming, "drain_pending", tracer.wrap("serve.dispatch", streaming.drain_pending)),
        (ParallelStreamingDetector, "close",
         tracer.wrap("serve.close", ParallelStreamingDetector.close)),
    ]
    if workload.process_mode:
        patches += [
            (ParallelStreamingDetector, "ingest",
             tracer.wrap("serve.router", ParallelStreamingDetector.ingest, per_packet=True)),
            (PacketColumns, "pack_block",
             tracer.wrap("serve.ipc_pack", PacketColumns.pack_block, per_packet=True,
                         hook=count_result)),
        ]
    lags: list[float] = []
    wrap_source = None
    if workload.speed is not None:
        run.sleep = tracer.wrap("serve.pace", time.sleep, per_packet=True)
        speed = workload.speed

        def wrap_source(source):
            # Lateness of each packet against its open-loop due time.
            first = None
            clock = time.perf_counter
            for item in source:
                if not isinstance(item, Tick):
                    if first is None:
                        first = item.timestamp
                    lags.append(clock() - run.start_wall - (item.timestamp - first) / speed)
                yield item

    # Patch only now: process workers were forked by the constructor above
    # and keep the untouched classes.
    with spans.patched(patches):
        result = run.run(wrap_source)
    lags.sort()
    result["trace"] = {
        "sites": {
            name: {
                "count": site.count,
                "total": site.total,
                "self": site.self_time,
                "items": site.items,
                "extra": site.extra,
            }
            for name, site in tracer.sites.items()
        },
        "flush_durations": tracer.durations("core.detect"),
        "pace_lag_p99": lags[max(0, math.ceil(0.99 * len(lags)) - 1)] if lags else 0.0,
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="existing output directory")
    args = parser.parse_args(argv)
    workload = wl.resolve(args.workload, args.size)
    model_dir = args.inputs / "model"
    capture = args.inputs / "capture.pcap"

    began = time.perf_counter()
    loads: list[list[float]] = []
    spawns: list[list[float]] = []
    clap = cold_starts(workload, model_dir, loads, spawns)
    # Each pass is written out as soon as it ends, so the observations of
    # earlier passes never add to the process's peak memory.
    passes = 0
    while True:
        result = Pass(workload, clap, model_dir, capture).run()
        (args.out / f"pass-{passes}.json").write_text(json.dumps(result))
        del result
        passes += 1
        cold_starts(workload, model_dir, loads, spawns)
        elapsed = time.perf_counter() - began
        if args.trace or elapsed + elapsed / passes > args.seconds:
            break
    summary = {
        "numpy": np.__version__,
        "loads": loads,
        "spawns": spawns,
        "passes": passes,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if args.trace:
        traced = traced_pass(workload, clap, model_dir, capture)
        (args.out / "traced.json").write_text(json.dumps(traced))
    (args.out / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
