#!/usr/bin/env python
"""Quick-mode ingest-perf smoke for CI.

Runs the stage-breakdown measurement from ``benchmarks/test_ingest_breakdown``
on a tiny synthetic corpus and fails if the columnar ingest path is slower
than the object path — the regression this guards against is someone adding
per-packet Python back under the vectorized pipeline.  A second leg streams
the same capture in small read blocks, so most connections span several
blocks, and fails if any train of column views reaches the per-packet
reference extractor.  Correctness of the columnar path is covered by the
equivalence test suite; this script is purely a performance tripwire, so the
thresholds are deliberately loose for noisy CI runners.

Run with:  PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.test_ingest_breakdown import (  # noqa: E402
    measure_ingest_breakdown,
    render_breakdown,
)
from repro.features.fields import RawFeatureExtractor  # noqa: E402
from repro.netstack.columns import ColumnPacketView  # noqa: E402
from repro.netstack.flow import assemble_connections, packet_stream  # noqa: E402
from repro.netstack.pcap import write_pcap  # noqa: E402
from repro.serve.sources import PcapSource  # noqa: E402
from repro.traffic.generator import TrafficGenerator  # noqa: E402

CONNECTIONS = 80
#: Read-block size of the multi-block leg: small enough that most smoke
#: connections straddle a block boundary.
SMALL_BLOCK_BYTES = 4096


def multi_block_failures(path: Path) -> list[str]:
    """Stream ``path`` in small blocks; report column-view trains that were
    extracted by the per-packet reference instead of the columnar path."""
    connections = assemble_connections(PcapSource(path, block_bytes=SMALL_BLOCK_BYTES))
    spanning = sum(len({id(p.columns) for p in c.packets}) > 1 for c in connections)
    slow_trains = []
    reference = RawFeatureExtractor.extract_packets_reference

    def spy(self, packets):
        if packets and all(type(packet) is ColumnPacketView for packet in packets):
            slow_trains.append(len(packets))
        return reference(self, packets)

    RawFeatureExtractor.extract_packets_reference = spy
    try:
        RawFeatureExtractor().extract_packet_trains([c.packets for c in connections])
    finally:
        RawFeatureExtractor.extract_packets_reference = reference
    print(f"multi-block leg: {spanning}/{len(connections)} connections span 2+ "
          f"{SMALL_BLOCK_BYTES}-byte blocks, {len(slow_trains)} reached the reference",
          file=sys.stderr)
    failures = []
    if spanning == 0:
        failures.append("no connection spans two read blocks; the multi-block leg is vacuous")
    if slow_trains:
        failures.append(f"{len(slow_trains)} column-view trains fell back to the reference")
    return failures


def main() -> int:
    connections = TrafficGenerator(seed=99).generate_connections(CONNECTIONS)
    packets = packet_stream(connections)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "smoke.pcap"
        write_pcap(path, packets)
        rows = measure_ingest_breakdown(path, len(packets), repeats=2)
        failures = multi_block_failures(path)
    print(render_breakdown(rows, len(packets)))
    by_stage = {stage: (obj, col) for stage, obj, col in rows}
    if by_stage["features only"][1] <= 2.0 * by_stage["features only"][0]:
        failures.append("columnar feature extraction is not at least 2x the object path")
    if by_stage["full pipeline"][1] <= by_stage["full pipeline"][0]:
        failures.append("columnar full pipeline is slower than the object path")
    if by_stage["parse only"][1] <= 0.5 * by_stage["parse only"][0]:
        failures.append("columnar parse fell far behind the object parse")
    for failure in failures:
        print(f"ingest smoke FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("ingest smoke OK: columnar path is not slower than the object path "
              "and keeps multi-block connections", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
