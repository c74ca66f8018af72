#!/usr/bin/env python
"""Quick-mode ingest-perf smoke for CI.

Runs the stage-breakdown measurement from ``benchmarks/test_ingest_breakdown``
on a tiny synthetic corpus and fails if the columnar ingest path is slower
than the object path (the per-packet reference extractor of
``tests/reference_oracle.py``) — the regression this guards against is
someone adding per-packet Python back under the vectorized pipeline.  A
second leg streams the same capture in small read blocks, so most
connections span several blocks, and fails if ``PacketColumns.from_packets``
runs at all while their trains of column views are extracted: every view
must be read from its own block, not materialised and converted back.  A
third leg re-writes the capture with one odd-length
record in front, so every record starts at the other byte parity, parses
both captures whole-file and in small blocks, and fails unless all columns
agree across the four parses (the checksum word sums read odd- and
even-offset spans differently).  Correctness of the columnar path is
otherwise covered by the equivalence test suite; the timing thresholds are
deliberately loose for noisy CI runners.

Run with:  PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.test_ingest_breakdown import (  # noqa: E402
    measure_ingest_breakdown,
    render_breakdown,
)
from repro.features.fields import RawFeatureExtractor  # noqa: E402
from repro.netstack.columns import _ARRAY_FIELDS, PacketColumns  # noqa: E402
from repro.netstack.flow import assemble_connections, packet_stream  # noqa: E402
from repro.netstack.pcap import PcapReader, PcapWriter, write_pcap  # noqa: E402
from repro.serve.sources import PcapSource  # noqa: E402
from repro.traffic.generator import TrafficGenerator  # noqa: E402

CONNECTIONS = 80
#: Read-block size of the multi-block leg: small enough that most smoke
#: connections straddle a block boundary.
SMALL_BLOCK_BYTES = 4096
#: A 20-byte IPv4 header of a UDP packet plus one byte: both parsers drop it,
#: and with its 16-byte record header it shifts every later record by an odd
#: 37 bytes.
ODD_RECORD_DATA = bytes([0x45, 0, 0, 21, 0, 0, 0, 0, 64, 17]) + b"\x00" * 11
PCAP_GLOBAL_HEADER_BYTES = 24


def multi_block_failures(path: Path) -> list[str]:
    """Stream ``path`` in small blocks; report packets that went through
    ``PacketColumns.from_packets`` although every train is column views."""
    connections = assemble_connections(PcapSource(path, block_bytes=SMALL_BLOCK_BYTES))
    spanning = sum(len({id(p.columns) for p in c.packets}) > 1 for c in connections)
    trains = [connection.packets for connection in connections]
    converted = []
    original = PacketColumns.__dict__["from_packets"]

    def spy(cls, packets):
        packets = list(packets)
        converted.extend(packets)
        return original.__func__(cls, packets)

    PacketColumns.from_packets = classmethod(spy)
    try:
        RawFeatureExtractor().extract_packet_trains(trains)
    finally:
        PacketColumns.from_packets = original
    print(f"multi-block leg: {spanning}/{len(connections)} connections span 2+ "
          f"{SMALL_BLOCK_BYTES}-byte blocks, {len(converted)} packets went through "
          "from_packets", file=sys.stderr)
    failures = []
    if spanning == 0:
        failures.append("no connection spans two read blocks; the multi-block leg is vacuous")
    if converted:
        failures.append(f"{len(converted)} packets of column-view trains went through from_packets")
    return failures


def parity_failures(path: Path) -> list[str]:
    """Parse ``path`` and a copy with one odd-length record in front, each
    whole-file and in small blocks; report columns that differ."""
    shifted = path.with_name("shifted.pcap")
    with PcapWriter(shifted) as writer:
        writer.write_raw(ODD_RECORD_DATA, 0.0)
    with open(shifted, "ab") as handle:
        handle.write(path.read_bytes()[PCAP_GLOBAL_HEADER_BYTES:])
    parses = {}
    for capture in (path, shifted):
        for block_bytes in (-1, SMALL_BLOCK_BYTES):
            with PcapReader(capture) as reader:
                blocks = list(reader.iter_column_blocks(block_bytes=block_bytes))
            parses[f"{capture.name}@{block_bytes}"] = PacketColumns.concatenate(blocks)
    whole = parses[f"{path.name}@-1"]
    failures = []
    if not np.all((parses[f"{shifted.name}@-1"].offsets - whole.offsets) % 2 == 1):
        failures.append("the odd-length record did not flip every record's parity")
    for label, columns in parses.items():
        for name in _ARRAY_FIELDS:
            if not np.array_equal(getattr(columns, name), getattr(whole, name)):
                failures.append(f"column {name} of {label} differs from the whole-file parse")
    print(f"parity leg: {len(parses)} parses of {len(whole)} rows compared on "
          f"{len(_ARRAY_FIELDS)} columns", file=sys.stderr)
    return failures


def main() -> int:
    connections = TrafficGenerator(seed=99).generate_connections(CONNECTIONS)
    packets = packet_stream(connections)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "smoke.pcap"
        write_pcap(path, packets)
        rows = measure_ingest_breakdown(path, len(packets), repeats=2)
        failures = multi_block_failures(path)
        failures += parity_failures(path)
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
        print("ingest smoke OK: columnar path is not slower than the object path, "
              "keeps multi-block connections and parses both parities alike",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
