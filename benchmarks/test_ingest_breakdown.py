"""Ingest stage breakdown: object vs columnar pcap → features hot path.

The columnar ingest PR's claim is that the testing-phase bottleneck moved
from the model to *parsing and feature extraction*, and that turning both
into NumPy array programs removes the serial-Python floor under the serving
path.  This benchmark times each stage of ``pcap → (n, 32) raw-feature
matrix`` on both implementations of the same corpus:

* **parse** — capture file to packets: the test oracle's ``read_pcap`` (one
  ``Packet`` per record) vs ``read_packet_columns`` (bulk block scan +
  vectorized parse);
* **features** — assembled connections to per-connection feature matrices:
  the per-packet reference loop of the test oracle
  (``tests/reference_oracle.py``) vs ``extract_packet_trains`` over shared
  :class:`~repro.netstack.columns.PacketColumns`;
* **full pipeline** — file to feature matrices end to end, including flow
  assembly.

The equivalence suite (``tests/features/test_columnar_equivalence.py``)
guarantees both paths produce byte-identical matrices, so this file only
measures.  ``tools/ingest_smoke.py`` runs the same breakdown in quick mode
as a CI regression gate.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable

import numpy as np

from benchmarks.conftest import BENCH_SCALE, write_result
from repro.features.fields import RawFeatureExtractor
from repro.netstack.flow import assemble_connections, packet_stream
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.traffic.generator import TrafficGenerator

from tests.reference_oracle import extract_packets_reference, read_pcap


def _best_of(function: Callable[[], object], repeats: int = 3) -> float:
    function()  # warm-up
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return min(timings)


def measure_ingest_breakdown(path, packet_count: int, repeats: int = 3) -> list[tuple[str, float, float]]:
    """Time each ingest stage on both paths; returns (stage, obj, col) pkt/s."""
    extractor = RawFeatureExtractor()
    rows: list[tuple[str, float, float]] = []

    parse_object = _best_of(lambda: read_pcap(path), repeats)
    parse_columnar = _best_of(lambda: read_packet_columns(path), repeats)
    rows.append(("parse only", packet_count / parse_object, packet_count / parse_columnar))

    object_connections = assemble_connections(read_pcap(path))
    view_connections = assemble_connections(read_packet_columns(path).views())
    object_trains = [connection.packets for connection in object_connections]
    view_trains = [connection.packets for connection in view_connections]
    features_object = _best_of(
        lambda: [extract_packets_reference(train) for train in object_trains],
        repeats,
    )
    features_columnar = _best_of(lambda: extractor.extract_packet_trains(view_trains), repeats)
    rows.append(
        ("features only", packet_count / features_object, packet_count / features_columnar)
    )

    def full_object():
        connections = assemble_connections(read_pcap(path))
        return [extract_packets_reference(connection.packets) for connection in connections]

    def full_columnar():
        connections = assemble_connections(read_packet_columns(path).views())
        return extractor.extract_packet_trains(
            [connection.packets for connection in connections]
        )

    full_obj = _best_of(full_object, repeats)
    full_col = _best_of(full_columnar, repeats)
    rows.append(("full pipeline", packet_count / full_obj, packet_count / full_col))
    return rows


def render_breakdown(rows: list[tuple[str, float, float]], packet_count: int) -> str:
    lines = [
        f"{'Stage':<16} | {'Object pkt/s':>14} | {'Columnar pkt/s':>14} | {'Speedup':>8}",
        f"{'-' * 16}-+-{'-' * 14}-+-{'-' * 14}-+-{'-' * 8}",
    ]
    for stage, object_pps, columnar_pps in rows:
        lines.append(
            f"{stage:<16} | {object_pps:>14,.1f} | {columnar_pps:>14,.1f} |"
            f" {columnar_pps / object_pps:>7.2f}x"
        )
    lines.append("")
    lines.append(
        f"corpus: {packet_count} packets; best of 3 runs per stage; 'full pipeline'"
        " = parse + flow assembly + 32-feature extraction (what the serving path"
        " does before the model)."
    )
    return "\n".join(lines)


def test_ingest_breakdown(tmp_path):
    connections = TrafficGenerator(seed=424242).generate_connections(
        max(int(400 * BENCH_SCALE), 120)
    )
    packets = packet_stream(connections)
    path = tmp_path / "ingest.pcap"
    write_pcap(path, packets)

    rows = measure_ingest_breakdown(path, len(packets))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    text = render_breakdown(rows, len(packets)) + f"\nhost had {cores} usable core(s)."
    write_result("ingest_breakdown.txt", text)

    # Both paths must see the same packets, and the matrices stay identical
    # (spot check; the exhaustive guarantee lives in the equivalence suite).
    extractor = RawFeatureExtractor()
    object_connections = assemble_connections(read_pcap(path))
    view_connections = assemble_connections(read_packet_columns(path).views())
    assert [len(c) for c in object_connections] == [len(c) for c in view_connections]
    assert np.array_equal(
        extract_packets_reference(object_connections[0].packets),
        extractor.extract_packets(view_connections[0].packets),
    )

    by_stage = {stage: (obj, col) for stage, obj, col in rows}
    # The vectorized feature path is the headline: an order of magnitude on
    # any host; asserted conservatively to stay robust to CI noise.
    assert by_stage["features only"][1] > 4.0 * by_stage["features only"][0]
    # End to end the columnar path must win outright...
    assert by_stage["full pipeline"][1] > by_stage["full pipeline"][0]
    # ...and the bulk scanner must at least hold its own on parse.
    assert by_stage["parse only"][1] > 0.6 * by_stage["parse only"][0]
