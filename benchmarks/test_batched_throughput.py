"""Batched engine throughput: batched vs per-connection ``score_connections``.

The tentpole claim of the batched inference engine is that scoring many
connections through one padded GRU batch, one concatenated autoencoder call
and segment-wise Stage-(d) reductions beats the per-connection loop the seed
used.  This benchmark times both entry points of the *same* trained CLAP
detector on the shared experiment fixture and records the ratio.

The sequential contender (``score_connections`` of the test oracle,
``tests/reference_oracle.py``) is the seed algorithm: per-packet feature
extraction, per-connection profile building, a single-sequence GRU forward
and a small autoencoder call per connection.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_result
from repro.evaluation.runner import CLAP_NAME

from tests import reference_oracle as oracle


def _time_scorer(scorer, connections, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time after one warm-up call."""
    scorer(connections)
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        scorer(connections)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_batched_throughput(experiment):
    runner = experiment.runner
    detector = runner.detectors[CLAP_NAME]
    # Repeat the fixture's test split so the timed region is comfortably
    # above timer resolution even at CLAP_BENCH_SCALE=1.
    connections = list(runner.test_connections) * 6
    packets = sum(len(connection) for connection in connections)

    def score_connections_sequential(connections):
        return oracle.score_connections(detector, connections)

    sequential_seconds = _time_scorer(score_connections_sequential, connections)
    batched_seconds = _time_scorer(detector.score_connections, connections)

    sequential_pps = packets / sequential_seconds
    batched_pps = packets / batched_seconds
    speedup = sequential_seconds / batched_seconds

    # The two paths must agree before their timings are comparable.
    difference = np.max(
        np.abs(
            detector.score_connections(connections)
            - score_connections_sequential(connections)
        )
    )

    text = "\n".join(
        [
            "Batched inference engine vs per-connection scoring (CLAP detector)",
            f"connections: {len(connections)}   packets: {packets}",
            f"per-connection: {sequential_seconds:.4f} s  ({sequential_pps:,.0f} packets/s)",
            f"batched:        {batched_seconds:.4f} s  ({batched_pps:,.0f} packets/s)",
            f"speedup:        {speedup:.2f}x",
            f"max |score difference|: {difference:.3e}",
        ]
    )
    write_result("batched_throughput.txt", text)

    assert difference < 1e-9
    # The batched engine must never be slower than the per-connection loop.
    # (Measured ratios: 3.8x over the actual seed revision, 2.8x over the
    # in-tree sequential path on the dev host — the results file records the
    # value for this run; no hard multiple is asserted because shared CI
    # runners make wall-clock ratios flaky.)
    assert batched_pps >= sequential_pps
