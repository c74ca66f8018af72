"""Table 3: model processing throughput (packets/s, connections/s).

Paper values on a Xeon E3-1225 single core: CLAP 2,162 packets/s vs Kitsune
1,445 packets/s (+49.7%).  Absolute numbers depend on the host; the shape to
preserve is that CLAP's single-autoencoder testing phase processes packets
faster than the ensemble-of-autoencoders baseline.

Beyond the paper, the table now also tracks the full packets-in/alerts-out
serving path: ``mode="streaming"`` replays the test connections' packets in
timestamp order through :class:`ParallelStreamingDetector` — in process on
the caller's thread, and across 1 and 4 worker processes — covering flow
assembly, micro-batching and event dispatch, not just scoring.  The
streaming rows replay column views (what a ``PcapSource`` feeds the
runtime).

The ``worker`` rows run one in-process detector; ``process`` workers each
own a core — forked from the caller, they score with its already-loaded
model, the caller's thread assembles connections and each batch ships as
one packed column block.  Since the setup/steady split, each row's fixed
costs (detector construction and worker start) are measured into a
separate ``Setup (s)`` column and
the ``Packets/Second`` column is the steady-state ingest rate; the old
all-inclusive figure survives as ``Total Pkt/s``.  Backend rows serve the
same model through the tolerance-gated fast paths (``gru-f32``,
``quantized-gru``) via ``measure_throughput(..., backend=...)``.
"""

from benchmarks.conftest import host_cores, write_json_result, write_result
from repro.evaluation.reporting import render_table3
from repro.evaluation.runner import BASELINE2_NAME, CLAP_NAME


def _available_cores() -> int:
    return host_cores()


def test_table3_throughput(experiment, benchmark):
    runner = experiment.runner
    sample = runner.test_connections

    clap_detector = runner.detectors[CLAP_NAME]
    benchmark(lambda: clap_detector.score_connections(sample[:10]))

    # The serving-path rows need enough packets to amortise per-run fixed
    # costs (worker spawn/join, queue warm-up, the process pool's model
    # save/map), so they replay the whole corpus rather than the small
    # scored sample — and keep the best of three runs, the noise-robust
    # estimator for wall-clock timings.
    corpus = experiment.dataset.train + experiment.dataset.test

    def best_streaming(workers: int, worker_mode: str = "thread", backend: str = None):
        runs = [
            runner.measure_throughput(
                CLAP_NAME,
                corpus,
                mode="streaming",
                workers=workers,
                worker_mode=worker_mode,
                backend=backend,
            )
            for _ in range(3)
        ]
        return min(runs, key=lambda result: result.seconds)

    def best_batched(name: str, backend: str = None):
        # The batched rows score a small sample in tens of milliseconds, so
        # a single scheduler hiccup can swing them by 20%+; use the same
        # best-of-3 estimator as the streaming rows.
        runs = [
            runner.measure_throughput(name, sample, backend=backend) for _ in range(3)
        ]
        return min(runs, key=lambda result: result.seconds)

    throughput = {
        CLAP_NAME: best_batched(CLAP_NAME),
        "CLAP (gru-f32)": best_batched(CLAP_NAME, backend="gru-f32"),
        "CLAP (quantized)": best_batched(CLAP_NAME, backend="quantized-gru"),
        BASELINE2_NAME: best_batched(BASELINE2_NAME),
        "CLAP (streaming, 1 worker)": best_streaming(1),
        "CLAP (streaming, 1 worker, gru-f32)": best_streaming(1, backend="gru-f32"),
        "CLAP (streaming, 1 process)": best_streaming(1, "process"),
        "CLAP (streaming, 4 processes)": best_streaming(4, "process"),
    }
    cores = _available_cores()
    text = render_table3(throughput) + (
        f"\n\nstreaming rows: full packets-in/alerts-out path (flow assembly +"
        f" micro-batched scoring + event dispatch), best of 3 replays of the"
        f" whole corpus; host had {cores} usable core(s).  Streaming rows replay"
        f" ColumnPacketView handles over pre-built PacketColumns (the"
        f" PcapSource serving path).  Process rows assemble on the caller's"
        f" thread and fork scoring worker processes (GIL-free scaling): each"
        f" worker scores with the caller's loaded model and receives each batch"
        f" as one packed column block.  'Setup (s)' isolates each row's fixed"
        f" costs (detector construction and worker start) from the steady-state"
        f" 'Packets/Second'; 'Total Pkt/s' is the old all-inclusive figure."
        f"  Backend rows serve the fused float32 and int8-quantized fast"
        f" paths, verdict-identical within their documented tolerance gates"
        f" (see tests/core/test_backend_equivalence.py)."
    )
    write_result("table3_throughput.txt", text)
    # Machine-readable companion: one row per rendered table row, stamped
    # with the measuring host's core count and commit so trend tooling can
    # compare like with like.
    write_json_result(
        "BENCH_table3.json",
        {
            "table": "table3_throughput",
            "rows": [
                {
                    "label": name,
                    "mode": result.mode,
                    "backend": result.backend,
                    "workers": result.workers,
                    "worker_mode": result.worker_mode,
                    "packets": result.packets,
                    "connections": result.connections,
                    "seconds": result.seconds,
                    "setup_seconds": result.setup_seconds,
                    "packets_per_second": result.packets_per_second,
                    "connections_per_second": result.connections_per_second,
                }
                for name, result in throughput.items()
            ],
        },
    )

    clap = throughput[CLAP_NAME]
    kitsune = throughput[BASELINE2_NAME]
    assert clap.packets > 0 and kitsune.packets > 0
    # CLAP processes packets faster than the ensemble baseline (Table 3 shape).
    assert clap.packets_per_second > kitsune.packets_per_second
    assert clap.connections_per_second > kitsune.connections_per_second
    # Sanity: the Python prototype should comfortably exceed 100 packets/s.
    assert clap.packets_per_second > 100

    clap_f32 = throughput["CLAP (gru-f32)"]
    clap_quantized = throughput["CLAP (quantized)"]
    # The fast serving backends must not regress the end-to-end batched path.
    # The model-only stage is 1.5-2x faster (see rnn_step_breakdown), but it
    # is only part of the score path, so the whole-path gain is diluted; the
    # tripwire guards against regression rather than asserting the dilution.
    assert clap_f32.connections == clap_quantized.connections == clap.connections
    assert clap_f32.packets_per_second > 0.9 * clap.packets_per_second
    assert clap_quantized.packets_per_second > 0.9 * clap.packets_per_second

    streaming_1 = throughput["CLAP (streaming, 1 worker)"]
    streaming_f32 = throughput["CLAP (streaming, 1 worker, gru-f32)"]
    process_1 = throughput["CLAP (streaming, 1 process)"]
    process_4 = throughput["CLAP (streaming, 4 processes)"]
    assert streaming_f32.connections == streaming_1.connections
    # In the streaming path the model stage is a minority of the per-packet
    # work (flow assembly + micro-batching dominate), so the f32 model gain
    # dilutes toward 1.0x and single-core jitter can push the ratio below
    # it; guard against a real regression only.
    assert streaming_f32.packets_per_second > 0.75 * streaming_1.packets_per_second
    assert streaming_1.connections > 0
    # Process mode emits the identical connection set (scores are asserted
    # equal to 1e-9 by the serve test suite; the benchmark checks the count).
    assert process_1.connections == process_4.connections == streaming_1.connections
    assert streaming_1.packets_per_second > 100
    if cores > 1:
        # With real parallel compute available, four process shards (no
        # shared GIL) must beat the single-worker packets-in/alerts-out
        # baseline.
        assert process_4.packets_per_second > streaming_1.packets_per_second
    else:
        # Single-core host: processes cannot add compute, so only guard that
        # coordination overhead stays bounded.  The process pool's fixed
        # costs (worker start) land in the setup column, so these
        # steady-state ratios measure block serialisation + IPC on a
        # time-sliced core; the tripwires keep the
        # pre-split lower bounds, which steady-state rates clear easily.
        assert process_1.packets_per_second > 0.10 * streaming_1.packets_per_second
        assert process_4.packets_per_second > 0.05 * streaming_1.packets_per_second
