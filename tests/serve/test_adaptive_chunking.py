"""Adaptive chunk sizing: the controller, its metrics, and the live wiring.

The acceptance criterion for the adaptive-chunking work: under induced
backpressure the runtime's chunk size **demonstrably changes** — the growth
is driven by the real signal path (``queue.Full`` on a shard submit), not by
poking the controller directly.
"""

from __future__ import annotations

import queue

import pytest

from repro.serve import ParallelStreamingDetector
from repro.serve.metrics import AdaptiveChunker, DropPolicy, StreamingMetrics
from tests.serve.test_flood import syn_flood


class TestAdaptiveChunker:
    def test_validation(self):
        with pytest.raises(ValueError, match="minimum"):
            AdaptiveChunker(minimum=0)
        with pytest.raises(ValueError, match="minimum"):
            AdaptiveChunker(minimum=64, maximum=32)
        with pytest.raises(ValueError, match="ewma_alpha"):
            AdaptiveChunker(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="target_flush_seconds"):
            AdaptiveChunker(target_flush_seconds=0.0)
        with pytest.raises(ValueError, match="cooldown"):
            AdaptiveChunker(cooldown=-1)

    def test_initial_size_is_clamped_to_bounds(self):
        assert AdaptiveChunker(initial=1, minimum=16).size == 16
        assert AdaptiveChunker(initial=10_000, maximum=2048).size == 2048

    def test_backpressure_doubles_up_to_maximum(self):
        chunker = AdaptiveChunker(initial=64, maximum=256, cooldown=0)
        chunker.record_backpressure()
        assert chunker.size == 128
        chunker.record_backpressure()
        assert chunker.size == 256
        chunker.record_backpressure()  # already at the ceiling
        assert chunker.size == 256
        assert chunker.grow_events == 2
        assert chunker.backpressure_events == 3

    def test_cooldown_gates_consecutive_resizes(self):
        chunker = AdaptiveChunker(initial=64, cooldown=2)
        chunker.record_backpressure()
        assert chunker.size == 128
        chunker.record_backpressure()  # still cooling down: counted, no grow
        assert chunker.size == 128
        chunker.record_submit()
        chunker.record_submit()
        chunker.record_backpressure()
        assert chunker.size == 256
        assert chunker.backpressure_events == 3
        assert chunker.grow_events == 2

    def test_hot_flushes_shrink_down_to_minimum(self):
        chunker = AdaptiveChunker(
            initial=128, minimum=32, cooldown=0, target_flush_seconds=0.25
        )
        chunker.record_flush(10.0)
        assert chunker.size == 64
        chunker.record_flush(10.0)
        assert chunker.size == 32
        chunker.record_flush(10.0)  # at the floor
        assert chunker.size == 32
        assert chunker.shrink_events == 2

    def test_cool_flushes_leave_the_size_alone(self):
        chunker = AdaptiveChunker(initial=128, cooldown=0)
        for _ in range(10):
            chunker.record_flush(0.001)
        assert chunker.size == 128
        assert chunker.shrink_events == 0

    def test_shrink_discounts_the_ewma_with_the_size(self):
        # Without the discount, one slow flush would keep re-shrinking on
        # stale history even after the smaller chunks land under target.
        chunker = AdaptiveChunker(
            initial=2048, minimum=16, cooldown=0, ewma_alpha=1.0
        )
        chunker.record_flush(0.4)  # hot: shrink, EWMA discounted to 0.2
        assert chunker.size == 1024
        state = chunker.state()
        assert state["flush_ewma_seconds"] == pytest.approx(0.2)

    def test_state_is_json_friendly(self):
        chunker = AdaptiveChunker(initial=64, cooldown=0)
        chunker.record_backpressure()
        chunker.record_flush(0.01)
        state = chunker.state()
        assert state["size"] == 128
        assert state["grow_events"] == 1
        assert state["shrink_events"] == 0
        assert state["backpressure_events"] == 1
        assert state["flush_ewma_seconds"] == pytest.approx(0.01)
        assert state["minimum"] == 16 and state["maximum"] == 2048


class TestMetricsSurface:
    def test_render_shows_shared_memory_and_chunking(self):
        metrics = StreamingMetrics()
        metrics.attach_chunker(AdaptiveChunker(initial=64))
        metrics.record_shm_segment(1024, 1)
        metrics.record_shm_segment(2048, 2)
        metrics.record_payload_copy(128)
        rendered = metrics.render()
        assert (
            "shared memory: segments=2 broadcast=3072B high-water=2 copied=128B"
            in rendered
        )
        assert "chunking: size=64 grow=0 shrink=0 backpressure=0" in rendered

    def test_snapshot_without_chunker_reports_none(self):
        snapshot = StreamingMetrics().snapshot()
        assert snapshot["adaptive_chunking"] is None
        assert "chunking:" not in StreamingMetrics().render()

    def test_worker_state_carries_copies_and_drives_the_chunker(self):
        # Process workers flush in their own interpreter; the parent's only
        # view of their latency (and their payload copies) is the shipped
        # counter struct.
        chunker = AdaptiveChunker(initial=256, cooldown=0)
        parent = StreamingMetrics()
        parent.attach_chunker(chunker)
        worker = StreamingMetrics()
        worker.record_payload_copy(4096)
        worker.record_flush(3, 2.0)
        parent.absorb_worker_state("w0", worker.worker_state())
        snapshot = parent.snapshot()
        assert snapshot["shared_memory"]["payload_bytes_copied"] == 4096
        assert chunker.size == 128  # the 2s flush ran hot
        assert snapshot["adaptive_chunking"]["shrink_events"] == 1


class TestRuntimeBackpressure:
    def test_induced_backpressure_grows_the_chunk_size(self, trained_clap):
        # Deterministic controller: no cooldown, shrink disabled, so the
        # induced queue.Full signals map 1:1 onto doublings.
        chunker = AdaptiveChunker(initial=64, cooldown=0, target_flush_seconds=1e9)
        detector = ParallelStreamingDetector(
            trained_clap,
            # workers=1 in thread mode is the queue-less single detector;
            # process shards exercise the real submit path.
            workers=2,
            worker_mode="process",
            chunk_size=chunker,
            idle_timeout=1e9,
            close_grace=0.5,
            max_flows=16,
            drop_policy=DropPolicy(mode="drop"),
        )
        rejections = {"left": 3, "last": None}
        originals = []
        for shard in detector._shards:
            real_put = shard.queue.put
            originals.append((shard.queue, real_put))

            def flaky_put(item, block=True, timeout=None, _real=real_put):
                # Simulate a backed-up shard through the runtime's own
                # signal path: the first submits each see one full queue.
                if rejections["left"] and item is not rejections["last"]:
                    rejections["left"] -= 1
                    rejections["last"] = item
                    raise queue.Full
                return _real(item, block, timeout)

            shard.queue.put = flaky_put
        try:
            assert detector._chunk_target() == 64
            for packet in syn_flood(1200):
                detector.ingest(packet)
            detector.close()
        finally:
            for shard_queue, real_put in originals:
                shard_queue.put = real_put
        # 64 -> 128 -> 256 -> 512: every induced queue.Full grew the chunk.
        assert chunker.size == 512
        assert chunker.grow_events == 3
        assert chunker.backpressure_events == 3
        state = detector.metrics_snapshot()["adaptive_chunking"]
        assert state["size"] == 512
        assert "chunking: size=512" in detector.render_metrics()

    def test_adaptive_is_the_default_and_fixed_opts_out(self, trained_clap):
        adaptive = ParallelStreamingDetector(trained_clap, workers=1)
        try:
            assert adaptive.metrics_snapshot()["adaptive_chunking"] is not None
        finally:
            adaptive.close()
        fixed = ParallelStreamingDetector(trained_clap, workers=1, chunk_size=32)
        try:
            assert fixed._chunk_target() == 32
            assert fixed.metrics_snapshot()["adaptive_chunking"] is None
        finally:
            fixed.close()
