#!/usr/bin/env python
"""Online deployment: stream raw packets through a persisted model.

This example mirrors the deployment story of Figure 3 in the paper with the
streaming runtime: the operator trains CLAP offline and persists it as
a versioned model artifact (weights + ``manifest.json``); a (simulated)
middlebox process later loads it, wraps it in a
:class:`repro.serve.ParallelStreamingDetector` and feeds it a
:class:`repro.serve.IterableSource` packet stream.  The detector assembles
connections and cuts micro-batches on the ingest thread, worker processes
score them through the batched inference engine, and typed
``DetectionEvent``/``Alert`` objects funnel back through one callback the
moment they are scored.  The end-of-stream metrics summary shows the
backpressure signals an operator would watch (flow-table occupancy, flush
latency, drop counters).

Run with:  python examples/online_detector.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AttackInjector,
    BenignDataset,
    Clap,
    ClapConfig,
    FlushPolicy,
    ParallelStreamingDetector,
    all_strategies,
)
from repro.evaluation import roc_curve, true_false_positive_counts
from repro.netstack import packet_stream
from repro.serve import IterableSource


def train_and_persist(model_dir: Path) -> BenignDataset:
    dataset = BenignDataset.synthesize(connection_count=140, seed=33)
    config = ClapConfig.fast()
    config.rnn.epochs = 15
    config.autoencoder.epochs = 80
    clap = Clap(config)
    clap.fit(dataset.train)
    clap.save(model_dir)
    print(f"model persisted to {model_dir} (weights + manifest.json)")
    return dataset


def build_packet_stream(dataset: BenignDataset, attack_every: int = 4):
    """A time-ordered packet stream with every ``attack_every``-th connection
    attacked, plus the ground-truth labels keyed by connection 5-tuple."""
    rng = np.random.default_rng(5)
    injector = AttackInjector(seed=9)
    strategies = all_strategies()
    eligible, seen_keys = [], set()
    for connection in dataset.test:
        if len(connection) >= 5 and connection.key not in seen_keys:
            seen_keys.add(connection.key)
            eligible.append(connection)
    labels = {}
    streamed = []
    for index, connection in enumerate(eligible):
        if index % attack_every == attack_every - 1:
            strategy = strategies[int(rng.integers(0, len(strategies)))]
            connection = injector.attack_connection(strategy, connection).connection
            labels[connection.key] = strategy.name
        else:
            labels[connection.key] = None
        streamed.append(connection)
    return packet_stream(streamed), labels


def main() -> None:
    print("=== CLAP online detector (streaming API) ===")
    with tempfile.TemporaryDirectory() as workdir:
        model_dir = Path(workdir) / "clap-model"
        dataset = train_and_persist(model_dir)

        # A separate "middlebox" process would simply do:
        detector_model = Clap.load(model_dir)
        print(f"model loaded; default threshold {detector_model.threshold:.4f}\n")

        packets, labels = build_packet_stream(dataset)
        benign_scores, attack_scores = [], []
        print(f"{'verdict':>8}  {'score':>8}  {'completed':>9}  attack strategy")

        def on_event(event) -> None:
            strategy_name = labels.get(event.result.key)
            (attack_scores if strategy_name else benign_scores).append(event.result.score)
            label = "ALERT" if event.is_alert else "ok"
            print(
                f"{label:>8}  {event.result.score:8.4f}  "
                f"{event.completed_by.value:>9}  {strategy_name or ''}"
            )

        # Packets in, alerts out: the detector owns flow assembly,
        # micro-batching and the workers; the deployment code is just a
        # source and a callback.  The two worker processes are forked with
        # the loaded model (model_dir is read only by spawned workers).  (A
        # live deployment would swap IterableSource for PcapSource or
        # NDJSONSource, add a ReplaySource for pacing, and pick a DropPolicy
        # for capacity floods.)
        streaming = ParallelStreamingDetector(
            detector_model,
            workers=2,
            worker_mode="process",
            model_dir=model_dir,
            flush_policy=FlushPolicy(max_batch=8),
            idle_timeout=30.0,
            close_grace=0.5,
            on_event=on_event,
        )
        streaming.run(IterableSource(packets))
        print(
            f"\nstream finished: {streaming.alerts_emitted}/{streaming.connections_seen} "
            f"connections alerted"
        )
        print("\n--- runtime metrics (the operator's backpressure dashboard) ---")
        print(streaming.render_metrics())

        print("\n--- operating point selection (the deployer's trade-off) ---")
        curve = roc_curve(attack_scores, benign_scores)
        print(f"stream AUC-ROC: {curve.auc:.3f}   EER: {curve.eer:.3f}")
        for target_fpr in (0.0, 0.1, 0.25):
            candidates = [
                (fpr, tpr, thr)
                for fpr, tpr, thr in zip(
                    curve.false_positive_rates, curve.true_positive_rates, curve.thresholds
                )
                if fpr <= target_fpr
            ]
            fpr, tpr, threshold = candidates[-1]
            counts = true_false_positive_counts(attack_scores, benign_scores, threshold)
            print(f"threshold {threshold:8.4f}: TPR={tpr:.2f} FPR={fpr:.2f}  counts={counts}")


if __name__ == "__main__":
    main()
