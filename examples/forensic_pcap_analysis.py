#!/usr/bin/env python
"""Offline forensic analysis of a capture file.

The paper positions CLAP not only as an online detector but also as a forensic
tool that analyses traffic captures offline (Section 3.2).  This example:

1. writes a capture containing a mix of benign connections and connections
   attacked with three different evasion strategies,
2. re-reads the capture from disk as packet columns and reassembles the
   connections from their column views,
3. ranks every connection by its adversarial score, and
4. prints a per-connection report with the localised suspicious packets.

Run with:  python examples/forensic_pcap_analysis.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import AttackInjector, BenignDataset, Clap, ClapConfig, get_strategy
from repro.netstack import assemble_connections, read_packet_columns, write_pcap

ATTACKS = [
    "Snort: Injected RST Pure",
    "Invalid IP Version (Min)",
    "Bad Payload Length / Low TTL",
]


def build_capture(dataset: BenignDataset, path: Path) -> dict:
    """Write a suspicious capture and return {flow key -> strategy name}."""
    eligible = [c for c in dataset.test if len(c) >= 5]
    injector = AttackInjector(seed=3)
    connections = []
    ground_truth = {}
    for index, connection in enumerate(eligible[:9]):
        if index < len(ATTACKS):
            strategy = get_strategy(ATTACKS[index])
            attacked = injector.attack_connection(strategy, connection)
            connections.append(attacked.connection)
            ground_truth[str(attacked.connection.key)] = strategy.name
        else:
            connections.append(connection.copy())
    packets = sorted((p for c in connections for p in c.packets), key=lambda p: p.timestamp)
    write_pcap(path, packets)
    return ground_truth


def main() -> None:
    print("=== CLAP forensic capture analysis ===")
    dataset = BenignDataset.synthesize(connection_count=120, seed=21)

    config = ClapConfig.fast()
    config.rnn.epochs = 15
    config.autoencoder.epochs = 80
    clap = Clap(config)
    clap.fit(dataset.train)
    print(f"trained on {len(dataset.train)} benign connections; threshold={clap.threshold:.4f}")

    with tempfile.TemporaryDirectory() as workdir:
        capture_path = Path(workdir) / "suspicious.pcap"
        ground_truth = build_capture(dataset, capture_path)
        print(f"capture written to {capture_path} "
              f"({len(ground_truth)} attacked connections hidden inside)")

        connections = assemble_connections(read_packet_columns(capture_path).views())
        print(f"reassembled {len(connections)} connections from the capture\n")

        ranked = sorted(
            ((clap.score_connection(c), c) for c in connections),
            key=lambda item: item[0],
            reverse=True,
        )
        print(f"{'score':>8}  {'verdict':>10}  {'suspicious pkt':>14}  connection")
        for score, connection in ranked:
            verdict = clap.verdict(connection)
            label = "ATTACK" if verdict.is_adversarial else "benign"
            truth = ground_truth.get(str(connection.key), "")
            marker = f"   <-- ground truth: {truth}" if truth else ""
            print(f"{score:8.4f}  {label:>10}  {verdict.localized_packet:>14}  "
                  f"{connection.key}{marker}")

        detected = sum(
            1
            for score, connection in ranked[: len(ground_truth)]
            if str(connection.key) in ground_truth
        )
        print(f"\n{detected}/{len(ground_truth)} attacked connections rank in the top "
              f"{len(ground_truth)} scores")


if __name__ == "__main__":
    main()
