"""Input preparation for one benchmark run, in its own process.

Writes into ``--out``:

* ``capture.pcap`` — the workload's capture, made from ``--seed``;
* ``truth.json`` — ground truth the orchestrator keeps and never passes to
  the program: label, strategy and injected packet positions per labelled
  flow key, plus the capture position of each labelled connection's last
  packet (the closed-loop latency anchor);
* ``reference.json`` — the offline oracle: the capture read back in one
  columnar block, assembled by one :class:`FlowTable` under the workload's
  knobs and admission policy, and scored by a single ``Clap.detect_batch``;
* ``model/`` — the fixed tiny reference model, trained here on every run so
  that its artifact hash can be compared across runs.

Generating the benign corpus costs far more than everything else, so it is
built once per source tree into a pool under ``--cache`` and every seed
draws its connections, start times, attack targets and flood from it.
Keeping all of this out of the measured process keeps generator memory out
of ``peak_rss_mb`` and generator heap state out of the timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import random
from pathlib import Path

import numpy as np

import workloads as wl
from repro.attacks.base import all_strategies
from repro.attacks.injector import AttackInjector
from repro.core.config import ClapConfig
from repro.core.pipeline import Clap
from repro.netstack.flow import Connection, FlowKey, FlowTable, flow_key_of
from repro.netstack.ip import Ipv4Header
from repro.netstack.packet import Packet
from repro.netstack.pcap import PcapWriter, read_packet_columns
from repro.netstack.tcp import TcpFlags, TcpHeader
from repro.serve.metrics import DropPolicy, apply_drop_policy
from repro.traffic.generator import TrafficGenerator

#: Capture start (stream seconds); any fixed epoch works.
BASE_TIME = 1_700_000_000.0
FLOOD_SERVER = (0xC0A80001, 80)  # 192.168.0.1:80; the generator never draws 192/8
FLOOD_SOURCE_BASE = 0x0A000001  # 10.0.0.1; the generator never draws 10/8
FLOOD_PORT_SPAN = 60_000
RECORD_HEADER_BYTES = 16


def file_sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def model_hash(model_dir: Path) -> str:
    return file_sha256(*sorted(p for p in model_dir.iterdir() if p.is_file()))


# --------------------------------------------------------------------- pool
def load_pool(cache: Path, tag: str, count: int) -> list[tuple[list[float], list[bytes]]]:
    """The benign corpus as (timestamps, packet bytes) per connection."""
    path = cache / f"pool-{tag}-{count}.pkl"
    if path.exists():
        with open(path, "rb") as handle:
            return pickle.load(handle)
    generator = TrafficGenerator(seed=wl.POOL_SEED)
    pool = []
    for _ in range(count):
        connection = generator.generate_connection()
        pool.append(
            ([p.timestamp for p in connection.packets], [p.to_bytes() for p in connection.packets])
        )
    cache.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".tmp")
    with open(partial, "wb") as handle:
        pickle.dump(pool, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return pool


# -------------------------------------------------------------------- flood
def _syn_packet(index: int, source_base: int) -> Packet:
    server_ip, server_port = FLOOD_SERVER
    return Packet(
        ip=Ipv4Header(src=source_base + index, dst=server_ip),
        tcp=TcpHeader(
            src_port=1024 + index % FLOOD_PORT_SPAN,
            dst_port=server_port,
            seq=index,
            flags=TcpFlags.SYN,
        ),
    )


# ------------------------------------------------------------------ capture
def build_capture(workload: wl.Workload, seed: int, pool, path: Path) -> dict:
    """Write the capture; return the ground truth."""
    rng = random.Random(seed)
    order = rng.sample(range(len(pool)), workload.connections)
    strategies = all_strategies()
    strategy_offset = rng.randrange(len(strategies))
    injector = AttackInjector(seed=seed)
    records: list[tuple[float, int, int, bytes | None]] = []
    labelled = []
    start = BASE_TIME
    for slot, pool_index in enumerate(order):
        start += rng.expovariate(1.0 / workload.connection_gap)
        stamps, datas = pool[pool_index]
        shift = start - stamps[0]
        attacked = slot % wl.ATTACK_EVERY == 0
        if attacked:
            strategy = strategies[(strategy_offset + slot // wl.ATTACK_EVERY) % len(strategies)]
            packets = [
                Packet.from_bytes(data, timestamp=stamp + shift)
                for stamp, data in zip(stamps, datas, strict=True)
            ]
            connection = Connection(key=FlowKey.from_packet(packets[0]))
            for packet in packets:
                connection.append(packet)
            adversarial = injector.attack_connection(strategy, connection).connection
            items = [(p.timestamp, p.to_bytes(), p.injected) for p in adversarial.packets]
        else:
            strategy = None
            items = [(s + shift, d, False) for s, d in zip(stamps, datas, strict=True)]
        for position, (stamp, data, is_injected) in enumerate(items):
            records.append((stamp, slot, position, data))
        labelled.append(
            {"label": int(attacked), "strategy": strategy.name if strategy else None,
             "injected_at": [p for p, item in enumerate(items) if item[2]]}
        )
    first_stamp = min(r[0] for r in records)
    last_stamp = max(r[0] for r in records)
    flood_rows = None
    if workload.flood_flows:
        # Flood SYNs spread evenly (with seeded jitter) across the labelled span.
        source_base = FLOOD_SOURCE_BASE + rng.randrange(1 << 16)
        flood_rows = [
            _syn_packet(index, source_base).to_bytes() for index in range(workload.flood_flows)
        ]
        flood_stamps = np.sort(
            np.random.default_rng(seed).uniform(first_stamp, last_stamp, workload.flood_flows)
        )
        flood_slot = len(order)
        records.extend(
            (float(stamp), flood_slot, index, None)
            for index, stamp in enumerate(flood_stamps.tolist())
        )
    # Stable order: by time, then connection, then position within it, so
    # every connection keeps its own packet order.
    records.sort(key=lambda record: (record[0], record[1], record[2]))
    # Byte offset of every labelled packet's data, relative to the end of
    # the global header (where a whole-file columnar read starts its buffer).
    placed: list[list[tuple[int, int]]] = [[] for _ in order]
    offset = 0
    with PcapWriter(path) as writer:
        for stamp, slot, position, data in records:
            if data is None:
                data = flood_rows[position]
            else:
                placed[slot].append((offset + RECORD_HEADER_BYTES, position))
            writer.write_raw(data, stamp)
            offset += RECORD_HEADER_BYTES + len(data)
    for entry, packets in zip(labelled, placed, strict=True):
        entry["placed"] = packets
    return {"flood_flows": workload.flood_flows, "labelled": labelled}


def finish_truth(truth: dict, columns) -> None:
    """Resolve labelled packets to the rows the program will see.

    The reader skips records it cannot parse as TCP/IPv4 (a few attacks
    inject such packets), so injected positions are counted among the kept
    packets of each connection, and the flow key and timestamps are the
    ones read back from the file.
    """
    row_of = {int(offset): row for row, offset in enumerate(columns.offsets.tolist())}
    views = columns.views()
    timestamps = columns.timestamp
    for entry in truth["labelled"]:
        injected_at = set(entry.pop("injected_at"))
        rows, injected = [], []
        for offset, position in entry.pop("placed"):
            row = row_of.get(offset)
            if row is None:
                continue
            if position in injected_at:
                injected.append(len(rows))
            rows.append(row)
        entry["injected"] = injected
        entry["packets"] = len(rows)
        entry["key"] = str(flow_key_of(views[rows[0]]))
        entry["first_seen"] = float(timestamps[rows[0]])
        entry["last_index"] = rows[-1]
        entry["last_ts"] = float(timestamps[rows[-1]])
    truth["packets"] = len(columns)
    truth["capture_first_ts"] = float(timestamps[0])


# ---------------------------------------------------------------- reference
def offline_reference(clap: Clap, workload: wl.Workload, columns) -> list[list]:
    """One FlowTable over the whole capture, then one ``detect_batch``."""
    knobs = workload.detector
    table = FlowTable(max_flows=knobs.get("max_flows"))
    policy = DropPolicy(**knobs["drop_policy"]) if "drop_policy" in knobs else None
    admission = policy.new_state() if policy is not None else None
    kept = []
    for view in columns.views():
        completions = table.add(view)
        if completions:
            kept.extend(apply_drop_policy(completions, policy, None, admission))
    kept.extend(apply_drop_policy(table.drain(), policy, None, admission))
    connections = [connection for connection, _ in kept]
    results = clap.detect_batch(connections)
    return [
        [
            str(result.key),
            connection.packets[0].timestamp,
            result.packet_count,
            result.score,
            result.localized_packet,
        ]
        for result, connection in zip(results, connections, strict=True)
    ]


def train_model(model_dir: Path) -> Clap:
    config = ClapConfig.fast()
    config.rnn.epochs = wl.MODEL_RNN_EPOCHS
    config.autoencoder.epochs = wl.MODEL_AE_EPOCHS
    training = TrafficGenerator(seed=wl.MODEL_SEED).generate_connections(
        wl.MODEL_TRAIN_CONNECTIONS
    )
    clap = Clap(config)
    clap.fit(training)
    clap.save(model_dir)
    return clap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--tag", required=True, help="source-tree hash keying the pool cache")
    args = parser.parse_args(argv)
    workload = wl.resolve(args.workload, args.size)
    args.out.mkdir(parents=True, exist_ok=True)
    capture = args.out / "capture.pcap"
    model_dir = args.out / "model"

    clap = train_model(model_dir)
    pool_size = wl.POOL_CONNECTIONS if args.size == "full" else wl.TINY_POOL_CONNECTIONS
    pool = load_pool(args.cache, args.tag, pool_size)
    truth = build_capture(workload, args.seed, pool, capture)
    del pool
    columns = read_packet_columns(capture)
    finish_truth(truth, columns)
    reference = offline_reference(clap, workload, columns)
    (args.out / "truth.json").write_text(json.dumps(truth))
    (args.out / "reference.json").write_text(json.dumps(reference))
    meta = {
        "model_hash": model_hash(model_dir),
        "input_hash": file_sha256(capture, args.out / "truth.json"),
        "capture_bytes": capture.stat().st_size,
    }
    (args.out / "meta.json").write_text(json.dumps(meta))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
