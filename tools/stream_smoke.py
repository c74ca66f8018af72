#!/usr/bin/env python
"""End-to-end streaming smoke test for CI.

Exercises the full operational path with no fixtures: synthesise a capture,
train a deliberately tiny model on a smaller one, replay the capture
through ``repro stream`` with one in-process detector (``--workers
1``) and again with two *process* shard workers (``--workers 2 --worker-mode
process``: forked with the parent's loaded model), once from the pcap
(column views) and once from the same capture as NDJSON (``--source
ndjson``, which yields ``Packet`` objects), and fail on a non-zero exit
code, zero emitted events, or any run disagreeing with the in-process one
on any connection's unrounded score or on a ``--metrics`` counter
(packets, completions by reason, scored, events, alerts, capacity and
subnet drops).  The capture holds more connections than two
default 128-connection flush batches, so batches are scored (and shipped) as
several 64-connection grains.  The point is not accuracy — it is that the
runtime's packets-in/alerts-out pipeline holds together as a process would
run it, in both worker modes.

Run with:  PYTHONPATH=src python tools/stream_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.netstack.pcap import read_packet_columns
from repro.serve import NDJSONSource

#: Connections replayed: past two full flush batches of the default 128.
CONNECTIONS = 300
#: Connections the tiny model trains on.
TRAIN_CONNECTIONS = 30
#: The ``--metrics`` counters every run must report identically.
COUNTERS = ("packets", "completions", "scored", "events", "alerts",
            "capacity_drops", "subnet_drops")
_COUNTER = re.compile(rf"\b({'|'.join(COUNTERS)})=(\[[^\]]*\]|\d+)")


def run(argv: list, capture: bool = False) -> tuple:
    """Invoke the CLI in-process; with ``capture``, return its stdout and
    stderr (the stderr is echoed too)."""
    print(f"$ repro-clap {' '.join(argv)}", file=sys.stderr)
    if not capture:
        return cli_main(argv), "", ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    sys.stderr.write(err.getvalue())
    return code, out.getvalue(), err.getvalue()


def counters(stderr: str) -> dict:
    """The :data:`COUNTERS` of a ``--metrics`` summary."""
    return dict(_COUNTER.findall(stderr))


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        capture_path = work / "smoke.pcap"
        ndjson_path = work / "smoke.ndjson"
        train_path = work / "train.pcap"
        model_dir = work / "model"

        for path, count in ((capture_path, CONNECTIONS), (train_path, TRAIN_CONNECTIONS)):
            code, *_ = run(["generate", str(path), "--connections", str(count), "--seed", "7"])
            if code != 0:
                print("smoke FAILED: generate exited non-zero", file=sys.stderr)
                return 1

        ndjson_path.write_text("".join(
            NDJSONSource.format_packet(packet) + "\n"
            for packet in read_packet_columns(capture_path).views()
        ))

        code, *_ = run(["train", str(model_dir), "--pcap", str(train_path),
                       "--fast", "--rnn-epochs", "3", "--ae-epochs", "10", "--seed", "7"])
        if code != 0:
            print("smoke FAILED: train exited non-zero", file=sys.stderr)
            return 1

        code, out, err = run(["stream", str(model_dir), str(capture_path),
                              "--workers", "1", "--metrics"], capture=True)
        if code != 0:
            print("smoke FAILED: stream exited non-zero", file=sys.stderr)
            return 1
        events = [json.loads(line) for line in out.splitlines() if line.strip()]
        if not events:
            print("smoke FAILED: stream emitted zero events", file=sys.stderr)
            return 1
        if len(events) != CONNECTIONS:
            print(
                f"smoke FAILED: expected {CONNECTIONS} events, got {len(events)}",
                file=sys.stderr,
            )
            return 1

        rows = sorted((e["connection"], e["score"]) for e in events)
        expected = counters(err)
        if set(expected) != set(COUNTERS):
            print(f"smoke FAILED: the metrics summary lacks "
                  f"{sorted(set(COUNTERS) - set(expected))}", file=sys.stderr)
            return 1
        # NDJSON yields Packet objects, which reach the workers through
        # from_packets blocks, a different path from the capture's own
        # column blocks.
        for source in (capture_path, ndjson_path):
            code, out, err = run(["stream", str(model_dir), str(source),
                                  "--workers", "2", "--worker-mode", "process",
                                  "--metrics"], capture=True)
            if code != 0:
                print(f"smoke FAILED: process-mode stream of {source.name} exited non-zero",
                      file=sys.stderr)
                return 1
            process_events = [json.loads(line) for line in out.splitlines() if line.strip()]
            process_rows = sorted((e["connection"], e["score"]) for e in process_events)
            if process_rows != rows:
                print(f"smoke FAILED: process-mode events of {source.name} diverge from "
                      "the in-process detector", file=sys.stderr)
                return 1
            got = counters(err)
            if got != expected:
                print(f"smoke FAILED: process-mode metrics of {source.name} diverge from "
                      f"the in-process detector: {got} != {expected}", file=sys.stderr)
                return 1

    print(f"smoke OK: {len(events)} events from {CONNECTIONS} connections "
          f"through one in-process detector, reproduced identically (events and "
          f"metrics counters) by 2 process shard workers from the pcap and from "
          f"NDJSON", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
