#!/usr/bin/env python
"""Chaos smoke test for CI: kill a shard worker mid-stream, finish anyway.

Synthesise a capture, train a deliberately tiny model, then replay the
capture through ``repro stream --workers 2 --worker-mode process`` (batches
of four connections, so batches are in flight when the fault lands) while a
deterministic fault plan SIGKILLs one of the two shard workers mid-stream.
Under ``--on-worker-failure degrade`` the run must still exit 0, emit events
for connections that complete after the kill, and print a machine-readable
``degradation:`` line with a loss of kind ``worker`` whose accounting
satisfies the identity

    packets_routed = packets_scored + packets_lost_inflight

for every recorded loss.  The survivor scores every later batch, so every
packet of the capture is either in an event or in a lost batch.  Under
``--on-worker-failure fail`` the same fault must exit non-zero — with the
degradation report still printed — so operators can choose loud failure
over silent loss.

Run with:  PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.netstack.pcap import read_packet_columns

CONNECTIONS = 30
KILL_AT = 40
KILL_SPEC = f"kill-worker:1@{KILL_AT}"
WORKERS = ["--workers", "2", "--worker-mode", "process", "--max-batch", "4"]


def run(argv: list) -> tuple:
    """Invoke the CLI in-process, capturing stdout and stderr."""
    print(f"$ repro-clap {' '.join(argv)}", file=sys.stderr)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    sys.stderr.write(err.getvalue())
    return code, out.getvalue(), err.getvalue()


def _events(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _degradation(err: str) -> dict | None:
    for line in err.splitlines():
        if line.startswith("degradation: "):
            return json.loads(line[len("degradation: "):])
    return None


def _check_identity(report: dict) -> str | None:
    if not report.get("losses"):
        return "degradation report records no losses"
    for loss in report["losses"]:
        routed, scored = loss["packets_routed"], loss["packets_scored"]
        lost = loss["packets_lost_inflight"]
        if routed != scored + lost:
            return (
                f"accounting identity violated for worker {loss['index']}: "
                f"routed={routed} scored={scored} lost_inflight={lost}"
            )
        if lost < 0:
            return f"negative in-flight loss for worker {loss['index']}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        capture_path = work / "chaos.pcap"
        model_dir = work / "model"

        code, _, _ = run(["generate", str(capture_path),
                          "--connections", str(CONNECTIONS), "--seed", "11"])
        if code != 0:
            print("chaos smoke FAILED: generate exited non-zero", file=sys.stderr)
            return 1

        code, _, _ = run(["train", str(model_dir), "--pcap", str(capture_path),
                          "--fast", "--rnn-epochs", "3", "--ae-epochs", "10",
                          "--seed", "11"])
        if code != 0:
            print("chaos smoke FAILED: train exited non-zero", file=sys.stderr)
            return 1

        # Degrade mode: one worker SIGKILLed mid-stream must still be a
        # clean exit with every lost packet attributed.
        code, out, err = run(["stream", str(model_dir), str(capture_path), *WORKERS,
                              "--on-worker-failure", "degrade",
                              "--inject-fault", KILL_SPEC])
        if code != 0:
            print(f"chaos smoke FAILED: degrade-mode stream exited {code} "
                  "(must survive a single worker kill)", file=sys.stderr)
            return 1
        events = _events(out)
        if not events:
            print("chaos smoke FAILED: degrade-mode stream emitted no events",
                  file=sys.stderr)
            return 1
        report = _degradation(err)
        if report is None:
            print("chaos smoke FAILED: no degradation report on stderr",
                  file=sys.stderr)
            return 1
        problem = _check_identity(report)
        if problem is not None:
            print(f"chaos smoke FAILED: {problem}", file=sys.stderr)
            return 1
        kinds = {loss["kind"] for loss in report["losses"]}
        if "worker" not in kinds:
            print(f"chaos smoke FAILED: expected a worker loss, got {kinds}",
                  file=sys.stderr)
            return 1
        capture = read_packet_columns(capture_path)
        kill_time = float(capture.timestamp[KILL_AT - 1])
        later = [event for event in events if event["last_seen"] > kill_time]
        if not later:
            print("chaos smoke FAILED: no event for a connection that completed "
                  "after the kill", file=sys.stderr)
            return 1
        scored = sum(event["packet_count"] for event in events)
        if scored + report["packets_lost_inflight"] != len(capture):
            print(f"chaos smoke FAILED: {scored} packets scored + "
                  f"{report['packets_lost_inflight']} lost in flight != "
                  f"{len(capture)} in the capture", file=sys.stderr)
            return 1

        # Fail mode: the same fault must be loud — non-zero exit, report
        # still printed, nothing wedged.
        code, _, err = run(["stream", str(model_dir), str(capture_path), *WORKERS,
                            "--on-worker-failure", "fail",
                            "--inject-fault", KILL_SPEC])
        if code == 0:
            print("chaos smoke FAILED: fail-mode stream exited 0 despite a "
                  "killed worker", file=sys.stderr)
            return 1
        if _degradation(err) is None:
            print("chaos smoke FAILED: fail-mode exit carried no degradation "
                  "report", file=sys.stderr)
            return 1

    lost = report["packets_lost_inflight"]
    print(f"chaos smoke OK: survived {KILL_SPEC} in degrade mode with "
          f"{len(events)} events ({len(later)} completed after the kill), "
          f"{lost} in-flight packets lost and attributed; fail mode refused "
          "loudly", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
