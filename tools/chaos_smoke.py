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
``--on-worker-failure respawn`` the same must hold, with the killed worker
replaced by a fresh incarnation: a forked worker inherits the parent's
loaded model, so this leg covers a respawn that loads nothing.  Under
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


def _check_survived(policy: str, code: int, out: str, err: str, capture) -> tuple | str:
    """``(events, events completed after the kill, packets lost in flight)``
    of a stream that must survive the kill, or what went wrong."""
    if code != 0:
        return f"{policy}-mode stream exited {code} (must survive a single worker kill)"
    events = _events(out)
    if not events:
        return f"{policy}-mode stream emitted no events"
    report = _degradation(err)
    if report is None:
        return f"no degradation report on stderr in {policy} mode"
    problem = _check_identity(report)
    if problem is not None:
        return problem
    kinds = {loss["kind"] for loss in report["losses"]}
    if "worker" not in kinds:
        return f"expected a worker loss in {policy} mode, got {kinds}"
    if policy == "respawn" and (report["respawns"] < 1 or len(report["losses"]) != 1):
        return ("respawn mode must replace the killed worker once and lose nothing "
                f"else, got {report['respawns']} respawns and {report['losses']}")
    kill_time = float(capture.timestamp[KILL_AT - 1])
    later = [event for event in events if event["last_seen"] > kill_time]
    if not later:
        return f"no event for a connection that completed after the kill in {policy} mode"
    scored = sum(event["packet_count"] for event in events)
    lost = report["packets_lost_inflight"]
    if scored + lost != len(capture):
        return (f"{policy} mode: {scored} packets scored + {lost} lost in flight != "
                f"{len(capture)} in the capture")
    return len(events), len(later), lost


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

        # Degrade and respawn modes: one worker SIGKILLed mid-stream must
        # still be a clean exit with every lost packet attributed.
        capture = read_packet_columns(capture_path)
        survived = {}
        for policy in ("degrade", "respawn"):
            code, out, err = run(["stream", str(model_dir), str(capture_path), *WORKERS,
                                  "--on-worker-failure", policy,
                                  "--inject-fault", KILL_SPEC])
            outcome = _check_survived(policy, code, out, err, capture)
            if isinstance(outcome, str):
                print(f"chaos smoke FAILED: {outcome}", file=sys.stderr)
                return 1
            survived[policy] = outcome

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

    summary = "; ".join(
        f"{policy}: {events} events ({later} completed after the kill), "
        f"{lost} in-flight packets lost and attributed"
        for policy, (events, later, lost) in survived.items()
    )
    print(f"chaos smoke OK: survived {KILL_SPEC} ({summary}); fail mode refused "
          "loudly", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
