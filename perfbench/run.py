"""pcap-to-alerts benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Each run prepares its inputs from ``--seed`` in a child process
(``prepare.py``: capture, ground truth, offline reference scores, the
fixed tiny model), measures them in a second child (``measure.py``), then
checks the outputs and prints one JSON object as its last stdout line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  A provenance stamp (cores, commit,
seed, BLAS threads, Python/NumPy versions, model and input hashes) is
printed on the line before.  The process exits non-zero when a
correctness gate fails or a child raises.  This file uses only the
standard library; NumPy and the program load in the children, with BLAS
pinned to one thread before they import it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SCORE_TOLERANCE = 1e-9
LOCALIZATION_TOLERANCE = 5  # Top-5: an injected packet within two either side
PREPARE_TIMEOUT = 840.0
MEASURE_TIMEOUT = 150.0
BLAS_THREADS = "1"
#: Completions that happen while the stream runs (not the final drain).
LIVE_COMPLETIONS = ("closed", "capacity")
STEADY_SHARE = 0.8


class GateError(Exception):
    """A child failed or an output was wrong."""


# ------------------------------------------------------------ environment
def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_hash(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_of(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() or "none"


def run_child(script: str, arguments: list[str], env: dict, timeout: float) -> None:
    """Run a child in its own process group; on timeout the whole group
    (including fan-out workers) is killed and reaped."""
    command = [sys.executable, str(HERE / script), *arguments]
    child = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise GateError(f"{script} did not finish within {timeout:.0f} s") from error
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code != 0:
        raise GateError(f"{script} exited with code {code}")


# ---------------------------------------------------------------- metrics
def round_mean(rounds: list[list[float]]) -> float:
    """Mean over the cold-start rounds of each round's median.

    The median drops single slow starts within a round.  The mean across
    rounds, which are spread over the run, follows the host's speed in
    proportion to the time spent at it.  A median over the whole run
    would jump between the host's speed levels instead.
    """
    return statistics.mean(statistics.median(values) for values in rounds)


def quantile(values: list[float], share: float) -> float:
    """Nearest-rank quantile of ``values`` (non-empty)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def auc(positives: list[float], negatives: list[float]) -> float:
    """Area under the ROC curve (Mann-Whitney U, ties count one half)."""
    scored = sorted([(s, 1) for s in positives] + [(s, 0) for s in negatives])
    rank_sum = 0.0
    index = 0
    while index < len(scored):
        end = index
        while end + 1 < len(scored) and scored[end + 1][0] == scored[index][0]:
            end += 1
        mean_rank = (index + end) / 2 + 1
        rank_sum += mean_rank * sum(label for _, label in scored[index : end + 1])
        index = end + 1
    n_pos, n_neg = len(positives), len(negatives)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def match_labelled(truth: dict, events: list[list]) -> list[list | None]:
    """The event of each labelled connection: the one that starts with the
    connection's first packet (``None`` when there is none)."""
    by_start = {(event[0], event[1]): event for event in events}
    return [by_start.get((entry["key"], entry["first_seen"])) for entry in truth["labelled"]]


def detection_quality(truth: dict, matched: list[list | None]) -> tuple[float, float]:
    """``(detection_auc, localization_top5)`` of one pass.  A labelled
    connection without an event gets the lowest score and no hit."""
    positives, negatives, hits, attacked = [], [], 0, 0
    half = (LOCALIZATION_TOLERANCE - 1) // 2
    for entry, event in zip(truth["labelled"], matched, strict=True):
        score = event[3] if event is not None else -math.inf
        (positives if entry["label"] else negatives).append(score)
        if entry["label"]:
            attacked += 1
            if event is not None and event[4] >= 0 and any(
                abs(event[4] - index) <= half for index in entry["injected"]
            ):
                hits += 1
    return auc(positives, negatives), hits / attacked


def latency_samples(truth: dict, matched: list[list | None], run: dict, speed) -> list[float]:
    """Alert latency (s) of each labelled connection that completed in one
    piece while the stream ran: closed, or evicted by a full flow table
    after its last packet.  The end-of-capture drain is excluded: events
    delivered after the source ran dry waited for the capture to end, not
    for the detector."""
    samples = []
    source_end = run["marks"][-1]
    # Steady state only: connections that ended in the first STEADY_SHARE of
    # the arrival period.  Later ones wait for a batch that fills as the
    # capture winds down, which varies with the seed, not the detector.
    start = truth["capture_first_ts"]
    arrivals = max(entry["first_seen"] for entry in truth["labelled"]) - start
    for entry, event in zip(truth["labelled"], matched, strict=True):
        if event is None or event[5] not in LIVE_COMPLETIONS or event[2] != entry["packets"]:
            continue
        if event[6] >= source_end or entry["last_ts"] - start > STEADY_SHARE * arrivals:
            continue
        if speed is None:
            due = run["marks"][entry["last_index"] // wl.MARK_EVERY]
        else:
            due = run["start_wall"] + (entry["last_ts"] - truth["capture_first_ts"]) / speed
        samples.append(event[6] - due)
    return samples


# ------------------------------------------------------------------ gates
def check_pass(run: dict, reference: list[list], label: str) -> list[str]:
    """Events must equal the offline reference; counters must add up."""
    errors = []
    expected = {(row[0], row[1]): row for row in reference}
    events = run["events"]
    if len(events) != len(reference):
        errors.append(f"{label}: {len(events)} events, reference has {len(reference)}")
    seen = set()
    for event in events:
        key = (event[0], event[1])
        row = expected.get(key)
        if row is None or key in seen:
            errors.append(f"{label}: unexpected event {key}")
            continue
        seen.add(key)
        if event[2] != row[2] or event[4] != row[4] or abs(event[3] - row[3]) > SCORE_TOLERANCE:
            errors.append(f"{label}: event {key} = {event[2:5]}, reference {row[2:5]}")
    snapshot = run["snapshot"]
    completions = sum(snapshot["completions_by_reason"].values())
    if snapshot["connections_scored"] != len(events):
        errors.append(f"{label}: scored {snapshot['connections_scored']} != {len(events)} events")
    if completions != snapshot["connections_scored"] + snapshot["capacity_drops"]:
        errors.append(f"{label}: {completions} completions != scored + dropped")
    return errors[:20]


def check_ledger(path: Path, entries: dict[str, object]) -> list[str]:
    """Values recorded under the same key by earlier runs must not change."""
    ledger = json.loads(path.read_text()) if path.exists() else {}
    errors = [
        f"{key}: {ledger[key]} earlier, {value} now"
        for key, value in entries.items()
        if key in ledger and ledger[key] != value
    ]
    ledger.update(entries)
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(partial, path)
    return errors


# --------------------------------------------------------------- reporting
def end_to_end(
    truth: dict, measured: dict, speed: float | None, auc_value: float, top5: float, covered: float
) -> tuple[dict, int]:
    """End-to-end metrics and the number of latency samples behind them."""
    passes = measured["passes"]
    throughputs = [p["packets"] / p["wall"] for p in passes]
    cpu = [(p["cpu"] + p["child_cpu"]) / p["packets"] * 1e6 for p in passes]
    setups = [
        [a + b for a, b in zip(loads, spawns, strict=True)]
        for loads, spawns in zip(measured["loads"], measured["spawns"], strict=True)
    ]
    latencies = []
    for run in passes:
        latencies += latency_samples(truth, match_labelled(truth, run["events"]), run, speed)
    if not latencies:
        raise GateError("no labelled connection closed in one piece: no latency samples")
    metrics = {
        "throughput_pkt_s": (statistics.median(throughputs), "pkt/s"),
        "cpu_us_per_pkt": (statistics.median(cpu), "us"),
        "setup_s": (round_mean(setups), "s"),
        "peak_rss_mb": ((measured["rss_self_kb"] + measured["rss_child_kb"]) / 1024, "MB"),
        "detection_auc": (auc_value, "ratio"),
        "localization_top5": (top5, "ratio"),
        "event_coverage_ratio": (covered, "ratio"),
        "alert_latency_p50_ms": (quantile(latencies, 0.50) * 1e3, "ms"),
        "alert_latency_p99_ms": (quantile(latencies, 0.99) * 1e3, "ms"),
    }
    return metrics, len(latencies)


def per_layer(measured: dict) -> dict:
    traced = measured["traced"]
    sites = traced["trace"]["sites"]
    untraced = measured["passes"][0]

    def site(name: str, field: str = "self") -> float:
        return sites.get(name, {}).get(field, 0.0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    snapshot = traced["snapshot"]
    capacity = snapshot["completions_by_reason"].get("capacity", 0)
    shards = snapshot["packets_ingested"]
    flushes = traced["trace"]["flush_durations"]
    if flushes:
        flush_p99 = quantile(flushes, 0.99)
    else:
        flush_p99 = histogram_quantile(snapshot["flush_latency"], 0.99)
    self_total = sum(entry["self"] for entry in sites.values())
    return {
        "netstack.parse_s": (site("netstack.parse"), "s"),
        "netstack.parse_pkts": (site("netstack.parse", "items"), "count"),
        "netstack.flow_s": (site("netstack.flow"), "s"),
        "netstack.flow_evictions": (capacity, "count"),
        "netstack.flows_peak": (
            max(site("netstack.flow", "extra"), site("netstack.parse", "extra")), "count"),
        "features.extract_s": (site("features.extract") + site("features.reference"), "s"),
        "features.slow_path_pkt_ratio": (
            ratio(site("features.reference", "items"), site("features.extract", "items")),
            "ratio"),
        "features.profile_self_s": (site("features.profile"), "s"),
        "nn.gru_s": (site("nn.gru"), "s"),
        "nn.gru_useful_ratio": (
            ratio(site("nn.gru", "items"), site("nn.gru", "extra")), "ratio"),
        "nn.ae_s": (site("nn.ae"), "s"),
        "nn.ae_rows": (site("nn.ae", "items"), "count"),
        "core.engine_calls": (site("core.detect", "count"), "count"),
        "core.conns_per_call": (
            ratio(site("core.detect", "items"), site("core.detect", "count")), "count"),
        "core.stage_d_self_s": (site("core.detect"), "s"),
        "serve.ingest_s": (site("serve.ingest"), "s"),
        "serve.admission_s": (site("serve.admission"), "s"),
        "serve.evictions_scored_ratio": (
            ratio(capacity - snapshot["capacity_drops"], capacity), "ratio"),
        "serve.dispatch_s": (site("serve.dispatch"), "s"),
        "serve.close_s": (site("serve.close"), "s"),
        "serve.flush_p99_ms": (flush_p99 * 1e3, "ms"),
        "serve.pending_peak": (snapshot["max_pending_depth"], "count"),
        "serve.pace_idle_ratio": (ratio(site("serve.pace", "total"), traced["wall"]), "ratio"),
        "serve.pace_lag_p99_ms": (traced["trace"]["pace_lag_p99"] * 1e3, "ms"),
        "serve.ipc_pack_s": (site("serve.ipc_pack"), "s"),
        "serve.router_s": (site("serve.router"), "s"),
        "serve.ipc_bytes": (site("serve.ipc_pack", "items"), "bytes"),
        "serve.worker_cpu_s": (traced["child_cpu"], "s"),
        "serve.worker_skew": (ratio(max(shards), statistics.mean(shards)), "ratio"),
        "setup.load_s": (round_mean(measured["loads"]), "s"),
        "setup.spawn_s": (round_mean(measured["spawns"]), "s"),
        "trace.self_sum_s": (self_total, "s"),
        "trace.residual_s": (untraced["wall"] - self_total, "s"),
        "trace.overhead_ratio": (traced["wall"] / untraced["wall"] - 1.0, "ratio"),
    }


def histogram_quantile(histogram: dict, share: float) -> float:
    """Upper bucket edge holding the ``share`` quantile (seconds)."""
    target = share * histogram["count"]
    for name, cumulative in histogram["buckets"].items():
        if cumulative >= target:
            return histogram["max_seconds"] if name == "le_inf" else float(name[3:])
    return histogram["max_seconds"]


# --------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pcap-to-alerts benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Terminating the benchmark unwinds through run_child, which kills and
    # reaps the running child's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package to benchmark", file=sys.stderr)
        return 2
    workload = wl.resolve(args.workload, args.size)
    cache = root / ".perfbench"
    cache.mkdir(exist_ok=True)
    env = child_env(root)
    tree = tree_hash(list((root / "src").rglob("*.py")))
    bench_code = tree_hash(list(HERE.glob("*.py")))
    commit = commit_of(root)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=cache))
    truth = None
    passes = 1
    try:
        inputs = work / "inputs"
        run_child(
            "prepare.py",
            ["--workload", workload.name, "--seed", str(args.seed), "--size", args.size,
             "--out", str(inputs), "--cache", str(cache), "--tag", tree[:16]],
            env,
            PREPARE_TIMEOUT,
        )
        truth = json.loads((inputs / "truth.json").read_text())
        reference = json.loads((inputs / "reference.json").read_text())
        meta = json.loads((inputs / "meta.json").read_text())
        observed = work / "measured"
        observed.mkdir()
        run_child(
            "measure.py",
            ["--workload", workload.name, "--size", args.size, "--inputs", str(inputs),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(observed)],
            env,
            MEASURE_TIMEOUT,
        )
        measured = json.loads((observed / "summary.json").read_text())
        measured["passes"] = [
            json.loads((observed / f"pass-{index}.json").read_text())
            for index in range(measured["passes"])
        ]
        if args.trace:
            measured["traced"] = json.loads((observed / "traced.json").read_text())
        runs = measured["passes"] + ([measured["traced"]] if args.trace else [])
        passes = len(measured["passes"])
        errors = []
        for index, run in enumerate(runs):
            errors += check_pass(run, reference, f"pass {index}")
        matched = match_labelled(truth, measured["passes"][0]["events"])
        auc_value, top5 = detection_quality(truth, matched)
        event_keys = {event[0] for event in measured["passes"][0]["events"]}
        missed = sum(1 for entry in truth["labelled"] if entry["key"] not in event_keys)
        labelled = len(truth["labelled"])
        scope = f"{commit}|{tree}|{bench_code}|{args.size}|{args.seed}"
        errors += check_ledger(
            cache / "ledger.json",
            {
                f"model|{scope}": meta["model_hash"],
                f"inputs|{scope}|{workload.capture}": meta["input_hash"],
                f"quality|{scope}|{workload.capture}": [auc_value, top5, missed],
            },
        )
        stamp = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cores": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "commit": commit,
            "source_sha256": tree,
            "benchmark_sha256": bench_code,
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": measured.get("numpy"),
            "model_sha256": meta["model_hash"],
            "input_sha256": meta["input_hash"],
            "capture_packets": truth["packets"],
            "capture_bytes": meta["capture_bytes"],
            "labelled_connections": labelled,
            "passes": passes,
            "setup_samples": sum(len(values) for values in measured["loads"]),
        }
        if args.trace:
            metrics = per_layer(measured)
        else:
            covered = (labelled - missed) / labelled
            metrics, stamp["latency_samples"] = end_to_end(
                truth, measured, workload.speed, auc_value, top5, covered
            )
            stamp["pass_throughput_pkt_s"] = [p["packets"] / p["wall"] for p in measured["passes"]]
    except GateError as error:
        _report(False, len(truth["labelled"]) * passes if truth else 1, None, {}, [str(error)])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"stamp": stamp}))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:8s} {name:30s} {value:14.6g} {unit}", file=sys.stderr)
    _report(not errors, labelled * passes, missed * passes, metrics, errors)
    return 0 if not errors else 1


def _report(correct: bool, attempted: int, failed: int | None, metrics: dict, errors) -> None:
    for error in errors:
        print(f"gate failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted if failed is None else failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    raise SystemExit(main())
