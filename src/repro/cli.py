"""Command-line interface for the CLAP reproduction.

The CLI covers the operational workflow of the paper end-to-end without
writing any Python:

* ``repro-clap generate``  — synthesise a benign traffic capture (MAWI stand-in);
* ``repro-clap attack``    — inject one of the 73 evasion strategies into a capture;
* ``repro-clap train``     — train CLAP on a benign capture and persist the model;
* ``repro-clap score``     — score a capture with a persisted model (forensic mode);
* ``repro-clap stream``    — replay a capture (pcap or NDJSON) through the
  streaming runtime (``--workers``/``--worker-mode process`` score its
  batches in worker processes), emitting one NDJSON event per completed
  connection (online mode);
* ``repro-clap strategies``— list the attack catalogue.

Every subcommand works on ordinary ``.pcap`` files, so captures produced by
other tools can be analysed as well (TCP/IPv4 only).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path
from collections.abc import Sequence

from repro.attacks.base import all_strategies, get_strategy
from repro.attacks.injector import AttackInjector
from repro.core.artifacts import ModelManifestError
from repro.core.config import ClapConfig
from repro.core.pipeline import Clap
from repro.netstack.flow import assemble_connections
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.nn.backend import available_backends, serving_backends
from repro.serve import (
    DropPolicy,
    FaultSpecError,
    FlushPolicy,
    ParallelStreamingDetector,
    ReplaySource,
    Tick,
    open_source,
    parse_fault_specs,
)
from repro.traffic.dataset import BenignDataset
from repro.traffic.generator import TrafficGenerator


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-clap",
        description="CLAP: detect DPI evasion attacks with context learning",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="synthesise a benign traffic capture")
    generate.add_argument("output", type=Path, help="output .pcap path")
    generate.add_argument("--connections", type=int, default=200, help="number of connections")
    generate.add_argument("--seed", type=int, default=0, help="random seed")

    attack = subparsers.add_parser("attack", help="inject an evasion strategy into a capture")
    attack.add_argument("input", type=Path, help="benign input .pcap")
    attack.add_argument("output", type=Path, help="adversarial output .pcap")
    attack.add_argument("--strategy", required=True, help="exact strategy name (see `strategies`)")
    attack.add_argument("--seed", type=int, default=0, help="random seed")
    attack.add_argument(
        "--fraction", type=float, default=1.0,
        help="fraction of connections to attack (default: all)",
    )

    train = subparsers.add_parser("train", help="train CLAP on benign traffic and persist the model")
    train.add_argument("model", type=Path, help="directory to write the trained model into")
    train.add_argument("--pcap", type=Path, default=None, help="benign training capture (.pcap)")
    train.add_argument("--connections", type=int, default=200,
                       help="synthesise this many connections when no --pcap is given")
    train.add_argument("--seed", type=int, default=0, help="random seed")
    train.add_argument("--fast", action="store_true", help="use the reduced training budget")
    train.add_argument("--rnn-epochs", type=int, default=None, help="override RNN epochs")
    train.add_argument("--ae-epochs", type=int, default=None, help="override autoencoder epochs")
    train.add_argument("--no-gate-weights", action="store_true",
                       help="train without the GRU context stage (intra-packet features only)")
    train.add_argument("--backend", choices=available_backends(), default="gru",
                       help="sequence backend to persist: the float64 GRU (default) or "
                            "its int8 weight-quantized conversion (trained as a GRU, "
                            "quantized before the autoencoder/threshold stages)")

    score = subparsers.add_parser("score", help="score a capture with a persisted model")
    score.add_argument("model", type=Path, help="directory containing the trained model")
    score.add_argument("pcap", type=Path, help="capture to analyse")
    score.add_argument("--threshold", type=float, default=None,
                       help="override the persisted adversarial-score threshold")
    score.add_argument("--top", type=int, default=0,
                       help="only print the N highest-scoring connections")
    score.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of the table")
    score.add_argument("--backend", choices=serving_backends(), default=None,
                       help="serve through this sequence backend instead of the persisted "
                            "one (converted in memory; scores stay within the documented "
                            "equivalence tolerance)")

    stream = subparsers.add_parser(
        "stream", help="replay a capture through the streaming runtime (NDJSON events)")
    stream.add_argument("model", type=Path, help="directory containing the trained model")
    stream.add_argument("pcap", type=Path,
                        help="capture to replay as a packet stream (.pcap or NDJSON)")
    stream.add_argument("--threshold", type=float, default=None,
                        help="override the persisted adversarial-score threshold")
    stream.add_argument("--workers", type=int, default=1,
                        help="scoring worker processes; above 1 requires "
                             "--worker-mode process")
    stream.add_argument("--worker-mode", choices=("thread", "process"), default="thread",
                        help="thread (default): one detector on the ingest thread; "
                             "process: the ingest thread assembles and batches, "
                             "worker processes score the batches (one core each, "
                             "forked with the loaded model)")
    stream.add_argument("--source", choices=("auto", "pcap", "ndjson"), default="auto",
                        help="input format; auto picks by file extension")
    stream.add_argument("--strict", action="store_true",
                        help="abort on malformed capture records instead of skipping them")
    stream.add_argument("--max-batch", type=int, default=128,
                        help="micro-batch size: flush after this many completed connections")
    stream.add_argument("--idle-timeout", type=float, default=60.0,
                        help="evict connections idle for this many stream-seconds")
    stream.add_argument("--close-grace", type=float, default=1.0,
                        help="silence after FIN/RST before a connection completes")
    stream.add_argument("--max-flows", type=int, default=None,
                        help="bound on concurrently tracked connections (global budget)")
    stream.add_argument("--drop-policy", choices=("score", "drop", "sample"),
                        default="score",
                        help="what to do with capacity-evicted flows: score them "
                             "(default), count and drop them unscored, or sample "
                             "a deterministic fraction for scoring")
    stream.add_argument("--drop-sample-rate", type=float, default=0.1,
                        help="fraction of capacity evictions scored under "
                             "--drop-policy sample (handshaken flows always score)")
    stream.add_argument("--drop-min-packets", type=int, default=0,
                        help="capacity evictions shorter than this many packets "
                             "are dropped unscored regardless of policy mode")
    stream.add_argument("--subnet-budget", type=int, default=None,
                        help="per-source-subnet budget of scored capacity "
                             "evictions per window; a flooding subnet is dropped "
                             "beyond it without evicting everyone else's budget")
    stream.add_argument("--subnet-prefix", type=int, default=24,
                        help="prefix length grouping sources for --subnet-budget")
    stream.add_argument("--chunk-size", default=512,
                        help="result-drain cadence in process mode: the worker "
                             "results are collected every this many ingested "
                             "packets (a positive integer, default 512)")
    stream.add_argument("--on-worker-failure", choices=("fail", "respawn", "degrade"),
                        default="fail",
                        help="what to do when a process shard worker is lost "
                             "mid-stream: fail loudly (default), respawn it, or "
                             "degrade — the survivors score every later batch")
    stream.add_argument("--max-respawns", type=int, default=2,
                        help="per-worker respawn budget before a loss "
                             "degrades instead (--on-worker-failure respawn)")
    stream.add_argument("--stall-deadline", type=float, default=30.0,
                        help="seconds a live worker may make no progress before "
                             "it is declared wedged, under a non-fail failure "
                             "policy or fault injection; 0 disables")
    stream.add_argument("--inject-fault", action="append", default=None,
                        metavar="SPEC",
                        help="inject a deterministic fault (repeatable): "
                             "kill-worker:IDX@N, wedge-worker:IDX@N")
    stream.add_argument("--replay-rate", type=float, default=None,
                        help="pace the replay at this many packets per second")
    stream.add_argument("--alerts-only", action="store_true",
                        help="emit only threshold-exceeding connections")
    stream.add_argument("--metrics", action="store_true",
                        help="print the runtime metrics summary to stderr at end of stream")
    stream.add_argument("--backend", choices=serving_backends(), default=None,
                        help="serve through this sequence backend instead of the persisted "
                             "one (process workers receive the converted model via a "
                             "temporary artifact)")

    strategies = subparsers.add_parser("strategies", help="list the 73 evasion strategies")
    strategies.add_argument("--source", default=None,
                            help="filter by source: symtcp, liberate or geneva")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ---------------------------------------------------------------------------


def command_generate(args: argparse.Namespace) -> int:
    generator = TrafficGenerator(seed=args.seed)
    packets = generator.generate_packets(args.connections)
    count = write_pcap(args.output, packets)
    print(f"wrote {count} packets ({args.connections} connections) to {args.output}")
    return 0


def command_attack(args: argparse.Namespace) -> int:
    try:
        strategy = get_strategy(args.strategy)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not 0.0 <= args.fraction <= 1.0:
        print(f"error: --fraction must be in [0, 1], got {args.fraction}", file=sys.stderr)
        return 2
    connections = assemble_connections(read_packet_columns(args.input).views())
    if not connections:
        print(f"error: no TCP connections found in {args.input}", file=sys.stderr)
        return 2
    injector = AttackInjector(seed=args.seed)
    # ``--fraction 0`` genuinely attacks nothing (useful for control captures);
    # any positive fraction attacks at least one connection so a small capture
    # never silently rounds a requested attack down to a no-op.
    attack_count = int(round(len(connections) * args.fraction))
    if attack_count == 0 and args.fraction > 0:
        attack_count = 1
    attacked = []
    for index, connection in enumerate(connections):
        if index < attack_count:
            attacked.append(injector.attack_connection(strategy, connection).connection)
        else:
            attacked.append(connection)
    packets = sorted((p for c in attacked for p in c.packets), key=lambda p: p.timestamp)
    write_pcap(args.output, packets)
    print(f"attacked {attack_count}/{len(connections)} connections with "
          f"'{strategy.name}' and wrote {len(packets)} packets to {args.output}")
    return 0


def _training_config(args: argparse.Namespace) -> ClapConfig:
    config = ClapConfig.fast() if args.fast else ClapConfig()
    if args.rnn_epochs is not None:
        config.rnn.epochs = args.rnn_epochs
    if args.ae_epochs is not None:
        config.autoencoder.epochs = args.ae_epochs
    if getattr(args, "no_gate_weights", False):
        config.detector.include_gate_weights = False
    config.rnn.backend = getattr(args, "backend", None) or "gru"
    return config


def command_train(args: argparse.Namespace) -> int:
    if args.pcap is not None:
        dataset = BenignDataset.from_pcap(args.pcap, seed=args.seed)
        train_connections = dataset.train + dataset.test
        print(f"loaded {len(train_connections)} connections from {args.pcap}")
    else:
        train_connections = TrafficGenerator(seed=args.seed).generate_connections(args.connections)
        print(f"synthesised {len(train_connections)} benign connections (seed={args.seed})")
    clap = Clap(_training_config(args))
    report = clap.fit(train_connections)
    path = clap.save(args.model)
    if report.rnn is not None:
        print(f"RNN state-prediction accuracy: {report.rnn.training_accuracy:.3f}")
    else:
        print("RNN stage:                     skipped (gate weights disabled)")
    print(f"autoencoder final loss:        {report.autoencoder_loss_history[-1]:.5f}")
    print(f"benign-score threshold:        {clap.threshold:.5f}")
    print(f"model written to {path}")
    return 0


def _load_model(path: Path, backend: str | None = None) -> Clap | None:
    """Load a persisted model, rendering artifact problems as clean errors.

    ``backend`` converts the pipeline to an alternative serving backend
    (``--backend``); ``None`` serves the persisted one.
    """
    try:
        clap = Clap.load(path)
        if backend is not None:
            clap = clap.with_backend(backend)
        return clap
    except ModelManifestError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    except FileNotFoundError:
        print(f"error: no model found at {path}", file=sys.stderr)
        return None
    except (KeyError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def command_score(args: argparse.Namespace) -> int:
    clap = _load_model(args.model, backend=getattr(args, "backend", None))
    if clap is None:
        return 2
    threshold = args.threshold if args.threshold is not None else clap.threshold
    try:
        # Bulk record scan + vectorized parse; the assembled connections
        # carry column views, so feature extraction in the engine below
        # stays vectorized end to end.
        connections = assemble_connections(read_packet_columns(args.pcap).views())
    except (ValueError, FileNotFoundError) as error:
        # Bad magic, truncated header, unsupported link type, missing file.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not connections:
        print(f"error: no TCP connections found in {args.pcap}", file=sys.stderr)
        return 2
    # One batched engine pass scores the whole capture via the unified API.
    results = clap.detect_batch(connections, threshold=threshold)
    results = sorted(results, key=lambda result: result.score, reverse=True)
    flagged = sum(1 for result in results if result.is_adversarial)
    if args.top:
        results = results[: args.top]
    if args.json:
        payload = {
            "model": str(args.model),
            "capture": str(args.pcap),
            "threshold": threshold,
            "connections_total": len(connections),
            "connections_flagged": flagged,
            "results": [result.to_dict() for result in results],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'score':>10}  {'verdict':>8}  {'suspect pkt':>11}  connection")
    for result in results:
        label = "ATTACK" if result.is_adversarial else "benign"
        print(f"{result.score:10.5f}  {label:>8}  {result.localized_packet:>11}  {result.key}")
    print(f"\n{flagged}/{len(connections)} connections exceed threshold {threshold:.5f}")
    return 0


def _close_quietly(detector) -> None:
    """Tear down a streaming detector without masking the original error."""
    try:
        detector.close()
    except Exception:
        pass


class _GracefulShutdown(BaseException):
    """Raised by the stream signal handlers: drain, report, exit 128+signum.

    A :class:`BaseException` so the ``except (ValueError, ...)`` operational
    handlers never swallow a shutdown request.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"received signal {signum}")
        self.signum = signum


def _print_degradation(detector: ParallelStreamingDetector) -> None:
    """One machine-readable stderr line summarising known stream loss."""
    report = detector.degradation_report()
    if report:
        print(f"degradation: {json.dumps(report.to_dict())}", file=sys.stderr)


def _stream_drop_policy(args: argparse.Namespace) -> DropPolicy:
    """The admission policy the stream knobs describe."""
    return DropPolicy(
        mode=args.drop_policy,
        min_packets=args.drop_min_packets,
        sample_rate=args.drop_sample_rate,
        subnet_budget=args.subnet_budget,
        subnet_prefix=args.subnet_prefix,
    )


def _parse_chunk_size(value: str | int) -> int:
    """``--chunk-size``: a positive integer."""
    try:
        size = int(value)
    except (TypeError, ValueError):
        size = 0
    if size < 1:
        raise ValueError(f"--chunk-size must be a positive integer, got {value!r}")
    return size


def command_stream(args: argparse.Namespace) -> int:
    if args.max_batch < 1:
        print(f"error: --max-batch must be at least 1, got {args.max_batch}", file=sys.stderr)
        return 2
    clap = _load_model(args.model, backend=getattr(args, "backend", None))
    if clap is None:
        return 2
    if not args.pcap.exists():
        print(f"error: no capture found at {args.pcap}", file=sys.stderr)
        return 2

    def emit(events) -> None:
        for event in events:
            if args.alerts_only and not event.is_alert:
                continue
            print(json.dumps(event.to_dict()))

    fault_plan = None
    if args.inject_fault:
        try:
            fault_plan = parse_fault_specs(args.inject_fault)
        except FaultSpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        chunk_size = _parse_chunk_size(args.chunk_size)
        source: object = open_source(args.pcap, args.source, strict=args.strict)
        if args.replay_rate is not None:
            # Heartbeat at the close-grace cadence so FIN'd flows complete
            # during quiet spells; with a zero grace there is nothing for a
            # tick to expire earlier, so skip the heartbeats entirely.
            tick_interval = args.close_grace if args.close_grace > 0 else None
            source = ReplaySource(source, rate=args.replay_rate,
                                  tick_interval=tick_interval)
        detector = ParallelStreamingDetector(
            clap,
            workers=args.workers,
            worker_mode=args.worker_mode,
            flush_policy=FlushPolicy(max_batch=args.max_batch,
                                     max_buffered=max(args.max_batch, 1024)),
            threshold=args.threshold,
            idle_timeout=args.idle_timeout,
            close_grace=args.close_grace,
            max_flows=args.max_flows,
            drop_policy=_stream_drop_policy(args),
            chunk_size=chunk_size,
            # Forked process workers score with the loaded pipeline itself.
            # Under another start method they mmap the artifact the CLI
            # already has on disk, unless a --backend override means it no
            # longer matches the served pipeline: then the runtime saves the
            # converted model to a temporary directory for them instead.
            model_dir=(
                args.model
                if args.worker_mode == "process" and getattr(args, "backend", None) is None
                else None
            ),
            on_worker_failure=args.on_worker_failure,
            max_worker_respawns=args.max_respawns,
            # Stall detection only under a non-fail policy or active fault
            # injection: the fail path never times a barrier.
            stall_deadline=(
                (args.stall_deadline or None)
                if args.on_worker_failure != "fail" or fault_plan is not None
                else None
            ),
            fault_plan=fault_plan,
        )
    except (ValueError, OSError) as error:
        # FlowTable/FlushPolicy/DropPolicy validate their knobs; render the
        # message (e.g. "idle_timeout must be positive") instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2

    def fail(error: Exception) -> int:
        # Never leak the worker pool: shut it down, then render the message
        # and the known loss instead of a traceback.
        _close_quietly(detector)
        _print_degradation(detector)
        print(f"error: {error}", file=sys.stderr)
        return 2

    def _request_shutdown(signum, frame) -> None:
        raise _GracefulShutdown(signum)

    previous_handlers: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _request_shutdown)
    streamed = 0
    try:
        try:
            for item in source:
                if isinstance(item, Tick):
                    detector.poll(item.now)
                else:
                    streamed += 1
                    detector.ingest(item)
                emit(detector.events())
        except _GracefulShutdown as stop:
            # Hardened shutdown: drain what completed, report partial
            # results and known loss, exit with the conventional code.
            try:
                detector.close()
                emit(detector.events())
                _print_degradation(detector)
            except Exception as error:
                print(f"error: {error}", file=sys.stderr)
            print(
                f"interrupted by signal {stop.signum} after {streamed} packets; "
                "partial results above",
                file=sys.stderr,
            )
            return 128 + stop.signum
        except (ValueError, RuntimeError) as error:
            # A strict-mode parse error (ValueError) or a shard-worker
            # failure (RuntimeError).
            return fail(error)
        except BaseException:
            _close_quietly(detector)
            raise
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    try:
        # close() also queues the final-drain events, so the events() drain
        # below delivers them exactly once, in the deterministic close ordering.
        detector.close()
    except RuntimeError as error:
        # A worker failure first seen by the final drain fails the stream
        # exactly like one seen mid-stream.
        return fail(error)
    emit(detector.events())
    if streamed == 0:
        print(f"error: no TCP packets found in {args.pcap}", file=sys.stderr)
        return 2
    print(
        f"{detector.alerts_emitted}/{detector.connections_seen} connections exceeded "
        f"threshold {detector.threshold:.5f}",
        file=sys.stderr,
    )
    _print_degradation(detector)
    if args.metrics:
        print(detector.render_metrics(), file=sys.stderr)
    return 0


def command_strategies(args: argparse.Namespace) -> int:
    wanted = (args.source or "").strip().lower()
    for strategy in all_strategies():
        source_token = strategy.source.name.lower()
        if wanted and wanted not in source_token:
            continue
        print(f"{strategy.source.citation:>5}  {strategy.category.name:<12}  {strategy.name}")
    return 0


_COMMANDS = {
    "generate": command_generate,
    "attack": command_attack,
    "train": command_train,
    "score": command_score,
    "stream": command_stream,
    "strategies": command_strategies,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # A downstream consumer (e.g. ``stream ... | head``) closed the pipe;
        # redirect stdout at the fd level so interpreter shutdown does not
        # trip over the dead descriptor, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
