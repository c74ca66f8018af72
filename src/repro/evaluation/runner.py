"""Experiment runner: trains the detectors and reproduces the paper's numbers.

The runner wires together the benign dataset, the attack injector, the three
detectors (CLAP, Baseline #1, Baseline #2) and the metrics into the exact
experimental protocol of Section 4: train on the benign training split, then
for every strategy score the benign test split against its attacked
counterpart, and aggregate AUC-ROC / EER by source paper (Table 1), by violated
context (Table 2) and per strategy (Figures 7-9), plus localisation hit rates
(Figures 10-12) and processing throughput (Table 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.attacks.base import AttackSource, AttackStrategy, ContextCategory, all_strategies
from repro.attacks.injector import AttackDataset, AttackInjector
from repro.baselines.intra_only import IntraPacketBaseline
from repro.baselines.kitsune import KitsuneDetector
from repro.core.config import ClapConfig
from repro.core.detector import localization_hit
from repro.core.pipeline import Clap
from repro.evaluation.metrics import auc_roc, roc_curve
from repro.netstack.flow import Connection, packet_stream
from repro.traffic.dataset import BenignDataset
from repro.utils.rng import SeedLike, ensure_rng

CLAP_NAME = "CLAP"
BASELINE1_NAME = "Baseline #1"
BASELINE2_NAME = "Baseline #2"


@dataclass
class LocalizationResult:
    """Top-N localisation hit rates for one strategy."""

    top5: float
    top3: float
    top1: float


@dataclass
class StrategyEvaluation:
    """Detection metrics of one detector on one strategy."""

    strategy_name: str
    source: AttackSource
    category: ContextCategory
    auc: float
    eer: float
    adversarial_scores: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))
    benign_scores: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))
    localization: LocalizationResult | None = None


@dataclass
class DetectorEvaluation:
    """All per-strategy results of one detector."""

    detector_name: str
    per_strategy: dict[str, StrategyEvaluation] = field(default_factory=dict)

    # ------------------------------------------------------------- aggregates
    def mean_auc(self, strategies: Iterable[str] | None = None) -> float:
        return self._mean("auc", strategies)

    def mean_eer(self, strategies: Iterable[str] | None = None) -> float:
        return self._mean("eer", strategies)

    def _mean(self, attribute: str, strategies: Iterable[str] | None) -> float:
        names = list(strategies) if strategies is not None else list(self.per_strategy)
        values = [getattr(self.per_strategy[name], attribute) for name in names if name in self.per_strategy]
        return float(np.mean(values)) if values else float("nan")

    def by_source(self, source: AttackSource) -> list[StrategyEvaluation]:
        return [result for result in self.per_strategy.values() if result.source is source]

    def by_category(self, category: ContextCategory) -> list[StrategyEvaluation]:
        return [result for result in self.per_strategy.values() if result.category is category]

    def mean_auc_by_source(self, source: AttackSource) -> float:
        return self.mean_auc([r.strategy_name for r in self.by_source(source)])

    def mean_eer_by_source(self, source: AttackSource) -> float:
        return self.mean_eer([r.strategy_name for r in self.by_source(source)])

    def mean_auc_by_category(self, category: ContextCategory) -> float:
        return self.mean_auc([r.strategy_name for r in self.by_category(category)])

    def mean_eer_by_category(self, category: ContextCategory) -> float:
        return self.mean_eer([r.strategy_name for r in self.by_category(category)])

    def auc_by_strategy(self) -> dict[str, float]:
        return {name: result.auc for name, result in self.per_strategy.items()}


@dataclass
class ThroughputResult:
    """Processing throughput of one detector (Table 3)."""

    detector_name: str
    packets: int
    connections: int
    seconds: float  # steady-state ingest+drain time (excludes fixed setup)
    mode: str = "batched"
    workers: int = 1
    worker_mode: str = "thread"
    #: Fixed startup costs measured separately for streaming rows: runtime
    #: construction plus the first flush barrier (process pools pay their
    #: worker start here).  Zero for the
    #: batched mode, whose setup is the model itself.
    setup_seconds: float = 0.0
    backend: str = "gru"

    @property
    def packets_per_second(self) -> float:
        """Steady-state throughput (setup excluded)."""
        return self.packets / self.seconds if self.seconds > 0 else float("inf")

    @property
    def connections_per_second(self) -> float:
        return self.connections / self.seconds if self.seconds > 0 else float("inf")

    @property
    def total_seconds(self) -> float:
        """Setup plus steady-state — the old single-region measurement."""
        return self.setup_seconds + self.seconds

    @property
    def total_packets_per_second(self) -> float:
        """Throughput over the total region (what pre-split rows reported)."""
        return self.packets / self.total_seconds if self.total_seconds > 0 else float("inf")


@dataclass
class ExperimentResults:
    """Every detector's evaluation plus shared bookkeeping."""

    detectors: dict[str, DetectorEvaluation] = field(default_factory=dict)
    throughput: dict[str, ThroughputResult] = field(default_factory=dict)

    def __getitem__(self, name: str) -> DetectorEvaluation:
        return self.detectors[name]

    def detector_names(self) -> list[str]:
        return list(self.detectors)

    def strategy_names(self) -> list[str]:
        first = next(iter(self.detectors.values()), None)
        return list(first.per_strategy) if first else []


class ExperimentRunner:
    """Train detectors once and evaluate them against any set of strategies."""

    def __init__(
        self,
        dataset: BenignDataset,
        *,
        config: ClapConfig | None = None,
        seed: SeedLike = 0,
        max_test_connections: int | None = None,
        min_test_connection_length: int = 4,
    ) -> None:
        self.dataset = dataset
        self.config = config or ClapConfig()
        self.rng = ensure_rng(seed)
        self.injector = AttackInjector(seed=self.rng)
        self.detectors: dict[str, object] = {}
        test = [c for c in dataset.test if len(c) >= min_test_connection_length]
        if max_test_connections is not None:
            test = test[:max_test_connections]
        self.test_connections: list[Connection] = test
        self._benign_scores: dict[str, np.ndarray] = {}

    # ---------------------------------------------------------------- training
    def train(
        self,
        detector_names: Sequence[str] = (CLAP_NAME, BASELINE1_NAME, BASELINE2_NAME),
        *,
        verbose: bool = False,
    ) -> dict[str, object]:
        """Train the requested detectors on the benign training split."""
        for name in detector_names:
            if name == CLAP_NAME:
                detector: object = Clap(self.config)
            elif name == BASELINE1_NAME:
                detector = IntraPacketBaseline(self.config)
            elif name == BASELINE2_NAME:
                detector = KitsuneDetector()
            else:
                raise ValueError(f"unknown detector {name!r}")
            detector.fit(self.dataset.train, verbose=verbose)
            self.detectors[name] = detector
        self._benign_scores = {
            name: detector.score_connections(self.test_connections)
            for name, detector in self.detectors.items()
        }
        return self.detectors

    def add_detector(self, name: str, detector: object) -> None:
        """Register an externally-trained detector (used by the ablation bench)."""
        self.detectors[name] = detector
        self._benign_scores[name] = detector.score_connections(self.test_connections)

    # -------------------------------------------------------------- evaluation
    def evaluate(
        self,
        strategies: Sequence[AttackStrategy] | None = None,
        *,
        with_localization: bool = True,
    ) -> ExperimentResults:
        """Score every detector against every strategy."""
        if not self.detectors:
            raise RuntimeError("ExperimentRunner.train must be called before evaluate")
        strategies = list(strategies) if strategies is not None else all_strategies()
        results = ExperimentResults(
            detectors={name: DetectorEvaluation(detector_name=name) for name in self.detectors}
        )
        for strategy in strategies:
            dataset = self.injector.build_dataset(strategy, self.test_connections)
            for name, detector in self.detectors.items():
                evaluation = self._evaluate_strategy(
                    name,
                    detector,
                    strategy,
                    dataset,
                    with_localization=with_localization and name == CLAP_NAME,
                )
                results.detectors[name].per_strategy[strategy.name] = evaluation
        return results

    def _evaluate_strategy(
        self,
        detector_name: str,
        detector: object,
        strategy: AttackStrategy,
        dataset: AttackDataset,
        *,
        with_localization: bool,
    ) -> StrategyEvaluation:
        adversarial_scores = detector.score_connections(dataset.adversarial_connections)
        benign_scores = self._benign_scores[detector_name]
        curve = roc_curve(adversarial_scores, benign_scores)
        localization = None
        if with_localization and isinstance(detector, Clap):
            localization = self._evaluate_localization(detector, dataset)
        return StrategyEvaluation(
            strategy_name=strategy.name,
            source=strategy.source,
            category=strategy.category,
            auc=auc_roc(adversarial_scores, benign_scores),
            eer=curve.eer,
            adversarial_scores=adversarial_scores,
            benign_scores=benign_scores,
            localization=localization,
        )

    def _evaluate_localization(self, detector: Clap, dataset: AttackDataset) -> LocalizationResult:
        stack_length = detector.config.detector.stack_length
        hits = {5: [], 3: [], 1: []}
        # One batched engine pass computes every adversarial connection's
        # window errors; only the tolerance bookkeeping stays per connection.
        error_segments = detector.window_error_segments(
            [adversarial.connection for adversarial in dataset.adversarial]
        )
        for adversarial, errors in zip(dataset.adversarial, error_segments, strict=True):
            packet_count = len(adversarial.connection)
            for tolerance in hits:
                hits[tolerance].append(
                    localization_hit(
                        errors,
                        adversarial.injected_indices,
                        stack_length=stack_length,
                        packet_count=packet_count,
                        tolerance_window=tolerance,
                    )
                )
        return LocalizationResult(
            top5=float(np.mean(hits[5])) if hits[5] else 0.0,
            top3=float(np.mean(hits[3])) if hits[3] else 0.0,
            top1=float(np.mean(hits[1])) if hits[1] else 0.0,
        )

    # -------------------------------------------------------------- throughput
    def measure_throughput(
        self,
        detector_name: str,
        connections: Sequence[Connection] | None = None,
        *,
        mode: str = "batched",
        workers: int = 1,
        worker_mode: str = "thread",
        backend: str | None = None,
    ) -> ThroughputResult:
        """Time the testing-phase pipeline of one trained detector (Table 3).

        ``mode`` selects the scoring entry point: ``"batched"`` uses the
        detector's (engine-backed) ``score_connections``; ``"streaming"``
        replays the connections' packets in timestamp order through
        :class:`~repro.serve.ParallelStreamingDetector` (CLAP only),
        measuring the full packets-in/alerts-out serving path including flow
        assembly.  The packets replay as
        :class:`~repro.netstack.columns.ColumnPacketView` handles (object
        packets are converted before the clock starts) — what a
        :class:`~repro.serve.PcapSource` feeds the runtime, minus the parse.

        ``worker_mode`` also applies to the streaming mode: ``"thread"``
        (default; one in-process detector, so ``workers`` must be 1) or
        ``"process"`` (``workers`` scoring processes, while the caller's
        thread assembles connections).  Streaming rows report *steady-state*
        throughput: fixed startup costs — runtime construction, and for
        process pools the worker start (forced to completion by an empty
        ``flush()`` barrier) — are measured separately into
        :attr:`ThroughputResult.setup_seconds`, with the old
        setup-inclusive figure still available as
        :attr:`ThroughputResult.total_packets_per_second`.

        ``backend`` converts the detector to an alternative sequence backend
        (``gru-f32``, ``quantized-gru``, …) before the clock starts; ``None``
        times the detector as fitted.
        """
        detector = self.detectors[detector_name]
        resolved_backend = backend or getattr(detector, "serving_backend", "gru")
        if backend is not None:
            if not isinstance(detector, Clap):
                raise ValueError("backend overrides are only defined for the CLAP pipeline")
            detector = detector.with_backend(backend)
        connections = list(connections) if connections is not None else self.test_connections
        packets = sum(len(connection) for connection in connections)
        if mode not in ("batched", "streaming"):
            raise ValueError(f"unknown throughput mode {mode!r}")
        if mode == "streaming":
            if not isinstance(detector, Clap):
                raise ValueError("streaming throughput is only defined for the CLAP pipeline")
            from repro.netstack.columns import column_trains
            from repro.serve import ParallelStreamingDetector

            stream = column_trains([packet_stream(connections)])[0]
            setup_start = time.perf_counter()
            streaming = ParallelStreamingDetector(
                detector,
                workers=workers,
                worker_mode=worker_mode,
                idle_timeout=float("inf"),
            )
            # An empty flush round-trips every shard worker, so lazy fixed
            # costs (process spawn, per-worker model load) land in the setup
            # region instead of distorting the first measured batch.
            streaming.flush()
            setup_elapsed = time.perf_counter() - setup_start
            start = time.perf_counter()
            streaming.ingest_many(stream)
            streaming.close()
            elapsed = time.perf_counter() - start
            return ThroughputResult(
                detector_name=detector_name,
                packets=packets,
                connections=streaming.connections_seen,
                seconds=elapsed,
                mode=mode,
                workers=workers,
                worker_mode=worker_mode,
                setup_seconds=setup_elapsed,
                backend=resolved_backend,
            )
        start = time.perf_counter()
        detector.score_connections(connections)
        elapsed = time.perf_counter() - start
        return ThroughputResult(
            detector_name=detector_name,
            packets=packets,
            connections=len(connections),
            seconds=elapsed,
            mode=mode,
            backend=resolved_backend,
        )


def aggregate_by_source(
    evaluation: DetectorEvaluation,
) -> dict[AttackSource, dict[str, float]]:
    """Mean AUC/EER per source paper — the rows of Table 1."""
    aggregates: dict[AttackSource, dict[str, float]] = {}
    for source in AttackSource:
        results = evaluation.by_source(source)
        if not results:
            continue
        aggregates[source] = {
            "auc": float(np.mean([r.auc for r in results])),
            "eer": float(np.mean([r.eer for r in results])),
            "strategies": len(results),
        }
    return aggregates


def aggregate_by_category(
    evaluation: DetectorEvaluation,
    categories: Mapping[str, ContextCategory] | None = None,
) -> dict[ContextCategory, dict[str, float]]:
    """Mean AUC/EER per violated context — the rows of Table 2.

    ``categories`` optionally overrides the declared (Table 8) category per
    strategy, e.g. with the empirically recomputed taxonomy.
    """
    aggregates: dict[ContextCategory, dict[str, float]] = {}
    for category in ContextCategory:
        results = [
            result
            for result in evaluation.per_strategy.values()
            if (categories.get(result.strategy_name, result.category) if categories else result.category)
            is category
        ]
        if not results:
            continue
        aggregates[category] = {
            "auc": float(np.mean([r.auc for r in results])),
            "eer": float(np.mean([r.eer for r in results])),
            "strategies": len(results),
        }
    return aggregates
