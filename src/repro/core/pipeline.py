"""The end-to-end CLAP pipeline (Figures 2 and 3 of the paper).

Training phase (:meth:`Clap.fit`):

(a) train the GRU state classifier on benign connections labelled by the
    reference conntrack implementation;
(b) fuse packet features (raw + amplification) with the GRU gate activations
    into context profiles, stacked over a sliding window;
(c) train the autoencoder on the benign stacked profiles.

Testing phase (:meth:`Clap.detect_batch` and the other batch entry points,
all served by :class:`~repro.core.engine.BatchInferenceEngine`):

(d) compute per-window reconstruction errors for unseen connections,
    summarise them with the localize-and-estimate adversarial score, compare
    against a threshold and, if desired, localise the most suspicious packet.
    The single-connection methods (:meth:`Clap.score_connection`,
    :meth:`Clap.detect`, ...) are one-element batch calls.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from repro.core.artifacts import (
    DEFAULT_SEQUENCE_BACKEND,
    ModelManifestError,
    backend_from_manifest,
    config_from_manifest,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.core.config import ClapConfig
from repro.core.detector import ConnectionVerdict
from repro.core.engine import BatchInferenceEngine
from repro.core.results import DetectionResult
from repro.core.rnn_stage import RnnStage, RnnTrainingReport
from repro.features.amplification import FeatureRanges
from repro.features.profile import ContextProfileBuilder
from repro.features.scaling import FeatureScaler
from repro.netstack.flow import Connection
from repro.nn.autoencoder import Autoencoder
from repro.nn.backend import convert_backend, serving_backend_name
from repro.nn.gru import GRUSequenceClassifier, decode_backend_name
from repro.nn.serialization import load_state, save_state
from repro.utils.rng import ensure_rng


@dataclass
class ClapTrainingReport:
    """Summary of a full CLAP training run."""

    rnn: RnnTrainingReport | None
    autoencoder_loss_history: list[float]
    profile_size: int
    stacked_profile_size: int
    training_profiles: int
    threshold: float


class Clap:
    """Context Learning based Adversarial Protection.

    ``include_gate_weights=False`` together with ``stack_length=1`` in the
    detector configuration turns this pipeline into the paper's Baseline #1
    (no RNN is trained in that case); the dedicated constructor lives in
    :mod:`repro.baselines.intra_only`.
    """

    def __init__(self, config: ClapConfig | None = None) -> None:
        self.config = config or ClapConfig()
        self.rnn_stage: RnnStage | None = None
        self.autoencoder: Autoencoder | None = None
        self.builder: ContextProfileBuilder | None = None
        self.threshold: float = 0.0
        self.report: ClapTrainingReport | None = None
        self._engine: BatchInferenceEngine | None = None

    # -------------------------------------------------------------- training
    def fit(
        self,
        train_connections: Sequence[Connection],
        *,
        verbose: bool = False,
        threshold_percentile: float = 95.0,
    ) -> ClapTrainingReport:
        """Train the full pipeline on benign connections only."""
        self._engine = None
        detector_config = self.config.detector
        rnn_report: RnnTrainingReport | None = None
        rnn_model: GRUSequenceClassifier | None = None

        # The corpus is converted and labelled once; the GRU trains and
        # evaluates on these arrays, and the feature ranges come from them.
        stage = RnnStage(self.config.rnn)
        raw_arrays, label_arrays = stage.prepare(train_connections)
        if detector_config.include_gate_weights:
            self.rnn_stage = stage
            rnn_report = stage.fit_prepared(raw_arrays, label_arrays, verbose=verbose)
            rnn_model = stage.model
            scaler = stage.scaler
        else:
            scaler = FeatureScaler.fit(raw_arrays)

        ranges = FeatureRanges.fit(raw_arrays)
        self.builder = ContextProfileBuilder(
            rnn_model,
            scaler,
            ranges,
            stack_length=detector_config.stack_length,
            include_gate_weights=detector_config.include_gate_weights,
            include_amplification=detector_config.include_amplification,
        )

        training_matrix = self.builder.training_matrix(train_connections)
        autoencoder_config = self.config.autoencoder
        self.autoencoder = Autoencoder(
            input_size=self.builder.stacked_profile_size,
            bottleneck_size=autoencoder_config.bottleneck_size,
            depth=autoencoder_config.depth,
            hidden_activation=autoencoder_config.hidden_activation,
            learning_rate=autoencoder_config.learning_rate,
            seed=autoencoder_config.seed,
        )
        loss_history = self.autoencoder.fit(
            training_matrix,
            epochs=autoencoder_config.epochs,
            batch_size=autoencoder_config.batch_size,
            rng=ensure_rng(autoencoder_config.seed),
            verbose=verbose,
        )

        self.threshold = self._calibrate_threshold(train_connections, threshold_percentile)
        self.report = ClapTrainingReport(
            rnn=rnn_report,
            autoencoder_loss_history=loss_history,
            profile_size=self.builder.profile_size,
            stacked_profile_size=self.builder.stacked_profile_size,
            training_profiles=training_matrix.shape[0],
            threshold=self.threshold,
        )
        return self.report

    def _calibrate_threshold(
        self, connections: Sequence[Connection], percentile: float
    ) -> float:
        """Default decision threshold: a high percentile of benign scores.

        The paper leaves the threshold to the deployer; this calibration gives
        example scripts and the online-detector example a sensible default.
        """
        scores = self.score_connections(connections)
        if scores.size == 0:
            return 0.0
        return float(np.percentile(scores, percentile))

    # --------------------------------------------------------------- scoring
    def _require_fitted(self) -> None:
        if self.autoencoder is None or self.builder is None:
            raise RuntimeError("Clap.fit (or Clap.load) must be called before scoring")

    # ---------------------------------------------------------------- backend
    @property
    def serving_backend(self) -> str:
        """The effective serving identity (``gru-f32`` when computing in f32)."""
        rnn = self.builder.rnn if self.builder is not None else None
        return serving_backend_name(rnn) if rnn is not None else "gru"

    def with_backend(self, name: str) -> "Clap":
        """This pipeline served through sequence backend ``name``.

        Returns ``self`` when the pipeline already serves ``name``; otherwise
        a new :class:`Clap` sharing the fitted autoencoder, scaler, ranges
        and threshold, with only the Stage-(a) model converted (see
        :func:`repro.nn.backend.convert_backend`).  Conversion never mutates
        the source pipeline.
        """
        self._require_fitted()
        if self.builder.rnn is None:
            raise RuntimeError(
                "this pipeline has no sequence model (include_gate_weights=False); "
                "there is no backend to convert"
            )
        if name == self.serving_backend:
            return self
        converted = convert_backend(self.builder.rnn, name)
        clone = Clap(copy.deepcopy(self.config))
        clone.config.rnn.backend = name
        clone.builder = ContextProfileBuilder(
            converted,
            self.builder.scaler,
            self.builder.ranges,
            stack_length=self.config.detector.stack_length,
            include_gate_weights=self.config.detector.include_gate_weights,
            include_amplification=self.config.detector.include_amplification,
        )
        clone.autoencoder = self.autoencoder
        clone.threshold = self.threshold
        clone.report = self.report
        return clone

    @property
    def engine(self) -> BatchInferenceEngine:
        """The batched inference engine over the fitted builder/autoencoder.

        Built lazily after :meth:`fit`/:meth:`load`.  Every scoring entry
        point routes through it: the batch methods directly, and each
        single-connection method as a one-element batch call.
        """
        self._require_fitted()
        if self._engine is None:
            self._engine = BatchInferenceEngine(
                self.builder, self.autoencoder, self.config.detector
            )
        return self._engine

    def window_errors(self, connection: Connection) -> np.ndarray:
        """Per-sliding-window reconstruction errors for one connection."""
        return self.window_error_segments([connection])[0]

    def window_error_segments(self, connections: Sequence[Connection]) -> list[np.ndarray]:
        """Per-connection window errors for many connections (batched)."""
        return self.engine.window_error_segments(connections)

    def score_connection(self, connection: Connection) -> float:
        """The adversarial score of one connection (higher = more suspicious)."""
        return float(self.score_connections([connection])[0])

    def score_connections(self, connections: Sequence[Connection]) -> np.ndarray:
        """Adversarial scores for many connections, via the batched engine."""
        return self.engine.scores(connections)

    def verdict(self, connection: Connection, threshold: float | None = None) -> ConnectionVerdict:
        """Full Stage-(d) output: score, boolean decision and localisation."""
        return self.verdict_batch([connection], threshold)[0]

    def verdict_batch(
        self, connections: Sequence[Connection], threshold: float | None = None
    ) -> list[ConnectionVerdict]:
        """Stage-(d) verdicts for many connections in one engine pass."""
        return self.engine.verdicts(
            connections, self.threshold if threshold is None else threshold
        )

    # ----------------------------------------------------- unified detection
    def detect(
        self,
        connection: Connection,
        *,
        threshold: float | None = None,
        top_n: int = 1,
    ) -> DetectionResult:
        """Unified Stage-(d) result for one connection."""
        return self.detect_batch([connection], threshold=threshold, top_n=top_n)[0]

    def detect_batch(
        self,
        connections: Sequence[Connection],
        *,
        threshold: float | None = None,
        top_n: int = 1,
    ) -> list[DetectionResult]:
        """Unified Stage-(d) results for many connections in one engine pass."""
        limit = self.threshold if threshold is None else threshold
        return self.engine.detect(connections, limit, top_n=top_n)

    def localize(self, connection: Connection, top_n: int = 1) -> list[int]:
        """Packet indices of the ``top_n`` most suspicious positions."""
        return self.localize_batch([connection], top_n)[0]

    def localize_batch(
        self, connections: Sequence[Connection], top_n: int = 1
    ) -> list[list[int]]:
        """Per-connection localisations for many connections in one engine pass."""
        return self.engine.localize(connections, top_n=top_n)

    def is_adversarial(self, connection: Connection, threshold: float | None = None) -> bool:
        """Boolean detection decision for one connection."""
        limit = self.threshold if threshold is None else threshold
        return self.score_connection(connection) > limit

    # ------------------------------------------------------------ persistence
    def save(self, directory: str | Path) -> Path:
        """Persist the trained pipeline as a versioned model artifact.

        The weights/scaler/threshold land in ``clap_model.npz`` as before; a
        ``manifest.json`` (artifact schema version, full configuration,
        feature-schema hash, threshold) is written alongside so the artifact
        is self-describing and :meth:`load` can validate compatibility.  The
        archive members are stored uncompressed and 64-byte aligned, so
        :meth:`load` can memory-map them (``mmap_mode="r"``) — many readers
        of one artifact then share a single page-cache copy of the weights.
        """
        self._require_fitted()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        state: dict[str, np.ndarray] = {}
        if self.builder.rnn is not None:
            for key, value in self.builder.rnn.state_dict().items():
                state[f"rnn/{key}"] = value
        for key, value in self.autoencoder.state_dict().items():
            state[f"ae/{key}"] = value
        for key, value in self.builder.scaler.to_arrays().items():
            state[f"scaler/{key}"] = value
        for key, value in self.builder.ranges.to_arrays().items():
            state[f"ranges/{key}"] = value
        state["detector/threshold"] = np.array([self.threshold])
        state["detector/stack_length"] = np.array([self.config.detector.stack_length])
        state["detector/score_window"] = np.array([self.config.detector.score_window])
        state["detector/include_gate_weights"] = np.array(
            [1 if self.config.detector.include_gate_weights else 0]
        )
        state["detector/include_amplification"] = np.array(
            [1 if self.config.detector.include_amplification else 0]
        )
        archive = save_state(directory / "clap_model", state)
        write_manifest(directory, self.config, self.threshold)
        return archive

    @classmethod
    def load(
        cls,
        path: str | Path,
        config: ClapConfig | None = None,
        *,
        mmap_mode: str | None = None,
    ) -> "Clap":
        """Load a pipeline persisted with :meth:`save`.

        When a ``manifest.json`` sits next to the archive it is validated
        (artifact schema version, feature-schema hash) and, unless the caller
        supplies an explicit ``config``, the recorded training configuration
        is restored.  Legacy bare ``.npz`` models (no manifest) load as
        before.  Raises :class:`repro.core.artifacts.ModelManifestError` for
        incompatible artifacts.

        ``mmap_mode="r"`` maps the archive once and builds the models around
        aligned read-only views of it instead of copying the weights into
        process memory (see :func:`repro.nn.serialization.load_state`):
        scoring is byte-identical to an eager load, and every process
        mapping the same artifact shares one page-cache copy.
        """
        path = Path(path)
        if path.is_dir():
            path = path / "clap_model.npz"
        state = load_state(path, mmap_mode=mmap_mode)
        manifest = read_manifest(path.parent)
        if manifest is not None:
            validate_manifest(manifest)
            if config is None:
                config = config_from_manifest(manifest)
        # Deep-copy so the persisted detector settings never leak back into
        # the caller's configuration object.
        config = copy.deepcopy(config) if config is not None else ClapConfig()
        config.detector.stack_length = int(state["detector/stack_length"][0])
        config.detector.score_window = int(state["detector/score_window"][0])
        config.detector.include_gate_weights = bool(int(state["detector/include_gate_weights"][0]))
        config.detector.include_amplification = bool(int(state["detector/include_amplification"][0]))
        instance = cls(config)

        rnn_state = {
            key[len("rnn/") :]: value for key, value in state.items() if key.startswith("rnn/")
        }
        # The sequence backend is recorded in the archive (``rnn/meta/backend``;
        # legacy states carry none and mean ``gru``) and in the manifest.
        # Both come from disk, and this build loads only ``gru`` weights.
        recorded = [decode_backend_name(rnn_state.get("meta/backend"))] if rnn_state else []
        if manifest is not None:
            recorded.append(backend_from_manifest(manifest))
        for name in recorded:
            if name != DEFAULT_SEQUENCE_BACKEND:
                raise ModelManifestError(
                    f"model holds sequence backend {name!r}, which this build cannot "
                    f"load (it serves only {DEFAULT_SEQUENCE_BACKEND!r} weights); "
                    "retrain the model"
                )
        rnn_model = GRUSequenceClassifier.from_state_dict(rnn_state) if rnn_state else None
        if rnn_model is not None and config.rnn.backend == "gru-f32":
            # A pipeline saved with the float32 override serves it again.
            rnn_model.set_compute_dtype("float32")
        ae_state = {key[len("ae/") :]: value for key, value in state.items() if key.startswith("ae/")}
        scaler = FeatureScaler.from_arrays(
            {key[len("scaler/") :]: value for key, value in state.items() if key.startswith("scaler/")}
        )
        ranges = FeatureRanges.from_arrays(
            {key[len("ranges/") :]: value for key, value in state.items() if key.startswith("ranges/")}
        )
        instance.builder = ContextProfileBuilder(
            rnn_model,
            scaler,
            ranges,
            stack_length=config.detector.stack_length,
            include_gate_weights=config.detector.include_gate_weights,
            include_amplification=config.detector.include_amplification,
        )
        instance.autoencoder = Autoencoder.from_state_dict(ae_state)
        instance.threshold = float(state["detector/threshold"][0])
        return instance
