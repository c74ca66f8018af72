"""Stage (a): learning the inter-packet context.

A GRU-based sequence classifier is trained to predict, for each packet of a
benign connection, the reference connection state (master TCP state plus
in-/out-of-window verdict, 22 classes).  The classifier itself is a means to
an end: after training, its per-packet gate activations encode how much each
prediction depends on the preceding packets — the inter-packet context that is
fused into the context profiles in Stage (b).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.config import RnnConfig
from repro.features.fields import RawFeatureExtractor
from repro.features.scaling import FeatureScaler
from repro.netstack.columns import column_trains
from repro.netstack.flow import Connection
from repro.nn.backend import convert_backend, get_backend
from repro.nn.gru import GRUSequenceClassifier
from repro.tcpstate.conntrack import ConnectionLabeler
from repro.tcpstate.states import NUM_LABEL_CLASSES, label_names
from repro.utils.rng import ensure_rng


@dataclass
class SequenceBatch:
    """A padded batch of per-connection feature sequences and labels."""

    inputs: np.ndarray  # (batch, time, features)
    targets: np.ndarray  # (batch, time)
    mask: np.ndarray  # (batch, time), 1.0 for real packets


@dataclass
class RnnTrainingReport:
    """Summary of a Stage-(a) training run."""

    epochs: int
    final_loss: float
    loss_history: list[float]
    training_accuracy: float


def pad_sequences(
    feature_arrays: Sequence[np.ndarray], label_arrays: Sequence[np.ndarray]
) -> SequenceBatch:
    """Zero-pad variable-length sequences into one batch with a mask."""
    batch = len(feature_arrays)
    max_time = max((array.shape[0] for array in feature_arrays), default=1)
    width = feature_arrays[0].shape[1] if feature_arrays else 0
    inputs = np.zeros((batch, max_time, width), dtype=np.float64)
    targets = np.zeros((batch, max_time), dtype=np.int64)
    mask = np.zeros((batch, max_time), dtype=np.float64)
    for row, (features, labels) in enumerate(zip(feature_arrays, label_arrays, strict=True)):
        length = features.shape[0]
        inputs[row, :length] = features
        targets[row, :length] = labels
        mask[row, :length] = 1.0
    return SequenceBatch(inputs=inputs, targets=targets, mask=mask)


class RnnStage:
    """Train and evaluate the Stage-(a) GRU on labelled benign connections."""

    def __init__(self, config: RnnConfig | None = None) -> None:
        self.config = config or RnnConfig()
        self.extractor = RawFeatureExtractor()
        self.labeler = ConnectionLabeler()
        self.scaler: FeatureScaler | None = None
        self.model: GRUSequenceClassifier | None = None
        self.report: RnnTrainingReport | None = None

    # ----------------------------------------------------------- preparation
    def prepare(
        self, connections: Sequence[Connection]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Raw features and label indices per non-empty connection (labels via
        conntrack); each comes from one batch over the whole corpus, whose
        object packets are converted to columns once."""
        trains = column_trains([c.packets for c in connections if len(c) > 0])
        return self.extractor.extract_packet_trains(trains), self.labeler.class_indices(trains)

    # -------------------------------------------------------------- training
    def _training_class(self):
        """The trainable backend class behind ``config.backend``.

        Serving-only identities train their designated ``training_backend``
        (e.g. ``quantized-gru`` trains a ``gru`` and converts afterwards); the
        ``gru-f32`` serving variant likewise trains the float64 ``gru``.
        """
        name = self.config.backend
        if name == "gru-f32":
            name = "gru"
        backend_cls = get_backend(name)
        if not backend_cls.trainable:
            backend_cls = get_backend(backend_cls.training_backend)
        return backend_cls

    def fit(self, connections: Sequence[Connection], *, verbose: bool = False) -> RnnTrainingReport:
        """Train the GRU classifier on benign ``connections``."""
        return self.fit_prepared(*self.prepare(connections), verbose=verbose)

    def fit_prepared(
        self,
        feature_arrays: list[np.ndarray],
        label_arrays: list[np.ndarray],
        *,
        verbose: bool = False,
    ) -> RnnTrainingReport:
        """:meth:`fit` on the output of :meth:`prepare`, which the caller can
        reuse: the training accuracy is evaluated on the same arrays."""
        if not feature_arrays:
            raise ValueError("cannot train the RNN stage on an empty corpus")
        self.scaler = FeatureScaler.fit(feature_arrays)
        scaled_arrays = self.scaler.transform_all(feature_arrays)

        self.model = self._training_class()(
            input_size=self.config.input_size,
            hidden_size=self.config.hidden_size,
            num_classes=self.config.num_classes,
            seed=self.config.seed,
            learning_rate=self.config.learning_rate,
            gradient_clip=self.config.gradient_clip,
        )
        rng = ensure_rng(self.config.seed)
        order = np.arange(len(scaled_arrays))
        loss_history: list[float] = []
        for epoch in range(self.config.epochs):
            rng.shuffle(order)
            epoch_losses: list[float] = []
            for start in range(0, len(order), self.config.batch_size):
                chosen = order[start : start + self.config.batch_size]
                batch = pad_sequences(
                    [scaled_arrays[i] for i in chosen], [label_arrays[i] for i in chosen]
                )
                epoch_losses.append(self.model.train_batch(batch.inputs, batch.targets, batch.mask))
            loss_history.append(float(np.mean(epoch_losses)))
            if verbose:
                print(f"rnn epoch {epoch + 1}/{self.config.epochs}: loss={loss_history[-1]:.4f}")

        # Convert to the requested serving backend *before* evaluation, so
        # the reported accuracy — and everything downstream (autoencoder
        # training, threshold calibration) — sees the serving-path gates.
        if self.config.backend != self.model.backend_name:
            self.model = convert_backend(self.model, self.config.backend)

        accuracy = self._accuracy(feature_arrays, label_arrays)
        self.report = RnnTrainingReport(
            epochs=self.config.epochs,
            final_loss=loss_history[-1],
            loss_history=loss_history,
            training_accuracy=accuracy,
        )
        return self.report

    # ------------------------------------------------------------ evaluation
    def evaluate(self, connections: Sequence[Connection]) -> float:
        """Overall per-packet state-prediction accuracy."""
        return self._accuracy(*self.prepare(connections))

    def per_label_accuracy(self, connections: Sequence[Connection]) -> dict[str, tuple[float, int]]:
        """Accuracy and sample count per label name (the Table-5 breakdown)."""
        names = label_names()
        counts = np.zeros(NUM_LABEL_CLASSES, dtype=np.int64)
        hits = np.zeros(NUM_LABEL_CLASSES, dtype=np.int64)
        for labels, predictions in self._predictions(*self.prepare(connections)):
            for label, prediction in zip(labels, predictions, strict=True):
                counts[label] += 1
                hits[label] += int(label == prediction)
        return {
            names[index]: (float(hits[index] / counts[index]) if counts[index] else float("nan"), int(counts[index]))
            for index in range(NUM_LABEL_CLASSES)
        }

    def _accuracy(
        self, feature_arrays: list[np.ndarray], label_arrays: list[np.ndarray]
    ) -> float:
        correct = 0
        total = 0
        for labels, predictions in self._predictions(feature_arrays, label_arrays):
            correct += int(np.sum(predictions[: labels.size] == labels))
            total += labels.size
        return correct / total if total else 0.0

    def _predictions(
        self, feature_arrays: list[np.ndarray], label_arrays: list[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(labels, predicted classes)`` per prepared connection."""
        if self.model is None or self.scaler is None:
            raise RuntimeError("RnnStage.fit must be called before evaluation")
        return [
            (labels, self.model.predict_classes(self.scaler.transform(features)[None, :, :])[0])
            for features, labels in zip(feature_arrays, label_arrays, strict=True)
        ]
