"""Loss functions used by the two CLAP models.

* :class:`SoftmaxCrossEntropy` -- Stage (a), the GRU state classifier
  (Equation 1 of the paper).
* :class:`L1Loss` -- Stage (c), the context-profile autoencoder
  (Equation 3 of the paper).
"""

from __future__ import annotations


import numpy as np

from repro.nn.activations import softmax


class SoftmaxCrossEntropy:
    """Combined softmax + multi-class cross entropy.

    ``forward`` takes raw logits and integer class targets; ``backward``
    returns the gradient with respect to the logits (the convenient combined
    form ``softmax(logits) - onehot(targets)``).  An optional sample weight /
    mask zeroes out padded positions in batched variable-length sequences.
    """

    def forward(
        self,
        logits: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Return ``(mean loss, probabilities)``."""
        probabilities = softmax(logits, axis=-1)
        flat_probs = probabilities.reshape(-1, probabilities.shape[-1])
        flat_targets = targets.reshape(-1)
        picked = flat_probs[np.arange(flat_targets.size), flat_targets]
        losses = -np.log(np.clip(picked, 1e-12, None))
        if mask is not None:
            flat_mask = mask.reshape(-1).astype(np.float64)
            total = max(flat_mask.sum(), 1.0)
            loss = float((losses * flat_mask).sum() / total)
        else:
            loss = float(losses.mean())
        return loss, probabilities

    def backward(
        self,
        probabilities: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        grad = probabilities.copy()
        flat = grad.reshape(-1, grad.shape[-1])
        flat_targets = targets.reshape(-1)
        flat[np.arange(flat_targets.size), flat_targets] -= 1.0
        if mask is not None:
            flat_mask = mask.reshape(-1).astype(np.float64)
            flat *= flat_mask[:, None]
            denominator = max(flat_mask.sum(), 1.0)
        else:
            denominator = flat.shape[0]
        flat /= denominator
        return grad


class L1Loss:
    """Mean absolute error, the reconstruction loss of the autoencoder."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return float(np.mean(np.abs(prediction - target)))

    def backward(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        """(Sub)gradient of the mean absolute error w.r.t. ``prediction``."""
        return np.sign(prediction - target) / prediction.size

    def per_sample(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-row mean absolute error — the reconstruction error CLAP scores with."""
        difference = prediction - target
        return np.mean(np.abs(difference, out=difference), axis=-1)


class MSELoss:
    """Mean squared error; used by the Kitsune-style baseline (RMSE scores)."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return float(np.mean((prediction - target) ** 2))

    def backward(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        return 2.0 * (prediction - target) / prediction.size

    def per_sample_rmse(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        return np.sqrt(np.mean((prediction - target) ** 2, axis=-1))
