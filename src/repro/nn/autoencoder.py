"""Dense autoencoder (Stage (c) of CLAP, and both baselines).

The autoencoder learns the distribution of benign context profiles by being
trained to reproduce its input through a narrow bottleneck; the per-sample L1
reconstruction error is the anomaly signal used in Stage (d).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.dense import Dense
from repro.nn.losses import L1Loss, MSELoss
from repro.nn.optim import Adam, Optimizer

Parameters = dict[str, np.ndarray]


def symmetric_layer_sizes(input_size: int, bottleneck_size: int, depth: int) -> list[int]:
    """Geometrically-interpolated encoder/decoder layer sizes.

    ``depth`` counts the total number of layers (Table 6 uses 7 for CLAP's
    autoencoder): ``depth // 2`` encoder layers, the bottleneck, and a
    mirrored decoder.  The returned list includes the input size at both ends.
    """
    if depth < 3 or depth % 2 == 0:
        raise ValueError(f"depth must be an odd number >= 3, got {depth}")
    half = depth // 2
    # Geometric interpolation from input_size down to bottleneck_size.
    ratios = np.linspace(0.0, 1.0, half + 1)
    encoder = [
        int(round(input_size * (bottleneck_size / input_size) ** ratio))
        for ratio in ratios
    ]
    encoder[0] = input_size
    encoder[-1] = bottleneck_size
    decoder = list(reversed(encoder[:-1]))
    return encoder + decoder


class Autoencoder:
    """A symmetric dense autoencoder trained with L1 reconstruction loss.

    ``parameters`` builds the layers around loaded arrays instead of
    initialising them from ``seed`` (see :meth:`from_state_dict`).
    """

    def __init__(
        self,
        input_size: int,
        *,
        bottleneck_size: int = 40,
        depth: int = 7,
        hidden_activation: str = "tanh",
        output_activation: str = "identity",
        learning_rate: float = 0.001,
        loss: str = "l1",
        seed: int = 0,
        layer_sizes: Sequence[int] | None = None,
        parameters: Parameters | None = None,
    ) -> None:
        rng = np.random.default_rng(seed) if parameters is None else None
        if layer_sizes is None:
            layer_sizes = symmetric_layer_sizes(input_size, bottleneck_size, depth)
        else:
            layer_sizes = list(layer_sizes)
            if layer_sizes[0] != input_size or layer_sizes[-1] != input_size:
                raise ValueError("layer_sizes must start and end with input_size")
        self.input_size = input_size
        self.layer_sizes = list(layer_sizes)
        self.bottleneck_size = min(layer_sizes)
        self.layers: list[Dense] = []
        for index in range(len(layer_sizes) - 1):
            is_last = index == len(layer_sizes) - 2
            self.layers.append(
                Dense(
                    layer_sizes[index],
                    layer_sizes[index + 1],
                    activation=output_activation if is_last else hidden_activation,
                    prefix=f"ae/layer{index}/",
                    rng=rng,
                    parameters=parameters,
                )
            )
        self.parameters: Parameters = {}
        for layer in self.layers:
            self.parameters.update(layer.parameters)
            layer.parameters = self.parameters
        if loss == "l1":
            self.loss = L1Loss()
        elif loss == "mse":
            self.loss = MSELoss()
        else:
            raise ValueError(f"unknown loss {loss!r}; expected 'l1' or 'mse'")
        self.loss_name = loss
        self.optimizer: Optimizer = Adam(learning_rate=learning_rate)

    # ----------------------------------------------------------------- forward
    def forward(self, inputs: np.ndarray, *, cache: bool = False) -> np.ndarray:
        """Reconstruct ``inputs`` (any leading batch shape, last dim = input_size)."""
        hidden = inputs
        for layer in self.layers:
            hidden = layer.forward(hidden, cache=cache)
        return hidden

    def encode(self, inputs: np.ndarray) -> np.ndarray:
        """Return the bottleneck representation of ``inputs``."""
        hidden = inputs
        bottleneck_index = int(np.argmin(self.layer_sizes[1:])) + 1
        for layer in self.layers[:bottleneck_index]:
            hidden = layer.forward(hidden, cache=False)
        return hidden

    def reconstruction_error(self, inputs: np.ndarray) -> np.ndarray:
        """Per-sample reconstruction error (the CLAP anomaly signal)."""
        outputs = self.forward(inputs, cache=False)
        if isinstance(self.loss, MSELoss):
            return self.loss.per_sample_rmse(outputs, inputs)
        return self.loss.per_sample(outputs, inputs)

    # ---------------------------------------------------------------- training
    def train_batch(self, inputs: np.ndarray) -> float:
        """One optimiser step on a batch of profiles; returns the loss."""
        outputs = self.forward(inputs, cache=True)
        loss_value = self.loss.forward(outputs, inputs)
        grad = self.loss.backward(outputs, inputs)
        gradients: Parameters = {}
        for layer in reversed(self.layers):
            grad = layer.backward(grad, gradients)
        self.optimizer.step(self.parameters, gradients)
        return loss_value

    def fit(
        self,
        data: np.ndarray,
        *,
        epochs: int = 50,
        batch_size: int = 64,
        rng: np.random.Generator | None = None,
        verbose: bool = False,
    ) -> list[float]:
        """Train on ``data`` (samples, input_size); returns per-epoch losses."""
        rng = rng if rng is not None else np.random.default_rng(0)
        history: list[float] = []
        count = data.shape[0]
        for epoch in range(epochs):
            order = rng.permutation(count)
            epoch_losses: list[float] = []
            for start in range(0, count, batch_size):
                batch = data[order[start : start + batch_size]]
                epoch_losses.append(self.train_batch(batch))
            history.append(float(np.mean(epoch_losses)))
            if verbose:
                print(f"autoencoder epoch {epoch + 1}/{epochs}: loss={history[-1]:.6f}")
        return history

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {key: value.copy() for key, value in self.parameters.items()}
        state["meta/layer_sizes"] = np.array(self.layer_sizes, dtype=np.int64)
        state["meta/loss"] = np.array([0 if self.loss_name == "l1" else 1], dtype=np.int64)
        return state

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "Autoencoder":
        """Rebuild a model around the arrays of ``state`` (no copies, no
        random draws); read-only memory-mapped weights give an inference-only
        model."""
        layer_sizes = [int(v) for v in state["meta/layer_sizes"]]
        loss = "l1" if int(state["meta/loss"][0]) == 0 else "mse"
        return cls(
            input_size=layer_sizes[0], layer_sizes=layer_sizes, loss=loss, parameters=state
        )
