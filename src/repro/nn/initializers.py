"""Weight initialisers for the numpy neural-network substrate."""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation, the default for dense layers."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64)


def orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation, the usual choice for recurrent matrices."""
    size = max(rows, cols)
    matrix = rng.normal(0.0, 1.0, size=(size, size))
    q, r = np.linalg.qr(matrix)
    # Make the decomposition unique (and hence deterministic given the rng).
    q = q * np.sign(np.diag(r))
    return (gain * q[:rows, :cols]).astype(np.float64)


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def adopt_loaded(
    parameters: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]
) -> dict[str, np.ndarray]:
    """The loaded arrays for the keys of ``shapes``, instead of fresh ones.

    Arrays that already are float64 are used as they are (a read-only
    memory map stays one), so loading a model copies no weights and draws
    no random numbers.
    """
    adopted = {key: np.asanyarray(parameters[key], dtype=np.float64) for key in shapes}
    for key, shape in shapes.items():
        if adopted[key].shape != shape:
            raise ValueError(
                f"parameter {key!r} has shape {adopted[key].shape}, expected {shape}"
            )
    return adopted
