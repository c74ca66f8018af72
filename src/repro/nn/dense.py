"""Fully-connected layer with manual forward/backward passes."""

from __future__ import annotations


import numpy as np

from repro.nn.activations import get_activation
from repro.nn.initializers import adopt_loaded, glorot_uniform, zeros


class Dense:
    """A dense (affine + activation) layer.

    Parameters are stored under ``{prefix}W`` and ``{prefix}b`` so several
    layers can share one flat parameter dictionary (the representation the
    optimisers consume).  ``parameters`` builds the layer around loaded
    arrays (see :func:`~repro.nn.initializers.adopt_loaded`) instead of
    initialising fresh ones from ``rng``.
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        *,
        activation: str = "identity",
        prefix: str = "dense/",
        rng: np.random.Generator | None = None,
        parameters: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.input_size = input_size
        self.output_size = output_size
        self.activation_name = activation
        self._activation, self._activation_grad, self._grad_takes_output = get_activation(activation)
        self.prefix = prefix
        if parameters is not None:
            shapes = {f"{prefix}W": (input_size, output_size), f"{prefix}b": (output_size,)}
            self.parameters = adopt_loaded(parameters, shapes)
        else:
            rng = rng if rng is not None else np.random.default_rng(0)
            self.parameters = {
                f"{prefix}W": glorot_uniform(rng, input_size, output_size),
                f"{prefix}b": zeros(output_size),
            }
        self._cache_input: np.ndarray | None = None
        self._cache_pre_activation: np.ndarray | None = None
        self._cache_output: np.ndarray | None = None

    # ------------------------------------------------------------------ math
    @property
    def weight(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}W"]

    @property
    def bias(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}b"]

    def forward(self, inputs: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Compute ``activation(inputs @ W + b)``.

        ``inputs`` may have any number of leading dimensions; the last one must
        equal ``input_size``.  Without ``cache`` a ``tanh`` is applied in
        place, since nothing keeps the pre-activation.
        """
        pre_activation = inputs @ self.weight
        pre_activation += self.bias  # in place: the matmul temp is private
        if not cache and self.activation_name == "tanh":
            return np.tanh(pre_activation, out=pre_activation)
        output = self._activation(pre_activation)
        if cache:
            self._cache_input = inputs
            self._cache_pre_activation = pre_activation
            self._cache_output = output
        return output

    def backward(self, grad_output: np.ndarray, gradients: dict[str, np.ndarray]) -> np.ndarray:
        """Backpropagate ``grad_output`` and accumulate parameter gradients.

        Returns the gradient with respect to the layer input.
        """
        if self._cache_input is None:
            raise RuntimeError("backward() called before forward(cache=True)")
        if self._grad_takes_output:
            local_grad = self._activation_grad(self._cache_output)
        else:
            local_grad = self._activation_grad(self._cache_pre_activation)
        grad_pre = grad_output * local_grad
        flat_inputs = self._cache_input.reshape(-1, self.input_size)
        flat_grad_pre = grad_pre.reshape(-1, self.output_size)
        gradients[f"{self.prefix}W"] = gradients.get(f"{self.prefix}W", 0.0) + flat_inputs.T @ flat_grad_pre
        gradients[f"{self.prefix}b"] = gradients.get(f"{self.prefix}b", 0.0) + flat_grad_pre.sum(axis=0)
        return grad_pre @ self.weight.T
