"""GRU recurrent layer with exposed gate activations and full BPTT.

The Stage-(a) model of CLAP is a GRU-based RNN trained to predict the
connection state after every packet.  Crucially, CLAP does not consume the
classifier's predictions at test time — it consumes the *gate activations*
(update and reset gates), which encode how strongly the current output depends
on previous packets, i.e. the inter-packet context.  Owning the cell
implementation makes exposing those activations trivial.

The cell follows the original formulation of Cho et al. (2014), the reference
the paper cites for its GRU:

.. math::

    z_t &= \\sigma(x_t W_z + h_{t-1} U_z + b_z) \\\\
    r_t &= \\sigma(x_t W_r + h_{t-1} U_r + b_r) \\\\
    \\tilde h_t &= \\tanh(x_t W_h + r_t \\odot (h_{t-1} U_h) + b_h) \\\\
    h_t &= (1 - z_t) \\odot h_{t-1} + z_t \\odot \\tilde h_t
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.dense import Dense
from repro.nn.initializers import adopt_loaded, glorot_uniform, orthogonal, zeros
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import Adam, Optimizer

Parameters = dict[str, np.ndarray]

#: Compute dtypes the inference fast path accepts.  ``float64`` is the
#: training/oracle dtype (bit-identical to the masked forward); ``float32``
#: is the opt-in serving mode gated by the backend equivalence tolerances
#: (see :mod:`repro.core.equivalence`).
COMPUTE_DTYPES = ("float64", "float32")


def encode_backend_name(name: str) -> np.ndarray:
    """Backend identity as a 1-D uint8 array (npz- and mmap-friendly)."""
    return np.frombuffer(name.encode("utf-8"), dtype=np.uint8).copy()


def decode_backend_name(value: np.ndarray | None, default: str = "gru") -> str:
    """Inverse of :func:`encode_backend_name`; legacy states map to ``default``."""
    if value is None:
        return default
    return bytes(np.asarray(value, dtype=np.uint8)).decode("utf-8")


#: Sequences per padded chunk in :meth:`GRUSequenceClassifier.gate_activations_concat`:
#: bounds the padding waste of batching long and short connections together.
GATE_CHUNK_SIZE = 64


def _sigmoid_f32(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` for the float32 serving mode.

    The unstable formulation saturates to exactly 0/1 a few ulps earlier
    than the branch-stable :func:`repro.nn.activations.sigmoid` — far below
    the float32 tolerance gate — and costs half its ufunc passes.
    """
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class GruStepCache:
    """Everything the backward pass needs about one forward time step."""

    inputs: np.ndarray
    h_prev: np.ndarray
    update_gate: np.ndarray
    reset_gate: np.ndarray
    candidate: np.ndarray
    hidden_from_u: np.ndarray
    mask: np.ndarray | None


@dataclass
class GruForwardResult:
    """Outputs of a full forward pass over a (batch of) sequence(s)."""

    hidden_states: np.ndarray  # (batch, time, hidden)
    update_gates: np.ndarray  # (batch, time, hidden)
    reset_gates: np.ndarray  # (batch, time, hidden)
    caches: list[GruStepCache]


class GRULayer:
    """A single GRU layer operating on padded batches of sequences.

    ``parameters`` builds the layer around loaded arrays (see
    :func:`~repro.nn.initializers.adopt_loaded`) instead of initialising
    fresh ones from ``rng``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        *,
        prefix: str = "gru/",
        rng: np.random.Generator | None = None,
        parameters: Parameters | None = None,
    ) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.prefix = prefix
        if parameters is not None:
            shapes = {
                f"{prefix}W": (input_size, 3 * hidden_size),
                f"{prefix}U": (hidden_size, 3 * hidden_size),
                f"{prefix}b": (3 * hidden_size,),
            }
            self.parameters = adopt_loaded(parameters, shapes)
        else:
            rng = rng if rng is not None else np.random.default_rng(0)
            self.parameters = {
                f"{prefix}W": np.concatenate(
                    [glorot_uniform(rng, input_size, hidden_size) for _ in range(3)], axis=1
                ),
                f"{prefix}U": np.concatenate(
                    [orthogonal(rng, hidden_size, hidden_size) for _ in range(3)], axis=1
                ),
                f"{prefix}b": zeros(3 * hidden_size),
            }
        self.compute_dtype: np.dtype = np.dtype(np.float64)
        self._compute_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------ compute mode
    def set_compute_dtype(self, dtype) -> None:
        """Select the inference compute dtype for :meth:`gates_packed`.

        ``float64`` (the default) runs the training arithmetic, stable
        sigmoid included, so the gates match the masked :meth:`forward` to
        1e-9; ``float32`` casts the parameters once (cached until the next
        training step or state load), halves the memory traffic of the
        recurrence and swaps in the cheaper unstable sigmoid.  Training
        always runs in float64 — the master parameters are never narrowed.
        """
        resolved = np.dtype(dtype)
        if resolved.name not in COMPUTE_DTYPES:
            raise ValueError(
                f"unsupported compute dtype {dtype!r}; choose one of {COMPUTE_DTYPES}"
            )
        if resolved != self.compute_dtype:
            self.compute_dtype = resolved
            self._compute_cache = None
            if resolved != np.float64:
                self._compute_params()  # cast once, eagerly

    def invalidate_compute_cache(self) -> None:
        """Drop the cast parameter cache (call after any parameter update)."""
        self._compute_cache = None

    def _compute_params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (W, U, b) triple in the compute dtype, cast once and cached."""
        if self.compute_dtype == np.float64:
            return self.weight_input, self.weight_hidden, self.bias
        if self._compute_cache is None:
            self._compute_cache = (
                self.weight_input.astype(self.compute_dtype),
                self.weight_hidden.astype(self.compute_dtype),
                self.bias.astype(self.compute_dtype),
            )
        return self._compute_cache

    # ------------------------------------------------------------------ slices
    def _slices(self) -> tuple[slice, slice, slice]:
        h = self.hidden_size
        return slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h)

    @property
    def weight_input(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}W"]

    @property
    def weight_hidden(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}U"]

    @property
    def bias(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}b"]

    # ----------------------------------------------------------------- forward
    def step(
        self,
        inputs: np.ndarray,
        h_prev: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, GruStepCache]:
        """One time step for a batch: ``inputs`` is (batch, input_size)."""
        z_slice, r_slice, h_slice = self._slices()
        projected_input = inputs @ self.weight_input + self.bias
        projected_hidden = h_prev @ self.weight_hidden
        update_gate = sigmoid(projected_input[:, z_slice] + projected_hidden[:, z_slice])
        reset_gate = sigmoid(projected_input[:, r_slice] + projected_hidden[:, r_slice])
        hidden_from_u = projected_hidden[:, h_slice]
        candidate = np.tanh(projected_input[:, h_slice] + reset_gate * hidden_from_u)
        h_new = (1.0 - update_gate) * h_prev + update_gate * candidate
        if mask is not None:
            expanded = mask[:, None]
            h_new = expanded * h_new + (1.0 - expanded) * h_prev
        cache = GruStepCache(
            inputs=inputs,
            h_prev=h_prev,
            update_gate=update_gate,
            reset_gate=reset_gate,
            candidate=candidate,
            hidden_from_u=hidden_from_u,
            mask=mask,
        )
        return h_new, cache

    def forward(
        self,
        inputs: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        need_caches: bool = True,
    ) -> GruForwardResult:
        """Run the layer over ``inputs`` of shape (batch, time, input_size).

        ``need_caches=False`` skips the per-step backward caches for
        inference-only passes.  Gates-only callers should prefer
        :meth:`gates_packed`, the inference loop that skips hidden-state
        history, caches and finished lanes entirely; this masked forward is
        its test oracle.
        """
        batch, time, _ = inputs.shape
        hidden = np.zeros((batch, self.hidden_size), dtype=np.float64)
        hidden_states = np.zeros((batch, time, self.hidden_size), dtype=np.float64)
        update_gates = np.zeros_like(hidden_states)
        reset_gates = np.zeros_like(hidden_states)
        caches: list[GruStepCache] = []
        for t in range(time):
            step_mask = mask[:, t] if mask is not None else None
            hidden, cache = self.step(inputs[:, t, :], hidden, step_mask)
            hidden_states[:, t, :] = hidden
            update_gates[:, t, :] = cache.update_gate
            reset_gates[:, t, :] = cache.reset_gate
            if need_caches:
                caches.append(cache)
        return GruForwardResult(
            hidden_states=hidden_states,
            update_gates=update_gates,
            reset_gates=reset_gates,
            caches=caches,
        )

    def gates_packed(
        self, inputs: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Update/reset gates for a padded batch sorted by ascending length.

        With lanes ordered shortest-first, the lanes still alive at step ``t``
        are exactly the suffix ``[searchsorted(lengths, t, 'right'):]`` — so
        instead of masking finished lanes (computing a full-width step and
        then discarding it), each step's recurrence runs only on the alive
        suffix.  Per-lane outputs are what the masked forward produces for
        real steps (a masked-out lane keeps its hidden state either way);
        total step work drops from ``batch * max_len`` to ``sum(lengths)``
        lane-steps.

        The compute dtype (see :meth:`set_compute_dtype`) picks the weights
        and the sigmoid: the stable :func:`~repro.nn.activations.sigmoid` in
        float64, ``1 / (1 + exp(-x))`` in float32.  Gates are returned in
        float64 either way.
        """
        batch, time, _ = inputs.shape
        lengths = np.asarray(lengths)
        if lengths.shape[0] != batch:
            raise ValueError(
                "gates_packed requires one length per lane: got "
                f"{lengths.shape[0]} lengths for {batch} lanes"
            )
        if batch > 1:
            descending = np.flatnonzero(np.diff(lengths) < 0)
            if descending.size:
                index = int(descending[0]) + 1
                raise ValueError(
                    "gates_packed requires lengths sorted ascending: "
                    f"lengths[{index}]={int(lengths[index])} < "
                    f"lengths[{index - 1}]={int(lengths[index - 1])}"
                )
        h = self.hidden_size
        weight_input, weight_hidden, bias = self._compute_params()
        dtype = weight_input.dtype
        activate = sigmoid if dtype == np.float64 else _sigmoid_f32
        hidden = np.zeros((batch, h), dtype=dtype)
        update_gates = np.zeros((batch, time, h), dtype=np.float64)
        reset_gates = np.zeros((batch, time, h), dtype=np.float64)
        projected = (
            inputs.astype(dtype, copy=False).reshape(batch * time, self.input_size)
            @ weight_input
            + bias
        ).reshape(batch, time, 3 * h)
        alive_from = np.searchsorted(lengths, np.arange(time), side="right")
        for t in range(time):
            start = int(alive_from[t])
            projected_input = projected[start:, t, :]
            h_prev = hidden[start:]
            projected_hidden = h_prev @ weight_hidden
            gates = activate(projected_input[:, : 2 * h] + projected_hidden[:, : 2 * h])
            update_gate = gates[:, :h]
            reset_gate = gates[:, h:]
            candidate = np.tanh(
                projected_input[:, 2 * h :] + reset_gate * projected_hidden[:, 2 * h :]
            )
            hidden[start:] = (1.0 - update_gate) * h_prev + update_gate * candidate
            update_gates[start:, t, :] = update_gate
            reset_gates[start:, t, :] = reset_gate
        return update_gates, reset_gates

    # ---------------------------------------------------------------- backward
    def backward(
        self,
        grad_hidden_states: np.ndarray,
        caches: list[GruStepCache],
        gradients: Parameters,
    ) -> np.ndarray:
        """Backpropagate through time.

        ``grad_hidden_states`` is the gradient of the loss with respect to
        every per-step hidden state (batch, time, hidden), e.g. as produced by
        a per-step classification head.  Returns the gradient with respect to
        the inputs (batch, time, input_size).
        """
        z_slice, r_slice, h_slice = self._slices()
        weight_input = self.weight_input
        weight_hidden = self.weight_hidden
        batch, time, _ = grad_hidden_states.shape
        grad_inputs = np.zeros((batch, time, self.input_size), dtype=np.float64)
        grad_w = np.zeros_like(weight_input)
        grad_u = np.zeros_like(weight_hidden)
        grad_b = np.zeros_like(self.bias)
        carry = np.zeros((batch, self.hidden_size), dtype=np.float64)

        for t in range(time - 1, -1, -1):
            cache = caches[t]
            grad_h = grad_hidden_states[:, t, :] + carry
            if cache.mask is not None:
                expanded = cache.mask[:, None]
                carry_through = grad_h * (1.0 - expanded)
                grad_h = grad_h * expanded
            else:
                carry_through = 0.0

            update_gate = cache.update_gate
            reset_gate = cache.reset_gate
            candidate = cache.candidate
            h_prev = cache.h_prev

            grad_candidate = grad_h * update_gate
            grad_update = grad_h * (candidate - h_prev)
            grad_h_prev = grad_h * (1.0 - update_gate)

            grad_pre_candidate = grad_candidate * (1.0 - candidate * candidate)
            grad_reset = grad_pre_candidate * cache.hidden_from_u
            grad_hidden_from_u = grad_pre_candidate * reset_gate

            grad_pre_update = grad_update * update_gate * (1.0 - update_gate)
            grad_pre_reset = grad_reset * reset_gate * (1.0 - reset_gate)

            # Gradients w.r.t. the input projection (x @ W + b).
            grad_projected_input = np.concatenate(
                [grad_pre_update, grad_pre_reset, grad_pre_candidate], axis=1
            )
            # Gradients w.r.t. the hidden projection (h_prev @ U).
            grad_projected_hidden = np.concatenate(
                [grad_pre_update, grad_pre_reset, grad_hidden_from_u], axis=1
            )

            grad_w += cache.inputs.T @ grad_projected_input
            grad_u += h_prev.T @ grad_projected_hidden
            grad_b += grad_projected_input.sum(axis=0)
            grad_inputs[:, t, :] = grad_projected_input @ weight_input.T
            grad_h_prev = grad_h_prev + grad_projected_hidden @ weight_hidden.T
            carry = grad_h_prev + carry_through

        gradients[f"{self.prefix}W"] = gradients.get(f"{self.prefix}W", 0.0) + grad_w
        gradients[f"{self.prefix}U"] = gradients.get(f"{self.prefix}U", 0.0) + grad_u
        gradients[f"{self.prefix}b"] = gradients.get(f"{self.prefix}b", 0.0) + grad_b
        return grad_inputs


class GRUSequenceClassifier:
    """GRU layer plus a per-step softmax head: the Stage-(a) architecture.

    The classifier is trained to predict, for every packet of a connection,
    the reference state label (22 classes).  After training,
    :meth:`gate_activations_concat` exposes the per-packet update/reset gate
    values that become the inter-packet context part of the context profile.

    ``parameters`` builds the model around loaded arrays instead of
    initialising it from ``seed`` (see :meth:`from_state_dict`).

    The class is also the reference :class:`repro.nn.backend.SequenceBackend`
    implementation (``backend_name``/``trainable`` below are the protocol's
    identity attributes; :class:`repro.nn.backend.GruBackend` is its
    registered alias).
    """

    backend_name = "gru"
    trainable = True
    #: Backend to train when this one is inference-only (protocol hook; the
    #: reference implementation trains itself).
    training_backend: str | None = None

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_classes: int,
        *,
        seed: int = 0,
        learning_rate: float = 0.003,
        gradient_clip: float = 5.0,
        parameters: Parameters | None = None,
    ) -> None:
        rng = np.random.default_rng(seed) if parameters is None else None
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_classes = num_classes
        self.gradient_clip = gradient_clip
        self.gru = GRULayer(input_size, hidden_size, prefix="gru/", rng=rng, parameters=parameters)
        self.head = Dense(
            hidden_size,
            num_classes,
            activation="identity",
            prefix="head/",
            rng=rng,
            parameters=parameters,
        )
        self.loss = SoftmaxCrossEntropy()
        self.optimizer: Optimizer = Adam(learning_rate=learning_rate)
        self.parameters: Parameters = {}
        self.parameters.update(self.gru.parameters)
        self.parameters.update(self.head.parameters)
        # Keep the sub-modules viewing the same arrays as ``self.parameters``.
        self.gru.parameters = self.parameters
        self.head.parameters = self.parameters

    # ------------------------------------------------------------ compute mode
    @property
    def compute_dtype(self) -> np.dtype:
        """The inference compute dtype of the gate loop."""
        return self.gru.compute_dtype

    def set_compute_dtype(self, dtype) -> None:
        """Select the inference compute dtype (see :meth:`GRULayer.set_compute_dtype`)."""
        self.gru.set_compute_dtype(dtype)

    # ----------------------------------------------------------------- forward
    def forward(
        self, inputs: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, GruForwardResult]:
        """Return per-step logits (batch, time, classes) and the GRU result."""
        result = self.gru.forward(inputs, mask)
        logits = self.head.forward(result.hidden_states)
        return logits, result

    def predict_classes(self, inputs: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Arg-max class prediction per step."""
        logits, _ = self.forward(inputs, mask)
        return np.argmax(logits, axis=-1)

    def gate_activations_concat(
        self, sequences: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Update/reset gate activations for a batch of variable-length sequences.

        ``sequences`` is a list of (time_i, input_size) arrays.  Returns
        ``(update, reset, bounds)``: both gate matrices have shape
        ``(sum(time_i), hidden_size)`` and sequence ``i`` owns rows
        ``bounds[i]:bounds[i + 1]`` — the hand-off layout of the batched
        profile builder.

        Non-empty sequences are ordered by length (stable) and run in chunks
        of at most :data:`GATE_CHUNK_SIZE`, each zero-padded to its longest
        member and passed through :meth:`GRULayer.gates_packed` — one
        (alive-lanes, hidden) x (hidden, 3*hidden) product per time step
        instead of one tiny forward per sequence.  Chunking bounds the
        padding waste of mixing long and short connections.
        """
        lengths = np.array([len(sequence) for sequence in sequences], dtype=np.int64)
        bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        concat_update = np.empty((int(bounds[-1]), self.hidden_size), dtype=np.float64)
        concat_reset = np.empty((int(bounds[-1]), self.hidden_size), dtype=np.float64)
        nonempty = np.flatnonzero(lengths > 0)
        order = nonempty[np.argsort(lengths[nonempty], kind="stable")]
        for first in range(0, order.size, GATE_CHUNK_SIZE):
            chosen = order[first : first + GATE_CHUNK_SIZE]
            chunk_lengths = lengths[chosen]
            # Padded in the compute dtype so gates_packed never re-casts.
            inputs = np.zeros(
                (chosen.size, int(chunk_lengths[-1]), self.input_size),
                dtype=self.compute_dtype,
            )
            for row, index in enumerate(chosen):
                inputs[row, : chunk_lengths[row]] = sequences[index]
            update_gates, reset_gates = self.gru.gates_packed(inputs, chunk_lengths)
            for row, index in enumerate(chosen):
                rows = slice(bounds[index], bounds[index + 1])
                concat_update[rows] = update_gates[row, : chunk_lengths[row]]
                concat_reset[rows] = reset_gates[row, : chunk_lengths[row]]
        return concat_update, concat_reset, bounds

    # ---------------------------------------------------------------- training
    def train_batch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        """One optimiser step on a padded batch; returns the masked mean loss."""
        logits, result = self.forward(inputs, mask)
        loss_value, probabilities = self.loss.forward(logits, targets, mask)
        grad_logits = self.loss.backward(probabilities, targets, mask)
        gradients: Parameters = {}
        grad_hidden = self.head.backward(grad_logits, gradients)
        self.gru.backward(grad_hidden, result.caches, gradients)
        Optimizer.clip_gradients(gradients, self.gradient_clip)
        self.optimizer.step(self.parameters, gradients)
        self.gru.invalidate_compute_cache()
        return loss_value

    def accuracy(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        """Masked per-step classification accuracy."""
        predictions = self.predict_classes(inputs, mask)
        correct = (predictions == targets).astype(np.float64)
        if mask is not None:
            total = max(float(mask.sum()), 1.0)
            return float((correct * mask).sum() / total)
        return float(correct.mean())

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {key: value.copy() for key, value in self.parameters.items()}
        state["meta/input_size"] = np.array([self.input_size], dtype=np.int64)
        state["meta/hidden_size"] = np.array([self.hidden_size], dtype=np.int64)
        state["meta/num_classes"] = np.array([self.num_classes], dtype=np.int64)
        state["meta/backend"] = encode_backend_name(self.backend_name)
        return state

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "GRUSequenceClassifier":
        """Rebuild a model around the arrays of ``state`` (no copies, no
        random draws).  Read-only memory-mapped weights stay mapped — every
        consumer reads through the shared parameter dict — so such a model
        is inference-only: ``fit`` would write the weights."""
        return cls(
            input_size=int(state["meta/input_size"][0]),
            hidden_size=int(state["meta/hidden_size"][0]),
            num_classes=int(state["meta/num_classes"][0]),
            parameters=state,
        )
