"""Pluggable sequence backends for the Stage-(a) gate-activation model.

CLAP's detection signal is the per-packet update/reset gate activations of a
recurrent state classifier (Zhu et al., CoNEXT 2020) — but nothing in stages
(b)-(d) cares *how* those activations are produced.  :class:`SequenceBackend`
captures the contract: given per-packet feature sequences, return per-packet
``(update, reset)`` activations, plus persistence and training hooks so the
pipeline can train, save and reload any implementation interchangeably.

Implementations register under a ``backend_name`` that is recorded both in
the model state (``rnn/meta/backend``) and in ``manifest.json``
(``sequence_backend``, artifact schema version 2), so a persisted model
reconstructs the backend it was saved with — including in process-mode
shard workers started without ``fork``, which rebuild the pipeline from the
artifact directory alone via ``Clap.load(..., mmap_mode="r")``.

Shipped backends:

``gru``
    :class:`GruBackend`, the reference implementation — the float64
    packed-inference GRU (:class:`repro.nn.gru.GRUSequenceClassifier`).
``gru-f32``
    A *serving variant* of ``gru``: identical float64 master weights, gate
    loop computed in float32 (cast once at conversion).  Not a persisted
    identity — saving writes ``gru``.
``quantized-gru``
    :class:`QuantizedGruBackend`: int8 weight-quantized GRU (symmetric
    per-gate scales, float32 accumulation), inference-only.  Opt-in; gated by
    the equivalence tolerances in :mod:`repro.core.equivalence`.

Adding a backend: subclass (or duck-type) the protocol, set a unique
``backend_name``, call :func:`register_backend`, and make
``state_dict``/``from_state_dict`` round-trip — everything else (pipeline,
CLI ``--backend``, manifest, process workers) composes automatically.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.nn.gru import GRUSequenceClassifier, decode_backend_name, encode_backend_name

__all__ = [
    "SequenceBackend",
    "GruBackend",
    "QuantizedGruBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "serving_backends",
    "backend_from_state_dict",
    "backend_name_from_state",
    "convert_backend",
    "serving_backend_name",
    "quantize_per_gate",
    "dequantize_per_gate",
]


@runtime_checkable
class SequenceBackend(Protocol):
    """What stages (b)-(d) require of a gate-activation model.

    ``gate_activations_concat(sequences)`` returns ``(update, reset,
    bounds)``: the gates of every ``(time_i, input)`` sequence stacked into
    two ``(sum(time_i), hidden)`` matrices, sequence ``i`` owning rows
    ``bounds[i]:bounds[i + 1]``.  ``train_batch`` is the training hook
    (inference-only backends raise and point at ``training_backend``, the
    name of the backend to train instead).
    """

    backend_name: str
    trainable: bool
    training_backend: str | None
    input_size: int
    hidden_size: int

    def gate_activations_concat(
        self, sequences: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def train_batch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float: ...

    def state_dict(self) -> dict[str, np.ndarray]: ...

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "SequenceBackend": ...


_BACKENDS: dict[str, Type] = {}


def register_backend(cls):
    """Class decorator: register ``cls`` under its ``backend_name``."""
    name = getattr(cls, "backend_name", None)
    if not name:
        raise ValueError(f"{cls.__name__} must define a non-empty backend_name")
    _BACKENDS[name] = cls
    return cls


def get_backend(name: str) -> Type:
    """The registered backend class for ``name`` (raises ``KeyError``)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown sequence backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def available_backends() -> list[str]:
    """Registered (persistable) backend names, sorted: what ``train --backend`` accepts."""
    return sorted(_BACKENDS)


def serving_backends() -> list[str]:
    """Backend names ``--backend`` accepts at serving time (adds ``gru-f32``)."""
    return sorted(set(_BACKENDS) | {"gru-f32"})


@register_backend
class GruBackend(GRUSequenceClassifier):
    """The reference :class:`SequenceBackend`: the packed-loop GRU.

    Identical to :class:`~repro.nn.gru.GRUSequenceClassifier` (it *is* one);
    the subclass exists so the registry has a canonical entry and so
    conversions always produce instances that carry the backend identity.
    """


@register_backend
class QuantizedGruBackend(GruBackend):
    """Int8 weight-quantized GRU backend (inference-only, explicit opt-in).

    The input and recurrent weight matrices are stored as int8 with one
    symmetric scale per gate block (update/reset/candidate — 3 scales per
    matrix); biases and the classifier head stay full-precision.  At load the
    int8 blocks are dequantized once and the inference gate loop runs in
    float32 (float accumulation — no integer arithmetic at serving time, the
    int8 payload is the persistence/memory format).

    The master parameter arrays hold the float64 image of the dequantized
    float32 weights, so ``predict_classes`` and the float32 gate loop see
    exactly the same (quantized) weights.  ``train_batch`` raises: train a
    ``gru`` backend and convert (``training_backend`` points there).
    """

    backend_name = "quantized-gru"
    trainable = False
    training_backend = "gru"

    #: Parameter keys that are quantized (per-gate, along the column axis).
    QUANTIZED_KEYS = ("gru/W", "gru/U")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._quantized: dict[str, np.ndarray] = {}
        self.set_compute_dtype("float32")

    # ------------------------------------------------------------- conversion
    @classmethod
    def quantize(cls, source: GRUSequenceClassifier) -> "QuantizedGruBackend":
        """Post-training quantization of a (trained) float GRU backend."""
        payload: dict[str, np.ndarray] = {}
        for key in cls.QUANTIZED_KEYS:
            values, scales = quantize_per_gate(source.parameters[key], source.hidden_size)
            payload[f"quant/{key}"] = values
            payload[f"quant/{key}/scale"] = scales
        for key in source.parameters:
            if key not in cls.QUANTIZED_KEYS:
                payload[key] = np.asarray(source.parameters[key]).copy()
        return cls._from_payload(
            payload, source.input_size, source.hidden_size, source.num_classes
        )

    def dequantize(self) -> GruBackend:
        """The float GRU backend serving these (quantized) weights in float64."""
        return GruBackend(
            self.input_size,
            self.hidden_size,
            self.num_classes,
            parameters={
                key: np.array(value, dtype=value.dtype) for key, value in self.parameters.items()
            },
        )

    @classmethod
    def _from_payload(
        cls, payload: dict[str, np.ndarray], input_size: int, hidden_size: int, num_classes: int
    ) -> "QuantizedGruBackend":
        """A model around a quantized payload: the quantized blocks are
        dequantized into fresh master params, the rest is adopted as is.
        Read-only mmap int8 payloads stay mapped (page-cache-shared across
        processes)."""
        parameters = dict(payload)
        for key in cls.QUANTIZED_KEYS:
            parameters[key] = dequantize_per_gate(
                payload[f"quant/{key}"], payload[f"quant/{key}/scale"], hidden_size
            ).astype(np.float64)
        model = cls(input_size, hidden_size, num_classes, parameters=parameters)
        model._quantized = payload
        return model

    # --------------------------------------------------------------- training
    def train_batch(self, inputs, targets, mask=None) -> float:
        raise RuntimeError(
            "QuantizedGruBackend is inference-only: train the 'gru' backend and "
            "convert with convert_backend(model, 'quantized-gru')"
        )

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        if not self._quantized:
            raise RuntimeError("QuantizedGruBackend has no quantized payload to persist")
        state = {
            key: np.asarray(value).copy() for key, value in self._quantized.items()
        }
        state["meta/input_size"] = np.array([self.input_size], dtype=np.int64)
        state["meta/hidden_size"] = np.array([self.hidden_size], dtype=np.int64)
        state["meta/num_classes"] = np.array([self.num_classes], dtype=np.int64)
        state["meta/backend"] = encode_backend_name(self.backend_name)
        return state

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "QuantizedGruBackend":
        payload = {key: value for key, value in state.items() if not key.startswith("meta/")}
        return cls._from_payload(
            payload,
            int(state["meta/input_size"][0]),
            int(state["meta/hidden_size"][0]),
            int(state["meta/num_classes"][0]),
        )


# ---------------------------------------------------------------------------
# Quantization primitives
# ---------------------------------------------------------------------------


def quantize_per_gate(weights: np.ndarray, hidden_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 quantization with one scale per gate block.

    ``weights`` has shape ``(rows, 3 * hidden_size)`` — the concatenated
    update/reset/candidate blocks.  Each block is quantized to
    ``round(w / scale)`` with ``scale = max|w| / 127`` (so the representable
    range is symmetric and zero maps to exactly zero).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[1] != 3 * hidden_size:
        raise ValueError(
            f"expected a (rows, {3 * hidden_size}) gate-concatenated matrix, "
            f"got {weights.shape}"
        )
    values = np.empty(weights.shape, dtype=np.int8)
    scales = np.empty(3, dtype=np.float64)
    for gate in range(3):
        block = weights[:, gate * hidden_size : (gate + 1) * hidden_size]
        peak = float(np.max(np.abs(block)))
        scale = peak / 127.0 if peak > 0.0 else 1.0
        scales[gate] = scale
        quantized = np.clip(np.rint(block / scale), -127, 127)
        values[:, gate * hidden_size : (gate + 1) * hidden_size] = quantized.astype(np.int8)
    return values, scales


def dequantize_per_gate(
    values: np.ndarray, scales: np.ndarray, hidden_size: int
) -> np.ndarray:
    """Inverse of :func:`quantize_per_gate`, in float32 (the compute dtype)."""
    values = np.asarray(values)
    result = np.empty(values.shape, dtype=np.float32)
    for gate in range(3):
        block = slice(gate * hidden_size, (gate + 1) * hidden_size)
        result[:, block] = values[:, block].astype(np.float32) * np.float32(scales[gate])
    return result


# ---------------------------------------------------------------------------
# Dispatch and conversion
# ---------------------------------------------------------------------------


def backend_name_from_state(state: dict[str, np.ndarray]) -> str:
    """The backend identity recorded in a model state (legacy states: gru)."""
    return decode_backend_name(state.get("meta/backend"))


def backend_from_state_dict(state: dict[str, np.ndarray]):
    """Reconstruct the backend a state dict was saved from (registry dispatch)."""
    return get_backend(backend_name_from_state(state)).from_state_dict(state)


def serving_backend_name(model) -> str:
    """The effective serving identity, distinguishing the float32 variant."""
    name = getattr(model, "backend_name", "gru")
    if name == "gru" and getattr(model, "compute_dtype", np.float64) == np.float32:
        return "gru-f32"
    return name


def convert_backend(model, name: str):
    """A new backend instance serving ``name`` from a fitted ``model``.

    Never mutates ``model``.  ``gru`` / ``gru-f32`` from a quantized source
    serve the *dequantized* weights (int8 information is all that survived
    quantization); ``quantized-gru`` from a quantized source round-trips the
    existing payload unchanged.
    """
    if name == "quantized-gru":
        if isinstance(model, QuantizedGruBackend):
            return QuantizedGruBackend.from_state_dict(model.state_dict())
        return QuantizedGruBackend.quantize(model)
    if name in ("gru", "gru-f32"):
        if isinstance(model, QuantizedGruBackend):
            converted = model.dequantize()
        else:
            converted = GruBackend.from_state_dict(model.state_dict())
        if name == "gru-f32":
            converted.set_compute_dtype("float32")
        return converted
    raise KeyError(
        f"unknown serving backend {name!r}; available: {', '.join(serving_backends())}"
    )
