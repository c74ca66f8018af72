"""The Stage-(a) sequence backend: one GRU, served in two precisions.

CLAP's detection signal is the per-packet update/reset gate activations of a
recurrent state classifier (Zhu et al., CoNEXT 2020) — but nothing in stages
(b)-(d) cares *how* those activations are produced.  :class:`SequenceBackend`
declares the contract: given per-packet feature sequences, return per-packet
``(update, reset)`` activations, plus the training and persistence hooks.

:class:`repro.nn.gru.GRUSequenceClassifier` is its implementation, served
under two names (:data:`SERVING_BACKENDS`):

``gru``
    The float64 packed-inference GRU, bit-identical to the training
    forward: the correctness oracle.  The only persisted identity: it is
    recorded in the model state (``rnn/meta/backend``) and in
    ``manifest.json`` (``sequence_backend``, artifact schema version 2).
``gru-f32``
    The same float64 master weights with the gate loop computed in float32
    (cast once at conversion), gated by the tolerance in
    :mod:`repro.core.equivalence`.  Saving writes ``gru``; the training
    config records the override and ``Clap.load`` re-applies it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.nn.gru import GRUSequenceClassifier

__all__ = [
    "SERVING_BACKENDS",
    "SequenceBackend",
    "convert_backend",
    "serving_backend_name",
]

#: Backend names ``--backend`` accepts at serving time; ``gru`` (the
#: reference) comes first.
SERVING_BACKENDS = ("gru", "gru-f32")


@runtime_checkable
class SequenceBackend(Protocol):
    """What stages (b)-(d) require of a gate-activation model.

    ``gate_activations_concat(sequences)`` returns ``(update, reset,
    bounds)``: the gates of every ``(time_i, input)`` sequence stacked into
    two ``(sum(time_i), hidden)`` matrices, sequence ``i`` owning rows
    ``bounds[i]:bounds[i + 1]``.  ``train_batch`` is the training hook.
    """

    backend_name: str
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


def serving_backend_name(model: GRUSequenceClassifier) -> str:
    """The serving identity of ``model``: ``gru-f32`` when its gate loop
    computes in float32, else ``gru``."""
    return "gru-f32" if model.compute_dtype == np.float32 else "gru"


def convert_backend(model: GRUSequenceClassifier, name: str) -> GRUSequenceClassifier:
    """A new model serving ``model``'s weights as backend ``name``.

    Never mutates ``model``: the new model owns a copy of its weights.
    """
    if name not in SERVING_BACKENDS:
        raise KeyError(
            f"unknown serving backend {name!r}; available: {', '.join(SERVING_BACKENDS)}"
        )
    converted = GRUSequenceClassifier.from_state_dict(model.state_dict())
    if name == "gru-f32":
        converted.set_compute_dtype("float32")
    return converted
