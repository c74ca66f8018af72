"""Test oracle for the serving gate loop: the masked training forward.

``GRUSequenceClassifier.gate_activations_concat`` sorts, chunks and runs the
alive-suffix loop of ``GRULayer.gates_packed``.  The oracle shares none of
that: it pads every sequence into one batch and runs ``GRULayer.forward``
with a step mask, the path training uses, in float64.
"""

from __future__ import annotations

import numpy as np


def masked_forward_gates(model, sequences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(update, reset, bounds)`` laid out like ``gate_activations_concat``."""
    lengths = [len(sequence) for sequence in sequences]
    width = max(lengths, default=0)
    inputs = np.zeros((len(sequences), width, model.input_size), dtype=np.float64)
    mask = np.zeros((len(sequences), width), dtype=np.float64)
    for row, sequence in enumerate(sequences):
        inputs[row, : lengths[row]] = sequence
        mask[row, : lengths[row]] = 1.0
    result = model.gru.forward(inputs, mask, need_caches=False)
    update = [result.update_gates[row, :length] for row, length in enumerate(lengths)]
    reset = [result.reset_gates[row, :length] for row, length in enumerate(lengths)]
    empty = np.zeros((0, model.hidden_size), dtype=np.float64)
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return np.concatenate(update or [empty]), np.concatenate(reset or [empty]), bounds
