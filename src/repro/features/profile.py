"""Context-profile construction and stacking (Stage (b) of CLAP).

A *context profile* fuses, for each packet:

* the scaled raw header features (#1-#32),
* the amplification features (#33-#51), and
* the GRU update/reset gate activations for that packet (#52-#115),

giving a 115-dimensional vector (Equation 2 of the paper).  Profiles of
``stack_length`` consecutive packets are then concatenated in a sliding window
to form *stacked profiles* (345 dimensions for the default stack of 3), which
are what the Stage-(c) autoencoder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.features.amplification import AmplificationFeatureExtractor, FeatureRanges
from repro.features.fields import RawFeatureExtractor
from repro.features.scaling import FeatureScaler
from repro.netstack.flow import Connection
from repro.nn.gru import GRUSequenceClassifier


@dataclass
class ConnectionProfiles:
    """All per-packet artefacts of one connection."""

    raw_features: np.ndarray  # (n, 32), unscaled
    scaled_features: np.ndarray  # (n, 32)
    amplification: np.ndarray  # (n, 19)
    update_gates: np.ndarray  # (n, hidden)
    reset_gates: np.ndarray  # (n, hidden)
    profiles: np.ndarray  # (n, 115)

    def __len__(self) -> int:
        return self.profiles.shape[0]


def stacked_window_count(packet_count: int, stack_length: int) -> int:
    """Number of stacked-profile windows a connection of ``packet_count`` yields."""
    if stack_length < 1:
        raise ValueError(f"stack_length must be >= 1, got {stack_length}")
    if packet_count == 0:
        return 0
    return max(packet_count - stack_length + 1, 1)


def stack_profiles(
    profiles: np.ndarray, stack_length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Concatenate consecutive profiles in a sliding window.

    For ``n`` profiles and a stack of ``t`` the result has shape
    ``(max(n - t + 1, 1), t * width)``; connections shorter than the stack are
    zero-padded on the right so that even 1-2 packet connections produce one
    stacked profile.

    ``out``, when given, must be a zero-initialised C-contiguous array of the
    result shape; the windows are written into it directly (the batched
    profile builder passes slices of one preallocated matrix to avoid a
    temporary per connection).
    """
    if stack_length < 1:
        raise ValueError(f"stack_length must be >= 1, got {stack_length}")
    count, width = profiles.shape
    windows = stacked_window_count(count, stack_length)
    if out is None:
        out = np.zeros((windows, stack_length * width), dtype=np.float64)
    elif out.shape != (windows, stack_length * width):
        raise ValueError(f"out has shape {out.shape}, expected {(windows, stack_length * width)}")
    if count == 0:
        return out
    if count < stack_length:
        out[0].reshape(stack_length, width)[:count] = profiles
        return out
    # Window w concatenates profiles[w : w + stack]; one shifted block copy
    # per stack position fills every window without a per-window loop (and
    # without the sliding_window_view + transpose machinery, whose setup cost
    # dominates on the small per-connection matrices the streaming path
    # stacks).
    blocks = out.reshape(windows, stack_length, width)
    for position in range(stack_length):
        blocks[:, position, :] = profiles[position : position + windows]
    return out


def window_to_packet_indices(window_index: int, stack_length: int, packet_count: int) -> list[int]:
    """Packet indices covered by stacked-profile window ``window_index``."""
    last = min(window_index + stack_length, packet_count)
    return list(range(window_index, last))


@dataclass
class StackedProfileBatch:
    """Stacked profiles of many connections in one contiguous matrix.

    ``matrix`` concatenates every connection's stacked-profile windows in
    input order; connection ``i`` owns rows
    ``matrix[offsets[i] : offsets[i + 1]]``.  This is the hand-off format of
    the batched inference engine: one autoencoder call scores the whole
    matrix, and the offsets split the per-window errors back per connection.
    """

    matrix: np.ndarray  # (total_windows, stacked_profile_size)
    offsets: np.ndarray  # (n_connections + 1,), int64
    packet_counts: np.ndarray  # (n_connections,), int64

    def __len__(self) -> int:
        return self.packet_counts.shape[0]

    def segment(self, index: int) -> np.ndarray:
        """The stacked-profile rows of connection ``index`` (a view)."""
        return self.matrix[self.offsets[index] : self.offsets[index + 1]]


class ContextProfileBuilder:
    """Build (stacked) context profiles for connections.

    The builder owns the fitted scaler, the benign feature ranges and a
    reference to the trained Stage-(a) RNN, i.e. everything needed to map a
    connection to the autoencoder's input space.  Setting
    ``include_gate_weights=False`` and ``stack_length=1`` reproduces
    Baseline #1 (the context-agnostic variant).
    """

    def __init__(
        self,
        rnn: GRUSequenceClassifier | None,
        scaler: FeatureScaler,
        ranges: FeatureRanges,
        *,
        stack_length: int = 3,
        include_gate_weights: bool = True,
        include_amplification: bool = True,
    ) -> None:
        if include_gate_weights and rnn is None:
            raise ValueError("a trained RNN is required when gate weights are included")
        self.rnn = rnn
        self.scaler = scaler
        self.ranges = ranges
        self.stack_length = stack_length
        self.include_gate_weights = include_gate_weights
        self.include_amplification = include_amplification
        self.raw_extractor = RawFeatureExtractor()
        self.amplification_extractor = AmplificationFeatureExtractor(ranges)

    # -------------------------------------------------------------- dimensions
    @property
    def profile_size(self) -> int:
        """Width of a single-packet context profile."""
        size = self.scaler.minimums.shape[0]
        if self.include_amplification:
            size += self.amplification_extractor.feature_count
        if self.include_gate_weights and self.rnn is not None:
            size += 2 * self.rnn.hidden_size
        return size

    @property
    def stacked_profile_size(self) -> int:
        """Width of a stacked profile (the autoencoder input size)."""
        return self.profile_size * self.stack_length

    # -------------------------------------------------------------- profiles
    def connection_profiles(self, connection: Connection) -> ConnectionProfiles:
        """Per-packet context profiles for one connection."""
        raw = self.raw_extractor.extract_connection(connection)
        scaled = self.scaler.transform(raw)
        amplification = self.amplification_extractor.extract(raw)
        parts = [scaled]
        if self.include_amplification:
            parts.append(amplification)
        if self.include_gate_weights and self.rnn is not None and raw.shape[0] > 0:
            update_gates, reset_gates, _ = self.rnn.gate_activations_concat([scaled])
            parts.extend([update_gates, reset_gates])
        else:
            hidden = self.rnn.hidden_size if self.rnn is not None else 0
            update_gates = np.zeros((raw.shape[0], hidden))
            reset_gates = np.zeros((raw.shape[0], hidden))
            if self.include_gate_weights and self.rnn is not None:
                parts.extend([update_gates, reset_gates])
        profiles = np.hstack(parts) if raw.shape[0] > 0 else np.zeros((0, self.profile_size))
        return ConnectionProfiles(
            raw_features=raw,
            scaled_features=scaled,
            amplification=amplification,
            update_gates=update_gates,
            reset_gates=reset_gates,
            profiles=profiles,
        )

    def stacked_profiles(self, connection: Connection) -> np.ndarray:
        """Sliding-window stacked profiles for one connection."""
        profiles = self.connection_profiles(connection).profiles
        return stack_profiles(profiles, self.stack_length)

    # ------------------------------------------------------------- batch path
    def batch_connection_profiles(self, connections: Sequence[Connection]) -> list[ConnectionProfiles]:
        """Per-packet context profiles for many connections at once.

        Raw features are extracted per connection (packet parsing is
        inherently sequential), but everything downstream is vectorized:
        scaling and amplification run once over the concatenated packet
        matrix, and the GRU gate activations come from padded-batch forward
        passes instead of one tiny forward per connection.  The returned
        :class:`ConnectionProfiles` hold views into the shared matrices and
        match :meth:`connection_profiles` output per connection.
        """
        raws = self.raw_extractor.extract_packet_trains(
            [connection.packets for connection in connections]
        )
        counts = np.array([raw.shape[0] for raw in raws], dtype=np.int64)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        raw_width = self.scaler.minimums.shape[0]
        concat_raw = (
            np.concatenate([raw for raw in raws if raw.shape[0] > 0], axis=0)
            if bounds[-1] > 0
            else np.zeros((0, raw_width), dtype=np.float64)
        )
        concat_scaled = self.scaler.transform(concat_raw)
        concat_amplification = self.amplification_extractor.extract(concat_raw)

        hidden = self.rnn.hidden_size if self.rnn is not None else 0
        use_gates = self.include_gate_weights and self.rnn is not None
        if use_gates:
            # Gates land directly in one (total_packets, hidden) matrix per
            # gate, in the same row layout as concat_scaled.
            scaled_arrays = [
                concat_scaled[bounds[index] : bounds[index + 1]]
                for index in range(len(connections))
            ]
            concat_update, concat_reset, _ = self.rnn.gate_activations_concat(scaled_arrays)
            gate_pairs = [
                (
                    concat_update[bounds[index] : bounds[index + 1]],
                    concat_reset[bounds[index] : bounds[index + 1]],
                )
                for index in range(len(connections))
            ]
        else:
            gate_pairs = [
                (np.zeros((count, hidden)), np.zeros((count, hidden)))
                for count in counts
            ]

        parts = [concat_scaled]
        if self.include_amplification:
            parts.append(concat_amplification)
        if use_gates:
            parts.extend([concat_update, concat_reset])
        concat_profiles = (
            np.hstack(parts)
            if bounds[-1] > 0
            else np.zeros((0, self.profile_size), dtype=np.float64)
        )

        results: list[ConnectionProfiles] = []
        for index in range(len(connections)):
            start, stop = bounds[index], bounds[index + 1]
            results.append(
                ConnectionProfiles(
                    raw_features=raws[index],
                    scaled_features=concat_scaled[start:stop],
                    amplification=concat_amplification[start:stop],
                    update_gates=gate_pairs[index][0],
                    reset_gates=gate_pairs[index][1],
                    profiles=concat_profiles[start:stop],
                )
            )
        return results

    def batch_stacked_profiles(self, connections: Sequence[Connection]) -> StackedProfileBatch:
        """Stacked profiles of many connections as one matrix plus offsets.

        The result feeds a single autoencoder call for the whole batch; see
        :class:`StackedProfileBatch` for the layout contract.
        """
        profile_sets = self.batch_connection_profiles(connections)
        stack_length = self.stack_length
        packet_counts = np.array([len(profiles) for profiles in profile_sets], dtype=np.int64)
        window_counts = np.array(
            [stacked_window_count(int(count), stack_length) for count in packet_counts],
            dtype=np.int64,
        )
        offsets = np.concatenate([[0], np.cumsum(window_counts)]).astype(np.int64)
        matrix = np.zeros((int(offsets[-1]), self.stacked_profile_size), dtype=np.float64)
        for index, profiles in enumerate(profile_sets):
            if window_counts[index] > 0:
                stack_profiles(
                    profiles.profiles,
                    stack_length,
                    out=matrix[int(offsets[index]) : int(offsets[index + 1])],
                )
        return StackedProfileBatch(matrix=matrix, offsets=offsets, packet_counts=packet_counts)

    def training_matrix(self, connections: Sequence[Connection]) -> np.ndarray:
        """Stacked profiles of many connections, vertically concatenated."""
        return self.batch_stacked_profiles(connections).matrix
