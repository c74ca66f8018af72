"""The unified Stage-(d) result type returned by the detection API.

Historically every entry point returned a different shape — ``score_connections``
a float array, ``verdict_batch`` a list of :class:`ConnectionVerdict` (which
drags the full per-window error array along), ``localize_batch`` nested lists of
packet indices.  :class:`DetectionResult` unifies them: one small, frozen,
JSON-friendly record per connection that carries everything a deployment needs
to act on (score, decision, localisation, identity), and nothing it does not.

``Clap.detect`` / ``Clap.detect_batch`` return these directly; the streaming
subsystem (:mod:`repro.serve`) wraps them in :class:`~repro.serve.DetectionEvent`
envelopes, and the CLI serialises them as JSON/NDJSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netstack.flow import FlowKey


@dataclass(frozen=True)
class DetectionResult:
    """Everything the detection API reports about one scored connection.

    Attributes
    ----------
    key:
        Canonical bidirectional 5-tuple of the connection (``None`` when the
        caller scored a connection that was never given a key).
    score:
        The localize-and-estimate adversarial score (higher = more suspicious).
    threshold:
        The decision threshold the verdict was taken against.
    is_adversarial:
        ``score > threshold``.
    localized_window:
        Index of the stacked-profile window with the maximum reconstruction
        error (-1 when the connection produced no windows).
    localized_packets:
        Packet indices implied by the highest-error windows, most suspicious
        first (empty when nothing could be localised).
    packet_count:
        Number of packets in the scored connection.
    """

    key: FlowKey | None
    score: float
    threshold: float
    is_adversarial: bool
    localized_window: int
    localized_packets: tuple[int, ...]
    packet_count: int

    @property
    def localized_packet(self) -> int:
        """The single most suspicious packet index (-1 when unavailable)."""
        return self.localized_packets[0] if self.localized_packets else -1

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable rendering (used by ``score --json`` / ``stream``)."""
        return {
            "connection": str(self.key) if self.key is not None else None,
            "score": self.score,
            "threshold": self.threshold,
            "adversarial": self.is_adversarial,
            "localized_window": self.localized_window,
            "localized_packets": list(self.localized_packets),
            "packet_count": self.packet_count,
        }
