"""Typed events emitted by the streaming detection API.

Every connection that completes inside a :class:`~repro.serve.StreamingDetector`
is scored and wrapped in a :class:`DetectionEvent` envelope — the unified
:class:`~repro.core.results.DetectionResult` plus the streaming context (why
the flow table considered the connection complete, when it was first/last
seen).  Connections whose score exceeds the operating threshold are emitted as
the :class:`Alert` subtype, so callers can dispatch on the event class or on
:attr:`DetectionEvent.is_alert` interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import DetectionResult
from repro.netstack.flow import CompletionReason


@dataclass(frozen=True)
class DetectionEvent:
    """One scored, completed connection from the packet stream."""

    result: DetectionResult
    completed_by: CompletionReason
    first_seen: float
    last_seen: float

    @property
    def is_alert(self) -> bool:
        return self.result.is_adversarial

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable rendering (one NDJSON line in the CLI)."""
        payload = {"event": "alert" if self.is_alert else "detection"}
        payload.update(self.result.to_dict())
        payload["completed_by"] = self.completed_by.value
        payload["first_seen"] = self.first_seen
        payload["last_seen"] = self.last_seen
        return payload


@dataclass(frozen=True)
class Alert(DetectionEvent):
    """A :class:`DetectionEvent` whose connection exceeded the threshold."""


def make_event(
    result: DetectionResult,
    completed_by: CompletionReason,
    first_seen: float,
    last_seen: float,
) -> DetectionEvent:
    """Build the right event subtype for ``result``."""
    cls = Alert if result.is_adversarial else DetectionEvent
    return cls(
        result=result,
        completed_by=completed_by,
        first_seen=first_seen,
        last_seen=last_seen,
    )
