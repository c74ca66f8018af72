"""Supervision accounting: the failure policies and what a stream lost.

The process runtime implements ``--on-worker-failure {fail,respawn,degrade}``
and records every lost worker incarnation here:
:class:`InstanceLossRecord` / :class:`DegradationReport` are the honest
accounting of what was lost — every record carries the identity
``packets_routed = packets_scored + packets_lost_inflight`` for the lost
incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DegradationReport",
    "FailurePolicy",
    "InstanceLossRecord",
]

#: Valid values for ``--on-worker-failure`` / ``on_worker_failure``.
FailurePolicy = ("fail", "respawn", "degrade")


@dataclass(frozen=True)
class InstanceLossRecord:
    """One lost worker incarnation, with its packet accounting."""

    index: int
    kind: str  # "worker"
    reason: str
    policy: str  # the policy that handled the loss
    packets_routed: int
    packets_scored: int

    @property
    def packets_lost_inflight(self) -> int:
        return self.packets_routed - self.packets_scored

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "reason": self.reason,
            "policy": self.policy,
            "packets_routed": self.packets_routed,
            "packets_scored": self.packets_scored,
            "packets_lost_inflight": self.packets_lost_inflight,
        }


@dataclass
class DegradationReport:
    """What the stream lost: every loss attributed, identity preserved.

    ``close()`` returns one of these instead of raising after a mid-stream
    fault; it is empty (``bool() == False``) for an unfaulted run.
    """

    losses: list = field(default_factory=list)
    respawns: int = 0
    teardown_errors: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.losses or self.respawns or self.teardown_errors)

    @property
    def packets_lost_inflight(self) -> int:
        return sum(loss.packets_lost_inflight for loss in self.losses)

    def to_dict(self) -> dict:
        return {
            "losses": [loss.to_dict() for loss in self.losses],
            "respawns": self.respawns,
            "packets_lost_inflight": self.packets_lost_inflight,
            "teardown_errors": list(self.teardown_errors),
        }
