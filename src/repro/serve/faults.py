"""Deterministic fault injection for the process runtime.

A :class:`FaultPlan` is a passive schedule of shard-worker faults that
:class:`~repro.serve.runtime.ParallelStreamingDetector` consults after every
ingested packet through ``packet_routed(count)``: it returns the faults
(``kill-worker``, ``wedge-worker``) whose trigger packet has been reached,
and the runtime applies them (SIGKILL, wedge control message) because only
it knows the pid / queue for a given index.

Faults fire at fixed packet counts, so a plan replays identically; the plan
keeps a ``fired`` log so tests can assert exactly which faults triggered.  A
plan never crosses a process boundary — it lives in the parent process and
acts on the workers from the outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FaultPlan", "FaultSpecError", "parse_fault_specs"]

#: The fault kinds a plan can schedule.
_KINDS = ("kill-worker", "wedge-worker")


class FaultSpecError(ValueError):
    """A ``--inject-fault`` spec string could not be parsed."""


@dataclass(frozen=True)
class _ProcessFault:
    """A fault that targets one shard worker process."""

    kind: str  # "kill-worker" | "wedge-worker"
    index: int
    at_packet: int


@dataclass
class FaultPlan:
    """A deterministic schedule of injected worker faults.

    Build one with the fluent methods (each returns ``self``)::

        plan = FaultPlan().kill_worker(0, at_packet=40)

    or parse CLI specs with :func:`parse_fault_specs`.
    """

    _process_faults: list = field(default_factory=list)
    fired: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._packets = 0

    def kill_worker(self, index: int, at_packet: int) -> FaultPlan:
        """SIGKILL shard process worker ``index`` at ingested packet N."""
        self._process_faults.append(_ProcessFault("kill-worker", index, at_packet))
        return self

    def wedge_worker(self, index: int, at_packet: int) -> FaultPlan:
        """Wedge shard worker ``index``'s input queue (stops consuming)."""
        self._process_faults.append(_ProcessFault("wedge-worker", index, at_packet))
        return self

    def packet_routed(self, count: int = 1) -> list:
        """Advance the packet clock; return the ``(kind, index)`` faults now due."""
        self._packets += count
        due = [f for f in self._process_faults if f.at_packet <= self._packets]
        for fault in due:
            self._process_faults.remove(fault)
            self.fired.append((fault.kind, fault.index, self._packets))
        return [(f.kind, f.index) for f in due]


def parse_fault_specs(specs) -> FaultPlan:
    """Parse CLI ``--inject-fault`` spec strings into a :class:`FaultPlan`.

    Grammar (one spec per string)::

        kill-worker:IDX@N        SIGKILL shard worker IDX at packet N
        wedge-worker:IDX@N       wedge worker IDX's queue at packet N
    """
    plan = FaultPlan()
    for spec in specs:
        kind, _, rest = spec.partition(":")
        if kind not in _KINDS:
            raise FaultSpecError(
                f"fault spec {spec!r}: unknown kind {kind!r} (expected one of {', '.join(_KINDS)})"
            )
        index_text, _, packet_text = rest.partition("@")
        if not packet_text:
            raise FaultSpecError(f"fault spec {spec!r}: expected {kind}:IDX@PACKET")
        try:
            fault = _ProcessFault(kind, int(index_text), int(packet_text))
        except ValueError as error:
            raise FaultSpecError(f"fault spec {spec!r}: {error}") from error
        plan._process_faults.append(fault)
    return plan
