"""Benchmark-side tracing: spans around the calls into each layer.

The program has no stage clocks of its own yet, so the traced run patches
the public functions at each layer boundary with timing wrappers for the
duration of one pass.  Two kinds of call site are traced:

* per-batch sites (``Clap.detect_batch``, ``batch_stacked_profiles``, the
  backend's gate activations, ``Autoencoder.reconstruction_error``, ...)
  keep one span per call — name, start, end and the enclosing span;
* per-packet sites (``FlowTable.add``, ``apply_drop_policy``, the fan-out
  router) only aggregate a call count and total time, because a span per
  packet would cost more than the work it measures.

Every call, of either kind, adds its duration to the enclosing call's child
coverage, so a site's self time is its total time minus the time its
direct children covered, and the self times of all sites plus the time
spent outside any site add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

Hook = Callable[["Site", tuple, object], None]


@dataclass
class Site:
    """Accumulated timings of one traced call site."""

    name: str
    keep_spans: bool
    hook: Hook | None = None
    count: int = 0
    total: float = 0.0
    child: float = 0.0
    #: Work counted by the site's hook (packets, rows, bytes, ...).
    items: float = 0.0
    #: A second hook-defined quantity (a high-water mark or a denominator).
    extra: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level


@dataclass
class Tracer:
    """Nesting-aware timers for wrapped call sites (single thread)."""

    clock: Callable[[], float] = time.perf_counter
    sites: dict[str, Site] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    # One frame per active call: [child coverage so far, span index or -1].
    _stack: list[list] = field(default_factory=list)

    def site(self, name: str, *, per_packet: bool = False, hook: Hook | None = None) -> Site:
        if name not in self.sites:
            self.sites[name] = Site(name, keep_spans=not per_packet, hook=hook)
        return self.sites[name]

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        per_packet: bool = False,
        hook: Hook | None = None,
    ) -> Callable:
        """``function`` timed as call site ``name``."""
        site = self.site(name, per_packet=per_packet, hook=hook)
        stack = self._stack
        spans = self.spans
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if site.keep_spans:
                frame[1] = len(spans)
                spans.append(Span(name, 0.0, 0.0, parent))
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                site.count += 1
                site.total += duration
                site.child += frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    span = spans[frame[1]]
                    span.start, span.end = start, end
            if site.hook is not None:
                site.hook(site, args, result)
            return result

        return traced

    def wrap_iterator(self, name: str, iterator: Iterator, hook: Hook | None = None) -> Iterator:
        """Time each ``next()`` of ``iterator`` as one call of site ``name``."""
        step = self.wrap(name, next)
        site = self.sites[name]
        done = object()
        while True:
            item = step(iterator, done)
            if item is done:
                return
            if hook is not None:
                hook(site, (), item)
            yield item

    def self_times(self) -> dict[str, float]:
        return {name: site.self_time for name, site in self.sites.items()}

    def durations(self, name: str) -> list[float]:
        return [span.end - span.start for span in self.spans if span.name == name]


@contextlib.contextmanager
def patched(patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Temporarily replace ``owner.attribute`` for each ``(owner, attribute,
    replacement)``; the originals come back even if the body raises."""
    saved = []
    try:
        for owner, attribute, replacement in patches:
            saved.append((owner, attribute, owner.__dict__.get(attribute, _MISSING)))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


_MISSING = object()
