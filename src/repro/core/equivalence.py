"""Equivalence-tolerance gates for alternative sequence backends.

The float64 ``gru`` backend is the oracle: its packed gate loop is
bit-identical to the seed implementation, so its adversarial scores define
ground truth.  A reduced-precision serving path (``gru-f32``,
``quantized-gru``) is admissible only if, on a scoring corpus,

1. every adversarial score stays within ``atol + rtol * |reference|`` of the
   oracle score, and
2. every verdict (score vs. threshold) matches the oracle's — except for
   connections whose oracle score sits within that same tolerance band of the
   threshold, where a flip is the unavoidable consequence of the permitted
   score perturbation rather than a behavioural divergence.

:func:`assert_backend_equivalence` fails loudly (with the worst offenders in
the message) when either condition is violated; the CI ``backend-smoke`` job
and ``tests/core/test_backend_equivalence.py`` run it over the full
73-scenario adversarial corpus.

The shipped tolerances are measured, not aspirational: on the 73-scenario
corpus the float32 path lands ~1e-8 relative and the int8 path ~1e-3
relative of the float64 scores (see the values documented on
:data:`FLOAT32_TOLERANCE` / :data:`INT8_TOLERANCE`); the gates sit an order
of magnitude above the observed deltas so they trip on regressions, not on
benign jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

__all__ = [
    "EquivalenceTolerance",
    "FLOAT32_TOLERANCE",
    "INT8_TOLERANCE",
    "tolerance_for",
    "EquivalenceReport",
    "BackendEquivalenceError",
    "score_equivalence_report",
    "backend_equivalence_report",
    "assert_backend_equivalence",
]


@dataclass(frozen=True)
class EquivalenceTolerance:
    """Admissible deviation of a candidate score from the oracle score."""

    atol: float
    rtol: float
    name: str = "custom"

    def bound(self, reference: np.ndarray) -> np.ndarray:
        """The per-score admissible absolute deviation."""
        return self.atol + self.rtol * np.abs(reference)


#: float32 serving path: observed max relative delta ~3e-8 on the
#: 73-scenario corpus (gate-level perturbation ~6e-8 per step).
FLOAT32_TOLERANCE = EquivalenceTolerance(atol=1e-9, rtol=1e-5, name="gru-f32")

#: int8 weight quantization: observed max relative score delta ~2e-3 on the
#: 73-scenario corpus (per-gate symmetric scales, float32 accumulation).
INT8_TOLERANCE = EquivalenceTolerance(atol=1e-4, rtol=5e-2, name="quantized-gru")

_NAMED = {
    "gru": EquivalenceTolerance(atol=0.0, rtol=0.0, name="gru"),
    "gru-f32": FLOAT32_TOLERANCE,
    "quantized-gru": INT8_TOLERANCE,
}


def tolerance_for(backend: str) -> EquivalenceTolerance:
    """The documented tolerance gate for a serving backend name."""
    try:
        return _NAMED[backend]
    except KeyError:
        raise KeyError(
            f"no documented equivalence tolerance for backend {backend!r}; "
            f"known: {', '.join(sorted(_NAMED))}"
        ) from None


class BackendEquivalenceError(AssertionError):
    """A candidate backend violated its equivalence-tolerance gate."""


@dataclass
class EquivalenceReport:
    """Outcome of comparing candidate scores against oracle scores."""

    tolerance: EquivalenceTolerance
    count: int
    max_abs_delta: float
    max_excess: float  # max(|delta| - bound); <= 0 when all scores pass
    score_violations: list[int] = field(default_factory=list)
    verdict_flips: list[int] = field(default_factory=list)  # outside the band
    band_flips: list[int] = field(default_factory=list)  # inside the band (allowed)

    @property
    def passed(self) -> bool:
        return not self.score_violations and not self.verdict_flips

    def summary(self) -> str:
        return (
            f"{self.tolerance.name}: {self.count} connections, "
            f"max |Δscore|={self.max_abs_delta:.3e}, "
            f"score violations={len(self.score_violations)}, "
            f"verdict flips={len(self.verdict_flips)} "
            f"(+{len(self.band_flips)} inside the tolerance band)"
        )


def score_equivalence_report(
    reference_scores: np.ndarray,
    candidate_scores: np.ndarray,
    *,
    tolerance: EquivalenceTolerance,
    threshold: float | None = None,
) -> EquivalenceReport:
    """Compare score vectors under ``tolerance`` (and verdicts, if thresholded)."""
    reference_scores = np.asarray(reference_scores, dtype=np.float64)
    candidate_scores = np.asarray(candidate_scores, dtype=np.float64)
    if reference_scores.shape != candidate_scores.shape:
        raise ValueError(
            f"score vectors differ in shape: {reference_scores.shape} vs "
            f"{candidate_scores.shape}"
        )
    delta = np.abs(candidate_scores - reference_scores)
    bound = tolerance.bound(reference_scores)
    excess = delta - bound
    violations = np.flatnonzero(excess > 0)

    flips: list[int] = []
    band_flips: list[int] = []
    if threshold is not None:
        ref_verdicts = reference_scores > threshold
        cand_verdicts = candidate_scores > threshold
        for index in np.flatnonzero(ref_verdicts != cand_verdicts):
            # A flip is admissible only when the oracle score sits within the
            # tolerance band of the threshold: there the permitted score
            # perturbation can legitimately cross the decision boundary.
            if abs(reference_scores[index] - threshold) <= bound[index]:
                band_flips.append(int(index))
            else:
                flips.append(int(index))

    return EquivalenceReport(
        tolerance=tolerance,
        count=int(reference_scores.size),
        max_abs_delta=float(delta.max()) if delta.size else 0.0,
        max_excess=float(excess.max()) if excess.size else 0.0,
        score_violations=[int(i) for i in violations],
        verdict_flips=flips,
        band_flips=band_flips,
    )


def backend_equivalence_report(
    reference,
    candidate,
    connections: Sequence,
    *,
    tolerance: EquivalenceTolerance,
    threshold: float | None = None,
) -> EquivalenceReport:
    """Score ``connections`` through both pipelines and compare.

    ``reference``/``candidate`` are fitted :class:`repro.core.pipeline.Clap`
    instances (typically ``candidate = reference.with_backend(name)``).  The
    verdict check uses the reference pipeline's calibrated threshold unless
    one is given.
    """
    if threshold is None:
        threshold = getattr(reference, "threshold", None)
    reference_scores = reference.score_connections(connections)
    candidate_scores = candidate.score_connections(connections)
    return score_equivalence_report(
        reference_scores, candidate_scores, tolerance=tolerance, threshold=threshold
    )


def assert_backend_equivalence(
    reference,
    candidate,
    connections: Sequence,
    *,
    tolerance: EquivalenceTolerance,
    threshold: float | None = None,
) -> EquivalenceReport:
    """:func:`backend_equivalence_report`, raising loudly on gate violations."""
    report = backend_equivalence_report(
        reference, candidate, connections, tolerance=tolerance, threshold=threshold
    )
    if not report.passed:
        detail = [report.summary()]
        for index in report.score_violations[:5]:
            detail.append(f"  score violation at connection {index}")
        for index in report.verdict_flips[:5]:
            detail.append(f"  verdict flip at connection {index} (outside tolerance band)")
        raise BackendEquivalenceError("\n".join(detail))
    return report
