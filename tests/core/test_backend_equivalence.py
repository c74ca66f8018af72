"""Equivalence-tolerance gates: reduced-precision backends vs the f64 oracle.

The ``gru-f32`` serving path must stay verdict-identical to the float64
pipeline on the full 73-scenario adversarial corpus within its documented
tolerance, and the ``gru`` backend itself must remain exactly equivalent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import all_strategies
from repro.attacks.injector import AttackInjector
from repro.core.equivalence import (
    BackendEquivalenceError,
    EquivalenceTolerance,
    FLOAT32_TOLERANCE,
    assert_backend_equivalence,
    score_equivalence_report,
    tolerance_for,
)
from repro.nn.backend import SERVING_BACKENDS


@pytest.fixture(scope="module")
def scenario_corpus(small_dataset):
    """One adversarial connection per evasion strategy (all 73 scenarios)."""
    injector = AttackInjector(seed=6)
    templates = small_dataset.test
    corpus = []
    for index, strategy in enumerate(all_strategies()):
        template = templates[index % len(templates)]
        corpus.append(injector.attack_connection(strategy, template.copy()).connection)
    assert len(corpus) == 73
    return corpus


class TestBackendGates:
    def test_gru_clone_is_exactly_equivalent(self, trained_clap, scenario_corpus):
        reference = trained_clap.score_connections(scenario_corpus)
        clone = trained_clap.with_backend("gru")
        assert clone is trained_clap  # already serving gru: no-op conversion
        assert np.array_equal(reference, clone.score_connections(scenario_corpus))

    def test_float32_passes_its_documented_gate(self, trained_clap, scenario_corpus):
        report = assert_backend_equivalence(
            trained_clap,
            trained_clap.with_backend("gru-f32"),
            scenario_corpus,
            tolerance=FLOAT32_TOLERANCE,
        )
        assert report.passed
        assert report.count == 73
        assert report.max_abs_delta < 1e-5  # far inside the gate in practice

    def test_benign_verdicts_also_hold(self, trained_clap, small_dataset):
        """Benign connections sit closest to the threshold, so run the gates
        there too — flips outside the tolerance band must not occur."""
        assert_backend_equivalence(
            trained_clap,
            trained_clap.with_backend("gru-f32"),
            small_dataset.test,
            tolerance=tolerance_for("gru-f32"),
        )


class TestGateMechanics:
    def test_score_violation_fails_loudly(self):
        tolerance = EquivalenceTolerance(atol=1e-6, rtol=1e-3, name="test")
        report = score_equivalence_report(
            np.array([1.0, 2.0]), np.array([1.0, 2.5]), tolerance=tolerance
        )
        assert not report.passed
        assert report.score_violations == [1]
        assert report.max_excess > 0

    def test_verdict_flip_outside_the_band_is_an_error(self):
        # A candidate *within* the score bound can only flip verdicts whose
        # reference score sits inside the tolerance band of the threshold —
        # that is exactly why band flips are tolerated.  A flip outside the
        # band therefore always rides on a score violation; both must be
        # reported.
        tolerance = EquivalenceTolerance(atol=0.0, rtol=0.0, name="test")
        report = score_equivalence_report(
            np.array([1.0]), np.array([0.6]), tolerance=tolerance, threshold=0.8
        )
        assert report.verdict_flips == [0]
        assert report.score_violations == [0]
        assert not report.passed

    def test_flip_inside_the_band_is_tolerated(self):
        tolerance = EquivalenceTolerance(atol=0.05, rtol=0.0, name="test")
        report = score_equivalence_report(
            np.array([0.81]), np.array([0.79]), tolerance=tolerance, threshold=0.8
        )
        assert report.passed
        assert report.band_flips == [0]

    def test_assert_raises_with_the_summary(self, trained_clap, scenario_corpus):
        impossible = EquivalenceTolerance(atol=0.0, rtol=0.0, name="impossible")
        with pytest.raises(BackendEquivalenceError, match="impossible"):
            assert_backend_equivalence(
                trained_clap,
                trained_clap.with_backend("gru-f32"),
                scenario_corpus,
                tolerance=impossible,
            )

    def test_unknown_backend_has_no_tolerance(self):
        with pytest.raises(KeyError, match="no documented equivalence tolerance"):
            tolerance_for("mamba")


class TestConvertedPersistence:
    def test_f32_override_survives_persistence(self, tmp_path, trained_clap, scenario_corpus):
        from repro.core.pipeline import Clap

        f32 = trained_clap.with_backend("gru-f32")
        expected = f32.score_connections(scenario_corpus[:8])
        directory = tmp_path / "f32-model"
        f32.save(directory)

        import json

        # gru-f32 is a serving variant: the persisted identity stays gru, the
        # override is recorded in the training config.
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["sequence_backend"] == "gru"
        assert manifest["config"]["rnn"]["backend"] == "gru-f32"

        restored = Clap.load(directory)
        assert restored.serving_backend == "gru-f32"
        assert np.array_equal(restored.score_connections(scenario_corpus[:8]), expected)

    def test_converted_pipeline_round_trips_eager_and_mmap(
        self, tmp_path, trained_clap, scenario_corpus
    ):
        """Clap.load must reconstruct every serving backend from the
        manifest, eagerly and via read-only mmap, with identical scores."""
        from repro.core.pipeline import Clap

        for backend in SERVING_BACKENDS:
            converted = trained_clap.with_backend(backend)
            expected = converted.score_connections(scenario_corpus[:8])
            directory = tmp_path / backend
            converted.save(directory)
            for mmap_mode in (None, "r"):
                restored = Clap.load(directory, mmap_mode=mmap_mode)
                assert restored.serving_backend == backend
                assert np.array_equal(
                    restored.score_connections(scenario_corpus[:8]), expected
                )
