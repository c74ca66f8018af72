"""Versioned model artifacts: manifest writing, validation and legacy loads."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.artifacts import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA_VERSION,
    ModelManifestError,
    backend_from_manifest,
    build_manifest,
    config_from_manifest,
    feature_schema_hash,
    validate_manifest,
)
from repro.core.config import ClapConfig
from repro.core.pipeline import Clap
from repro.nn.serialization import load_state


class TestManifestHelpers:
    def test_feature_schema_hash_is_stable(self):
        assert feature_schema_hash() == feature_schema_hash()
        assert len(feature_schema_hash()) == 64

    def test_build_and_validate_roundtrip(self):
        manifest = build_manifest(ClapConfig.fast(), threshold=0.25)
        validate_manifest(manifest)
        config = config_from_manifest(manifest)
        assert config.rnn.epochs == ClapConfig.fast().rnn.epochs
        assert manifest["threshold"] == 0.25
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION

    def test_newer_schema_version_is_rejected(self):
        manifest = build_manifest(ClapConfig(), threshold=0.0)
        manifest["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(ModelManifestError, match="newer"):
            validate_manifest(manifest)

    def test_feature_hash_mismatch_is_rejected(self):
        manifest = build_manifest(ClapConfig(), threshold=0.0)
        manifest["feature_schema_hash"] = "0" * 64
        with pytest.raises(ModelManifestError, match="feature schema"):
            validate_manifest(manifest)

    def test_wrong_format_is_rejected(self):
        with pytest.raises(ModelManifestError, match="format"):
            validate_manifest({"format": "not-a-clap-model", "schema_version": 1})

    def test_unknown_config_keys_are_ignored(self):
        manifest = build_manifest(ClapConfig(), threshold=0.0)
        manifest["config"]["rnn"]["from_the_future"] = 42
        config = config_from_manifest(manifest)
        assert not hasattr(config.rnn, "from_the_future")

    def test_manifest_records_the_sequence_backend(self):
        assert MANIFEST_SCHEMA_VERSION == 2
        manifest = build_manifest(ClapConfig(), threshold=0.0)
        assert manifest["sequence_backend"] == "gru"
        assert backend_from_manifest(manifest) == "gru"
        manifest = build_manifest(ClapConfig(), threshold=0.0, backend="quantized-gru")
        validate_manifest(manifest)
        assert backend_from_manifest(manifest) == "quantized-gru"

    def test_schema_v1_manifests_default_to_the_gru_backend(self):
        """Backward compatibility: pre-backend manifests carry no
        sequence_backend field and must load as the default gru."""
        manifest = build_manifest(ClapConfig(), threshold=0.0)
        manifest["schema_version"] = 1
        del manifest["sequence_backend"]
        validate_manifest(manifest)
        assert backend_from_manifest(manifest) == "gru"

    def test_invalid_sequence_backend_is_rejected(self):
        manifest = build_manifest(ClapConfig(), threshold=0.0)
        manifest["sequence_backend"] = 42
        with pytest.raises(ModelManifestError, match="sequence_backend"):
            backend_from_manifest(manifest)


class TestPersistedArtifacts:
    @pytest.fixture(scope="class")
    def model_dir(self, trained_clap, tmp_path_factory):
        directory = tmp_path_factory.mktemp("artifact") / "model"
        trained_clap.save(directory)
        return directory

    def test_save_writes_manifest(self, model_dir, trained_clap):
        manifest_path = model_dir / MANIFEST_FILENAME
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "clap-model"
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["feature_schema_hash"] == feature_schema_hash()
        assert manifest["threshold"] == pytest.approx(trained_clap.threshold)
        assert manifest["config"]["detector"]["stack_length"] == (
            trained_clap.config.detector.stack_length
        )

    def test_load_restores_training_config(self, model_dir, trained_clap):
        loaded = Clap.load(model_dir)
        assert loaded.config.rnn.epochs == trained_clap.config.rnn.epochs
        assert loaded.config.autoencoder.epochs == trained_clap.config.autoencoder.epochs
        assert loaded.threshold == pytest.approx(trained_clap.threshold)

    def test_loaded_model_scores_identically(self, model_dir, trained_clap, small_dataset):
        loaded = Clap.load(model_dir)
        original = trained_clap.detect_batch(small_dataset.test[:5])
        restored = loaded.detect_batch(small_dataset.test[:5])
        for a, b in zip(original, restored):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_legacy_bare_npz_still_loads(self, trained_clap, small_dataset, tmp_path):
        directory = tmp_path / "legacy"
        trained_clap.save(directory)
        (directory / MANIFEST_FILENAME).unlink()  # simulate a pre-manifest model
        loaded = Clap.load(directory)
        scores = loaded.score_connections(small_dataset.test[:3])
        expected = trained_clap.score_connections(small_dataset.test[:3])
        assert scores == pytest.approx(expected, abs=1e-12)

    def test_corrupt_manifest_fails_loudly(self, trained_clap, tmp_path):
        directory = tmp_path / "corrupt"
        trained_clap.save(directory)
        (directory / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(ModelManifestError, match="unreadable"):
            Clap.load(directory)

    def test_incompatible_manifest_fails_loudly(self, trained_clap, tmp_path):
        directory = tmp_path / "incompatible"
        trained_clap.save(directory)
        manifest_path = directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["feature_schema_hash"] = "f" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ModelManifestError, match="retrain"):
            Clap.load(directory)

    def test_explicit_config_still_wins(self, model_dir):
        config = ClapConfig()
        config.rnn.epochs = 123
        loaded = Clap.load(model_dir, config=config)
        assert loaded.config.rnn.epochs == 123
        # And the caller's object is never mutated by the persisted settings.
        assert config.detector.stack_length == ClapConfig().detector.stack_length


class TestMmapArtifacts:
    def test_mmap_loaded_model_scores_byte_identically(
        self, trained_clap, small_dataset, tmp_path
    ):
        """The ISSUE satellite: a read-only memory-mapped model must score
        exactly — not approximately — like the eagerly loaded one."""
        import numpy as np

        trained_clap.save(tmp_path)
        eager = Clap.load(tmp_path)
        mapped = Clap.load(tmp_path, mmap_mode="r")
        eager_scores = eager.score_connections(small_dataset.test)
        mapped_scores = mapped.score_connections(small_dataset.test)
        assert np.array_equal(eager_scores, mapped_scores)
        # The weights really are memory-mapped (shared page cache), and the
        # adoption is read-only end to end.
        assert any(
            isinstance(value, np.memmap)
            for value in mapped.autoencoder.parameters.values()
        )
        assert mapped.threshold == eager.threshold

    def test_mmap_loaded_model_detects_like_the_original(
        self, trained_clap, small_dataset, tmp_path
    ):
        trained_clap.save(tmp_path)
        mapped = Clap.load(tmp_path, mmap_mode="r")
        original = trained_clap.detect_batch(small_dataset.test[:4])
        loaded = mapped.detect_batch(small_dataset.test[:4])
        for left, right in zip(original, loaded):
            assert left.key == right.key
            assert abs(left.score - right.score) < 1e-12
            assert left.localized_packets == right.localized_packets


def _all_weights(clap):
    return {
        **{f"rnn/{key}": value for key, value in clap.builder.rnn.parameters.items()},
        **{f"ae/{key}": value for key, value in clap.autoencoder.parameters.items()},
    }


class TestAlignedArtifacts:
    def test_fresh_artifact_maps_every_weight_aligned_and_read_only(
        self, trained_clap, tmp_path
    ):
        trained_clap.save(tmp_path)
        mapped = Clap.load(tmp_path, mmap_mode="r")
        for key, value in _all_weights(mapped).items():
            assert isinstance(value, np.memmap), key
            assert value.flags.aligned and value.ctypes.data % 64 == 0, key
            assert not value.flags.writeable, key

    def test_legacy_savez_artifact_scores_bit_identically(
        self, trained_clap, small_dataset, tmp_path
    ):
        """An archive written by plain ``np.savez`` (unaligned members)
        still maps, with every weight aligned, and every load of either
        archive scores exactly like the eager one."""
        trained_clap.save(tmp_path / "aligned")
        trained_clap.save(tmp_path / "legacy")
        legacy = tmp_path / "legacy" / "clap_model.npz"
        state = load_state(legacy)
        np.savez(legacy, **{key.replace("/", "__slash__"): value for key, value in state.items()})

        eager = Clap.load(tmp_path / "aligned")
        reference = eager.score_connections(small_dataset.test)
        for directory in ("aligned", "legacy"):
            for mmap_mode in (None, "r"):
                loaded = Clap.load(tmp_path / directory, mmap_mode=mmap_mode)
                scores = loaded.score_connections(small_dataset.test)
                assert np.array_equal(scores, reference), (directory, mmap_mode)
        mapped = Clap.load(tmp_path / "legacy", mmap_mode="r")
        for key, value in _all_weights(mapped).items():
            assert value.flags.aligned and not value.flags.writeable, key
