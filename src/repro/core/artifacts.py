"""Versioned model artifacts: the ``manifest.json`` written next to the weights.

A persisted CLAP model used to be a bare ``clap_model.npz`` — loadable, but
silent about *what* it is: which configuration trained it, which feature
schema its profiles assume, which package version wrote it.  The manifest
makes the artifact self-describing and lets :meth:`repro.core.pipeline.Clap.load`
fail loudly (instead of scoring garbage) when a model was trained against an
incompatible feature layout or a newer artifact schema.

Layout of ``manifest.json`` (schema version 2)::

    {
      "format": "clap-model",
      "schema_version": 2,
      "repro_version": "1.0.0",
      "feature_schema_hash": "<sha256 over the Table-7 feature specs>",
      "threshold": 0.0123,
      "sequence_backend": "gru",
      "config": {"rnn": {...}, "autoencoder": {...}, "detector": {...}}
    }

Schema version 2 added ``sequence_backend`` — the name of the Stage-(a)
model implementation that produced the persisted weights (see
:mod:`repro.nn.backend`).  This build writes and loads only ``gru``: a model
naming any other backend, here or in the archive's copy
(``rnn/meta/backend``), is refused at load.  Version-1 manifests (no such
field) mean ``gru``, and legacy bare ``.npz`` models (no manifest next to
them) remain loadable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.core.config import AutoencoderConfig, ClapConfig, DetectorConfig, RnnConfig
from repro.features.schema import all_feature_specs
from repro.version import __version__

MANIFEST_FILENAME = "manifest.json"
MANIFEST_FORMAT = "clap-model"
MANIFEST_SCHEMA_VERSION = 2
DEFAULT_SEQUENCE_BACKEND = "gru"


class ModelManifestError(ValueError):
    """A model manifest is present but invalid or incompatible."""


def feature_schema_hash() -> str:
    """SHA-256 fingerprint of the full Table-7 context-profile schema.

    Any change to the feature set (order, names, types, amplification
    indicators) changes this hash, which invalidates persisted models whose
    profile layout no longer matches the code.
    """
    lines = [
        f"{spec.index}|{spec.name}|{spec.feature_type.value}|{spec.group.value}|{int(spec.numeric)}"
        for spec in all_feature_specs()
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def build_manifest(config: ClapConfig, threshold: float) -> dict[str, object]:
    """The manifest dictionary for a trained pipeline."""
    return {
        "format": MANIFEST_FORMAT,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "repro_version": __version__,
        "feature_schema_hash": feature_schema_hash(),
        "threshold": float(threshold),
        "sequence_backend": DEFAULT_SEQUENCE_BACKEND,
        "config": dataclasses.asdict(config),
    }


def write_manifest(directory: str | Path, config: ClapConfig, threshold: float) -> Path:
    """Write ``manifest.json`` into ``directory`` and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_FILENAME
    path.write_text(json.dumps(build_manifest(config, threshold), indent=2) + "\n")
    return path


def read_manifest(directory: str | Path) -> dict[str, object] | None:
    """The parsed manifest found in ``directory``, or ``None`` for legacy models."""
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ModelManifestError(f"unreadable model manifest {path}: {error}") from error
    if not isinstance(manifest, dict):
        raise ModelManifestError(f"model manifest {path} is not a JSON object")
    return manifest


def validate_manifest(manifest: dict[str, object]) -> None:
    """Raise :class:`ModelManifestError` unless this build can load ``manifest``."""
    format_name = manifest.get("format", MANIFEST_FORMAT)
    if format_name != MANIFEST_FORMAT:
        raise ModelManifestError(f"not a CLAP model manifest (format={format_name!r})")
    version = manifest.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ModelManifestError(f"invalid manifest schema_version {version!r}")
    if version > MANIFEST_SCHEMA_VERSION:
        raise ModelManifestError(
            f"model manifest schema_version {version} is newer than the supported "
            f"{MANIFEST_SCHEMA_VERSION}; upgrade the repro package to load this model"
        )
    recorded_hash = manifest.get("feature_schema_hash")
    if recorded_hash is not None and recorded_hash != feature_schema_hash():
        raise ModelManifestError(
            "model was trained against a different feature schema "
            f"(manifest hash {str(recorded_hash)[:12]}…, current {feature_schema_hash()[:12]}…); "
            "retrain the model against the current Table-7 layout"
        )


def backend_from_manifest(manifest: dict[str, object]) -> str:
    """The sequence-backend name a manifest records.

    Schema-version-1 manifests predate the field and always mean the
    default ``gru``.
    """
    backend = manifest.get("sequence_backend", DEFAULT_SEQUENCE_BACKEND)
    if not isinstance(backend, str) or not backend:
        raise ModelManifestError(f"invalid manifest sequence_backend {backend!r}")
    return backend


def _dataclass_from(cls, data: object):
    """Build a config dataclass from a manifest dict, ignoring unknown keys."""
    if not isinstance(data, dict):
        raise ModelManifestError(f"manifest config section for {cls.__name__} is not an object")
    known = {field.name for field in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in data.items() if key in known})


def config_from_manifest(manifest: dict[str, object]) -> ClapConfig:
    """Reconstruct the full :class:`ClapConfig` recorded in a manifest."""
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ModelManifestError("model manifest carries no config section")
    return ClapConfig(
        rnn=_dataclass_from(RnnConfig, config.get("rnn", {})),
        autoencoder=_dataclass_from(AutoencoderConfig, config.get("autoencoder", {})),
        detector=_dataclass_from(DetectorConfig, config.get("detector", {})),
    )
