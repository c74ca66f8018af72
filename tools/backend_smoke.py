#!/usr/bin/env python
"""Sequence-backend smoke test for CI.

Exercises the two serving precisions of the GRU (``gru``, ``gru-f32``) end
to end with no fixtures: train one deliberately tiny model, round-trip each
serving backend through ``save``/``Clap.load`` both eagerly and via
read-only mmap, and check that ``score --json`` emits the same verdicts
across ``--backend`` paths within each backend's documented equivalence
tolerance (:mod:`repro.core.equivalence`).  The point is not accuracy — it
is that the manifest identity and the conversion paths hold together as a
process would run them.

Run with:  PYTHONPATH=src python tools/backend_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.cli import main as cli_main
from repro.core.equivalence import score_equivalence_report, tolerance_for
from repro.core.pipeline import Clap
from repro.netstack.flow import assemble_connections
from repro.netstack.pcap import read_packet_columns
from repro.nn.backend import SERVING_BACKENDS

CONNECTIONS = 24


def run(argv: list, capture: bool = False) -> tuple:
    """Invoke the CLI in-process, optionally capturing stdout."""
    print(f"$ repro-clap {' '.join(argv)}", file=sys.stderr)
    if not capture:
        return cli_main(argv), ""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def scores_from_json(payload: str) -> dict:
    results = json.loads(payload)["results"]
    return {row["connection"]: float(row["score"]) for row in results}


def fail(message: str) -> int:
    print(f"backend smoke FAILED: {message}", file=sys.stderr)
    return 1


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        capture_path = work / "smoke.pcap"

        code, _ = run(["generate", str(capture_path),
                       "--connections", str(CONNECTIONS), "--seed", "11"])
        if code != 0:
            return fail("generate exited non-zero")

        # One tiny model, which must save a loadable artifact whose manifest
        # records the gru identity.
        base_dir = work / "model"
        code, _ = run(["train", str(base_dir), "--pcap", str(capture_path),
                       "--fast", "--rnn-epochs", "3", "--ae-epochs", "10",
                       "--seed", "11"])
        if code != 0:
            return fail("train exited non-zero")
        manifest = json.loads((base_dir / "manifest.json").read_text())
        if manifest["sequence_backend"] != "gru":
            return fail(f"manifest records {manifest['sequence_backend']!r}, expected 'gru'")

        # Round trip every serving backend eagerly and via read-only mmap.
        base = Clap.load(base_dir)
        for backend in SERVING_BACKENDS:
            converted_dir = work / f"serving-{backend}"
            converted = base.with_backend(backend)
            converted.save(converted_dir)
            expected = None
            for mmap_mode in (None, "r"):
                restored = Clap.load(converted_dir, mmap_mode=mmap_mode)
                if restored.serving_backend != backend:
                    return fail(
                        f"{'mmap' if mmap_mode else 'eager'} load restored "
                        f"{restored.serving_backend!r}, expected {backend!r}"
                    )
                scores = restored.score_connections  # bound per load mode
                sample = scores(_sample_connections(capture_path))
                if expected is None:
                    expected = sample
                elif not np.array_equal(np.asarray(expected), np.asarray(sample)):
                    return fail(f"{backend}: mmap load scores diverge from eager")

        # score --json across --backend paths: identical within the
        # documented tolerance gates, exact for the gru identity path.
        outputs = {}
        for backend in SERVING_BACKENDS:
            code, out = run(["score", str(base_dir), str(capture_path),
                             "--json", "--backend", backend], capture=True)
            if code != 0:
                return fail(f"score --backend {backend} exited non-zero")
            outputs[backend] = scores_from_json(out)
            if len(outputs[backend]) != CONNECTIONS:
                return fail(
                    f"score --backend {backend} returned "
                    f"{len(outputs[backend])} rows, expected {CONNECTIONS}"
                )

        keys = sorted(outputs["gru"])
        reference = np.array([outputs["gru"][key] for key in keys])
        threshold = base.threshold
        for backend in SERVING_BACKENDS[1:]:
            candidate = np.array([outputs[backend][key] for key in keys])
            report = score_equivalence_report(
                reference, candidate,
                tolerance=tolerance_for(backend), threshold=threshold,
            )
            if not report.passed:
                return fail(f"--backend {backend}: {report.summary()}")

    print(
        f"backend smoke OK: {len(SERVING_BACKENDS)} serving backends "
        f"round-tripped eager+mmap, "
        f"score --json within tolerance on {CONNECTIONS} connections",
        file=sys.stderr,
    )
    return 0


def _sample_connections(capture_path: Path):
    return assemble_connections(read_packet_columns(capture_path).views())[:6]


if __name__ == "__main__":
    raise SystemExit(main())
