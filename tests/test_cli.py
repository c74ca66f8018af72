"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.netstack.flow import assemble_connections
from repro.netstack.pcap import read_packet_columns


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("generate", "attack", "train", "score", "stream", "strategies"):
            args = parser.parse_args([command] + {
                "generate": ["out.pcap"],
                "attack": ["in.pcap", "out.pcap", "--strategy", "X"],
                "train": ["model"],
                "score": ["model", "in.pcap"],
                "stream": ["model", "in.pcap"],
                "strategies": [],
            }[command])
            assert args.command == command

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_backend_flags(self):
        parser = build_parser()
        assert parser.parse_args(["train", "m", "--backend", "quantized-gru"]).backend == "quantized-gru"
        assert parser.parse_args(["score", "m", "c.pcap", "--backend", "gru-f32"]).backend == "gru-f32"
        assert parser.parse_args(["stream", "m", "c.pcap", "--backend", "quantized-gru"]).backend == "quantized-gru"
        assert parser.parse_args(["score", "m", "c.pcap"]).backend is None
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "m", "--backend", "gru-f32"])  # serving-only
        with pytest.raises(SystemExit):
            parser.parse_args(["score", "m", "c.pcap", "--backend", "mamba"])


class TestStrategiesCommand:
    def test_lists_all_strategies(self, capsys):
        assert main(["strategies"]) == 0
        output = capsys.readouterr().out
        assert len(output.strip().splitlines()) == 73

    def test_source_filter(self, capsys):
        assert main(["strategies", "--source", "geneva"]) == 0
        output = capsys.readouterr().out
        assert len(output.strip().splitlines()) == 20


class TestGenerateAndAttack:
    def test_generate_writes_pcap(self, tmp_path, capsys):
        output = tmp_path / "benign.pcap"
        assert main(["generate", str(output), "--connections", "12", "--seed", "3"]) == 0
        connections = assemble_connections(read_packet_columns(output).views())
        assert len(connections) == 12

    def test_attack_marks_connections(self, tmp_path, capsys):
        benign = tmp_path / "benign.pcap"
        adversarial = tmp_path / "attacked.pcap"
        main(["generate", str(benign), "--connections", "6", "--seed", "1"])
        code = main([
            "attack", str(benign), str(adversarial),
            "--strategy", "Snort: Injected RST Pure", "--fraction", "0.5",
        ])
        assert code == 0
        before = len(read_packet_columns(benign))
        after = len(read_packet_columns(adversarial))
        assert after == before + 3  # one injected RST per attacked connection

    def test_attack_with_unknown_strategy_fails(self, tmp_path, capsys):
        benign = tmp_path / "benign.pcap"
        main(["generate", str(benign), "--connections", "2"])
        assert main(["attack", str(benign), str(tmp_path / "x.pcap"),
                     "--strategy", "No Such Attack"]) == 2

    def test_attack_fraction_zero_attacks_nothing(self, tmp_path, capsys):
        benign = tmp_path / "benign.pcap"
        untouched = tmp_path / "untouched.pcap"
        main(["generate", str(benign), "--connections", "4", "--seed", "2"])
        assert main(["attack", str(benign), str(untouched),
                     "--strategy", "Snort: Injected RST Pure", "--fraction", "0"]) == 0
        # Untouched packets are written back as their captured bytes.
        assert untouched.read_bytes() == benign.read_bytes()
        assert "attacked 0/4" in capsys.readouterr().out

    def test_small_positive_fraction_attacks_at_least_one(self, tmp_path, capsys):
        benign = tmp_path / "benign.pcap"
        out = tmp_path / "one.pcap"
        main(["generate", str(benign), "--connections", "2", "--seed", "5"])
        # round(2 * 0.25) == 0 under banker's rounding; a nonzero fraction
        # must still attack at least one connection.
        assert main(["attack", str(benign), str(out),
                     "--strategy", "Snort: Injected RST Pure", "--fraction", "0.25"]) == 0
        assert "attacked 1/2" in capsys.readouterr().out

    @pytest.mark.parametrize("fraction", ["-0.1", "1.5"])
    def test_attack_fraction_out_of_range_fails(self, tmp_path, capsys, fraction):
        benign = tmp_path / "benign.pcap"
        main(["generate", str(benign), "--connections", "2"])
        code = main(["attack", str(benign), str(tmp_path / "x.pcap"),
                     "--strategy", "Snort: Injected RST Pure", "--fraction", fraction])
        assert code == 2
        assert "--fraction must be in [0, 1]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_model_dir(tmp_path_factory):
    """One CLI-trained model shared by the score/stream test classes."""
    workdir = tmp_path_factory.mktemp("cli-model")
    model_dir = workdir / "model"
    code = main([
        "train", str(model_dir), "--connections", "50", "--seed", "5",
        "--fast", "--rnn-epochs", "6", "--ae-epochs", "20",
    ])
    assert code == 0
    return model_dir


class TestTrainAndScore:
    def test_train_persists_model(self, trained_model_dir):
        assert (trained_model_dir / "clap_model.npz").exists()
        assert (trained_model_dir / "manifest.json").exists()

    def test_score_benign_capture(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "capture.pcap"
        main(["generate", str(capture), "--connections", "5", "--seed", "77"])
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(capture)]) == 0
        output = capsys.readouterr().out
        assert "connections exceed threshold" in output
        assert output.count("\n") >= 6

    def test_score_attacked_capture_ranks_attack_first(self, trained_model_dir, tmp_path, capsys):
        benign = tmp_path / "benign.pcap"
        attacked = tmp_path / "attacked.pcap"
        main(["generate", str(benign), "--connections", "6", "--seed", "88"])
        main(["attack", str(benign), str(attacked),
              "--strategy", "GFW: Injected RST Bad TCP-Checksum/MD5-Option",
              "--fraction", "0.17", "--seed", "2"])
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(attacked), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert len([line for line in output.splitlines() if "." in line]) >= 3

    def test_score_with_threshold_override(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "tiny.pcap"
        main(["generate", str(capture), "--connections", "3", "--seed", "9"])
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(capture), "--threshold", "1e9"]) == 0
        output = capsys.readouterr().out
        assert "0/3 connections exceed" in output

    def test_score_json_output_shape(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "json.pcap"
        main(["generate", str(capture), "--connections", "4", "--seed", "21"])
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(capture), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["connections_total"] == 4
        assert len(payload["results"]) == 4
        scores = [entry["score"] for entry in payload["results"]]
        assert scores == sorted(scores, reverse=True)
        for entry in payload["results"]:
            assert set(entry) == {
                "connection", "score", "threshold", "adversarial",
                "localized_window", "localized_packets", "packet_count",
            }

    def test_score_backend_override_stays_within_tolerance(
        self, trained_model_dir, tmp_path, capsys
    ):
        """--backend serves the same model through a converted fast path;
        scores must stay within the documented equivalence tolerances."""
        capture = tmp_path / "backends.pcap"
        main(["generate", str(capture), "--connections", "5", "--seed", "31"])
        capsys.readouterr()
        scores = {}
        for backend in (None, "gru", "gru-f32", "quantized-gru"):
            arguments = ["score", str(trained_model_dir), str(capture), "--json"]
            if backend is not None:
                arguments += ["--backend", backend]
            assert main(arguments) == 0
            payload = json.loads(capsys.readouterr().out)
            scores[backend or "default"] = [e["score"] for e in payload["results"]]
        assert scores["default"] == scores["gru"]  # explicit gru is a no-op
        for fast, tolerance in (("gru-f32", 1e-5), ("quantized-gru", 5e-2)):
            for reference, candidate in zip(scores["default"], scores[fast]):
                assert abs(candidate - reference) <= tolerance * max(abs(reference), 1e-9)

    def test_train_with_quantized_backend_persists_it(self, tmp_path, capsys):
        model_dir = tmp_path / "quantized"
        code = main([
            "train", str(model_dir), "--connections", "12", "--seed", "4",
            "--fast", "--rnn-epochs", "2", "--ae-epochs", "5",
            "--backend", "quantized-gru",
        ])
        assert code == 0
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["sequence_backend"] == "quantized-gru"
        capture = tmp_path / "q.pcap"
        main(["generate", str(capture), "--connections", "3", "--seed", "12"])
        capsys.readouterr()
        assert main(["score", str(model_dir), str(capture), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 3

    def test_incompatible_model_artifact_fails_cleanly(self, trained_model_dir, tmp_path, capsys):
        import shutil

        capture = tmp_path / "any.pcap"
        main(["generate", str(capture), "--connections", "2", "--seed", "8"])
        broken = tmp_path / "broken-model"
        shutil.copytree(trained_model_dir, broken)
        manifest_path = broken / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["feature_schema_hash"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["score", str(broken), str(capture)]) == 2
        assert "feature schema" in capsys.readouterr().err

    def test_score_rejects_non_pcap_input_cleanly(self, tmp_path, trained_model_dir, capsys):
        bogus = tmp_path / "bogus.pcap"
        bogus.write_bytes(b"this is not a capture")
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(bogus)]) == 2
        assert "not a pcap file" in capsys.readouterr().err

    def test_train_without_rnn_prints_clean_summary(self, tmp_path, capsys):
        model_dir = tmp_path / "no-rnn-model"
        code = main([
            "train", str(model_dir), "--connections", "25", "--seed", "4",
            "--fast", "--ae-epochs", "10", "--no-gate-weights",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "RNN stage" in output and "skipped" in output
        assert (model_dir / "clap_model.npz").exists()


class TestStreamCommand:
    def test_stream_emits_ndjson_events(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "stream.pcap"
        main(["generate", str(capture), "--connections", "6", "--seed", "31"])
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(capture), "--max-batch", "2"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 6
        for line in lines:
            event = json.loads(line)
            assert event["event"] in ("detection", "alert")
            assert set(event) >= {
                "connection", "score", "threshold", "adversarial",
                "localized_packets", "packet_count", "completed_by",
                "first_seen", "last_seen",
            }
        assert "connections exceeded threshold" in captured.err

    def test_stream_matches_score_verdicts(self, trained_model_dir, tmp_path, capsys):
        """Online (stream) and forensic (score --json) agree on the capture."""
        capture = tmp_path / "agree.pcap"
        main(["generate", str(capture), "--connections", "5", "--seed", "13"])
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(capture), "--json"]) == 0
        forensic = json.loads(capsys.readouterr().out)
        assert main(["stream", str(trained_model_dir), str(capture)]) == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        forensic_scores = sorted(
            (entry["connection"], round(entry["score"], 9)) for entry in forensic["results"]
        )
        stream_scores = sorted(
            (event["connection"], round(event["score"], 9)) for event in events
        )
        assert stream_scores == forensic_scores

    def test_stream_backend_override_matches_score_backend(
        self, trained_model_dir, tmp_path, capsys
    ):
        """--backend on stream serves the same converted model as on score —
        thread and process workers included (the process pool receives the
        converted model via a temporary artifact)."""
        capture = tmp_path / "backend-stream.pcap"
        main(["generate", str(capture), "--connections", "4", "--seed", "29"])
        capsys.readouterr()
        assert main(["score", str(trained_model_dir), str(capture), "--json",
                     "--backend", "quantized-gru"]) == 0
        forensic = json.loads(capsys.readouterr().out)
        expected = sorted(
            (entry["connection"], round(entry["score"], 9)) for entry in forensic["results"]
        )
        for extra in ([], ["--workers", "2", "--worker-mode", "process"]):
            assert main(["stream", str(trained_model_dir), str(capture),
                         "--backend", "quantized-gru"] + extra) == 0
            events = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
            got = sorted((e["connection"], round(e["score"], 9)) for e in events)
            assert got == expected

    def test_stream_alerts_only_filters(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "quiet.pcap"
        main(["generate", str(capture), "--connections", "3", "--seed", "17"])
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(capture),
                     "--threshold", "1e9", "--alerts-only"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_stream_rejects_bad_batch_size(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "any.pcap"
        main(["generate", str(capture), "--connections", "2", "--seed", "1"])
        assert main(["stream", str(trained_model_dir), str(capture), "--max-batch", "0"]) == 2

    def test_stream_with_workers_matches_single_worker(self, trained_model_dir, tmp_path, capsys):
        """--workers 4 (process shards) emits the same connections and scores
        as --workers 1."""
        capture = tmp_path / "sharded.pcap"
        main(["generate", str(capture), "--connections", "8", "--seed", "23"])
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(capture)]) == 0
        single = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert main(["stream", str(trained_model_dir), str(capture),
                     "--workers", "4", "--worker-mode", "process"]) == 0
        sharded = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert sorted(
            (e["connection"], e["packet_count"], round(e["score"], 9)) for e in single
        ) == sorted(
            (e["connection"], e["packet_count"], round(e["score"], 9)) for e in sharded
        )

    def test_stream_thread_mode_rejects_multiple_workers(
        self, trained_model_dir, tmp_path, capsys
    ):
        capture = tmp_path / "threads.pcap"
        main(["generate", str(capture), "--connections", "2", "--seed", "5"])
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(capture), "--workers", "2"]) == 2
        assert "worker_mode='process'" in capsys.readouterr().err

    def test_stream_reads_ndjson_source(self, trained_model_dir, tmp_path, capsys):
        from repro.serve import NDJSONSource

        capture = tmp_path / "src.pcap"
        main(["generate", str(capture), "--connections", "4", "--seed", "19"])
        ndjson = tmp_path / "src.ndjson"
        ndjson.write_text(
            "".join(
                NDJSONSource.format_packet(p) + "\n" for p in read_packet_columns(capture).views()
            )
        )
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(ndjson)]) == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert len(events) == 4

    def test_stream_process_workers_match_thread_workers(
        self, trained_model_dir, tmp_path, capsys
    ):
        """--worker-mode process emits the same events as the in-process
        thread runtime (the workers mmap the model directory the CLI already
        has)."""
        capture = tmp_path / "proc.pcap"
        main(["generate", str(capture), "--connections", "6", "--seed", "29"])
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(capture)]) == 0
        threaded = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert main(["stream", str(trained_model_dir), str(capture),
                     "--workers", "2", "--worker-mode", "process"]) == 0
        processed = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert sorted(
            (e["connection"], e["packet_count"], round(e["score"], 9)) for e in threaded
        ) == sorted(
            (e["connection"], e["packet_count"], round(e["score"], 9)) for e in processed
        )

    def test_stream_strict_rejects_malformed_input_cleanly(
        self, trained_model_dir, tmp_path, capsys
    ):
        """--strict turns a malformed NDJSON line into exit code 2 (and shuts
        the worker pool down) instead of a traceback; lax mode skips it."""
        ndjson = tmp_path / "bad.ndjson"
        ndjson.write_text('{"ts": 1.0, "data": "nothex"}\n')
        assert main(["stream", str(trained_model_dir), str(ndjson)]) == 2
        assert "no TCP packets" in capsys.readouterr().err
        assert main(["stream", str(trained_model_dir), str(ndjson), "--strict",
                     "--workers", "2", "--worker-mode", "process"]) == 2
        err = capsys.readouterr().err
        assert "malformed NDJSON" in err
        import multiprocessing

        assert not [
            p for p in multiprocessing.active_children() if p.name.startswith("clap-shard-")
        ]

    def test_stream_worker_killed_on_the_last_packet_fails_cleanly(
        self, trained_model_dir, tmp_path, capsys
    ):
        """Under --on-worker-failure fail, a worker death first seen by the
        final drain exits 2 with the degradation report, not a traceback."""
        capture = tmp_path / "kill.pcap"
        main(["generate", str(capture), "--connections", "6", "--seed", "29"])
        last = len(read_packet_columns(capture))
        capsys.readouterr()
        code = main(["stream", str(trained_model_dir), str(capture),
                     "--workers", "2", "--worker-mode", "process",
                     "--inject-fault", f"kill-worker:1@{last}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "degradation: " in err
        assert "shard worker 1 failed" in err
        import multiprocessing

        assert not [
            p for p in multiprocessing.active_children() if p.name.startswith("clap-shard-")
        ]

    def test_stream_metrics_summary_on_stderr(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "met.pcap"
        main(["generate", str(capture), "--connections", "3", "--seed", "11"])
        capsys.readouterr()
        assert main(["stream", str(trained_model_dir), str(capture),
                     "--workers", "2", "--worker-mode", "process", "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "shards=1" in err  # one flow table in the parent, two scoring workers
        assert "flush latency" in err

    def test_stream_drop_policy_validation(self, trained_model_dir, tmp_path, capsys):
        capture = tmp_path / "dp.pcap"
        main(["generate", str(capture), "--connections", "2", "--seed", "3"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", str(trained_model_dir), str(capture), "--drop-policy", "maybe"]
            )

    @pytest.mark.parametrize("value", ["0", "-3", "adaptive"])
    def test_stream_chunk_size_must_be_a_positive_integer(
        self, trained_model_dir, tmp_path, capsys, value
    ):
        capture = tmp_path / "chunk.pcap"
        main(["generate", str(capture), "--connections", "2", "--seed", "3"])
        capsys.readouterr()
        code = main(["stream", str(trained_model_dir), str(capture), "--chunk-size", value])
        assert code == 2
        assert "--chunk-size must be a positive integer" in capsys.readouterr().err

    def test_stream_missing_capture_fails_cleanly(self, trained_model_dir, tmp_path, capsys):
        assert main(["stream", str(trained_model_dir), str(tmp_path / "nope.pcap")]) == 2
        assert "no capture found" in capsys.readouterr().err


class TestEndToEndRoundTrip:
    def test_generate_attack_train_score_round_trip(self, tmp_path, capsys):
        """The full operational workflow on a temp dir, via the CLI only."""
        benign = tmp_path / "benign.pcap"
        attacked = tmp_path / "attacked.pcap"
        model_dir = tmp_path / "model"
        assert main(["generate", str(benign), "--connections", "30", "--seed", "42"]) == 0
        assert main([
            "attack", str(benign), str(attacked),
            "--strategy", "GFW: Injected RST Bad TCP-Checksum/MD5-Option",
            "--fraction", "0.2", "--seed", "3",
        ]) == 0
        assert main([
            "train", str(model_dir), "--pcap", str(benign),
            "--fast", "--rnn-epochs", "4", "--ae-epochs", "12", "--seed", "6",
        ]) == 0
        assert (model_dir / "clap_model.npz").exists()
        assert (model_dir / "manifest.json").exists()
        capsys.readouterr()
        assert main(["score", str(model_dir), str(attacked), "--json"]) == 0
        forensic = json.loads(capsys.readouterr().out)
        assert forensic["connections_total"] == 30
        assert main(["stream", str(model_dir), str(attacked)]) == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
        assert len(events) == 30
