"""Tests of the pcap-to-alerts benchmark itself.

The self-time arithmetic of the tracer is checked with a scripted clock;
every workload is smoke-run end to end at a tiny size (a few seconds each)
through the same command the benchmark is invoked with.

Run with:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
bench = _load("run")


class ScriptedClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float):
        self.now += seconds


def test_self_time_of_nested_spans_and_aggregated_sites():
    clock = ScriptedClock()
    tracer = spans.Tracer(clock=clock)

    def packet_work():
        clock.advance(0.5)

    def inner_batch():
        clock.advance(2.0)

    add = tracer.wrap("flow.add", packet_work, per_packet=True)
    inner = tracer.wrap("inner", inner_batch)

    def outer_batch():
        clock.advance(1.0)
        inner()
        add()
        add()
        clock.advance(0.25)

    outer = tracer.wrap("outer", outer_batch)
    clock.advance(3.0)  # outside every site
    outer()
    add()  # an aggregated site at top level

    sites = tracer.sites
    assert sites["outer"].total == pytest.approx(4.25)
    assert sites["outer"].self_time == pytest.approx(1.25)
    assert sites["inner"].self_time == pytest.approx(2.0)
    assert sites["flow.add"].count == 3
    assert sites["flow.add"].total == pytest.approx(1.5)
    assert sites["flow.add"].self_time == pytest.approx(1.5)
    # Self times plus the time outside every site add up to the wall time.
    assert sum(tracer.self_times().values()) + 3.0 == pytest.approx(clock.now)
    # Per-batch sites keep spans with their parent; aggregated sites do not.
    names = [span.name for span in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[0].parent == -1
    assert tracer.spans[1].parent == 0
    assert tracer.durations("inner") == [pytest.approx(2.0)]


def test_iterator_steps_are_timed_and_counted():
    clock = ScriptedClock()
    tracer = spans.Tracer(clock=clock)

    def blocks():
        for size in (3, 4):
            clock.advance(1.0)
            yield list(range(size))
        clock.advance(0.5)

    def count(site, args, result):
        site.items += len(result)

    assert [len(b) for b in tracer.wrap_iterator("parse", blocks(), hook=count)] == [3, 4]
    site = tracer.sites["parse"]
    assert site.items == 7
    assert site.count == 3  # two blocks and the exhausting call
    assert site.total == pytest.approx(2.5)


def test_patched_restores_inherited_and_own_attributes():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    with spans.patched([(Child, "method", lambda self: "patched"),
                        (Child, "own", lambda self: "patched")]):
        assert Child().method() == "patched"
        assert Child().own() == "patched"
    assert Child().method() == "base"
    assert "method" not in Child.__dict__
    assert Child().own() == "own"


def test_auc_counts_ties_as_half():
    assert bench.auc([3.0, 4.0], [1.0, 2.0]) == 1.0
    assert bench.auc([1.0], [1.0]) == 0.5
    assert bench.auc([1.0, 2.0], [1.0]) == 0.75
    # A labelled connection without an event scores lowest.
    assert bench.auc([2.0, float("-inf")], [1.0, 3.0]) == 0.25


def test_setup_is_the_mean_of_round_medians():
    # One slow start within a round is dropped; rounds at two speeds average.
    assert bench.round_mean([[1.0, 1.0, 9.0], [3.0, 3.0, 3.0]]) == 2.0


def _bench(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A checkout-shaped directory: the program's sources, nothing else."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize(
    ("workload", "trace"),
    [("replay", 0), ("replay", 1), ("flood", 0), ("online", 0), ("fanout", 0), ("fanout", 1)],
)
def test_workload_smoke(checkout, workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench(checkout, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_a_directory_without_the_program(tmp_path):
    done = _bench(tmp_path, "--workload", "replay", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
