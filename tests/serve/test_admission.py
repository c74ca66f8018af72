"""Admission control under flood: :class:`DropPolicy` verdict semantics.

Only ``CAPACITY`` evictions are ever policy-dropped — organic completions
(CLOSED/IDLE/DRAIN) always reach the engine.  Within the capacity class the
policy can drop everything, require a minimum packet count, admit a
deterministic per-flow sample (handshaked flows always admit), and budget
admissions per source subnet so one flooding subnet cannot monopolise the
scoring engine (the monitor-state-attack defense).
"""

from __future__ import annotations

import pytest

from repro.netstack.flow import CompletionReason, Connection, FlowKey
from repro.netstack.ip import Ipv4Header
from repro.netstack.packet import Packet
from repro.netstack.tcp import TcpFlags, TcpHeader
from repro.serve import ParallelStreamingDetector
from repro.serve.metrics import (
    _SAMPLE_BUCKETS,
    AdmissionState,
    DropPolicy,
    StreamingMetrics,
    apply_drop_policy,
)

SERVER_IP = 0xC0A80001
SERVER_PORT = 80


def _connection(
    src: int = 0x0A000001,
    src_port: int = 1024,
    packets: int = 1,
    start: float = 0.0,
    handshake: bool = False,
) -> Connection:
    key = FlowKey(ip_a=src, port_a=src_port, ip_b=SERVER_IP, port_b=SERVER_PORT)
    connection = Connection(key=key)
    for index in range(packets):
        connection.append(
            Packet(
                ip=Ipv4Header(src=src, dst=SERVER_IP),
                tcp=TcpHeader(
                    src_port=src_port,
                    dst_port=SERVER_PORT,
                    seq=index,
                    flags=TcpFlags.SYN if index == 0 else TcpFlags.ACK,
                ),
                timestamp=start + index * 0.01,
            )
        )
    if handshake:
        connection.append(
            Packet(
                ip=Ipv4Header(src=SERVER_IP, dst=src),
                tcp=TcpHeader(
                    src_port=SERVER_PORT,
                    dst_port=src_port,
                    seq=0,
                    flags=TcpFlags.SYN | TcpFlags.ACK,
                ),
                timestamp=start + packets * 0.01,
            )
        )
    return connection


class TestPolicyValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            DropPolicy(mode="shrug")

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="min_packets"):
            DropPolicy(min_packets=-1)
        with pytest.raises(ValueError, match="sample_rate"):
            DropPolicy(sample_rate=1.5)
        with pytest.raises(ValueError, match="subnet_budget"):
            DropPolicy(subnet_budget=0)
        with pytest.raises(ValueError, match="subnet_prefix"):
            DropPolicy(subnet_prefix=33)
        with pytest.raises(ValueError, match="budget_window"):
            DropPolicy(subnet_budget=1, budget_window=0.0)

    def test_stateless_policy_has_no_admission_state(self):
        assert DropPolicy(mode="drop").new_state() is None
        assert isinstance(DropPolicy(subnet_budget=1).new_state(), AdmissionState)


class TestVerdicts:
    @pytest.mark.parametrize(
        "reason",
        [CompletionReason.CLOSED, CompletionReason.IDLE, CompletionReason.DRAIN],
    )
    def test_organic_completions_always_score(self, reason):
        policy = DropPolicy(mode="drop", min_packets=100)
        assert policy.verdict(_connection(), reason) == "score"

    def test_drop_mode_drops_every_capacity_eviction(self):
        policy = DropPolicy(mode="drop")
        verdict = policy.verdict(_connection(packets=50), CompletionReason.CAPACITY)
        assert verdict == "drop"

    def test_min_packets_gates_short_evictions(self):
        policy = DropPolicy(mode="score", min_packets=3)
        assert (
            policy.verdict(_connection(packets=2), CompletionReason.CAPACITY)
            == "drop"
        )
        assert (
            policy.verdict(_connection(packets=3), CompletionReason.CAPACITY)
            == "score"
        )

    def test_sample_admits_handshaked_flows_unconditionally(self):
        policy = DropPolicy(mode="sample", sample_rate=0.0)
        handshaked = _connection(handshake=True)
        assert policy.verdict(handshaked, CompletionReason.CAPACITY) == "score"
        bare = _connection()
        assert policy.verdict(bare, CompletionReason.CAPACITY) == "drop"

    def test_sample_draw_is_deterministic_per_flow(self):
        policy = DropPolicy(mode="sample", sample_rate=0.25)
        verdicts = {}
        for index in range(200):
            connection = _connection(src=0x0A000001 + index, src_port=2000 + index)
            expected_admit = (
                hash(connection.key) & (_SAMPLE_BUCKETS - 1)
            ) < policy.sample_rate * _SAMPLE_BUCKETS
            verdict = policy.verdict(connection, CompletionReason.CAPACITY)
            assert verdict == ("score" if expected_admit else "drop")
            verdicts[index] = verdict
        # Repeat verdicts are identical — the draw carries no hidden state.
        for index, verdict in verdicts.items():
            connection = _connection(src=0x0A000001 + index, src_port=2000 + index)
            assert policy.verdict(connection, CompletionReason.CAPACITY) == verdict
        assert set(verdicts.values()) == {"score", "drop"}  # rate is interior

    def test_sample_rate_one_admits_everything(self):
        policy = DropPolicy(mode="sample", sample_rate=1.0)
        for index in range(32):
            connection = _connection(src=0x0A000001 + index)
            assert policy.verdict(connection, CompletionReason.CAPACITY) == "score"


class TestSubnetBudget:
    def _policy(self, **overrides):
        defaults = dict(subnet_budget=2, subnet_prefix=24, budget_window=10.0)
        defaults.update(overrides)
        return DropPolicy(**defaults)

    def test_budget_caps_one_subnet(self):
        policy = self._policy()
        state = policy.new_state()
        flows = [
            _connection(src=0x0A000000 + host, src_port=5000 + host)
            for host in range(1, 6)
        ]
        verdicts = [
            policy.verdict(flow, CompletionReason.CAPACITY, state) for flow in flows
        ]
        assert verdicts == ["score", "score", "subnet", "subnet", "subnet"]

    def test_budgets_are_independent_per_subnet(self):
        policy = self._policy(subnet_budget=1)
        state = policy.new_state()
        first = _connection(src=0x0A000001)  # 10.0.0.0/24
        second = _connection(src=0x0A000101, src_port=6000)  # 10.0.1.0/24
        third = _connection(src=0x0A000002, src_port=6001)  # 10.0.0.0/24 again
        assert policy.verdict(first, CompletionReason.CAPACITY, state) == "score"
        assert policy.verdict(second, CompletionReason.CAPACITY, state) == "score"
        assert policy.verdict(third, CompletionReason.CAPACITY, state) == "subnet"

    def test_window_rolls_on_stream_time(self):
        policy = self._policy(subnet_budget=1, budget_window=10.0)
        state = policy.new_state()
        early = _connection(src=0x0A000001, start=100.0)
        crowded = _connection(src=0x0A000002, src_port=6000, start=105.0)
        later = _connection(src=0x0A000003, src_port=6001, start=111.0)
        assert policy.verdict(early, CompletionReason.CAPACITY, state) == "score"
        assert policy.verdict(crowded, CompletionReason.CAPACITY, state) == "subnet"
        # 11 stream-seconds later the window rolled; the budget is fresh.
        assert policy.verdict(later, CompletionReason.CAPACITY, state) == "score"

    def test_prefix_zero_pools_the_whole_internet(self):
        policy = self._policy(subnet_budget=1, subnet_prefix=0)
        state = policy.new_state()
        assert (
            policy.verdict(_connection(src=0x0A000001), CompletionReason.CAPACITY, state)
            == "score"
        )
        assert (
            policy.verdict(
                _connection(src=0xC6336401, src_port=7000),
                CompletionReason.CAPACITY,
                state,
            )
            == "subnet"
        )

    def test_without_state_budget_never_fires(self):
        # Without an AdmissionState no budget can be charged, so the verdict
        # falls through to "score".
        policy = self._policy(subnet_budget=1)
        first = _connection(src=0x0A000001)
        second = _connection(src=0x0A000002, src_port=6000)
        assert policy.verdict(first, CompletionReason.CAPACITY) == "score"
        assert policy.verdict(second, CompletionReason.CAPACITY) == "score"


class TestApplyDropPolicy:
    def test_records_drops_by_kind(self):
        policy = DropPolicy(subnet_budget=1, subnet_prefix=8)
        state = policy.new_state()
        metrics = StreamingMetrics()
        completions = [
            (_connection(src=0x0A000001), CompletionReason.CAPACITY),
            (_connection(src=0x0A000002, src_port=6000), CompletionReason.CAPACITY),
            (_connection(src=0x0A000003, src_port=6001), CompletionReason.CLOSED),
        ]
        kept = apply_drop_policy(completions, policy, metrics, state)
        assert [reason for _, reason in kept] == [
            CompletionReason.CAPACITY,
            CompletionReason.CLOSED,
        ]
        snapshot = metrics.snapshot()
        assert snapshot["subnet_drops"] == 1
        assert snapshot["completions_by_reason"]["capacity"] == 2

    def test_no_policy_returns_input_unchanged(self):
        completions = [(_connection(), CompletionReason.CAPACITY)]
        assert apply_drop_policy(completions, None, None) is completions


class TestRuntimeIntegration:
    def test_subnet_budget_throttles_a_flood(self, trained_clap):
        from tests.serve.test_flood import syn_flood

        detector = ParallelStreamingDetector(
            trained_clap,
            workers=1,
            idle_timeout=1e9,
            close_grace=0.5,
            max_flows=32,
            drop_policy=DropPolicy(
                # The whole 10.0.0.0/8 flood shares one budget bucket.
                subnet_budget=4,
                subnet_prefix=8,
                budget_window=1e9,
            ),
        )
        for packet in syn_flood(400):
            detector.ingest(packet)
        detector.close()
        snapshot = detector.metrics_snapshot()
        assert snapshot["subnet_drops"] > 0
        assert snapshot["completions_by_reason"]["capacity"] >= 300
        # Exactly the budgeted handful of capacity evictions were scored;
        # the drained residue (≤ max_flows) also scores, as DRAIN completions.
        assert (
            snapshot["subnet_drops"]
            == snapshot["completions_by_reason"]["capacity"] - 4
        )
        assert snapshot["connections_scored"] <= 4 + 32
