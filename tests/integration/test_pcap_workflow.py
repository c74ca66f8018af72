"""Integration test: the offline forensic workflow over pcap files.

Generate benign traffic, inject an attack, write everything to a capture file,
read it back, reassemble the connections and verify that (1) the reference
labeller still accepts the benign flows and (2) a trained CLAP model flags the
attacked connection with the highest score.
"""

import numpy as np

from repro.attacks.base import get_strategy
from repro.attacks.injector import AttackInjector
from repro.netstack.flow import assemble_connections
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.tcpstate.conntrack import ConnectionLabeler
from repro.traffic.generator import TrafficGenerator


class TestOfflineForensics:
    def test_capture_round_trip_preserves_connections(self, tmp_path):
        generator = TrafficGenerator(seed=50)
        connections = generator.generate_connections(6)
        packets = sorted((p for c in connections for p in c.packets), key=lambda p: p.timestamp)
        path = tmp_path / "benign.pcap"
        write_pcap(path, packets)
        recovered = assemble_connections(read_packet_columns(path).views())
        assert len(recovered) == 6
        assert sum(len(c) for c in recovered) == len(packets)
        labeler = ConnectionLabeler()
        for connection in recovered:
            assert all(obs.accepted for obs in labeler.observe_connection(connection.packets))

    def test_attacked_capture_scores_highest(self, tmp_path, trained_clap, small_dataset):
        eligible = [c for c in small_dataset.test if len(c) >= 5][:4]
        strategy = get_strategy("GFW: Injected RST Bad TCP-Checksum/MD5-Option")
        adversarial = AttackInjector(seed=8).attack_connection(strategy, eligible[0])
        mixture = [adversarial.connection] + [c.copy() for c in eligible[1:]]
        packets = sorted((p for c in mixture for p in c.packets), key=lambda p: p.timestamp)
        path = tmp_path / "suspicious.pcap"
        write_pcap(path, packets)

        recovered = assemble_connections(read_packet_columns(path).views())
        scores = trained_clap.score_connections(recovered)
        attacked_key = adversarial.connection.key
        attacked_positions = [i for i, c in enumerate(recovered) if c.key == attacked_key]
        assert attacked_positions
        assert int(np.argmax(scores)) == attacked_positions[0]
