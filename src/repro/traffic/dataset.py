"""Corpus/dataset management (the MAWI-like dataset of Section 4.1).

A :class:`BenignDataset` owns a set of benign connections, splits them into
training and testing partitions and reports the Table-4 style statistics.  It
can be built synthetically (default) or loaded from any pcap capture, so the
pipeline also works on real traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.netstack.flow import Connection, assemble_connections, split_connections
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.traffic.generator import GeneratorConfig, TrafficGenerator
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class DatasetStatistics:
    """The quantities reported in Table 4 of the paper."""

    total_packets: int
    total_connections: int
    training_packets: int
    training_connections: int
    testing_packets: int
    testing_connections: int

    def as_rows(self) -> list[tuple]:
        """Rows suitable for printing a Table-4 style summary."""
        return [
            ("# TCP/IPv4 Packets", self.total_packets),
            ("# TCP/IPv4 Connections", self.total_connections),
            ("# TCP/IPv4 Packets (Training)", self.training_packets),
            ("# TCP/IPv4 Connections (Training)", self.training_connections),
            ("# TCP/IPv4 Packets (Testing)", self.testing_packets),
            ("# TCP/IPv4 Connections (Testing)", self.testing_connections),
        ]


class BenignDataset:
    """A benign-traffic corpus with a train/test split."""

    def __init__(self, train: list[Connection], test: list[Connection]) -> None:
        self.train = train
        self.test = test

    # ------------------------------------------------------------ constructors
    @classmethod
    def synthesize(
        cls,
        connection_count: int = 400,
        *,
        train_fraction: float = 0.83,
        seed: SeedLike = 0,
        config: GeneratorConfig | None = None,
    ) -> "BenignDataset":
        """Generate a synthetic corpus mirroring the paper's 83/17 split."""
        rng = ensure_rng(seed)
        generator = TrafficGenerator(seed=rng, config=config)
        connections = generator.generate_connections(connection_count)
        train, test = split_connections(connections, train_fraction, rng)
        return cls(train=train, test=test)

    @classmethod
    def from_pcap(
        cls,
        path: str | Path,
        *,
        train_fraction: float = 0.83,
        seed: SeedLike = 0,
        min_connection_length: int = 3,
    ) -> "BenignDataset":
        """Load connections from a capture file and split train/test.

        The connections hold column views of the capture."""
        rng = ensure_rng(seed)
        connections = [
            connection
            for connection in assemble_connections(read_packet_columns(path).views())
            if len(connection) >= min_connection_length
        ]
        if not connections:
            raise ValueError(f"no usable TCP connections found in {path}")
        train, test = split_connections(connections, train_fraction, rng)
        return cls(train=train, test=test)

    # ----------------------------------------------------------------- export
    def save(self, directory: str | Path) -> dict[str, Path]:
        """Write ``train.pcap`` / ``test.pcap`` under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "train": directory / "train.pcap",
            "test": directory / "test.pcap",
        }
        write_pcap(paths["train"], (p for c in self.train for p in c.packets))
        write_pcap(paths["test"], (p for c in self.test for p in c.packets))
        return paths

    # ------------------------------------------------------------- statistics
    @staticmethod
    def _packet_count(connections: list[Connection]) -> int:
        return sum(len(connection) for connection in connections)

    def statistics(self) -> DatasetStatistics:
        """Table-4 style statistics for this corpus."""
        training_packets = self._packet_count(self.train)
        testing_packets = self._packet_count(self.test)
        return DatasetStatistics(
            total_packets=training_packets + testing_packets,
            total_connections=len(self.train) + len(self.test),
            training_packets=training_packets,
            training_connections=len(self.train),
            testing_packets=testing_packets,
            testing_connections=len(self.test),
        )

    def scenario_coverage(self) -> dict[str, int]:
        """Rough scenario histogram inferred from connection shape (debugging aid)."""
        histogram: dict[str, int] = {"with_handshake": 0, "reset": 0, "fin_closed": 0, "other": 0}
        for connection in self.train + self.test:
            if any(p.tcp.is_rst for p in connection.packets):
                histogram["reset"] += 1
            elif any(p.tcp.is_fin for p in connection.packets):
                histogram["fin_closed"] += 1
            elif connection.has_handshake:
                histogram["with_handshake"] += 1
            else:
                histogram["other"] += 1
        return histogram
