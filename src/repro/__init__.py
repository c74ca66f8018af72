"""CLAP reproduction: detecting DPI evasion attacks with context learning.

This package is a from-scratch reproduction of CLAP (Zhu et al., CoNEXT 2020),
including every substrate the paper depends on:

* :mod:`repro.netstack` -- IPv4/TCP packet crafting, parsing and PCAP I/O.
* :mod:`repro.tcpstate` -- the reference TCP connection-tracking state machine
  used to label training traffic.
* :mod:`repro.traffic` -- a benign traffic corpus generator standing in for the
  MAWI backbone captures.
* :mod:`repro.attacks` -- a simulator for the 73 DPI evasion strategies from
  SymTCP, lib-erate and Geneva.
* :mod:`repro.nn` -- a small numpy neural-network library (GRU with exposed
  gates, autoencoders, Adam, backpropagation through time).
* :mod:`repro.features` -- the Table-7 feature set and context-profile fusion.
* :mod:`repro.core` -- the CLAP pipeline itself (stages a-d).
* :mod:`repro.baselines` -- Baseline #1 (intra-packet only) and Baseline #2
  (Kitsune-style ensemble of autoencoders).
* :mod:`repro.evaluation` -- AUC-ROC / EER / Top-N metrics and the experiment
  runner used by the benchmark harness.

Quickstart
----------

>>> from repro import BenignDataset, Clap, ClapConfig, AttackInjector, get_strategy
>>> dataset = BenignDataset.synthesize(connection_count=120, seed=0)
>>> clap = Clap(ClapConfig.fast())
>>> report = clap.fit(dataset.train)
>>> strategy = get_strategy("Snort: Injected RST Pure")
>>> adversarial = AttackInjector(seed=1).attack_connection(strategy, dataset.test[0])
>>> clap.score_connection(adversarial.connection) >= 0.0
True
"""

from repro.attacks import (
    AttackInjector,
    AttackSource,
    AttackStrategy,
    ContextCategory,
    all_strategies,
    get_strategy,
)
from repro.core import Clap, ClapConfig, DetectionResult
from repro.baselines import IntraPacketBaseline, KitsuneDetector
from repro.evaluation import ExperimentRunner, auc_roc, equal_error_rate, roc_curve
from repro.netstack import (
    CompletionReason,
    Connection,
    FlowTable,
    Packet,
    read_packet_columns,
    write_pcap,
)
from repro.serve import (
    Alert,
    DetectionEvent,
    DropPolicy,
    FlushPolicy,
    NDJSONSource,
    ParallelStreamingDetector,
    PcapSource,
    ReplaySource,
    StreamingDetector,
    StreamingMetrics,
)
from repro.traffic import BenignDataset, TrafficGenerator
from repro.version import __version__

__all__ = [
    "Alert",
    "AttackInjector",
    "AttackSource",
    "AttackStrategy",
    "BenignDataset",
    "Clap",
    "ClapConfig",
    "CompletionReason",
    "Connection",
    "ContextCategory",
    "DetectionEvent",
    "DetectionResult",
    "DropPolicy",
    "ExperimentRunner",
    "FlowTable",
    "FlushPolicy",
    "IntraPacketBaseline",
    "KitsuneDetector",
    "NDJSONSource",
    "Packet",
    "ParallelStreamingDetector",
    "PcapSource",
    "ReplaySource",
    "StreamingDetector",
    "StreamingMetrics",
    "TrafficGenerator",
    "__version__",
    "all_strategies",
    "auc_roc",
    "equal_error_rate",
    "get_strategy",
    "read_packet_columns",
    "roc_curve",
    "write_pcap",
]
