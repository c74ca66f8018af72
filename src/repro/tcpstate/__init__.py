"""Reference TCP connection tracking used to label training traffic.

Stands in for the instrumented Linux conntrack module of the paper: replaying
connections through :class:`ConnectionLabeler` yields, per packet, the
``(master state, in-/out-of-window)`` label that trains the Stage-(a) RNN.
The labeller reads packet columns, so ``Packet`` objects and column views
label alike.
"""

from repro.tcpstate.conntrack import ConnectionLabeler, PacketObservation
from repro.tcpstate.states import (
    NUM_LABEL_CLASSES,
    NUM_MASTER_STATES,
    NUM_WINDOW_VERDICTS,
    MasterState,
    StateLabel,
    WindowVerdict,
    all_labels,
    label_names,
)
from repro.tcpstate.window import (
    EndpointWindow,
    in_window,
    seq_add,
    seq_after,
    seq_before,
    seq_between,
    seq_diff,
)

__all__ = [
    "ConnectionLabeler",
    "EndpointWindow",
    "MasterState",
    "NUM_LABEL_CLASSES",
    "NUM_MASTER_STATES",
    "NUM_WINDOW_VERDICTS",
    "PacketObservation",
    "StateLabel",
    "WindowVerdict",
    "all_labels",
    "in_window",
    "label_names",
    "seq_add",
    "seq_after",
    "seq_before",
    "seq_between",
    "seq_diff",
]
