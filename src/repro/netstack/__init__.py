"""Packet substrate: IPv4/TCP headers, checksums, PCAP I/O and flow assembly.

This package stands in for scapy in the original CLAP implementation.  It
provides byte-accurate wire formats so that captures can be written, re-read
and mutated by the attack simulator without losing any of the header fields
the detector relies on.
"""

from repro.netstack.addresses import int_to_ip, ip_to_int, is_private
from repro.netstack.columns import (
    ColumnPacketView,
    PacketColumns,
    parse_packet_columns,
)
from repro.netstack.checksum import (
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    tcp_checksum,
    verify_checksum,
    verify_tcp_checksum,
)
from repro.netstack.flow import (
    CompletionReason,
    Connection,
    FlowKey,
    FlowTable,
    assemble_connections,
    flow_key_of,
    packet_stream,
    split_connections,
)
from repro.netstack.ip import Ipv4Header
from repro.netstack.options import (
    EndOfOptions,
    MaximumSegmentSize,
    Md5Signature,
    NoOperation,
    OptionKind,
    RawOption,
    SackPermitted,
    Timestamp,
    UserTimeout,
    WindowScale,
    decode_options,
    encode_options,
    find_option,
)
from repro.netstack.packet import Direction, Packet
from repro.netstack.pcap import (
    PcapReader,
    PcapWriter,
    read_packet_columns,
    write_pcap,
)
from repro.netstack.tcp import TcpFlags, TcpHeader

__all__ = [
    "ColumnPacketView",
    "CompletionReason",
    "Connection",
    "Direction",
    "FlowTable",
    "EndOfOptions",
    "FlowKey",
    "Ipv4Header",
    "MaximumSegmentSize",
    "Md5Signature",
    "NoOperation",
    "OptionKind",
    "Packet",
    "PacketColumns",
    "PcapReader",
    "PcapWriter",
    "RawOption",
    "SackPermitted",
    "TcpFlags",
    "TcpHeader",
    "Timestamp",
    "UserTimeout",
    "WindowScale",
    "assemble_connections",
    "decode_options",
    "encode_options",
    "find_option",
    "flow_key_of",
    "int_to_ip",
    "internet_checksum",
    "ip_to_int",
    "is_private",
    "ones_complement_sum",
    "packet_stream",
    "parse_packet_columns",
    "pseudo_header",
    "read_packet_columns",
    "split_connections",
    "tcp_checksum",
    "verify_checksum",
    "verify_tcp_checksum",
    "write_pcap",
]
