"""Minimal libpcap (``.pcap``) reader and writer.

Captures are written with link type ``LINKTYPE_RAW`` (101), i.e. each record
is a bare IPv4 packet, which is all this library produces.  The reader also
accepts Ethernet (``LINKTYPE_ETHERNET``, 1) and Linux cooked capture
(``LINKTYPE_LINUX_SLL``, 113) files and strips the link-layer header, so real
captures such as the MAWI traces can be ingested directly.  Records of any
other link type raise :class:`ValueError`.

Captures are read as packet columns, the one ingest representation:
:meth:`PcapReader.iter_column_blocks` reads the file in large blocks (one
``read`` per block), a scan walks the record chain with one ``struct`` unpack
per record header, and the block's records are handed to
:func:`repro.netstack.columns.parse_packet_columns`, which parses them all
vectorized in one pass over the block.  :func:`read_packet_columns` reads a
whole capture into one block; its ``views()`` are the packets that flow
assembly, training, scoring and attack injection take.  The writer takes
``Packet`` objects and column views alike, and writes a view parsed from a
capture as its original bytes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from collections.abc import Iterable, Iterator

import numpy as np

from repro.netstack.packet import Packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
LINKTYPE_LINUX_SLL = 113

_GLOBAL_HEADER = struct.Struct("IHHiIII")
_RECORD_HEADER = struct.Struct("IIII")


class PcapWriter:
    """Write IPv4 packets to a classic pcap file (LINKTYPE_RAW)."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._file = open(self._path, "wb")
        header = _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_RAW)
        self._file.write(header)

    def write_packet(self, packet: Packet) -> None:
        """Serialise ``packet`` (or a column view) and append it as a record."""
        self.write_raw(packet.to_bytes(), packet.timestamp)

    def write_raw(self, data: bytes, timestamp: float) -> None:
        """Append pre-serialised packet bytes with the given timestamp."""
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1_000_000))
        record = _RECORD_HEADER.pack(seconds, microseconds, len(data), len(data))
        self._file.write(record)
        self._file.write(data)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapReader:
    """Read a pcap file as blocks of packet columns."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._file = open(self._path, "rb")
        header = self._file.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError(f"not a pcap file (truncated global header): {path}")
        magic = struct.unpack("=I", header[:4])[0]
        if magic == PCAP_MAGIC:
            self._byteorder = "="
        elif magic == PCAP_MAGIC_SWAPPED:
            # The file was written with the opposite byte order to this host.
            native_is_little = struct.pack("=H", 1)[0] == 1
            self._byteorder = ">" if native_is_little else "<"
        else:
            raise ValueError(f"not a pcap file (bad magic 0x{magic:08x}): {path}")
        fields = struct.unpack(self._byteorder + "IHHiIII", header)
        self.link_type = fields[6]

    # ------------------------------------------------------------ columnar path
    @property
    def _little_endian(self) -> bool:
        if self._byteorder == "=":
            return struct.pack("=H", 1)[0] == 1
        return self._byteorder == "<"

    def _scan_blocks(self, block_bytes: int) -> Iterator[tuple[bytes, list[int]]]:
        """Carve whole records out of large file blocks.

        Yields ``(buffer, data_starts)`` per block, where ``data_starts``
        point just past each 16-byte record header (whose captured lengths
        :meth:`_block_columns` gathers, vectorized).  A record straddling a
        block boundary is carried over into the next block, and a truncated
        trailing record is dropped.
        """
        # The captured length is the third u32 of each 16-byte record header.
        captured_at = struct.Struct(("<" if self._little_endian else ">") + "8xI").unpack_from
        header = _RECORD_HEADER.size
        # Bytes still unread in the file: a record claiming more than this is
        # truncated (or has a corrupt length) and is dropped like a truncated
        # record — without first buffering the whole remaining file.
        here = self._file.tell()
        file_remaining = max(os.fstat(self._file.fileno()).st_size - here, 0)
        read_size = block_bytes
        carry = b""
        while True:
            # A non-positive block size means "read to EOF" (whole-file mode).
            chunk = self._file.read(read_size if read_size > 0 else -1)
            file_remaining -= len(chunk)
            buffer = carry + chunk if carry else chunk
            if not buffer:
                return
            starts: list[int] = []
            append = starts.append
            position = 0
            end = len(buffer)
            while position + header <= end:
                data_start = position + header
                record_end = data_start + captured_at(buffer, position)[0]
                if record_end > end:
                    if record_end - end > file_remaining:
                        # The rest of the file cannot complete this record:
                        # truncated/corrupt trailing record, drop it.
                        carry = b""
                        if starts:
                            yield buffer, starts
                        return
                    break
                append(data_start)
                position = record_end
            carry = buffer[position:]
            if starts:
                read_size = block_bytes
                yield buffer, starts
            elif chunk:
                # A single record larger than the block: grow the next read
                # geometrically so the carry+chunk recopy stays linear.
                read_size = max(read_size, len(carry)) * 2
            if not chunk:
                return

    def _block_columns(self, buffer: bytes, starts: list[int], strict: bool):
        """Vectorized record-header parse + link-layer strip for one block."""
        from repro.netstack.columns import parse_packet_columns

        data = np.frombuffer(buffer, dtype=np.uint8)
        offsets = np.asarray(starts, dtype=np.int64)
        # Record headers sit 16 bytes before each data start; seconds,
        # microseconds and the captured length are their first three
        # little/big-endian u32 fields.
        header_at = (offsets - _RECORD_HEADER.size)[:, None] + np.arange(12)
        words = np.ascontiguousarray(data[header_at]).view(
            "<u4" if self._little_endian else ">u4"
        )
        timestamps = words[:, 0].astype(np.float64) + words[:, 1].astype(np.float64) / 1e6
        lengths = words[:, 2].astype(np.int64)
        if self.link_type == LINKTYPE_RAW:
            keep = np.ones(offsets.shape[0], dtype=bool)
            skip = 0
        elif self.link_type in (LINKTYPE_ETHERNET, LINKTYPE_LINUX_SLL):
            skip = 14 if self.link_type == LINKTYPE_ETHERNET else 16
            type_at = skip - 2
            keep = lengths >= skip
            ethertype = np.zeros(offsets.shape[0], dtype=np.int64)
            safe = np.where(keep, offsets + type_at, 0)
            ethertype[keep] = (
                data[safe[keep]].astype(np.int64) << 8
            ) | data[safe[keep] + 1]
            keep &= ethertype == 0x0800
        else:
            raise ValueError(
                f"unsupported pcap link type {self.link_type} in {self._path}"
                " (expected LINKTYPE_RAW, LINKTYPE_ETHERNET or LINKTYPE_LINUX_SLL)"
            )
        return parse_packet_columns(
            data,
            offsets[keep] + skip,
            lengths[keep] - skip,
            timestamps[keep],
            strict=strict,
        )

    def iter_column_blocks(
        self, *, block_bytes: int = 4 << 20, strict: bool = False
    ):
        """Yield :class:`~repro.netstack.columns.PacketColumns` per file block.

        Bounded memory: only ``block_bytes`` of capture (plus its columns) is
        alive at a time, so arbitrarily large captures stream through the
        columnar path.  Non-TCP/malformed records are dropped unless
        ``strict=True``, which raises :class:`ValueError` on the first.
        """
        for buffer, starts in self._scan_blocks(block_bytes):
            columns = self._block_columns(buffer, starts, strict)
            if len(columns):
                yield columns

    def read_columns(self, *, strict: bool = False):
        """Parse the whole remaining capture into one
        :class:`~repro.netstack.columns.PacketColumns`."""
        from repro.netstack.columns import PacketColumns

        return PacketColumns.concatenate(
            list(self.iter_column_blocks(block_bytes=-1, strict=strict))
        )

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_packet_columns(path: str | Path, *, strict: bool = False):
    """Read all TCP/IPv4 packets from ``path`` as one
    :class:`~repro.netstack.columns.PacketColumns`."""
    with PcapReader(path) as reader:
        return reader.read_columns(strict=strict)


def write_pcap(path: str | Path, packets: Iterable[Packet]) -> int:
    """Write ``packets`` to ``path``; returns the number of records written."""
    count = 0
    with PcapWriter(path) as writer:
        for packet in packets:
            writer.write_packet(packet)
            count += 1
    return count
