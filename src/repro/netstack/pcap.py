"""Minimal libpcap (``.pcap``) reader and writer.

Captures are written with link type ``LINKTYPE_RAW`` (101), i.e. each record
is a bare IPv4 packet, which is all this library produces.  The reader also
accepts Ethernet (``LINKTYPE_ETHERNET``, 1) and Linux cooked capture
(``LINKTYPE_LINUX_SLL``, 113) files and strips the link-layer header, so real
captures such as the MAWI traces can be ingested directly.  Records of any
other link type raise :class:`ValueError`.

Two read paths are offered:

* :meth:`PcapReader.records` / :meth:`PcapReader.packets` — the classic
  one-object-per-record iterator, kept as the reference implementation;
* :meth:`PcapReader.read_columns` / :meth:`PcapReader.iter_column_blocks` —
  the columnar fast path: the file is read in large blocks (one ``read`` per
  block instead of two per record), a scan walks the record chain with one
  ``struct`` unpack per record header, and the block's records are handed to
  :func:`repro.netstack.columns.parse_packet_columns`, which parses them all
  vectorized in one pass over the block.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PcapRecord:
    """One raw record from a capture file."""

    timestamp: float
    data: bytes


class PcapWriter:
    """Write IPv4 packets to a classic pcap file (LINKTYPE_RAW)."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._file = open(self._path, "wb")
        header = _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_RAW)
        self._file.write(header)

    def write_packet(self, packet: Packet) -> None:
        """Serialise ``packet`` and append it as a record."""
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
    """Iterate records (and optionally parsed packets) from a pcap file."""

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

    # -------------------------------------------------------------- iteration
    def records(self) -> Iterator[PcapRecord]:
        """Yield raw records, stripping any link-layer framing."""
        record_struct = struct.Struct(self._byteorder + "IIII")
        while True:
            header = self._file.read(record_struct.size)
            if len(header) < record_struct.size:
                return
            seconds, microseconds, captured_length, _original_length = record_struct.unpack(header)
            data = self._file.read(captured_length)
            if len(data) < captured_length:
                return
            payload = self._strip_link_layer(data)
            if payload is None:
                continue
            yield PcapRecord(timestamp=seconds + microseconds / 1_000_000, data=payload)

    def packets(self, strict: bool = False) -> Iterator[Packet]:
        """Yield parsed TCP/IPv4 packets; non-TCP records are skipped.

        With ``strict=True`` a malformed record raises instead of being
        skipped.
        """
        for record in self.records():
            try:
                yield Packet.from_bytes(record.data, timestamp=record.timestamp)
            except ValueError:
                if strict:
                    raise

    def _strip_link_layer(self, data: bytes) -> bytes | None:
        if self.link_type == LINKTYPE_RAW:
            return data
        if self.link_type == LINKTYPE_ETHERNET:
            if len(data) < 14:
                return None
            ethertype = struct.unpack("!H", data[12:14])[0]
            if ethertype != 0x0800:
                return None
            return data[14:]
        if self.link_type == LINKTYPE_LINUX_SLL:
            if len(data) < 16:
                return None
            protocol = struct.unpack("!H", data[14:16])[0]
            if protocol != 0x0800:
                return None
            return data[16:]
        raise self._unsupported_link_type()

    def _unsupported_link_type(self) -> ValueError:
        """The shared unknown-link-type error (object and columnar paths)."""
        return ValueError(
            f"unsupported pcap link type {self.link_type} in {self._path}"
            " (expected LINKTYPE_RAW, LINKTYPE_ETHERNET or LINKTYPE_LINUX_SLL)"
        )

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
        :meth:`_block_columns` gathers, vectorized).  This is
        the bulk replacement for the two ``read()`` calls per record that
        :meth:`records` makes; a record straddling a block boundary is carried
        over into the next block, and a truncated trailing record is dropped,
        exactly as the iterator path does.
        """
        # The captured length is the third u32 of each 16-byte record header.
        captured_at = struct.Struct(("<" if self._little_endian else ">") + "8xI").unpack_from
        header = _RECORD_HEADER.size
        # Bytes still unread in the file: a record claiming more than this is
        # truncated (or has a corrupt length) and is dropped like the object
        # path drops it — without first buffering the whole remaining file.
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
            raise self._unsupported_link_type()
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
        ``strict=True`` (mirroring :meth:`packets`).
        """
        for buffer, starts in self._scan_blocks(block_bytes):
            columns = self._block_columns(buffer, starts, strict)
            if len(columns):
                yield columns

    def read_columns(self, *, strict: bool = False):
        """Parse the whole remaining capture into one
        :class:`~repro.netstack.columns.PacketColumns` (the bulk counterpart
        of :func:`read_pcap`)."""
        from repro.netstack.columns import PacketColumns

        blocks = list(self.iter_column_blocks(block_bytes=-1, strict=strict))
        if not blocks:
            return PacketColumns.empty()
        if len(blocks) == 1:
            return blocks[0]
        return PacketColumns.concatenate(blocks)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_packet_columns(path: str | Path, *, strict: bool = False):
    """Read all TCP/IPv4 packets from ``path`` as one
    :class:`~repro.netstack.columns.PacketColumns` (columnar ``read_pcap``)."""
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


def read_pcap(path: str | Path) -> list[Packet]:
    """Read all TCP/IPv4 packets from ``path`` into a list."""
    with PcapReader(path) as reader:
        return list(reader.packets())
