"""Columnar packet representation: the ingest-side counterpart of the engine.

The object pipeline parses every record into a :class:`~repro.netstack.packet.Packet`
(two dataclasses, a decoded option list, a payload slice) before any feature
is computed — per-packet Python that caps streaming throughput well below the
batched scoring path.  This module keeps a capture block as **structured
NumPy columns** instead:

* :func:`parse_packet_columns` turns a block buffer plus record offsets into
  a :class:`PacketColumns`, reading each byte of the block once: every fixed
  IP/TCP header field is sliced out of a gathered ``(n, 20)`` byte matrix,
  IP/TCP checksums are validated from ``np.add.reduceat`` word sums over each
  header and segment (one pass per byte parity), and TCP options made of NOP,
  MSS, window scale, SACK-permitted and Timestamp are decoded by one
  vectorized cursor walk.  Only genuinely irregular records (other options,
  reserved bits, truncated headers) fall back to the per-packet reference
  parser, whose semantics the fast path reproduces **exactly** — equality is
  enforced by ``tests/features/test_columnar_equivalence.py``.
* :class:`ColumnPacketView` is a per-packet handle over one column row.  It
  exposes just enough of the :class:`Packet` surface (timestamps, flag bits,
  addresses/ports, direction) for flow assembly and the streaming runtime,
  and materialises a full ``Packet`` only on demand.
* :meth:`PacketColumns.from_packets` converts in-memory packets, so replayed
  object streams can ride the same vectorized feature path.

The 32 Table-7 features are computed from these columns by
:meth:`repro.features.fields.RawFeatureExtractor.extract_packet_trains`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.netstack.options import (
    OptionKind,
    decode_options,
    encode_options,
    summarize_feature_options,
)
from repro.netstack.packet import Direction, Packet
from repro.netstack.tcp import TCP_BASE_HEADER_LENGTH, TcpFlags

# Column names shared by :meth:`PacketColumns.concatenate` and the dataclass;
# ``timestamp`` is float64, ``mss``/``ws_shift``/``ut_timeout``/``md5_ok``
# are float64 feature values, the ``*_ok``/``ts_present``/``ip_options``
# columns are bool and everything else is int64.
_ARRAY_FIELDS = (
    "timestamp",
    "src",
    "dst",
    "src_port",
    "dst_port",
    "seq",
    "ack",
    "flags",
    "window",
    "urgent",
    "data_offset",
    "payload_len",
    "ihl",
    "version",
    "tos",
    "ttl",
    "total_length",
    "ip_options",
    "ip_ok",
    "tcp_ok",
    "mss",
    "ws_shift",
    "ut_timeout",
    "md5_ok",
    "ts_present",
    "tsval",
    "tsecr",
    "key_ip_a",
    "key_port_a",
    "key_ip_b",
    "key_port_b",
)

_FLOAT_FIELDS = frozenset(("timestamp", "mss", "ws_shift", "ut_timeout", "md5_ok"))
_BOOL_FIELDS = frozenset(("ip_options", "ip_ok", "tcp_ok", "ts_present"))


def _field_dtype(name: str) -> np.dtype:
    if name in _FLOAT_FIELDS:
        return np.dtype(np.float64)
    if name in _BOOL_FIELDS:
        return np.dtype(np.bool_)
    return np.dtype(np.int64)


#: ``pack_block`` wire format (version 1): a fixed little-endian header —
#: magic, version, materialisation-backing kind, row count, backing section
#: length — followed by every ``_ARRAY_FIELDS`` column as raw contiguous
#: bytes (sizes derived from the row count and each field's fixed dtype).
#: The only backing kind is ``NONE`` (no materialisation, an empty backing
#: section): shard workers read columns and never materialise packets.
_PACK_MAGIC = b"CPB"
_PACK_VERSION = 1
_PACK_HEADER = struct.Struct("<3sBBxxxQQ")
_BACKING_NONE = 0


class ColumnPacketView:
    """One packet of a :class:`PacketColumns`, duck-typed like a ``Packet``.

    The view carries the handful of scalars flow assembly touches per packet
    (timestamp, flag bits, endpoint identifiers) in slots, and answers
    ``view.ip`` / ``view.tcp`` with **itself** — the attribute names the
    pipeline reads (``ip.src``, ``tcp.src_port``, ``tcp.is_fin``, …) do not
    collide, so one object serves as packet, IP header and TCP header view.
    Anything deeper (options, payload, serialisation) goes through
    :meth:`materialize`, which builds a real :class:`Packet`.
    """

    __slots__ = (
        "columns",
        "index",
        "timestamp",
        "direction",
        "injected",
        "flags",
        "src",
        "dst",
        "src_port",
        "dst_port",
        "_key",
    )

    def __init__(self, columns, index, timestamp, flags, src, dst, src_port, dst_port,
                 key=None, direction=Direction.CLIENT_TO_SERVER, injected=False):
        self.columns = columns
        self.index = index
        self.timestamp = timestamp
        self.direction = direction
        self.injected = injected
        self.flags = flags
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self._key = key

    # -------------------------------------------------- Packet-like surface
    @property
    def ip(self) -> "ColumnPacketView":
        return self

    @property
    def tcp(self) -> "ColumnPacketView":
        return self

    @property
    def seq(self) -> int:
        return int(self.columns.seq[self.index])

    @property
    def ack(self) -> int:
        return int(self.columns.ack[self.index])

    @property
    def payload_length(self) -> int:
        return int(self.columns.payload_len[self.index])

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & TcpFlags.SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & TcpFlags.ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & TcpFlags.FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & TcpFlags.RST)

    def has_flag(self, mask: int) -> bool:
        return bool(self.flags & mask)

    def flow_key(self):
        """The canonical :class:`~repro.netstack.flow.FlowKey` of this packet
        (normalised vectorized and deduplicated at parse time)."""
        if self._key is None:
            self._key = self.columns.flow_key(self.index)
        return self._key

    # ------------------------------------------------------- materialisation
    def materialize(self) -> Packet:
        """The full :class:`Packet` for this row (parsed or stored original).

        Buffer-backed columns re-parse the packet's raw bytes; packet-backed
        columns return the original object.  Either way the result carries
        this view's ``direction``.
        """
        packet = self.columns.packet(self.index)
        if packet.direction is not self.direction or packet.injected != self.injected:
            if self.columns.packets is not None:
                packet = packet.copy(direction=self.direction, injected=self.injected)
            else:
                packet.direction = self.direction
                packet.injected = self.injected
        return packet

    def copy(self, **overrides) -> Packet:
        """Materialised deep-enough copy (mirrors :meth:`Packet.copy`)."""
        clone = self.materialize().copy(direction=self.direction, injected=self.injected)
        for key, value in overrides.items():
            setattr(clone, key, value)
        return clone

    def summary(self) -> str:
        return self.materialize().summary()


@dataclass
class PacketColumns:
    """A block of TCP/IPv4 packets as structured NumPy columns.

    All header fields the Table-7 feature set reads are first-class arrays
    (one row per packet), checksum validity is precomputed as bits, and the
    canonical bidirectional flow key is pre-normalised into the ``key_*``
    columns.  Raw capture bytes (``buffer``/``offsets``/``lengths``) or the
    original ``packets`` are retained so any row can be materialised back
    into a :class:`Packet` on demand — attack injection and debugging keep
    full fidelity while the hot path never builds packet objects.
    """

    timestamp: np.ndarray  # float64 capture timestamps
    src: np.ndarray  # int64 IPv4 source address
    dst: np.ndarray  # int64 IPv4 destination address
    src_port: np.ndarray
    dst_port: np.ndarray
    seq: np.ndarray
    ack: np.ndarray
    flags: np.ndarray  # int64, 9 flag bits incl. NS
    window: np.ndarray
    urgent: np.ndarray
    data_offset: np.ndarray  # on-wire (or effective) data offset, in words
    payload_len: np.ndarray
    ihl: np.ndarray  # on-wire (or effective) IHL, in words
    version: np.ndarray
    tos: np.ndarray
    ttl: np.ndarray
    total_length: np.ndarray  # on-wire (or effective) IP total length
    ip_options: np.ndarray  # bool: non-empty IP options present
    ip_ok: np.ndarray  # bool: IP header checksum verifies
    tcp_ok: np.ndarray  # bool: TCP checksum verifies
    mss: np.ndarray  # float64 option values (0.0 when absent)
    ws_shift: np.ndarray
    ut_timeout: np.ndarray
    md5_ok: np.ndarray  # float64: 0.0 only for an invalid in-memory MD5 option
    ts_present: np.ndarray  # bool: well-formed Timestamp option present
    tsval: np.ndarray  # int64 raw 32-bit TSval (0 when absent)
    tsecr: np.ndarray
    key_ip_a: np.ndarray  # canonical flow key (lower endpoint first)
    key_port_a: np.ndarray
    key_ip_b: np.ndarray
    key_port_b: np.ndarray
    # Materialisation backing: raw bytes + per-row spans, or original packets.
    buffer: np.ndarray | None = None  # uint8 block buffer
    offsets: np.ndarray | None = None  # int64 start of each raw IPv4 packet
    lengths: np.ndarray | None = None  # int64 captured length of each packet
    packets: list[Packet] | None = None
    # Lazily built, deduplicated FlowKey per row (repeated flows share one
    # object, so downstream dict probes hit the cached hash and identity).
    _flow_keys: list[object] | None = None

    def __len__(self) -> int:
        return self.timestamp.shape[0]

    # ------------------------------------------------------------ constructors
    @classmethod
    def empty(cls) -> "PacketColumns":
        return cls(**{name: np.zeros(0, dtype=_field_dtype(name)) for name in _ARRAY_FIELDS})

    @classmethod
    def concatenate(cls, blocks: Sequence["PacketColumns"]) -> "PacketColumns":
        """Stitch several blocks into one (used by whole-file reads)."""
        blocks = [block for block in blocks if len(block)]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        stitched = cls(
            **{
                name: np.concatenate([getattr(block, name) for block in blocks])
                for name in _ARRAY_FIELDS
            }
        )
        if all(block.buffer is not None for block in blocks):
            base = 0
            offset_parts = []
            buffers = []
            for block in blocks:
                buffers.append(block.buffer)
                offset_parts.append(block.offsets + base)
                base += block.buffer.shape[0]
            stitched.buffer = np.concatenate(buffers)
            stitched.offsets = np.concatenate(offset_parts)
            stitched.lengths = np.concatenate([block.lengths for block in blocks])
        elif all(block.packets is not None for block in blocks):
            merged: list[Packet] = []
            for block in blocks:
                merged.extend(block.packets)
            stitched.packets = merged
        return stitched

    @classmethod
    def gather(
        cls,
        blocks: Sequence["PacketColumns"],
        block_of: np.ndarray,
        rows: np.ndarray,
        fields: Sequence[str] = _ARRAY_FIELDS,
    ) -> "PacketColumns":
        """Rows of several blocks as one new block: new row ``i`` is row
        ``rows[i]`` of ``blocks[block_of[i]]``.

        Each block's rows are written straight to their places in one
        preallocated array per column.  Only the ``fields`` columns are
        copied; the others are ``None`` and there is no materialisation
        backing, so the result serves readers of ``fields`` only.
        """
        parts = []
        for number, block in enumerate(blocks):
            positions = np.flatnonzero(block_of == number)
            parts.append((block, positions, rows[positions]))
        kwargs: dict[str, object] = dict.fromkeys(_ARRAY_FIELDS)
        for name in fields:
            column = np.empty(rows.size, dtype=_field_dtype(name))
            for block, positions, picked in parts:
                column[positions] = getattr(block, name)[picked]
            kwargs[name] = column
        return cls(**kwargs)

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "PacketColumns":
        """Columnar view of in-memory packets.

        Every per-packet scalar is computed with the same accessors the
        per-packet feature extractor uses (effective header sizes, checksum
        validity including ``checksum_valid_hint``, first-well-formed-option
        scan), so columnar feature extraction over the result matches the
        reference exactly — including for attack-crafted packets that cannot
        round-trip through serialisation (e.g. an MD5 option flagged
        invalid).
        """
        packets = list(packets)
        n = len(packets)
        if n == 0:
            return cls.empty()
        rows = np.zeros((n, 18), dtype=np.int64)
        timestamp = np.zeros(n, dtype=np.float64)
        option_values = np.zeros((n, 4), dtype=np.float64)  # mss, ws, ut, md5_ok
        option_values[:, 3] = 1.0
        bools = np.zeros((n, 4), dtype=bool)
        for i, packet in enumerate(packets):
            tcp = packet.tcp
            ip = packet.ip
            payload_len = len(packet.payload)
            mss, ts_option, ws, ut, md5 = summarize_feature_options(tcp.options)
            header_length = TCP_BASE_HEADER_LENGTH + len(encode_options(tcp.options))
            data_offset = tcp.data_offset if tcp.data_offset is not None else header_length // 4
            segment_length = header_length + payload_len
            rows[i] = (
                ip.src,
                ip.dst,
                tcp.src_port,
                tcp.dst_port,
                tcp.seq,
                tcp.ack,
                tcp.flags,
                tcp.window,
                tcp.urgent_pointer,
                data_offset,
                payload_len,
                ip.effective_ihl(),
                ip.version,
                ip.tos,
                ip.ttl,
                ip.effective_total_length(segment_length),
                ts_option.tsval if ts_option is not None else 0,
                ts_option.tsecr if ts_option is not None else 0,
            )
            timestamp[i] = packet.timestamp
            if mss is not None:
                option_values[i, 0] = float(mss.value)
            if ws is not None:
                option_values[i, 1] = float(ws.shift)
            if ut is not None:
                option_values[i, 2] = float(ut.timeout)
            if md5 is not None and not md5.valid:
                option_values[i, 3] = 0.0
            bools[i] = (
                len(ip.options) > 0,
                ip.has_correct_checksum(payload_length=segment_length),
                tcp.has_correct_checksum(ip.src, ip.dst, packet.payload),
                ts_option is not None,
            )
        (
            src, dst, src_port, dst_port, seq, ack, flags, window, urgent,
            data_offset, payload_len, ihl, version, tos, ttl, total_length,
            tsval, tsecr,
        ) = (np.ascontiguousarray(column) for column in rows.T)
        key_swap = (src > dst) | ((src == dst) & (src_port > dst_port))
        return cls(
            timestamp=timestamp,
            src=src,
            dst=dst,
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            urgent=urgent,
            data_offset=data_offset,
            payload_len=payload_len,
            ihl=ihl,
            version=version,
            tos=tos,
            ttl=ttl,
            total_length=total_length,
            ip_options=bools[:, 0].copy(),
            ip_ok=bools[:, 1].copy(),
            tcp_ok=bools[:, 2].copy(),
            mss=option_values[:, 0].copy(),
            ws_shift=option_values[:, 1].copy(),
            ut_timeout=option_values[:, 2].copy(),
            md5_ok=option_values[:, 3].copy(),
            ts_present=bools[:, 3].copy(),
            tsval=tsval,
            tsecr=tsecr,
            key_ip_a=np.where(key_swap, dst, src),
            key_port_a=np.where(key_swap, dst_port, src_port),
            key_ip_b=np.where(key_swap, src, dst),
            key_port_b=np.where(key_swap, src_port, dst_port),
            packets=packets,
        )

    # -------------------------------------------------------------- accessors
    def flow_keys(self) -> list[object]:
        """One :class:`~repro.netstack.flow.FlowKey` per row, deduplicated.

        Built once per block: packets of the same flow share one key object,
        so every later dict probe (the flow table) short-circuits
        on identity instead of re-hashing and comparing 4-tuples.
        """
        if self._flow_keys is None:
            from repro.netstack.flow import FlowKey

            cache: dict[tuple[int, int, int, int], object] = {}
            keys: list[object] = []
            for quad in zip(
                self.key_ip_a.tolist(),
                self.key_port_a.tolist(),
                self.key_ip_b.tolist(),
                self.key_port_b.tolist(),
                strict=True,
            ):
                key = cache.get(quad)
                if key is None:
                    key = FlowKey(*quad)
                    cache[quad] = key
                keys.append(key)
            self._flow_keys = keys
        return self._flow_keys

    def flow_key(self, index: int):
        return self.flow_keys()[index]

    def packet(self, index: int) -> Packet:
        """Materialise row ``index`` as a full :class:`Packet`."""
        if self.packets is not None:
            return self.packets[index]
        if self.buffer is None:
            raise ValueError("PacketColumns has no materialisation backing")
        start = int(self.offsets[index])
        stop = start + int(self.lengths[index])
        return Packet.from_bytes(
            self.buffer[start:stop].tobytes(), timestamp=float(self.timestamp[index])
        )

    def views(self, directions: Sequence[Direction] | None = None) -> list[ColumnPacketView]:
        """Per-packet view handles, in row order (bulk-constructed).

        Packet-backed columns seed each view's ``direction`` and ``injected``
        from the original packet (attack ground truth survives the columnar
        round trip); wire-backed columns start with the parser defaults.
        Explicit ``directions`` (one per row) are for rows whose connections
        are already assembled: they set each view's direction, and the views
        build their flow keys only on demand.
        """
        cls = ColumnPacketView
        if directions is not None:
            keys: list[object | None] = [None] * len(self)
        else:
            keys = self.flow_keys()
            if self.packets is not None:
                directions = [packet.direction for packet in self.packets]
            else:
                directions = [Direction.CLIENT_TO_SERVER] * len(self)
        if self.packets is not None:
            injected = [packet.injected for packet in self.packets]
        else:
            injected = [False] * len(self)
        return [
            cls(self, index, ts, flag, src, dst, sport, dport, key, direction, marked)
            for index, (ts, flag, src, dst, sport, dport, key, direction, marked) in enumerate(
                zip(
                    self.timestamp.tolist(),
                    self.flags.tolist(),
                    self.src.tolist(),
                    self.dst.tolist(),
                    self.src_port.tolist(),
                    self.dst_port.tolist(),
                    keys,
                    directions,
                    injected,
                    strict=True,
                )
            )
        ]


    # ------------------------------------------------------------ wire format
    def pack_block(self, indices: np.ndarray | None = None) -> bytes:
        """Serialise (a row subset of) this block into the compact wire format.

        The process-backed streaming runtime ships each batch of connections
        to a scoring worker with this instead of pickling packet objects:
        every scalar column crosses the process boundary as raw array bytes.  The
        materialisation backing (raw packet bytes or ``Packet`` objects)
        stays behind, so :meth:`packet`/``materialize()`` on the unpacked
        side fail.  ``indices`` selects rows (in the given order); ``None``
        packs the whole block.  :func:`unpack_block` is the exact inverse:
        every column round-trips bit for bit.
        """
        idx: np.ndarray | None = None
        if indices is not None:
            idx = np.asarray(indices, dtype=np.int64)
        n = len(self) if idx is None else int(idx.size)
        sections: list[bytes] = []
        for name in _ARRAY_FIELDS:
            array = getattr(self, name)
            selected = array if idx is None else array[idx]
            sections.append(
                np.ascontiguousarray(selected, dtype=_field_dtype(name)).tobytes()
            )
        header = _PACK_HEADER.pack(_PACK_MAGIC, _PACK_VERSION, _BACKING_NONE, n, 0)
        return b"".join([header, *sections])


def _wire_view(view: memoryview, dtype: np.dtype, count: int, offset: int) -> np.ndarray:
    """A zero-copy, **read-only** array over one wire-format section.

    ``frombuffer`` inherits the buffer's writability, so the view is pinned
    read-only even over a writable buffer (a ``bytearray``): the unpacked
    block never writes through to the wire payload.
    """
    array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    if array.flags.writeable:
        array.flags.writeable = False
    return array


def unpack_block(data: bytes | bytearray | memoryview) -> PacketColumns:
    """Rebuild a :class:`PacketColumns` from :meth:`PacketColumns.pack_block`.

    Scalar columns are zero-copy ``frombuffer`` views over ``data`` (always
    read-only, even over a writable buffer), so the unpacked block's memory
    is the wire payload itself.
    """
    view = memoryview(data)
    magic, version, kind, n, _ = _PACK_HEADER.unpack_from(view, 0)
    if magic != _PACK_MAGIC:
        raise ValueError("not a packed PacketColumns block (bad magic)")
    if version != _PACK_VERSION:
        raise ValueError(f"unsupported packed-block version {version}")
    if kind != _BACKING_NONE:
        raise ValueError(f"unknown packed-block backing kind {kind}")
    position = _PACK_HEADER.size
    kwargs: dict[str, object] = {}
    for name in _ARRAY_FIELDS:
        dtype = _field_dtype(name)
        kwargs[name] = _wire_view(view, dtype, n, position)
        position += dtype.itemsize * n
    return PacketColumns(**kwargs)


def train_rows(
    trains: Sequence[Sequence[Packet]], fields: Sequence[str] = _ARRAY_FIELDS
) -> tuple[PacketColumns, np.ndarray | None, list[int]]:
    """The packets of many trains (connections) as rows of one block.

    Returns ``(columns, rows, bounds)``: train ``t`` owns the rows
    ``rows[bounds[t] : bounds[t + 1]]`` of ``columns`` (``rows`` is ``None``
    when that is every row of ``columns`` in order).  A
    :class:`ColumnPacketView` is a row of its own block, and the object
    packets of all trains become rows of one :meth:`PacketColumns.from_packets`
    block.  When every packet lies in one block, that block is indexed in
    place; otherwise the ``fields`` columns are gathered into a new block in
    train order.
    """
    bounds = [0]
    rows: list[int] = []
    objects: list[Packet] = []
    # Where each run of consecutive rows from one block starts, and its block
    # (``None``: object packets).
    starts: list[int] = []
    owners: list[PacketColumns | None] = []
    current: object = object()  # no run yet
    for train in trains:
        for packet in train:
            if type(packet) is ColumnPacketView:
                block = packet.columns
                row = packet.index
            else:
                block = None
                row = len(objects)
                objects.append(packet)
            if block is not current:
                current = block
                starts.append(len(rows))
                owners.append(block)
            rows.append(row)
        bounds.append(len(rows))
    if objects:
        converted = PacketColumns.from_packets(objects)
        owners = [converted if block is None else block for block in owners]
    index = np.array(rows, dtype=np.int64)
    blocks = {id(block): block for block in owners}
    if len(blocks) <= 1:
        return (owners[0] if owners else PacketColumns.empty()), index, bounds
    number = {key: position for position, key in enumerate(blocks)}
    block_of = np.repeat([number[id(block)] for block in owners], np.diff([*starts, len(rows)]))
    return PacketColumns.gather(list(blocks.values()), block_of, index, fields), None, bounds


def _fold_checksum(totals: np.ndarray) -> np.ndarray:
    """Vectorized RFC 1071 end-around-carry fold of word sums."""
    folded = totals % 0xFFFF
    folded[(folded == 0) & (totals > 0)] = 0xFFFF
    return folded


#: Longest span whose word sum fits a ``uint32`` accumulator:
#: 65,535 words of 0xFFFF sum to just under 2**32.
_UINT32_SPAN_BYTES = 131_070


def _word_sums(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact big-endian 16-bit word sum of ``data[start:start + length]`` per
    span (int64); an odd trailing byte is the high half of a zero-padded word.

    Spans at even offsets sum whole words of the buffer itself, spans at odd
    offsets whole words of the buffer shifted by one byte; each parity reads
    the buffer once (:func:`_whole_word_sums`).
    """
    sums = np.zeros(starts.shape[0], dtype=np.int64)
    if sums.size == 0:
        return sums
    accumulator = np.uint32 if int(lengths.max()) <= _UINT32_SPAN_BYTES else np.uint64
    for parity in (0, 1):
        rows = np.flatnonzero(starts % 2 == parity)
        if rows.size:
            sums[rows] = _whole_word_sums(
                data[parity:], (starts[rows] - parity) // 2, lengths[rows] // 2, accumulator
            )
    odd = np.flatnonzero(lengths % 2 == 1)
    sums[odd] += data[starts[odd] + lengths[odd] - 1].astype(np.int64) << 8
    return sums


def _whole_word_sums(
    body: np.ndarray, first: np.ndarray, count: np.ndarray, accumulator: type
) -> np.ndarray:
    """Sums of ``count`` big-endian words from word ``first`` of ``body``.

    The words are copied once into an aligned ``accumulator`` array, one
    zero word longer so a span may end on the buffer's last byte, and
    ``np.add.reduceat`` sums every span over interleaved ``(first, stop)``
    indices.  Results at the stop indices (the gaps between spans) are
    discarded.
    """
    size = body.shape[0] // 2
    words = np.empty(size + 1, dtype=accumulator)
    words[:size] = body[: 2 * size].view(">u2")
    words[size] = 0
    stop = first + count
    bounds = np.stack((first, stop), axis=1).ravel()
    spans = np.add.reduceat(words, bounds, dtype=accumulator)[0::2].astype(np.int64)
    # ``reduceat`` returns ``words[first]`` for an empty range.
    return np.where(count > 0, spans, 0)


#: Option length the vectorized walk accepts per kind; 0 sends the row to
#: the per-row oracle (EOL, SACK blocks, MD5, user timeout, unknown kinds).
_WALK_LENGTH = np.zeros(256, dtype=np.int64)
_WALK_LENGTH[OptionKind.NOP] = 1
_WALK_LENGTH[OptionKind.MSS] = 4
_WALK_LENGTH[OptionKind.WINDOW_SCALE] = 3
_WALK_LENGTH[OptionKind.SACK_PERMITTED] = 2
_WALK_LENGTH[OptionKind.TIMESTAMP] = 10


def _walk_options(
    data: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Walk the TCP options areas ``data[starts[i]:stops[i]]`` in lockstep.

    Each step reads the option under every row's cursor and advances it.
    Only NOP, MSS, WS, SACK-permitted and Timestamp with their exact lengths
    are decoded, the first option of each kind winning; every byte of such a
    row is consumed by an option, so re-encoding it reproduces the wire
    bytes.  Any other byte under a cursor stops that row.  Returns
    ``(unwalked, mss, ws_shift, ts_present, tsval, tsecr)``, one entry per
    area: ``unwalked`` marks the rows left to the per-row oracle, whose other
    entries are partial.
    """
    n = starts.shape[0]
    unwalked = np.zeros(n, dtype=bool)
    mss = np.zeros(n, dtype=np.float64)
    ws_shift = np.zeros(n, dtype=np.float64)
    ts_present = np.zeros(n, dtype=bool)
    tsval = np.zeros(n, dtype=np.int64)
    tsecr = np.zeros(n, dtype=np.int64)
    mss_seen = np.zeros(n, dtype=bool)
    ws_seen = np.zeros(n, dtype=bool)
    cursor = starts.copy()
    last = data.shape[0] - 1
    rows = np.arange(n)
    while rows.size:
        at = cursor[rows]
        kind = data[at]
        length = _WALK_LENGTH[kind]
        # A multi-byte option's length byte must match and fit the area.
        declared = data[np.minimum(at + 1, last)]
        ok = (length == 1) | (
            (length > 1) & (declared == length) & (at + length <= stops[rows])
        )
        unwalked[rows[~ok]] = True
        rows, at, kind, length = rows[ok], at[ok], kind[ok], length[ok]

        take = (kind == OptionKind.MSS) & ~mss_seen[rows]
        mss[rows[take]] = (data[at[take] + 2].astype(np.int64) << 8) | data[at[take] + 3]
        mss_seen[rows[take]] = True
        take = (kind == OptionKind.WINDOW_SCALE) & ~ws_seen[rows]
        ws_shift[rows[take]] = data[at[take] + 2]
        ws_seen[rows[take]] = True
        take = (kind == OptionKind.TIMESTAMP) & ~ts_present[rows]
        if take.any():
            values = _gather(data, at[take] + 2, 8)
            ts_present[rows[take]] = True
            tsval[rows[take]] = _be32(values, 0)
            tsecr[rows[take]] = _be32(values, 4)

        cursor[rows] = at + length
        rows = rows[cursor[rows] < stops[rows]]
    return unwalked, mss, ws_shift, ts_present, tsval, tsecr


def _gather(data: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Gather ``width`` consecutive bytes per row into an ``(n, width)`` int64
    matrix (rows must be fully inside ``data``)."""
    return data[starts[:, None] + np.arange(width)].astype(np.int64)


def _be16(matrix: np.ndarray, column: int) -> np.ndarray:
    return (matrix[:, column] << 8) | matrix[:, column + 1]


def _be32(matrix: np.ndarray, column: int) -> np.ndarray:
    return (
        (matrix[:, column] << 24)
        | (matrix[:, column + 1] << 16)
        | (matrix[:, column + 2] << 8)
        | matrix[:, column + 3]
    )


def parse_packet_columns(
    data: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    timestamps: np.ndarray,
    *,
    strict: bool = False,
) -> PacketColumns:
    """Vectorized TCP/IPv4 parse of raw packets inside one block buffer.

    ``offsets``/``lengths`` delimit each raw IPv4 packet in ``data`` (link
    layer already stripped); records that the object path would reject
    (truncated IP/TCP header, non-TCP protocol) are dropped, or raise
    :class:`ValueError` when ``strict`` is set — mirroring
    :meth:`PcapReader.packets`.

    Field semantics replicate :meth:`Packet.from_bytes` +
    :class:`~repro.features.fields.RawFeatureExtractor` bit for bit: checksum
    validity is what re-serialisation would verify (so records whose parse is
    lossy — reserved flag bits, non-canonical or truncated options — are
    delegated to the per-packet oracle), and option summaries honour the
    first-well-formed-option rule.  Checksums come from one word-sum pass
    (:func:`_word_sums`) over every IP header and TCP segment; options areas
    go through the vectorized walk (:func:`_walk_options`), and only the rows
    it cannot finish reach ``decode_options``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if offsets.size == 0:
        return PacketColumns.empty()

    valid = lengths >= 20
    if not valid.any():
        if strict:
            raise ValueError("truncated IPv4 header in record 0 of block")
        return PacketColumns.empty()
    # Rows too short for an IPv4 header are gathered at some valid row's
    # offset (in bounds by construction) and masked out afterwards.
    safe_off = np.where(valid, offsets, offsets[int(np.flatnonzero(valid)[0])])
    ip_fixed = _gather(data, safe_off, 20)
    version_ihl = ip_fixed[:, 0]
    ihl = version_ihl & 0xF
    protocol = ip_fixed[:, 9]
    # ``Packet.from_bytes``: header length is ``(ihl or 5) * 4`` clamped to 20.
    tcp_start = np.maximum(np.where(ihl == 0, 5, ihl) * 4, 20)
    valid &= protocol == 6
    tcp_truncated = valid & (lengths - tcp_start < TCP_BASE_HEADER_LENGTH)
    if strict and (~valid | tcp_truncated).any():
        bad = int(np.flatnonzero(~valid | tcp_truncated)[0])
        raise ValueError(
            f"malformed record {bad} of block: truncated header or non-TCP protocol"
        )
    valid &= ~tcp_truncated

    keep = np.flatnonzero(valid)
    if keep.size == 0:
        return PacketColumns.empty()
    offsets = offsets[keep]
    lengths = lengths[keep]
    timestamps = timestamps[keep]
    ip_fixed = ip_fixed[keep]
    ihl = ihl[keep]
    tcp_start = tcp_start[keep]
    n = keep.size

    version = ip_fixed[:, 0] >> 4
    tos = ip_fixed[:, 1]
    total_length = _be16(ip_fixed, 2)
    flags_fragment = _be16(ip_fixed, 6)
    ttl = ip_fixed[:, 8]
    ip_checksum = _be16(ip_fixed, 10)
    src = _be32(ip_fixed, 12)
    dst = _be32(ip_fixed, 16)

    tcp_fixed = _gather(data, offsets + tcp_start, 20)
    src_port = _be16(tcp_fixed, 0)
    dst_port = _be16(tcp_fixed, 2)
    seq = _be32(tcp_fixed, 4)
    ack = _be32(tcp_fixed, 8)
    offset_reserved_flags = _be16(tcp_fixed, 12)
    data_offset = offset_reserved_flags >> 12
    flags = (offset_reserved_flags & 0xFF) | (offset_reserved_flags & 0x100)
    window = _be16(tcp_fixed, 14)
    tcp_checksum = _be16(tcp_fixed, 16)
    urgent = _be16(tcp_fixed, 18)

    tcp_header_len = np.maximum(data_offset * 4, TCP_BASE_HEADER_LENGTH)
    payload_len = np.maximum(lengths - tcp_start - tcp_header_len, 0)
    ip_options = (ihl * 4 > 20) & (lengths >= ihl * 4)
    has_options = (data_offset > 5) & (lengths - tcp_start >= data_offset * 4)

    # ------------------------------------------------------- TCP option parse
    mss = np.zeros(n, dtype=np.float64)
    ws_shift = np.zeros(n, dtype=np.float64)
    ut_timeout = np.zeros(n, dtype=np.float64)
    md5_ok = np.ones(n, dtype=np.float64)  # wire-parsed MD5 options verify
    ts_present = np.zeros(n, dtype=bool)
    tsval = np.zeros(n, dtype=np.int64)
    tsecr = np.zeros(n, dtype=np.int64)
    # Canonical == re-encoding the decoded options reproduces the wire bytes,
    # which is what checksum re-verification serialises.
    canonical = ~has_options & (data_offset >= 5)

    option_rows = np.flatnonzero(has_options)
    option_start = offsets[option_rows] + tcp_start[option_rows] + TCP_BASE_HEADER_LENGTH
    option_stop = offsets[option_rows] + tcp_start[option_rows] + data_offset[option_rows] * 4
    (
        unwalked,
        mss[option_rows],
        ws_shift[option_rows],
        ts_present[option_rows],
        tsval[option_rows],
        tsecr[option_rows],
    ) = _walk_options(data, option_start, option_stop)
    canonical[option_rows[~unwalked]] = True
    for row, start, stop in zip(
        option_rows[unwalked].tolist(),
        option_start[unwalked].tolist(),
        option_stop[unwalked].tolist(),
        strict=True,
    ):
        raw = data[start:stop].tobytes()
        options = decode_options(raw)
        canonical[row] = encode_options(options) == raw
        mss_o, ts_o, ws_o, ut_o, _md5_o = summarize_feature_options(options)
        mss[row] = float(mss_o.value) if mss_o is not None else 0.0
        ws_shift[row] = float(ws_o.shift) if ws_o is not None else 0.0
        ut_timeout[row] = float(ut_o.timeout) if ut_o is not None else 0.0
        ts_present[row] = ts_o is not None
        tsval[row] = ts_o.tsval if ts_o is not None else 0
        tsecr[row] = ts_o.tsecr if ts_o is not None else 0

    # ----------------------------------------------------- checksum validation
    reserved_ip = (flags_fragment & 0x8000) != 0
    ip_span = np.where(ip_options, ihl * 4, 20)
    ip_regular = ~reserved_ip & ~((ihl > 5) & (lengths < ihl * 4))
    segment_len = lengths - tcp_start
    # One word-sum pass over every IP header and TCP segment of the block.
    spans = _word_sums(
        data,
        np.stack((offsets, offsets + tcp_start), axis=1).ravel(),
        np.stack((ip_span, segment_len), axis=1).ravel(),
    )
    ip_total = spans[0::2] - ip_checksum
    ip_computed = 0xFFFF - _fold_checksum(ip_total)
    ip_ok = ip_regular & (ip_computed == ip_checksum)

    reserved_tcp = (offset_reserved_flags & 0x0E00) != 0
    options_dropped = (data_offset > 5) & ~has_options
    tcp_regular = ~reserved_tcp & ~options_dropped & canonical
    pseudo = (
        (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF) + 6 + segment_len
    )
    tcp_total = spans[1::2] - tcp_checksum + pseudo
    tcp_computed = 0xFFFF - _fold_checksum(tcp_total)
    tcp_ok = tcp_regular & (tcp_computed == tcp_checksum)

    oracle_rows = np.flatnonzero(~ip_regular | ~tcp_regular)
    for row in oracle_rows:
        start = int(offsets[row])
        stop = start + int(lengths[row])
        packet = Packet.from_bytes(data[start:stop].tobytes())
        ip_ok[row] = packet.ip_checksum_ok()
        tcp_ok[row] = packet.tcp_checksum_ok()

    key_swap = (src > dst) | ((src == dst) & (src_port > dst_port))
    return PacketColumns(
        timestamp=timestamps,
        src=src,
        dst=dst,
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        urgent=urgent,
        data_offset=data_offset,
        payload_len=payload_len,
        ihl=ihl,
        version=version,
        tos=tos,
        ttl=ttl,
        total_length=total_length,
        ip_options=ip_options,
        ip_ok=ip_ok,
        tcp_ok=tcp_ok,
        mss=mss,
        ws_shift=ws_shift,
        ut_timeout=ut_timeout,
        md5_ok=md5_ok,
        ts_present=ts_present,
        tsval=tsval,
        tsecr=tsecr,
        key_ip_a=np.where(key_swap, dst, src),
        key_port_a=np.where(key_swap, dst_port, src_port),
        key_ip_b=np.where(key_swap, src, dst),
        key_port_b=np.where(key_swap, src_port, dst_port),
        buffer=data,
        offsets=offsets,
        lengths=lengths,
    )
