"""TCP option encoding and decoding.

Only the options that matter to the paper's feature set (Table 7) get their own
classes: Maximum Segment Size, Window Scale, Timestamps, SACK-permitted, the
MD5 signature option (RFC 2385) and the User Timeout option (RFC 5482).  Any
other kind is preserved as :class:`RawOption` so parsing a capture never loses
information.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from collections.abc import Sequence


class OptionKind:
    """TCP option kind numbers (IANA registry)."""

    END_OF_OPTIONS = 0
    NOP = 1
    MSS = 2
    WINDOW_SCALE = 3
    SACK_PERMITTED = 4
    SACK = 5
    TIMESTAMP = 8
    MD5_SIGNATURE = 19
    USER_TIMEOUT = 28


@dataclass(frozen=True)
class EndOfOptions:
    """Kind 0: end of option list (single byte)."""

    kind: int = OptionKind.END_OF_OPTIONS

    def encode(self) -> bytes:
        return b"\x00"


@dataclass(frozen=True)
class NoOperation:
    """Kind 1: padding byte."""

    kind: int = OptionKind.NOP

    def encode(self) -> bytes:
        return b"\x01"


@dataclass(frozen=True)
class MaximumSegmentSize:
    """Kind 2: maximum segment size, negotiated on SYN packets."""

    value: int
    kind: int = OptionKind.MSS

    def encode(self) -> bytes:
        return struct.pack("!BBH", self.kind, 4, self.value & 0xFFFF)


@dataclass(frozen=True)
class WindowScale:
    """Kind 3: window scale shift count (RFC 7323)."""

    shift: int
    kind: int = OptionKind.WINDOW_SCALE

    def encode(self) -> bytes:
        return struct.pack("!BBB", self.kind, 3, self.shift & 0xFF)


@dataclass(frozen=True)
class SackPermitted:
    """Kind 4: SACK permitted flag, negotiated on SYN packets."""

    kind: int = OptionKind.SACK_PERMITTED

    def encode(self) -> bytes:
        return struct.pack("!BB", self.kind, 2)


@dataclass(frozen=True)
class Timestamp:
    """Kind 8: TSval/TSecr pair (RFC 7323)."""

    tsval: int
    tsecr: int
    kind: int = OptionKind.TIMESTAMP

    def encode(self) -> bytes:
        return struct.pack("!BBII", self.kind, 10, self.tsval & 0xFFFFFFFF, self.tsecr & 0xFFFFFFFF)


@dataclass(frozen=True)
class Md5Signature:
    """Kind 19: TCP MD5 signature option (RFC 2385).

    The reproduction does not compute real MD5 digests (the option only matters
    as a *presence / validity* feature); ``digest`` carries the 16 raw bytes and
    ``valid`` records whether the digest would verify against the connection
    key.  Attack strategies set ``valid=False`` to model a garbage digest.
    """

    digest: bytes = b"\x00" * 16
    valid: bool = True
    kind: int = OptionKind.MD5_SIGNATURE

    def encode(self) -> bytes:
        digest = (self.digest + b"\x00" * 16)[:16]
        return struct.pack("!BB", self.kind, 18) + digest


@dataclass(frozen=True)
class UserTimeout:
    """Kind 28: user timeout option (RFC 5482)."""

    granularity_minutes: bool
    timeout: int
    kind: int = OptionKind.USER_TIMEOUT

    def encode(self) -> bytes:
        value = ((1 if self.granularity_minutes else 0) << 15) | (self.timeout & 0x7FFF)
        return struct.pack("!BBH", self.kind, 4, value)


@dataclass(frozen=True)
class RawOption:
    """Any option kind without a dedicated class; preserved verbatim."""

    kind: int
    data: bytes = b""

    def encode(self) -> bytes:
        return struct.pack("!BB", self.kind, 2 + len(self.data)) + self.data


TcpOption = object  # documentation alias; options are duck-typed on ``.kind`` / ``.encode``


def encode_options(options: Sequence[object]) -> bytes:
    """Encode ``options`` and pad the result to a 4-byte boundary with NOPs."""
    raw = b"".join(option.encode() for option in options)
    remainder = len(raw) % 4
    if remainder:
        raw += b"\x01" * (4 - remainder)
    return raw


def decode_options(data: bytes) -> list[object]:
    """Decode the options area of a TCP header into option objects.

    Malformed trailing bytes (e.g. a truncated option) are preserved as a
    :class:`RawOption` with kind of the offending byte so that parsing never
    raises on hostile input.
    """
    options: list[object] = []
    index = 0
    length = len(data)
    while index < length:
        kind = data[index]
        if kind == OptionKind.END_OF_OPTIONS:
            options.append(EndOfOptions())
            break
        if kind == OptionKind.NOP:
            options.append(NoOperation())
            index += 1
            continue
        if index + 1 >= length:
            options.append(RawOption(kind=kind, data=b""))
            break
        opt_len = data[index + 1]
        if opt_len < 2 or index + opt_len > length:
            options.append(RawOption(kind=kind, data=data[index + 2 :]))
            break
        body = data[index + 2 : index + opt_len]
        options.append(_decode_single(kind, body))
        index += opt_len
    return options


def _decode_single(kind: int, body: bytes) -> object:
    if kind == OptionKind.MSS and len(body) == 2:
        return MaximumSegmentSize(value=struct.unpack("!H", body)[0])
    if kind == OptionKind.WINDOW_SCALE and len(body) == 1:
        return WindowScale(shift=body[0])
    if kind == OptionKind.SACK_PERMITTED and len(body) == 0:
        return SackPermitted()
    if kind == OptionKind.TIMESTAMP and len(body) == 8:
        tsval, tsecr = struct.unpack("!II", body)
        return Timestamp(tsval=tsval, tsecr=tsecr)
    if kind == OptionKind.MD5_SIGNATURE and len(body) == 16:
        return Md5Signature(digest=body)
    if kind == OptionKind.USER_TIMEOUT and len(body) == 2:
        value = struct.unpack("!H", body)[0]
        return UserTimeout(granularity_minutes=bool(value >> 15), timeout=value & 0x7FFF)
    return RawOption(kind=kind, data=body)


def find_option(options: Sequence[object], kind: int) -> object | None:
    """Return the first option of ``kind`` in ``options`` or ``None``."""
    for option in options:
        if getattr(option, "kind", None) == kind:
            return option
    return None


def summarize_feature_options(options: Sequence[object]):
    """One pass over ``options`` for the Table-7 feature set.

    Returns ``(mss, timestamp, window_scale, user_timeout, md5)`` — the first
    *well-formed* option of each kind, or ``None``.  A malformed option (a
    :class:`RawOption` carrying a feature kind, e.g. an MSS with a bad length)
    does not claim its slot, so a later well-formed duplicate still counts.
    This is the single source of truth shared by
    :meth:`~repro.netstack.columns.PacketColumns.from_packets` and the
    columnar parser's fallback path.
    """
    mss = timestamp = window_scale = user_timeout = md5 = None
    for option in options:
        kind = getattr(option, "kind", None)
        if kind == OptionKind.MSS:
            if mss is None and hasattr(option, "value"):
                mss = option
        elif kind == OptionKind.TIMESTAMP:
            if timestamp is None and hasattr(option, "tsval"):
                timestamp = option
        elif kind == OptionKind.WINDOW_SCALE:
            if window_scale is None and hasattr(option, "shift"):
                window_scale = option
        elif kind == OptionKind.USER_TIMEOUT:
            if user_timeout is None and hasattr(option, "timeout"):
                user_timeout = option
        elif kind == OptionKind.MD5_SIGNATURE and md5 is None and hasattr(option, "valid"):
            md5 = option
    return mss, timestamp, window_scale, user_timeout, md5
