"""Persist model parameters as ``.npz`` archives.

The paper's pipeline persists the trained RNN and autoencoder between the
training and testing phases (Figures 2 and 3); these helpers provide the same
capability for any model exposing ``state_dict`` / ``from_state_dict``.

:func:`save_state` writes a plain ``.npz`` that ``np.load`` reads, with every
member stored uncompressed and its ``.npy`` data starting on a 64-byte
boundary of the file (zipalign-style padding in the local header's extra
field).  :func:`load_state` can then memory-map the archive
(``mmap_mode="r"``): the file is mapped once and every array is an aligned,
read-only view into that one mapping.  All readers of one archive share a
single page-cache copy of the weights.
"""

from __future__ import annotations

import io
import math
import struct
import zipfile
from pathlib import Path

import numpy as np

_ZIP_LOCAL_HEADER_SIZE = 30  # fixed part of a zip local file header
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"
#: Member data alignment in the archive file; ``.npy`` pads its own header
#: to the same multiple, so the array data lands aligned too.
_ALIGNMENT = 64
#: zipalign's extra-field id: a little-endian alignment, then zero padding.
_ALIGN_EXTRA_ID = 0xD935
_ALIGN_EXTRA_FIXED = 6  # id, size and alignment, 2 bytes each


def save_state(path: str | Path, state: dict[str, np.ndarray]) -> Path:
    """Write a state dictionary to ``path`` (``.npz`` appended if missing).

    Members are stored uncompressed and 64-byte aligned, which keeps the
    archive memory-mappable by ``load_state(..., mmap_mode="r")``.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for key, value in state.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)
            # ``np.savez`` mangles "/" in key names on some platforms, so
            # escape them.
            info = zipfile.ZipInfo(key.replace("/", "__slash__") + ".npy")
            data_start = (
                archive.fp.tell()
                + _ZIP_LOCAL_HEADER_SIZE
                + len(info.filename.encode("utf-8"))
                + _ALIGN_EXTRA_FIXED
            )
            padding = -data_start % _ALIGNMENT
            info.extra = struct.pack(
                "<HHH", _ALIGN_EXTRA_ID, 2 + padding, _ALIGNMENT
            ) + bytes(padding)
            archive.writestr(info, member.getvalue())
    return path


def _resolve(path: str | Path) -> Path:
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def load_state(
    path: str | Path, *, mmap_mode: str | None = None
) -> dict[str, np.ndarray]:
    """Read a state dictionary previously written by :func:`save_state`.

    ``mmap_mode="r"`` maps the archive once and returns read-only
    ``np.memmap`` views into that mapping instead of copying the arrays into
    process memory: ``np.load`` cannot map members of a ``.npz``, so the zip
    is walked by hand — every stored member's data offset is read from its
    local file header.  A member whose data is not aligned for its dtype (an
    archive written by plain ``np.savez``) gets an aligned read-only copy,
    and one that cannot be mapped at all (compressed, object-typed) is read
    eagerly, so the call never fails where the plain load would have
    succeeded.
    """
    path = _resolve(path)
    if mmap_mode is None:
        with np.load(path) as archive:
            return {key.replace("__slash__", "/"): archive[key] for key in archive.files}
    if mmap_mode != "r":
        raise ValueError(f"only mmap_mode='r' is supported, got {mmap_mode!r}")
    mapping = np.memmap(path, dtype=np.uint8, mode="r")
    state: dict[str, np.ndarray] = {}
    with open(path, "rb") as raw, zipfile.ZipFile(raw) as archive:
        for info in archive.infolist():
            name = info.filename
            key = (name[:-4] if name.endswith(".npy") else name).replace("__slash__", "/")
            located = _locate_member(raw, info)
            if located is None:  # pragma: no cover - exotic archives only
                with archive.open(info) as member:
                    state[key] = np.lib.format.read_array(member, allow_pickle=False)
                continue
            offset, dtype, shape, fortran = located
            size = dtype.itemsize * math.prod(shape)
            array = mapping[offset : offset + size].view(dtype).reshape(
                shape, order="F" if fortran else "C"
            )
            if not array.flags.aligned:
                array = np.array(array, dtype=array.dtype)
                array.flags.writeable = False
            state[key] = array
    return state


def _locate_member(
    raw, info: zipfile.ZipInfo
) -> tuple[int, np.dtype, tuple[int, ...], bool] | None:
    """``(data offset, dtype, shape, fortran order)`` of one stored ``.npy``
    member, or ``None`` if it cannot be mapped (compressed or object dtype)."""
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    # The central directory's extra-field length can differ from the local
    # header's, so the data offset must come from the local header.
    raw.seek(info.header_offset)
    local = raw.read(_ZIP_LOCAL_HEADER_SIZE)
    if len(local) != _ZIP_LOCAL_HEADER_SIZE or local[:4] != _ZIP_LOCAL_MAGIC:
        return None
    name_length, extra_length = struct.unpack("<HH", local[26:30])
    raw.seek(info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_length + extra_length)
    version = np.lib.format.read_magic(raw)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
    else:
        return None
    if dtype.hasobject:
        return None
    return raw.tell(), dtype, shape, fortran
