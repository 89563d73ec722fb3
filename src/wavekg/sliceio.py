"""Binary container for slice histories.

Layout (all integers little-endian):

    4 bytes   magic b"WKGH"
    u32       format version (currently 1)
    u32       length of the scenario text, followed by that many bytes
              of UTF-8 scenario (the same text parse_scenario accepts)
    f64       t0
    f64       dt
    u64       n_slices
    u64       n_radii
    f64 * n_radii                    radial grid
    f64 * 4 * n_slices * n_radii     u, ut, v, vt (C order)
    u32       zlib.crc32 of everything before it

The loader is an exact inverse: slice_load(path) after
slice_dump(h, path) reproduces the history bit for bit.  Both take a
file path; neither builds an archive in memory.

Neither direction holds a second copy of the data.  slice_dump writes
the header, then each array in blocks of rows of a few MiB, keeping a
running checksum; it reads the history row by row, so pages of an
evolved history that were never written stay unbacked.  slice_load
checks the size the header's dimensions imply before it allocates, reads
each array straight into its result and keeps a running checksum, which
it compares before it parses the scenario text.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib

import numpy as np

from .scenario import parse_scenario, serialize_scenario
from .solver import SliceHistory

__all__ = ["SliceIOError", "slice_dump", "slice_load"]

_MAGIC = b"WKGH"
_VERSION = 1
# bytes of field data per write: slice_dump holds one block, never the archive
_BLOCK_BYTES = 4 << 20


class SliceIOError(RuntimeError):
    pass


def _write(fh, history):
    """Write the archive of a SliceHistory to a binary file, one block of
    rows at a time."""
    arrays = (history.r, history.u, history.ut, history.v, history.vt)
    n_s, n_r = history.u.shape
    if any(arr.shape != (n_s, n_r) for arr in arrays[2:]):
        raise SliceIOError("field arrays have inconsistent shapes")
    text = serialize_scenario(history.scenario).encode("utf-8")
    head = b"".join((_MAGIC, struct.pack("<II", _VERSION, len(text)), text,
                     struct.pack("<ddQQ", history.t0, history.dt, n_s, n_r)))
    fh.write(head)
    crc = zlib.crc32(head)
    for arr in arrays:
        rows = arr.reshape(len(arr), -1)
        step = max(1, _BLOCK_BYTES // (8 * rows.shape[1]))
        for lo in range(0, len(rows), step):
            block = np.ascontiguousarray(rows[lo:lo + step], dtype="<f8")
            crc = zlib.crc32(block, crc)
            fh.write(block)
    fh.write(struct.pack("<I", crc))


def slice_dump(history, path):
    """Stream the archive of a SliceHistory to the file at path.

    Returns a read-only memoryview of the file, whose len() is the
    archive's size (the benchmark's tracer reads it); its pages are read
    from the file only when touched.
    """
    with open(path, "wb+") as fh:
        _write(fh, history)
        fh.flush()
        return memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))


def _read(fh):
    """SliceHistory from an archive file opened for binary reading."""
    size = os.fstat(fh.fileno()).st_size
    if size < 4 + 4 + 4:
        raise SliceIOError("truncated file: shorter than any valid header")
    crc = 0

    def take(n, what):
        nonlocal crc
        chunk = fh.read(n)
        if len(chunk) != n:
            raise SliceIOError(f"truncated file while reading {what}")
        crc = zlib.crc32(chunk, crc)
        return chunk

    def fill(shape, what):
        nonlocal crc
        arr = np.empty(shape, dtype="<f8")
        if fh.readinto(arr) != arr.nbytes:
            raise SliceIOError(f"truncated file while reading {what}")
        crc = zlib.crc32(arr, crc)
        return arr

    if take(4, "magic") != _MAGIC:
        raise SliceIOError("bad magic: not a slice-history file")
    version, = struct.unpack("<I", take(4, "version"))
    if version != _VERSION:
        raise SliceIOError(f"unsupported format version {version}")
    text_len, = struct.unpack("<I", take(4, "scenario length"))
    text = take(text_len, "scenario")
    t0, dt, n_s, n_r = struct.unpack("<ddQQ", take(32, "dimensions"))
    need = fh.tell() + 8 * n_r * (1 + 4 * n_s) + 4
    if need > size:
        raise SliceIOError("truncated file while reading the field data")
    if need < size:
        raise SliceIOError("trailing bytes after the field data")
    r = fill((n_r,), "radial grid")
    u, ut, v, vt = (fill((n_s, n_r), name) for name in ("u", "ut", "v", "vt"))
    if fh.read(4) != struct.pack("<I", crc):
        raise SliceIOError("checksum mismatch: file is corrupt")
    return SliceHistory(scenario=parse_scenario(text.decode("utf-8")),
                        t0=t0, dt=dt, r=r, u=u, ut=ut, v=v, vt=vt)


def slice_load(path):
    """Read a SliceHistory from the archive file at path."""
    with open(path, "rb") as fh:
        return _read(fh)
