"""Binary container for slice histories.

Layout (all integers little-endian):

    4 bytes   magic b"WKGH"
    u32       format version (currently 2)
    u32       length of the scenario text, followed by that many bytes
              of UTF-8 scenario (the same text parse_scenario accepts)
    f64       t0
    f64       dt
    u64       n_slices
    u64       n_radii
    u32 * n_slices                   widths: cells written per slice
    f64 * n_radii                    radial grid
    for each slice k:
      f64 * 4 * widths[k]            its first widths[k] records
                                     (u, ut, v, vt per cell)
    u32       zlib.crc32 of everything before it

A slice's records past its width are +0.0 and are not stored, so the
archive holds only what the run computed.  The loader is an exact
inverse: slice_load(path) after slice_dump(h, path) reproduces the
history bit for bit, widths included.  Both take a file path; neither
builds an archive in memory.

Neither direction holds a second copy of the data.  slice_dump writes
the header and each slice's record prefix straight from the history,
keeping a running checksum, so pages of an evolved history that were
never written stay unbacked.  Before it allocates, slice_load checks the
dimensions against the history size cap (scenario.MAX_HISTORY_BYTES),
the widths against n_radii, and the file size they imply.  It then
reads each prefix straight into a fresh record mapping
(solver._unbacked_zeros), so a loaded history is resident like an
evolved one, and keeps a running checksum, which it compares before it
parses the scenario text.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib

import numpy as np

from .scenario import MAX_HISTORY_BYTES, parse_scenario, serialize_scenario
from .solver import SliceHistory, _FIELDS, _unbacked_zeros

__all__ = ["SliceIOError", "slice_dump", "slice_load"]

_MAGIC = b"WKGH"
_VERSION = 2


class SliceIOError(RuntimeError):
    pass


def _write(fh, history):
    """Write the archive of a SliceHistory to a binary file, one slice's
    record prefix at a time."""
    records, widths, r = history.records, history.widths, history.r
    n_s, n_r = records.shape[:2]
    if records.shape[2:] != (len(_FIELDS),) or widths.shape != (n_s,) \
            or r.shape != (n_r,):
        raise SliceIOError("history arrays have inconsistent shapes")
    if np.any(widths > n_r):
        raise SliceIOError("a slice width exceeds n_radii")
    text = serialize_scenario(history.scenario).encode("utf-8")
    head = b"".join((_MAGIC, struct.pack("<II", _VERSION, len(text)), text,
                     struct.pack("<ddQQ", history.t0, history.dt, n_s, n_r)))
    crc = zlib.crc32(head)
    fh.write(head)

    def put(arr, dtype):
        # a view, not a copy, when arr is C-contiguous little-endian dtype
        nonlocal crc
        part = np.ascontiguousarray(arr, dtype=dtype)
        crc = zlib.crc32(part, crc)
        fh.write(part)

    put(widths, "<u4")
    put(r, "<f8")
    for row, w in zip(records, widths.tolist()):
        put(row[:w], "<f8")
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

    def fill(arr, what):
        nonlocal crc
        if fh.readinto(arr) != arr.nbytes:
            raise SliceIOError(f"truncated file while reading {what}")
        crc = zlib.crc32(arr, crc)

    if take(4, "magic") != _MAGIC:
        raise SliceIOError("bad magic: not a slice-history file")
    version, = struct.unpack("<I", take(4, "version"))
    if version != _VERSION:
        raise SliceIOError(f"unsupported format version {version}")
    text_len, = struct.unpack("<I", take(4, "scenario length"))
    text = take(text_len, "scenario")
    t0, dt, n_s, n_r = struct.unpack("<ddQQ", take(32, "dimensions"))
    # parse_scenario caps a run's nominal history at MAX_HISTORY_BYTES
    if not 0 < 32 * n_s * n_r <= MAX_HISTORY_BYTES:
        raise SliceIOError(f"history of {n_s} x {n_r} cells is empty or past "
                           f"the {MAX_HISTORY_BYTES} byte limit")
    if fh.tell() + 4 * n_s + 8 * n_r + 4 > size:
        raise SliceIOError("truncated file while reading the widths and radial grid")
    widths = np.empty(n_s, dtype="<u4")
    fill(widths, "the widths")
    if np.any(widths > n_r):
        raise SliceIOError(f"a slice width exceeds n_radii = {n_r}")
    need = fh.tell() + 8 * n_r + 32 * int(widths.sum(dtype=np.uint64)) + 4
    if need > size:
        raise SliceIOError("truncated file while reading the field data")
    if need < size:
        raise SliceIOError("trailing bytes after the field data")
    r = np.empty(n_r, dtype="<f8")
    fill(r, "radial grid")
    records = _unbacked_zeros((n_s, n_r, len(_FIELDS)))
    for k, w in enumerate(widths.tolist()):
        fill(records[k, :w], f"slice {k}")
    if fh.read(4) != struct.pack("<I", crc):
        raise SliceIOError("checksum mismatch: file is corrupt")
    return SliceHistory(scenario=parse_scenario(text.decode("utf-8")),
                        t0=t0, dt=dt, r=r, records=records, widths=widths)


def slice_load(path):
    """Read a SliceHistory from the archive file at path."""
    with open(path, "rb") as fh:
        return _read(fh)
