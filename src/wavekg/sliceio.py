"""Binary container for slice histories.

Layout (all integers little-endian):

    4 bytes   magic b"WKGH"
    u32       format version (currently 4)
    u32       length of the scenario text, followed by that many bytes
              of UTF-8 scenario (the same text parse_scenario accepts)
    u32 * n_slices                   widths: cells written per slice
    for each slice k:
      f64 * 2F * widths[k]           its first widths[k] records
    u32       zlib.crc32 of everything before it

The scenario decides the rest: n_slices and n_radii are its
history_shape, the times and radii its grid, and F its live fields
(scenario.live_fields), so a record holds 2F doubles: each live field,
then its time derivative (u, v, ut, vt on a coupled run, u, ut on a
free wave, v, vt on a free Klein-Gordon run, nothing on zero data).  A
dead field is zero and is not stored, nor are a slice's records past its
width, which are +0.0, so the archive holds only what the run computed.
The loader is an exact inverse: slice_load(path) after slice_dump(h,
path) reproduces the history bit for bit, widths included.  Both take a
file path; neither builds an archive in memory.

Neither direction holds a second copy of the data.  slice_dump writes
the header and each slice's record prefix straight from the history,
keeping a running checksum, so pages of an evolved history that were
never written stay unbacked.  slice_load parses the scenario, whose
rules cap the history's size, and checks the widths against n_radii and
the file size they imply before it allocates.  It then reads each
prefix straight into an empty history (SliceHistory.empty), so a loaded
history is resident like an evolved one, and keeps a running checksum,
which it compares last.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib

import numpy as np

from .scenario import (FIELD_BYTES, ScenarioError, history_shape, live_fields,
                       parse_scenario, serialize_scenario)
from .solver import SliceHistory

__all__ = ["SliceIOError", "slice_dump", "slice_load"]

_MAGIC = b"WKGH"
_VERSION = 4


class SliceIOError(RuntimeError):
    pass


def _write(fh, history):
    """Write the archive of a SliceHistory to a binary file, one slice's
    record prefix at a time."""
    records, widths = history.records, history.widths
    n_s, n_r = history_shape(history.scenario)
    n_values = 2 * len(live_fields(history.scenario))
    if records.shape != (n_s, n_r, n_values) or widths.shape != (n_s,):
        raise SliceIOError("history arrays are not the shape of its scenario's")
    if np.any(widths > n_r):
        raise SliceIOError("a slice width exceeds n_radii")
    text = serialize_scenario(history.scenario).encode("utf-8")
    head = b"".join((_MAGIC, struct.pack("<II", _VERSION, len(text)), text))
    crc = zlib.crc32(head)
    fh.write(head)

    def put(arr, dtype):
        # a view, not a copy, when arr is C-contiguous little-endian dtype
        nonlocal crc
        part = np.ascontiguousarray(arr, dtype=dtype)
        crc = zlib.crc32(part, crc)
        fh.write(part)

    put(widths, "<u4")
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
    try:
        scn = parse_scenario(take(text_len, "scenario").decode("utf-8"))
    except (UnicodeDecodeError, ScenarioError) as exc:
        raise SliceIOError(f"bad scenario text: {exc}") from exc
    n_s, n_r = history_shape(scn)
    if fh.tell() + 4 * n_s + 4 > size:
        raise SliceIOError("truncated file while reading the widths")
    widths = np.empty(n_s, dtype="<u4")
    fill(widths, "the widths")
    if np.any(widths > n_r):
        raise SliceIOError(f"a slice width exceeds n_radii = {n_r}")
    cell = FIELD_BYTES * len(live_fields(scn))
    need = fh.tell() + cell * int(widths.sum(dtype=np.uint64)) + 4
    if need > size:
        raise SliceIOError("truncated file while reading the field data")
    if need < size:
        raise SliceIOError("trailing bytes after the field data")
    history = SliceHistory.empty(scn)
    history.widths[:] = widths
    for k, w in enumerate(widths.tolist()):
        fill(history.records[k, :w], f"slice {k}")
    if fh.read(4) != struct.pack("<I", crc):
        raise SliceIOError("checksum mismatch: file is corrupt")
    return history


def slice_load(path):
    """Read a SliceHistory from the archive file at path."""
    with open(path, "rb") as fh:
        return _read(fh)
