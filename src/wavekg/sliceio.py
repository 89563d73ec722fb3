"""Binary container for slice histories.

Layout (all integers little-endian):

    4 bytes   magic b"WKGH"
    u32       format version (currently 5)
    u32       length of the scenario text, followed by that many bytes
              of UTF-8 scenario (the same text parse_scenario accepts)
    for each slice k:
      f64 * 2F * widths[k]           its first widths[k] records
    u32       zlib.crc32 of everything before it

The scenario decides the rest: n_slices and n_radii are its
history_shape, the times and radii its grid, widths[k] the cells its
run stores in slice k (scenario.store_widths), and F its live fields
(scenario.live_fields), so a record holds 2F doubles: each live field,
then its time derivative (u, v, ut, vt on a coupled run, u, ut on a
free wave, v, vt on a free Klein-Gordon run, nothing on zero data).  A
dead field is zero and is not stored, nor are a slice's records past its
width, which are +0.0, so the archive holds only what the run stored.
The loader is an exact inverse: slice_load(path) after slice_dump(h,
path) reproduces the history bit for bit.  Both take a file path;
neither builds an archive in memory.  Format 4 also stored the widths,
and formats 1 to 4 are rejected.

Neither direction holds a second copy of the data.  slice_dump writes
the header and each slice's record prefix straight from the history,
keeping a running checksum, so pages of an evolved history that were
never written stay unbacked.  slice_load parses the scenario, whose
rules cap the history's size, and checks the file size its widths imply
before it allocates.  It then reads each prefix straight into an empty
history (SliceHistory.empty), so a loaded history is resident like an
evolved one, and keeps a running checksum, which it compares last.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib

import numpy as np

from .scenario import (FIELD_BYTES, ScenarioError, history_shape, live_fields,
                       parse_scenario, serialize_scenario, store_widths)
from .solver import SliceHistory

__all__ = ["SliceIOError", "slice_dump", "slice_load"]

_MAGIC = b"WKGH"
_VERSION = 5


class SliceIOError(RuntimeError):
    pass


def _write(fh, history):
    """Write the archive of a SliceHistory to a binary file, one slice's
    record prefix at a time."""
    records = history.records
    n_values = 2 * len(live_fields(history.scenario))
    if records.shape != (*history_shape(history.scenario), n_values):
        raise SliceIOError("history records are not the shape of its scenario's")
    text = serialize_scenario(history.scenario).encode("utf-8")
    head = b"".join((_MAGIC, struct.pack("<II", _VERSION, len(text)), text))
    crc = zlib.crc32(head)
    fh.write(head)
    for row, w in zip(records, history.widths.tolist()):
        # a view, not a copy, when the records are C-contiguous little-endian
        part = np.ascontiguousarray(row[:w], dtype="<f8")
        crc = zlib.crc32(part, crc)
        fh.write(part)
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
    widths = store_widths(scn)
    cell = FIELD_BYTES * len(live_fields(scn))
    need = fh.tell() + cell * int(widths.sum()) + 4
    if need > size:
        raise SliceIOError("truncated file while reading the field data")
    if need < size:
        raise SliceIOError("trailing bytes after the field data")
    history = SliceHistory.empty(scn)
    for k, w in enumerate(widths.tolist()):
        fill(history.records[k, :w], f"slice {k}")
    if fh.read(4) != struct.pack("<I", crc):
        raise SliceIOError("checksum mismatch: file is corrupt")
    return history


def slice_load(path):
    """Read a SliceHistory from the archive file at path."""
    with open(path, "rb") as fh:
        return _read(fh)
