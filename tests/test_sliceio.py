import json
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wavekg import sliceio
from wavekg.sliceio import SliceIOError, slice_dump, slice_load
from wavekg.solver import evolve

from conftest import make_scenario, run_python_process


@pytest.fixture(scope="module")
def history():
    return evolve(make_scenario(dr=0.1, r_max=8.0, t_end=6.0))


def _archive(history, path):
    """Dump history to path and return the file's bytes."""
    slice_dump(history, path)
    return path.read_bytes()


def _load_bytes(blob, tmp_path):
    """Write an archive's (patched) bytes to a file and load that path."""
    path = tmp_path / "patched.wkgh"
    path.write_bytes(blob)
    return slice_load(path)


def test_round_trip_is_bit_exact(history, tmp_path):
    blob = _archive(history, tmp_path / "run.wkgh")
    back = slice_load(tmp_path / "run.wkgh")
    assert_array_equal(back.r, history.r)
    assert_array_equal(back.u, history.u)
    assert_array_equal(back.ut, history.ut)
    assert_array_equal(back.v, history.v)
    assert_array_equal(back.vt, history.vt)
    assert back.t0 == history.t0
    assert back.dt == history.dt
    assert back.scenario == history.scenario
    # serialization itself is deterministic
    assert _archive(back, tmp_path / "again.wkgh") == blob


def test_file_path_api(history, tmp_path):
    p = tmp_path / "run.wkgh"
    blob = slice_dump(history, p)
    assert p.read_bytes() == blob
    back = slice_load(p)
    assert_array_equal(back.u, history.u)


def test_corruption_detected(history, tmp_path):
    blob = bytearray(_archive(history, tmp_path / "run.wkgh"))
    blob[len(blob) // 2] ^= 0x40
    with pytest.raises(SliceIOError, match="checksum"):
        _load_bytes(bytes(blob), tmp_path)


def test_truncation_detected(history, tmp_path):
    blob = _archive(history, tmp_path / "run.wkgh")
    with pytest.raises(SliceIOError, match="checksum|truncated"):
        _load_bytes(blob[:-17], tmp_path)
    # a header claiming more slices than the file holds
    at = 12 + int.from_bytes(blob[8:12], "little") + 16
    n_s = int.from_bytes(blob[at:at + 8], "little")
    with pytest.raises(SliceIOError, match="truncated"):
        _load_bytes(_with_patch(blob, at, (n_s + 1).to_bytes(8, "little")),
                    tmp_path)


def _with_patch(blob, start, payload):
    """Patch bytes and refresh the trailing checksum."""
    out = bytearray(blob)
    out[start:start + len(payload)] = payload
    out[-4:] = zlib.crc32(bytes(out[:-4])).to_bytes(4, "little")
    return bytes(out)


def test_bad_magic_rejected(history, tmp_path):
    blob = _archive(history, tmp_path / "run.wkgh")
    with pytest.raises(SliceIOError, match="magic"):
        _load_bytes(_with_patch(blob, 0, b"XXXX"), tmp_path)


def test_unsupported_version_rejected(history, tmp_path):
    blob = _archive(history, tmp_path / "run.wkgh")
    with pytest.raises(SliceIOError, match="version"):
        _load_bytes(_with_patch(blob, 4, (99).to_bytes(4, "little")), tmp_path)


def test_trailing_garbage_rejected(history, tmp_path):
    blob = _archive(history, tmp_path / "run.wkgh")
    with pytest.raises(SliceIOError):
        _load_bytes(blob + b"\x00\x00", tmp_path)


def _peak_bytes(fn, *args):
    """Peak of the memory traced while fn(*args) runs, above what was
    traced before it; returns (result, peak)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dump_holds_one_copy_of_the_archive(history, tmp_path):
    # streamed to a file, the archive is never held: the dump holds the
    # header and one block of rows, about 7 KB here against a 94 KB archive
    view, peak = _peak_bytes(slice_dump, history, tmp_path / "run.wkgh")
    assert len(view) == (tmp_path / "run.wkgh").stat().st_size
    assert peak <= 0.25 * len(view)


def test_block_size_does_not_change_the_bytes(history, tmp_path, monkeypatch):
    whole = _archive(history, tmp_path / "whole.wkgh")
    # one radial row per block, and a partial last block of r
    monkeypatch.setattr(sliceio, "_BLOCK_BYTES", 8 * history.r.size - 1)
    assert _archive(history, tmp_path / "rows.wkgh") == whole
    monkeypatch.setattr(sliceio, "_BLOCK_BYTES", 8 * 7 * history.r.size)
    assert slice_dump(history, tmp_path / "run.wkgh") == whole
    assert slice_load(tmp_path / "run.wkgh").scenario == history.scenario


# Evolves dr = 0.01, r_max = t_end = 20 (106 MiB of nominal history) and
# prints the ru_maxrss rise over dumping it to the file named by its
# argument, and the length of slice_dump's result.
_DUMP_CHILD = """
import json, resource, sys
from wavekg.profiles import Profile
from wavekg.scenario import Scenario
from wavekg.sliceio import slice_dump
from wavekg.solver import evolve

bump, zero = Profile("bump", k=4, radius=1.0, amp=1.0), Profile("zero")
history = evolve(Scenario(u0=bump, u1=zero, v0=bump, v1=zero, eps=1e-3,
                          dr=0.01, r_max=20.0, t_end=20.0))

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

before = maxrss()
view = slice_dump(history, sys.argv[1])
print(json.dumps({"rise": maxrss() - before, "size": len(view)}))
"""


def test_dump_to_a_file_stays_out_of_memory(tmp_path):
    # neither the archive nor the history's unwritten pages past the cone
    # become resident: the rise is at most about one block of rows
    path = tmp_path / "big.wkgh"
    child = run_python_process(["-c", _DUMP_CHILD, str(path)], threads=1)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["size"] == path.stat().st_size >= 100 * 2**20
    assert got["rise"] < 0.1 * got["size"], got


def test_load_holds_one_copy_of_the_history(history, tmp_path):
    path = tmp_path / "run.wkgh"
    slice_dump(history, path)
    back, peak = _peak_bytes(slice_load, path)
    loaded = sum(a.nbytes for a in (back.r, back.u, back.ut, back.v, back.vt))
    assert peak <= 1.25 * loaded
