import json
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wavekg.scenario import history_shape, live_fields, serialize_scenario
from wavekg.sliceio import SliceIOError, slice_dump, slice_load
from wavekg.solver import SliceHistory, evolve

from conftest import BUMP3, ZERO, make_scenario, run_python_process


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
    assert_array_equal(back.records, history.records)
    assert_array_equal(back.widths, history.widths)
    assert_array_equal(back.u, history.u)
    assert_array_equal(back.ut, history.ut)
    assert_array_equal(back.v, history.v)
    assert_array_equal(back.vt, history.vt)
    assert back.t0 == history.t0
    assert back.dt == history.dt
    assert back.scenario == history.scenario
    # serialization itself is deterministic
    assert _archive(back, tmp_path / "again.wkgh") == blob


@pytest.mark.parametrize("data,live", [
    (dict(u1=BUMP3), ("u", "v")),
    (dict(u1=BUMP3, v0=ZERO), ("u",)),
    (dict(u0=ZERO, v1=BUMP3), ("v",)),
    (dict(eps=0.0), ()),
], ids=["coupled", "free-wave", "free-kg", "zero-data"])
def test_round_trip_is_bit_exact_for_every_live_count(data, live, tmp_path):
    # F = 2, 1, 1 and 0 live fields: the archive holds F doubles a written
    # cell, and the loaded records, views and widths are the evolved ones
    # byte for byte, the time derivatives derived from them too
    scn = make_scenario(dr=0.1, r_max=8.0, t_end=6.0, **data)
    assert live_fields(scn) == live
    history = evolve(scn)
    blob = _archive(history, tmp_path / "run.wkgh")
    data = _parts(blob)[1]
    assert len(data) == 8 * len(live) * int(history.widths.sum())
    back = slice_load(tmp_path / "run.wkgh")
    assert back.records.shape == (*history_shape(scn), len(live))
    assert back.records.tobytes() == history.records.tobytes()
    assert back.widths.tobytes() == history.widths.tobytes()
    for name in ("u", "ut", "v", "vt"):
        got, want = getattr(back, name), getattr(history, name)
        assert got.tobytes() == want.tobytes(), name
        assert got.flags.writeable == (name[0] in live), name
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
    # a scenario whose run has more slices than the file holds
    longer = history.scenario.with_grid(t_end=history.scenario.t_end + 1.0)
    data = _parts(blob)[1]
    with pytest.raises(SliceIOError, match="truncated"):
        _load_bytes(_assemble(serialize_scenario(longer).encode(), data), tmp_path)


def _parts(blob):
    """An archive's scenario text and records."""
    at = 12 + int.from_bytes(blob[8:12], "little")
    return blob[12:at], blob[at:-4]


def _assemble(text, data, version=6):
    """The bytes of an archive of these parts."""
    body = b"WKGH" + version.to_bytes(4, "little") + len(text).to_bytes(4, "little")
    body += text + data
    return body + zlib.crc32(body).to_bytes(4, "little")


def test_archive_is_its_parts(history, tmp_path):
    # the header is the magic, the version and the scenario: the slice
    # count, the radii, the times and each slice's width are the scenario's
    blob = _archive(history, tmp_path / "run.wkgh")
    text, data = _parts(blob)
    assert text == serialize_scenario(history.scenario).encode()
    assert data == b"".join(row[:w].tobytes()
                            for row, w in zip(history.records, history.widths))
    assert _assemble(text, data) == blob


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


@pytest.fixture
def no_allocation(monkeypatch):
    """Fail any allocation of a loaded history's records."""
    def refuse(cls, scn):
        raise AssertionError(f"allocated the records of {scn}")
    monkeypatch.setattr(SliceHistory, "empty", classmethod(refuse))


def test_format_5_rejected(history, tmp_path, no_allocation):
    # format 5 stored each live field's time derivative beside it, 2F
    # doubles a cell: its archive of this run is refused by its version,
    # before any allocation
    text, data = _parts(_archive(history, tmp_path / "run.wkgh"))
    ut, vt = history.ut, history.vt
    cells = np.stack([history.u, history.v, ut, vt], axis=-1)
    old = b"".join(row[:w].tobytes() for row, w in zip(cells, history.widths))
    assert len(old) == 2 * len(data)
    with pytest.raises(SliceIOError, match="^unsupported format version 5$"):
        _load_bytes(_assemble(text, old, version=5), tmp_path)


def test_unsupported_version_rejected(history, tmp_path, no_allocation):
    # version 1 stored full rows of four separate fields, version 2 stored
    # the times and the radial grid beside the scenario, version 3 stored
    # all four fields of every cell, dead ones included, version 4 a table
    # of the slice widths and version 5 each live field's time derivative
    blob = _archive(history, tmp_path / "run.wkgh")
    for version in (99, 1, 2, 3, 4, 5):
        with pytest.raises(SliceIOError, match=f"^unsupported format version {version}$"):
            _load_bytes(_with_patch(blob, 4, version.to_bytes(4, "little")), tmp_path)


def test_truncated_records_rejected_before_allocating(history, tmp_path, no_allocation):
    # the scenario's widths imply the file's size, which is checked first
    blob = _archive(history, tmp_path / "run.wkgh")
    text, data = _parts(blob)
    with pytest.raises(SliceIOError, match="truncated"):
        _load_bytes(_assemble(text, data[:len(data) // 2]), tmp_path)


def test_dimensions_past_the_size_cap_rejected(history, tmp_path, no_allocation):
    # the scenario decides the dimensions, and its rules cap them: at
    # dr = 1e-4 the records would be a 30 GiB mapping
    blob = _archive(history, tmp_path / "run.wkgh")
    text, data = _parts(blob)
    huge = text.replace(b"grid.dr = 0.1\n", b"grid.dr = 0.0001\n")
    assert huge != text
    with pytest.raises(SliceIOError, match="bad scenario text: .*history too large"):
        _load_bytes(_assemble(huge, data), tmp_path)


def test_dump_refuses_records_not_of_the_scenario_shape(history, tmp_path):
    for records in (history.records[:-1], history.records[:, :-1]):
        with pytest.raises(SliceIOError, match="not the shape of its scenario"):
            slice_dump(SliceHistory(history.scenario, records), tmp_path / "run.wkgh")


def test_records_past_the_derived_widths_rejected(history, tmp_path, no_allocation):
    # slices stored wider than the scenario's store rule leave more bytes
    # than its widths imply
    text, data = _parts(_archive(history, tmp_path / "run.wkgh"))
    wider = data + bytes(history.records[0, 0].nbytes * history.n_slices)
    with pytest.raises(SliceIOError, match="trailing bytes"):
        _load_bytes(_assemble(text, wider), tmp_path)


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
    # header and views of the history, about 7 KB here against a 94 KB
    # archive
    view, peak = _peak_bytes(slice_dump, history, tmp_path / "run.wkgh")
    assert len(view) == (tmp_path / "run.wkgh").stat().st_size
    assert peak <= 0.25 * len(view)


# Evolves dr = 0.01, r_max = t_end = 27, the run of
# test_solver.test_history_is_resident_only_where_written, and prints the
# ru_maxrss rise over dumping it to the file named by its argument, the
# length of slice_dump's result, and the history's slice count and
# written record bytes.
_DUMP_CHILD = """
import json, resource, sys
from wavekg.profiles import Profile
from wavekg.scenario import Scenario
from wavekg.sliceio import slice_dump
from wavekg.solver import evolve

bump, zero = Profile("bump", k=4, radius=1.0, amp=1.0), Profile("zero")
history = evolve(Scenario(u0=bump, u1=zero, v0=bump, v1=zero, eps=1e-3,
                          dr=0.01, r_max=27.0, t_end=27.0))

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

before = maxrss()
view = slice_dump(history, sys.argv[1])
print(json.dumps({"rise": maxrss() - before, "size": len(view),
                  "n_slices": history.n_slices,
                  "written": history.records[0, 0].nbytes * int(history.widths.sum())}))
"""

# Loads the archive named by its argument and prints the ru_maxrss rise
# over slice_load, the current-RSS fall once the history is dropped, the
# bytes of its written records, its slice count and the page size.
_LOAD_CHILD = """
import gc, json, os, resource, sys
from wavekg.sliceio import slice_load

page = os.sysconf("SC_PAGE_SIZE")

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

before = maxrss()
history = slice_load(sys.argv[1])
rise = maxrss() - before
written = history.records[0, 0].nbytes * int(history.widths.sum())
n_slices = history.n_slices
held = resident()
del history
gc.collect()
print(json.dumps({"rise": rise, "written": written, "n_slices": n_slices,
                  "page": page, "freed": held - resident()}))
"""


@pytest.fixture(scope="module")
def big_dump(tmp_path_factory):
    """The archive of the dr = 0.01, r_max = t_end = 27 run, and what its
    dump child printed."""
    path = tmp_path_factory.mktemp("big") / "big.wkgh"
    child = run_python_process(["-c", _DUMP_CHILD, str(path)], threads=1)
    assert child.returncode == 0, child.stderr
    return path, json.loads(child.stdout)


def test_dump_to_a_file_stays_out_of_memory(big_dump):
    # the archive holds each slice's written records and nothing past
    # them, and neither it nor the history's unwritten pages past the cone
    # become resident: the dump copies nothing
    path, got = big_dump
    head = path.read_bytes()[:12]
    header = 12 + int.from_bytes(head[8:12], "little")
    assert got["size"] == path.stat().st_size == header + got["written"] + 4
    assert got["written"] >= 50 * 2**20
    assert got["rise"] < 2**20, got


@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="needs /proc/self/statm for the current RSS")
def test_load_is_resident_only_where_written(big_dump):
    # a loaded history is resident like an evolved one: the records are
    # read straight into a fresh mapping, whose pages past each slice's
    # width stay unbacked, so the rise is at most the written records and
    # one page per slice, and it goes with the history
    path, dumped = big_dump
    child = run_python_process(["-c", _LOAD_CHILD, str(path)], threads=1)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["written"] == dumped["written"]
    assert got["rise"] <= got["written"] + got["page"] * got["n_slices"], got
    assert got["freed"] >= 0.9 * got["rise"], got
