import csv
import gc
import hashlib
import json
import math
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wavekg import cli, energies, geometry, inequalities, radiation, scenario, solver
from wavekg.geometry import (HYPERBOLA_C0, MU_FAN, HyperbolaCurve, covered_s_grid,
                             entry_point, hyperbola_window, hyperboloid_nodes,
                             run_length_problem)
from wavekg.oracles import OracleSampler, free_wave_radiation
from wavekg.scenario import (ScenarioError, history_bytes, history_shape, parse_scenario,
                             serialize_scenario, store_cap, time_steps)
from wavekg.sliceio import slice_load

from conftest import (differing_outputs, run_cli_process, run_python_process,
                      skip_unless_two_cpus)

REFERENCE_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "reference.cfg"
MID_CFG = REFERENCE_CFG.with_name("mid.cfg")

TINY = """
data.eps = 1e-3
data.u0 = bump k=4 radius=1.0 amp=1.0
data.v0 = bump k=4 radius=1.0 amp=1.0
grid.dr = 0.1
grid.r_max = 9.0
grid.t_end = 8.0
"""


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    p.write_text(TINY)
    return p


def test_default_scenario_parses():
    # Scenario's defaults, which the CLI runs without --scenario, are the
    # benchmark's reference scenario
    scn = parse_scenario("")
    assert scn.dr == 0.01
    assert scn.t_end == 52.0
    assert (scn.b00, scn.bd, scn.p00, scn.pd) == (1.0, 1.0, 1.0, 1.0)
    assert scn == parse_scenario(REFERENCE_CFG.read_text())


def test_simulate_writes_manifest_and_slices(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["simulate", "--scenario", str(tiny_cfg),
                   "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert "slices.wkgh" in manifest["artifacts"]
    hist = slice_load(out / "slices.wkgh")
    assert hist.scenario == parse_scenario(TINY)
    assert np.max(np.abs(hist.u)) > 0


def test_simulate_zero_amplitude_yields_zero_slices(tmp_path):
    scn = parse_scenario(TINY).with_grid(eps=0.0)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(serialize_scenario(scn))
    out = tmp_path / "zero-run"
    rc = cli.main(["simulate", "--scenario", str(cfg), "--out", str(out)])
    assert rc == 0
    # the rigidity stage relies on this: it takes zeros as its zero-data
    # run's answer instead of evolving it
    hist = slice_load(out / "slices.wkgh")
    for name in ("u", "ut", "v", "vt"):
        assert np.all(getattr(hist, name) == 0.0), name


def test_pipeline_evolves_once(tmp_path, monkeypatch):
    evolved = []

    def counting_evolve(scn):
        evolved.append(scn)
        return solver.evolve(scn)

    monkeypatch.setattr(cli, "evolve", counting_evolve)
    scn = parse_scenario(TINY)
    cli.run_pipeline("all", scn, tmp_path / "run")
    # both rigidity controls are exact solutions; only the coupled run evolves
    assert evolved == [scn]


def test_a_profile_past_the_float_range_outside_its_support_runs(tmp_path):
    # amp = 1e295 at k = 16 overflows once the polynomial is evaluated at
    # radii past 1, which the profile's values there never need; every
    # numpy overflow is an error under the test configuration
    scn = parse_scenario(TINY.replace("bump k=4 radius=1.0 amp=1.0\ngrid",
                                      "bump k=16 radius=1.0 amp=1e295\ngrid")
                         .replace("data.eps = 1e-3", "data.eps = 1e-300"))
    assert scn.v0.amp == 1e295 and scn.eps == 1e-300
    manifest = cli.run_pipeline("all", scn, tmp_path / "run")
    assert "kg_lab.json" in manifest["artifacts"]


def _hyperboloid_s(ts, rs, dr):
    """The s of a jets query on the nodes of H_s, or None.  A query is a
    hyperboloid's when its radii are hyperboloid_nodes of its first time
    (on the axis, where t = s) and its times lie on H_s."""
    ts, rs = np.asarray(ts), np.asarray(rs)
    s = float(ts[0])
    if (np.array_equal(rs, hyperboloid_nodes(s, dr))
            and np.array_equal(ts, np.hypot(s, rs))):
        return s
    return None


def test_stages_sample_each_hyperboloid_once_per_history(tmp_path, monkeypatch):
    # one jets query per covered hyperboloid serves the energies,
    # inequalities and radiation stages; its sample (a word record on
    # every third H_s) is held by the history alone
    scn = parse_scenario(TINY)
    queried, records = [], []
    original_jets = solver.HistorySampler.jets
    original_records = solver.word_records

    def counting_jets(self, ts, rs, order=3):
        s = _hyperboloid_s(ts, rs, scn.dr)
        if s is not None:
            queried.append(s)
        return original_jets(self, ts, rs, order)

    def held_word_records(*args):
        out = original_records(*args)
        records.extend(weakref.ref(record["u"]) for record in out)
        return out

    monkeypatch.setattr(solver.HistorySampler, "jets", counting_jets)
    monkeypatch.setattr(solver, "word_records", held_word_records)
    history = solver.evolve(scn)
    cli._stage_energies(scn, tmp_path, history)
    cli._stage_inequalities(scn, tmp_path, history, np.random.default_rng(0))
    cli._stage_radiation(scn, tmp_path, history)
    assert len(queried) == len(set(queried)) == 25
    assert len(records) == 9
    assert all(ref() is sample["u"]
               for ref, sample in zip(records, history.foliation[::3]))
    # the shared samples and word records live and die with their history
    ref = weakref.ref(history)
    del history
    gc.collect()
    assert ref() is None
    assert all(record() is None for record in records)


def test_pipeline_integrates_each_hyperboloid_once(tmp_path, monkeypatch):
    # a sample's key is the kind of sampler that queried it and its s; the
    # rigidity stage reads the coupled history's foliation, samples its
    # free-wave control on every third s of it and its zero-data control
    # not at all.  Each key's u array is held by weak reference, so a
    # reused id is caught.
    scn = parse_scenario(TINY)
    histories = []
    origin = {}  # id(u array of a query) -> (weakref to it, (sampler kind, s))
    calls = Counter()

    def counting_evolve(scn):
        histories.append(solver.evolve(scn))
        return histories[-1]

    def counting(original):
        def jets(self, ts, rs, order=3):
            out = original(self, ts, rs, order)
            s = _hyperboloid_s(ts, rs, scn.dr)
            if s is not None:
                u = out["u"][(0, 0)]
                origin[id(u)] = (weakref.ref(u), (type(self).__name__, s))
            return out
        return jets

    def counting_energy(name, fn):
        def wrapper(sample, *args, **kwargs):
            field = args[1] if len(args) > 1 else kwargs.get("field", "u")
            if name != "energy_e0c" or field == "u":
                ref, key = origin[id(sample["u"])]
                assert ref() is sample["u"]
                calls[name, key] += 1
            return fn(sample, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "evolve", counting_evolve)
    for cls in (solver.HistorySampler, OracleSampler):
        monkeypatch.setattr(cls, "jets", counting(cls.jets))
    for name in ("energy_e0c", "energy_e1", "energy_e0gc"):
        fn = getattr(energies, name)
        for module in (energies, cli, inequalities, radiation):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting_energy(name, fn))
    cli.run_pipeline("all", scn, tmp_path / "run")
    s_grid = [float(s) for s in covered_s_grid(histories[0].t_last, scn.dr)]
    keys = {key for _, key in origin.values()}
    # the 25 foliation samples and the free-wave control's 9
    assert len(keys) == 25 + 9
    assert keys == ({("HistorySampler", s) for s in s_grid}
                    | {("OracleSampler", s) for s in s_grid[::3]})
    for name in ("energy_e0c", "energy_e1", "energy_e0gc"):
        assert {key: calls[name, key] for key in keys} == dict.fromkeys(keys, 1), name


def test_pipeline_queries_order_three_jets_once_per_word_record(tmp_path, monkeypatch):
    # the word tables, the bootstrap and Klainerman-Sobolev share one
    # order-3 query on each of every third foliation hyperboloid; the
    # other 16 take one order-1 query each
    scn = parse_scenario(TINY)
    histories, queried = [], []
    original_jets = solver.HistorySampler.jets

    def counting_evolve(scn):
        histories.append(solver.evolve(scn))
        return histories[-1]

    def counting_jets(self, ts, rs, order=3):
        s = _hyperboloid_s(ts, rs, scn.dr)
        if s is not None:
            queried.append((s, order))
        return original_jets(self, ts, rs, order)

    monkeypatch.setattr(cli, "evolve", counting_evolve)
    monkeypatch.setattr(solver.HistorySampler, "jets", counting_jets)
    cli.run_pipeline("all", scn, tmp_path / "run")
    foliation_s = [sample["s"] for sample in histories[0].foliation]
    order_three = [s for s, order in queried if order == 3]
    assert len(order_three) == len(set(order_three)) == 9
    assert order_three == foliation_s[::3]
    assert sorted(queried) == [(s, 3 if i % 3 == 0 else 1)
                               for i, s in enumerate(foliation_s)]


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_bad_scenario_writes_error_json(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.cfl = 7.0\n")
    out = tmp_path / "bad-run"
    rc = cli.main(["simulate", "--scenario", str(cfg), "--out", str(out)])
    assert rc == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["status"] == "error"
    assert payload["type"] == "ScenarioError"


def test_error_json_cleared_on_success(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "error.json").write_text("{}")
    rc = cli.main(["simulate", "--scenario", str(tiny_cfg),
                   "--out", str(out)])
    assert rc == 0
    assert not (out / "error.json").exists()


def test_full_pipeline_deterministic_across_threads(tiny_cfg, tmp_path):
    # two processes pinned to one and two CPUs, so one runs one share and
    # one BLAS/OpenMP thread and the other two of each
    skip_unless_two_cpus()
    for label, cpus in (("a", 1), ("b", 2)):
        assert run_cli_process(["all", "--scenario", str(tiny_cfg),
                                "--out", str(tmp_path / label)], cpus) == (0, cpus)
    assert differing_outputs(tmp_path / "a", tmp_path / "b") == []


def test_pipeline_emits_expected_artifacts(tiny_cfg, tmp_path):
    out = tmp_path / "full"
    rc = cli.main(["all", "--scenario", str(tiny_cfg), "--out", str(out)])
    assert rc == 0
    for name in ("slices.wkgh", "energies.csv", "energies.json",
                 "inequalities.json", "kg_lab.json", "radiation.csv",
                 "radiation.json", "rigidity.json", "manifest.json"):
        assert (out / name).exists(), name
    rigidity = json.loads((out / "rigidity.json").read_text())
    assert rigidity["rigidity_consistent"]
    assert rigidity["zero-data"]["zero_data"] and rigidity["zero-data"]["silent"]
    assert not rigidity["coupled"]["silent"]
    kg = json.loads((out / "kg_lab.json").read_text())
    assert kg["oscillator_sweep"]["c_quadratic"] <= 1.0 + 1e-6
    assert kg["oscillator_sweep"]["diag_residual"] < 1e-12
    # the printed lemma's constant within its derived factor, every case
    assert kg["oscillator_sweep"]["printed_factor_share"] <= 1.0
    # every number is written as a plain float literal
    for name, text_columns in (("energies.csv", ()),
                               ("radiation.csv", ("method", "flagged"))):
        with open(out / name, newline="") as fh:
            for row in csv.DictReader(fh):
                for col, cell in row.items():
                    if col in text_columns or (col == "c0" and cell == ""):
                        continue  # null-ray rows leave c0 empty
                    float(cell)
    for path in out.glob("*.dat"):
        for line in path.read_text().splitlines():
            x, y = line.split(" ")
            float(x), float(y)

    # every JSON artifact is strict JSON: no NaN or Infinity
    def reject(constant):
        raise ValueError(f"{constant} in a JSON artifact")

    reports = {path.name: json.loads(path.read_text(), parse_constant=reject)
               for path in out.glob("*.json")}
    assert "inequalities.json" in reports
    # no H_s of this grid reaches s = 5, so no decay slope is fitted
    for monitor in reports["inequalities.json"]["monitors"].values():
        assert monitor == {"slope": None, "confidence": None}
    assert reports["kg_lab.json"]["sharp_decay"]["slope"] is None


def test_seed_changes_randomized_sweeps(tiny_cfg, tmp_path):
    blobs = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        rc = cli.main(["inequalities", "--scenario", str(tiny_cfg),
                       "--out", str(out), "--seed", str(seed)])
        assert rc == 0
        blobs.append((out / "inequalities.json").read_text())
    ha = json.loads(blobs[0])["hardy"]
    hb = json.loads(blobs[1])["hardy"]
    assert ha != hb


def test_shortest_accepted_run_completes(tmp_path):
    # with dr = 0.05 the c0 = 3 hyperbola sets the shortest run: its
    # horizon must lie past h = 1.5 times its start, about 3.6056, while
    # the fan needs t_end > 3.22 and the hyperboloids t_end > 3.05
    h = hyperbola_window(HyperbolaCurve(3.0))[1]
    assert run_length_problem(h + 0.01, 0.05) is None
    short = TINY.replace("grid.dr = 0.1", "grid.dr = 0.05")
    with pytest.raises(ScenarioError, match="line 7: .*too short.*c0 = 3 hyperbola"):
        parse_scenario(short.replace("grid.t_end = 8.0", f"grid.t_end = {h - 0.01}"))
    cfg = tmp_path / "short.cfg"
    cfg.write_text(short.replace("grid.t_end = 8.0", f"grid.t_end = {h + 0.01}"))
    assert cli.main(["all", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("profile,dr", [("bump k=1 radius=1.0", 0.2),
                                        ("bump k=16 radius=0.86", 0.172)])
def test_data_at_the_resolution_rule_finish(tmp_path, profile, dr):
    # five cells per radius, the fewest parse_scenario accepts, on the
    # grids where the energy check failed at the most cells: k = 1 up to
    # 4.1 cells at dr = 0.2, k = 16 up to 2.25 at dr = 0.172
    scn = parse_scenario(f"data.u0 = {profile} amp=1.0\ngrid.dr = {dr}\n"
                         "grid.r_max = 8\ngrid.t_end = 8\n")
    manifest = cli.run_pipeline("all", scn, tmp_path / "run")
    assert "rigidity.json" in manifest["artifacts"]


def test_radiation_and_rigidity_read_one_fan(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["all", "--scenario", str(tiny_cfg), "--out", str(out)]) == 0
    with open(out / "radiation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    null = [float(row["value"]) for row in rows if row["method"] == "null-ray"]
    rigidity = json.loads((out / "rigidity.json").read_text())
    assert len(null) == 9
    assert rigidity["coupled"]["radiation_values"] == null
    # the one other row follows the plan's hyperbola, which enters the cone
    # (entry_point rejects c0 <= 2)
    c0s = [float(row["c0"]) for row in rows if row["method"] != "null-ray"]
    assert {row["method"] for row in rows} == {"null-ray", "hyperbola"}
    assert len(rows) == 10 and c0s == [HYPERBOLA_C0]
    entry_point(HyperbolaCurve(HYPERBOLA_C0))
    # the free-wave control's fan is its closed form, bit for bit
    scn = parse_scenario(TINY)
    exact = free_wave_radiation(scn.u0.scaled(scn.eps), scn.u1.scaled(scn.eps), MU_FAN)
    assert rigidity["free-wave"]["radiation_values"] == exact.tolist()


def test_r_max_past_the_last_window_changes_nothing(tmp_path, monkeypatch):
    # r_max only caps evolve's window, sizing no array, so r_max = 1e9
    # (1e10 cells at this dr) runs the history of r_max = 2 t_end
    histories = []

    def keeping_evolve(scn):
        histories.append(solver.evolve(scn))
        return histories[-1]

    monkeypatch.setattr(cli, "evolve", keeping_evolve)
    for r_max in ("1e9", "16.0"):
        scn = parse_scenario(TINY.replace("grid.r_max = 9.0", f"grid.r_max = {r_max}"))
        cli.run_pipeline("all", scn, tmp_path / r_max)
    far, near = histories
    assert np.array_equal(far.r, near.r)
    assert np.array_equal(far.widths, near.widths)
    assert np.array_equal(far.records, near.records)


def _run_mid(out):
    """`wavekg all` on the benchmark's mid grid with --seed 12345."""
    assert cli.main(["all", "--scenario", str(MID_CFG), "--out", str(out),
                     "--seed", "12345"]) == 0
    return out


@pytest.fixture(scope="module")
def mid_run(tmp_path_factory):
    return _run_mid(tmp_path_factory.mktemp("mid") / "default")


def test_mid_run_reads_the_tail_at_the_cap(mid_run):
    # the largest |u| or |v| in the cap's radius column over the run, as it
    # was when every slice stored its whole integration window
    manifest = json.loads((mid_run / "manifest.json").read_text())
    assert manifest["metrics"]["solver"]["max_abs_at_cap"] == 1.151636277155246e-11


def test_the_stages_read_inside_the_store_margin():
    # the farthest a stage reads past a slice's cone r = t - 1, in cells: a
    # hyperboloid node lies up to _NODE_MARGIN + 1 cells past its own cone
    # (the outermost reads), the sampler's widest window (order 3) reaches
    # 4 cells past a node, and its slices, with the two its time
    # differences read, start up to 3 steps before the node's time, 4 at
    # the end of the run, a step being at most the stable cfl at kappa = 1
    # (1.04 cells)
    cfl = scenario._CFL_SAFETY * scenario._RK4_IMAG_LIMIT / math.sqrt(scenario._LAP_RADIUS)
    reach = geometry._NODE_MARGIN + 1 + max(solver._NODES) // 2 + math.ceil(4 * cfl)
    assert reach == 20 <= scenario.STORE_MARGIN


def test_the_store_hides_nothing_a_stage_reads(mid_run, tmp_path, monkeypatch):
    # with every slice stored out to its whole integration window, every
    # artifact but the archive is the default run's, byte for byte
    monkeypatch.setattr(scenario, "STORE_MARGIN", solver.WINDOW_MARGIN)
    wide = _run_mid(tmp_path / "wide")
    assert differing_outputs(mid_run, wide) == ["manifest.json", "slices.wkgh"]
    assert (wide / "slices.wkgh").stat().st_size > (
        mid_run / "slices.wkgh").stat().st_size


def test_wall_clock_covers_the_hashing(tmp_path, monkeypatch):
    # the manifest's wall clock is taken after the artifacts are hashed
    real = cli._sha256

    def slow_sha256(path):
        time.sleep(0.05)
        return real(path)

    monkeypatch.setattr(cli, "_sha256", slow_sha256)
    manifest = cli.run_pipeline("simulate", parse_scenario(TINY), tmp_path)
    stage = manifest["metrics"]["stages"]["simulate"]["wall_s"]
    assert manifest["wall_clock_s"] >= stage + 0.05 * len(manifest["artifacts"])


def test_archive_is_hashed_beside_the_stages(tmp_path, monkeypatch):
    # the archive's digest comes from a thread of its own, joined before
    # the run returns; a failure there is raised in the caller
    real = cli._sha256
    threads = {}

    def recording_sha256(path):
        threads[path.name] = threading.get_ident()
        return real(path)

    monkeypatch.setattr(cli, "_sha256", recording_sha256)
    before = threading.active_count()
    out = tmp_path / "run"
    manifest = cli.run_pipeline("energies", parse_scenario(TINY), out)
    assert threading.active_count() == before
    assert threads.keys() == manifest["artifacts"].keys()
    assert threads.pop("slices.wkgh") != threading.get_ident()
    assert set(threads.values()) == {threading.get_ident()}
    for name, digest in manifest["artifacts"].items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()

    class HashFailed(Exception):
        pass

    def failing_sha256(path):
        if path.name == "slices.wkgh":
            raise HashFailed
        return real(path)

    monkeypatch.setattr(cli, "_sha256", failing_sha256)
    with pytest.raises(HashFailed):
        cli.run_pipeline("energies", parse_scenario(TINY), out)
    assert threading.active_count() == before


def test_kg_lab_sweep_never_holds_whole_trajectories(tmp_path):
    # v and v' of the sweep's 100 cases on its 20 000-point grid are 32 MB;
    # the lemma reads them from the 1001 nodes 384 columns at a time, one
    # block of half the cases on each of two cores, and the stage peaks at
    # 5.8 MiB
    scn = parse_scenario(TINY)
    history = solver.evolve(scn)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._stage_kg_lab(scn, tmp_path, history, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * 2 * 100 * 20000 * 8, peak


def test_coupled_fan_is_extracted_once(tiny_cfg, tmp_path, monkeypatch):
    # the radiation and rigidity stages read the history's one null-ray
    # fan; the controls' fans are their exact answers, the free wave's
    # closed form and zeros
    calls = Counter()
    original = radiation.radiation_null

    def counting_null(sampler, mu, r_sequence):
        calls[type(sampler).__name__] += 1
        return original(sampler, mu, r_sequence)

    for module in (radiation, solver, cli):
        if getattr(module, "radiation_null", None) is original:
            monkeypatch.setattr(module, "radiation_null", counting_null)
    out = tmp_path / "run"
    assert cli.main(["all", "--scenario", str(tiny_cfg), "--out", str(out)]) == 0
    assert calls == {"HistorySampler": 9}


# prints the ru_maxrss rise over hashing the file named by its argument,
# and the digest
_SHA_CHILD = """
import json, resource, sys
from wavekg.cli import _sha256

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

before = maxrss()
digest = _sha256(sys.argv[1])
print(json.dumps({"rise": maxrss() - before, "digest": digest}))
"""


def test_artifact_hash_never_holds_the_file(tmp_path):
    # a sparse 64 MiB file of zeros: read whole, it would raise ru_maxrss
    # by its size
    size = 64 * 2**20
    path = tmp_path / "zeros.bin"
    with open(path, "wb") as fh:
        fh.truncate(size)
    child = run_python_process(["-c", _SHA_CHILD, str(path)], threads=1)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    expected = hashlib.sha256()
    for _ in range(64):
        expected.update(bytes(2**20))
    assert got["digest"] == expected.hexdigest()
    assert got["rise"] <= size / 16, got


def test_manifest_metrics_stay_outside_the_hashes(tiny_cfg, tmp_path, caplog):
    scn = parse_scenario(tiny_cfg.read_text())
    caplog.set_level("INFO", logger="wavekg.cli")
    first = cli.run_pipeline("energies", scn, tmp_path / "a")
    second = cli.run_pipeline("energies", scn, tmp_path / "b")
    assert first["artifacts"] == second["artifacts"]
    for manifest in (first, second):
        metrics = manifest["metrics"]
        assert set(metrics["stages"]) == {"simulate", "energies"}
        for stage in metrics["stages"].values():
            assert stage["wall_s"] > 0 and stage["peak_rss_mb"] > 0
        n_steps, dt = time_steps(scn)
        health = {k: metrics["solver"].pop(k)
                  for k in ("min_degeneracy", "max_abs_u", "max_abs_v",
                            "max_abs_at_cap")}
        history = slice_load(tmp_path / "a" / "slices.wkgh")
        assert metrics["solver"] == {
            "steps": n_steps, "dt": dt, "window_margin": solver.WINDOW_MARGIN,
            "history_mb": history_bytes(scn) / 2**20,
            "history_written_mb": history.records[0, 0].nbytes
            * int(history.widths.sum()) / 2**20}
        assert all(np.isfinite(x) for x in health.values())
        # the stored u stays small and positive here, so the degeneracy
        # minimum sits at the largest u
        assert health["min_degeneracy"] == pytest.approx(
            1.0 - scn.p00 * history.u.max(), abs=1e-12)
        assert health["max_abs_u"] == np.abs(history.u).max() > 0
        assert health["max_abs_v"] == np.abs(history.v).max() > 0
        # the cap's radius column, where the sampler's zero begins; the
        # columns past it only pad the rows to whole pages
        cap = store_cap(scn) - 1
        assert cap < history.r.size - 1
        assert health["max_abs_at_cap"] == max(
            np.abs(f[:, cap]).max() for f in (history.u, history.v))
    # the support cone stays inside the cap on this grid, so the column is
    # zero; a value placed in it is reported, and one in the padding is not
    history.v[-1, -1] = 5e-7
    history.v[-1, cap] = -3e-7
    assert cli._field_health(history)["max_abs_at_cap"] == 3e-7
    for stage in ("simulate", "energies"):
        assert any(rec.getMessage().startswith(f"stage {stage}: wall ")
                   for rec in caplog.records)


@pytest.mark.parametrize("p00", [0.8, -1.7, 0.0, 6.0])
def test_field_health_from_extremes_is_the_elementwise_value(p00):
    # u and v of both signs over 601 slices (three blocks of rows); at
    # p00 = 6, 1 - p00 u changes sign inside a block
    scn = parse_scenario(TINY).with_grid(p00=p00, cfl=0.1)
    rng = np.random.default_rng(3)
    fields = {name: rng.standard_normal(history_shape(scn)) * 0.12 for name in ("u", "v")}
    history = solver.SliceHistory(
        scenario=scn, records=np.stack([fields[name] for name in ("u", "v")], axis=-1))
    assert history.n_slices == 601
    u, v = fields["u"], fields["v"]
    assert u.min() < 0 < u.max() and v.min() < 0 < v.max()
    health = cli._field_health(history)
    assert health["min_degeneracy"] == np.abs(1.0 - p00 * u).min()
    assert health["max_abs_u"] == np.abs(u).max()
    assert health["max_abs_v"] == np.abs(v).max()


# runs each stage, kg-lab included, then all, on the scenario text argv[1],
# writing under argv[2], and prints the scipy modules loaded after each
_SCIPY_CHILD = """
import json, sys
import wavekg, wavekg.cli
from wavekg.scenario import parse_scenario

scn = parse_scenario(sys.argv[1])
loaded = {}
for stage in wavekg.cli._SUBCOMMANDS:
    wavekg.cli.run_pipeline(stage, scn, sys.argv[2] + "/" + stage)
    loaded[stage] = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
print(json.dumps(loaded))
"""


def test_no_stage_loads_scipy(tmp_path):
    # every stage runs on numpy alone, kg-lab's oscillator sweep included
    child = run_python_process(["-c", _SCIPY_CHILD, TINY, str(tmp_path)],
                               threads=1)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {stage: [] for stage in cli._SUBCOMMANDS}
