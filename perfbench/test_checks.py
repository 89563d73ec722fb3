"""Self-tests of the benchmark: every correctness check accepts a right input
and rejects a deliberately wrong one, and the tracer attributes time right.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavekg import cli
from wavekg.oracles import DalembertField, free_wave_radiation
from wavekg.profiles import Profile
from wavekg.scenario import parse_scenario
from wavekg.sliceio import SliceIOError, slice_load
from wavekg.solver import HistorySampler, evolve

import checks
import tracing

HERE = Path(__file__).resolve().parent

TINY = """
data.eps = 1e-3
data.u0 = bump k=4 radius=1.0 amp=1.0
data.v0 = bump k=4 radius=1.0 amp=1.0
grid.dr = 0.1
grid.r_max = 9.0
grid.t_end = 8.0
"""
U0 = Profile("bump", k=4, amp=1e-3)
ZERO = Profile("zero")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """`wavekg all` on a coarse grid: real artifacts to check and to corrupt."""
    base = tmp_path_factory.mktemp("tiny")
    cfg = base / "tiny.cfg"
    cfg.write_text(TINY)
    out = base / "out"
    assert cli.main(["all", "--scenario", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    return out


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_number_reads_plain_and_numpy_scalar_forms():
    assert checks.number("1.5") == 1.5
    assert checks.number("np.float64(2.5e-06)") == 2.5e-06
    with pytest.raises(ValueError):
        checks.number("np.float64(oops)")


def test_manifest_and_crc_reject_a_flipped_byte(tiny_run, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(tiny_run, out)
    archive = out / "slices.wkgh"
    assert checks.check_manifest(out) == []
    assert checks.check_archive_crc(archive) == []
    flip_byte(archive, archive.stat().st_size // 2)
    assert any("slices.wkgh" in p for p in checks.check_manifest(out))
    assert checks.check_archive_crc(archive) != []
    with pytest.raises(SliceIOError):
        slice_load(archive)


def test_loaded_history_rejects_wrong_scenario_and_short_grid(tiny_run):
    scn = parse_scenario(TINY)
    history = slice_load(tiny_run / "slices.wkgh")
    assert checks.check_loaded_history(history, scn) == []
    assert checks.check_loaded_history(history, scn.with_grid(eps=2e-3)) != []
    history.u, history.ut = history.u[:-1], history.ut[:-1]
    history.v, history.vt = history.v[:-1], history.vt[:-1]
    assert checks.check_loaded_history(history, scn) != []


def test_energies_csv_rejects_negative_parts_and_bad_ratio(tiny_run):
    rows = checks.read_csv(tiny_run / "energies.csv")
    assert checks.check_energies_csv(rows) == []
    bad = [dict(r) for r in rows]
    bad[3]["e1_good"] = "-1e-9"
    assert checks.check_energies_csv(bad) != []
    bad = [dict(r) for r in rows]
    bad[5]["gc_ratio"] = "4.5"
    assert checks.check_energies_csv(bad) != []
    assert checks.check_energies_csv(rows[:-1]) != []


def test_kg_lab_rejects_short_sweep_large_constant_and_inexact_diagonalization():
    good = {"oscillator_sweep": {"n_cases": 100, "c_quadratic": 0.9999,
                                 "diag_residual": 1e-15}}
    assert checks.check_kg_lab(good) == []
    for key, value in (("n_cases", 99), ("c_quadratic", 1.0000011),
                       ("diag_residual", 1e-11)):
        bad = json.loads(json.dumps(good))
        bad["oscillator_sweep"][key] = value
        assert checks.check_kg_lab(bad) != []


def test_inequalities_reject_negative_slack_failed_bootstrap_and_hardy(tiny_run):
    report = json.loads((tiny_run / "inequalities.json").read_text())
    assert checks.check_inequalities(report) == []
    for mutate in (lambda r: r["standard_v"]["slack"].__setitem__(2, -1e-5),
                   lambda r: r["bootstrap"].__setitem__("ok", False),
                   lambda r: r["hardy"]["n3_alpha2"].__setitem__("ratio", 2.0001)):
        bad = json.loads(json.dumps(report))
        mutate(bad)
        assert checks.check_inequalities(bad) != []


def test_null_vs_hyperbola_rejects_disagreement_and_missing_rows(tiny_run):
    rows = checks.read_csv(tiny_run / "radiation.csv")
    assert checks.radiation_csv_pair(rows) is not None
    assert checks.check_radiation_csv(rows) == []
    assert checks.check_radiation_csv([r for r in rows if r["method"] != "hyperbola"]) != []
    null, hyp = (2.9e-4, 2e-5), (2.7e-4, 5e-5)
    assert checks.check_null_vs_hyperbola(null, hyp) == []
    assert checks.check_null_vs_hyperbola(null, (2.1e-4, 5e-5)) != []


def rigidity_report(mu):
    exact = free_wave_radiation(U0, ZERO, mu)
    norm = float(np.sqrt(np.trapezoid(exact**2, x=mu)))
    return exact, {
        "zero-data": {"e0_initial": 0.0, "radiation_norm": 0.0},
        "free-wave": {"radiation_norm": norm * 1.01,
                      "radiation_values": list(exact * 1.01)},
        "coupled": {"comparability": [0.99, 1.0]},
        "rigidity_consistent": True,
    }


def test_rigidity_rejects_swapped_radiation_value():
    mu = np.linspace(-1.0, 1.0, 9)
    exact, report = rigidity_report(mu)
    assert checks.check_rigidity(report, exact, mu) == []
    vals = report["free-wave"]["radiation_values"]
    vals[2], vals[4] = vals[4], vals[2]
    assert checks.check_rigidity(report, exact, mu) != []


def test_rigidity_rejects_nonzero_control_and_wide_band():
    mu = np.linspace(-1.0, 1.0, 9)
    exact, report = rigidity_report(mu)
    report["zero-data"]["radiation_norm"] = 1e-20
    assert checks.check_rigidity(report, exact, mu) != []
    exact, report = rigidity_report(mu)
    report["coupled"]["comparability"] = [0.85, 1.0]
    assert checks.check_rigidity(report, exact, mu) != []


def test_leakage_rejects_field_outside_the_cone():
    history = evolve(parse_scenario(TINY))
    assert checks.check_leakage(history) == []
    i = history.n_slices // 2
    history.ut[i, -1] = 0.01 * np.max(np.abs(history.ut[i]))
    assert any("ut" in p for p in checks.check_leakage(history))


def test_convergence_rejects_low_order_and_large_error():
    good = {"wave": {0.02: 2.0e-7, 0.01: 5.0e-8}, "kg": {0.02: 2.1e-7, 0.01: 5.2e-8}}
    assert checks.check_convergence(good) == []
    assert checks.check_convergence({"wave": {0.02: 1.2e-7, 0.01: 5.0e-8}}) != []
    assert checks.check_convergence({"wave": {0.02: 8e-4, 0.01: 2e-4}}) != []


def test_jets_reject_perturbed_oracle_field():
    rng = np.random.default_rng(0)
    t = rng.uniform(4.0, 8.0, 64)
    r = rng.uniform(0.0, 1.0, 64) * (t - 1.0)
    exact = DalembertField(U0, ZERO).jets(t, r, order=2)
    assert checks.check_jets(exact, exact, "wave") == []
    perturbed = DalembertField(Profile("bump", k=4, amp=1.02e-3), ZERO).jets(t, r, order=2)
    assert checks.check_jets(exact, perturbed, "wave") != []


def test_e0c_and_words_reject_perturbed_values():
    oracle = [3.4245e-6, 3.4245e-6, 3.4245e-6]
    assert checks.check_e0c([3.421e-6] * 3, oracle) == []
    assert checks.check_e0c([3.421e-6] * 3, [3.4245e-6, 3.43e-6, 3.4245e-6]) != []
    assert checks.check_e0c([3.3e-6] * 3, oracle) != []
    table = {"1": {"e0c": 1.0, "e1": 2.0}, "LL": {"e0c": 3.0, "e1": 4.0}}
    assert checks.check_words(table, table) == []
    bad = {"1": {"e0c": 1.0, "e1": 2.0}, "LL": {"e0c": 3.0 * 1.03, "e1": 4.0}}
    assert checks.check_words(bad, table) != []


def test_tracer_records_spans_and_restores_functions():
    import wavekg.solver as solver
    scn = parse_scenario(TINY)
    original = solver.evolve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        history = solver.evolve(scn)
        HistorySampler(history).jets(np.array([4.0]), np.array([1.0]), order=1)
    finally:
        tracer.uninstall()
    assert solver.evolve is original and cli.evolve is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["evolve", "HistorySampler.jets"]
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["solver.evolve_calls"][0] == 1
    assert layers["solver.rk4_steps"][0] == history.n_slices - 1
    assert layers["solver.jets_points"][0] == 1


def test_distinct_sample_share_counts_keys_per_round():
    def sample(i, rnd, key):
        return {"id": i, "parent": None, "round": rnd, "name": "build_sample",
                "start": 0.0, "end": 1.0, "key": key}
    a, b = [7, 2.0, 101, 3.0], [7, 2.5, 121, 3.5]
    one_round = [sample(0, 0, a), sample(1, 0, b), sample(2, 0, a)]
    two_rounds = one_round + [sample(3, 1, a), sample(4, 1, b), sample(5, 1, a)]
    share = tracing.layer_metrics(one_round, 1)["energies.distinct_sample_share"][0]
    assert share == pytest.approx(2 / 3)
    assert tracing.layer_metrics(two_rounds, 2)["energies.distinct_sample_share"][0] == share


def test_self_time_subtracts_direct_children():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
             {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
             {"id": 3, "parent": 0, "start": 5.0, "end": 6.0}]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_run_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-mid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
