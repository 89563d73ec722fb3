"""Command-line driver: run experiments, persist results, emit reports.

Subcommands: simulate, energies, inequalities, kg-lab, radiation,
rigidity, all.  Every run writes a manifest (scenario echo, grid,
wall-clock, sha256 of each artifact, and outside the hashes the run's
metrics: wall time and peak RSS per stage, the solver's steps, dt,
window margin and nominal history size, the stored fields' min
|1 - p00 u|, max |u| and max |v|, and their largest value at the storage
cap); outputs are deterministic given the manifest --
randomized sweeps draw from the explicit --seed.

Reports are CSV/JSON; every monitor series is additionally emitted as a
two-column plot-data file.

Only the stages, writers and orchestration live here: where a stage
samples is geometry's sampling plan, and the stages read hyperboloids
only through the history's ``foliation`` and its ``words`` records, each
built once per history.  ``all`` evolves once: the rigidity stage samples
its zero-data and free-wave controls from their exact solutions, on the
coupled run's every third foliation hyperboloid.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, solver
from . import inequalities as iq
from .energies import energy_f1, hyperboloid_samples
from .geometry import (MU_FAN, WORD_STRIDE, HyperbolaCurve, covered_s_grid,
                       null_radii)
from .kg_reduction import (OscillatorProblem, check_ode_lemma,
                           integrate_oscillator, reduction_residual,
                           sharp_decay_check)
from .oracles import DalembertField, OracleSampler
from .profiles import Profile
from .radiation import (excessive_decay_check, radiation_hyperbola,
                        radiation_null, rigidity_experiment, transport_check)
from .scenario import parse_scenario, serialize_scenario
from .sliceio import slice_dump
from .solver import HistorySampler, evolve

log = logging.getLogger(__name__)

_SUBCOMMANDS = ("simulate", "energies", "inequalities", "kg-lab",
                "radiation", "rigidity", "all")


# -- small deterministic writers ------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating))
                        else x for x in row])


def _to_jsonable(obj):
    """Plain JSON values; a non-finite float (no fit, say) becomes null,
    since strict JSON has no NaN or Infinity."""
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_to_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_series(path, x, y):
    """Two-column plot-data file."""
    with open(path, "w") as fh:
        for xi, yi in zip(np.asarray(x).ravel(), np.asarray(y).ravel()):
            fh.write(f"{float(xi)!r} {float(yi)!r}\n")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _field_health(history):
    """min |1 - p00 u|, max |u| and max |v| over the stored slices, and the
    largest |u|, |u_t|, |v|, |v_t| in the last stored radius column, past
    which the sampler treats the fields as zero; read in blocks of slices
    so the temporaries stay small."""
    p00 = history.scenario.p00
    rows = 256
    min_deg, max_u, max_v, at_cap = np.inf, 0.0, 0.0, 0.0
    for i in range(0, history.n_slices, rows):
        u = history.u[i:i + rows]
        min_deg = min(min_deg, float(np.abs(1.0 - p00 * u).min()))
        max_u = max(max_u, float(np.abs(u).max()))
        max_v = max(max_v, float(np.abs(history.v[i:i + rows]).max()))
        for f in (history.u, history.ut, history.v, history.vt):
            at_cap = max(at_cap, float(np.abs(f[i:i + rows, -1]).max()))
    return {"min_degeneracy": min_deg, "max_abs_u": max_u, "max_abs_v": max_v,
            "max_abs_at_cap": at_cap}


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (2^20 bytes);
    Linux counts ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- pipeline stages ------------------------------------------------------------


def _stage_simulate(scn, out):
    history = evolve(scn)
    slice_dump(history, out / "slices.wkgh")
    return history, ["slices.wkgh"]


def _stage_energies(scn, out, history):
    s_grid = covered_s_grid(history.t_last, scn.dr)
    samples = history.foliation
    e0 = np.array([sample["e0_u"] for sample in samples])
    e1 = np.array([sample["e1_u"] for sample in samples])
    f1 = energy_f1(s_grid, e1)
    rows = [(float(s), sample["e0_u"], sample["e0gc_v"]["flat"], sample["e1_u"],
             *sample["e1_parts"], sample["e0gc_v"]["value"],
             sample["e0gc_v"]["ratio"], float(f1_s))
            for s, sample, f1_s in zip(s_grid, samples, f1)]
    _write_csv(out / "energies.csv",
               ["s", "e0_u", "e0c_v", "e1_u", "e1_rotation", "e1_good",
                "e1_scaling", "e1_hardy", "e0gc_v", "gc_ratio", "f1_u"],
               rows)
    # the order <= 2 commuted tables of every word hyperboloid
    tables = {repr(record["s"]): record["energies"] for record in history.words}
    summary = {
        "s_grid": s_grid,
        "e0_u_drift": float(np.ptp(e0) / max(e0.max(), 1e-300)),
        "e1_u_drift": float(np.ptp(e1) / max(e1.max(), 1e-300)),
        "high_order": tables,
    }
    _write_json(out / "energies.json", summary)
    _write_series(out / "e0_u.dat", s_grid, e0)
    _write_series(out / "e1_u.dat", s_grid, e1)
    _write_series(out / "f1_u.dat", s_grid, f1)
    return ["energies.csv", "energies.json", "e0_u.dat", "e1_u.dat", "f1_u.dat"]


def _stage_inequalities(scn, out, history, rng):
    samples = history.foliation
    report = {}
    conf = iq.check_conformal_estimate(samples, scn)
    report["conformal"] = {k: conf[k] for k in
                           ("s", "lhs", "rhs", "slack", "constant", "c_min")}
    std_u = iq.check_standard_estimate(samples, scn, which="u")
    std_v = iq.check_standard_estimate(samples, scn, which="v")
    report["standard_u"] = {k: std_u[k] for k in ("s", "lhs", "rhs", "slack")}
    report["standard_v"] = {k: std_v[k] for k in
                            ("s", "lhs", "rhs", "slack", "kappa", "gc_ratio")}
    mons = iq.decay_monitors(samples)
    files = []
    report["monitors"] = {}
    for name, m in mons.items():
        report["monitors"][name] = {"slope": m.slope, "confidence": m.confidence}
        _write_series(out / f"monitor_{name}.dat", m.grid, m.values)
        files.append(f"monitor_{name}.dat")
    words = history.words
    boot = iq.bootstrap_monitor(words, scn)  # on every third hyperboloid
    report["bootstrap"] = boot
    _write_series(out / "bootstrap.dat", boot["s"], boot["value"])
    files.append("bootstrap.dat")
    mid = words[len(words) // 2]
    report["klainerman_sobolev"] = {"s": mid["s"],
                                    **iq.check_klainerman_sobolev(mid)}
    hardy = {}
    for n_dim, alpha in ((3, 1.0), (3, 2.0), (2, 1.0)):
        profile = Profile("bump", k=int(rng.integers(2, 6)),
                          radius=float(rng.uniform(0.3, 1.0)),
                          amp=float(rng.uniform(0.1, 2.0)))
        ratio = iq.check_hardy(profile, alpha, n=n_dim)
        hardy[f"n{n_dim}_alpha{alpha:g}"] = {
            "ratio": ratio, "constant": 2.0 / (n_dim - alpha),
            "profile": profile.describe(),
        }
    report["hardy"] = hardy
    _write_json(out / "inequalities.json", report)
    _write_series(out / "conformal_slack.dat", conf["s"], conf["slack"])
    return ["inequalities.json", "conformal_slack.dat"] + files


def _stage_kg_lab(scn, out, history, rng):
    sampler = HistorySampler(history)
    s_grid = covered_s_grid(history.t_last, scn.dr)
    # oscillator sweep: random bounded coefficients, explicit seed; row i
    # holds case i's draws (c, a, b, phase, amp_f, freq_f, v0, v0p)
    n_cases = 100
    lo = [0.5, -0.4, 0.2, 0.0, 0.0, 0.2, -1.0, -1.0]
    hi = [2.0, 0.4, 2.0, 2.0 * np.pi, 0.5, 2.0, 1.0, 1.0]
    c, a, b, phase, amp_f, freq_f, v0, v0p = rng.uniform(lo, hi, size=(n_cases, 8)).T
    a, b, phase, amp_f, freq_f = (x[:, None] for x in (a, b, phase, amp_f, freq_f))
    prob = OscillatorProblem(
        c=c,
        q=lambda s: a * np.sin(b * s + phase),
        qp=lambda s: a * b * np.cos(b * s + phase),
        f=lambda s: amp_f * np.cos(freq_f * s),
        v0=v0, v0p=v0p, span=(2.0, 20.0))
    res = check_ode_lemma(prob, integrate_oscillator(prob))
    worst = {"c_quadratic": float(res["c_quadratic"].max()),
             "c_printed": float(res["c_printed"].max()),
             "diag_residual": float(res["diag_residual"].max()),
             "slack_quadratic": float(res["slack_quadratic"].min()),
             "n_cases": n_cases}
    # reduction residual and sharp decay along rays of the run
    rho = 0.3
    n_pts = max(16, 4 * len(s_grid))
    s_uniform = np.linspace(s_grid[0], s_grid[-1], n_pts)
    s_in, resid, resid_max = reduction_residual(sampler, scn, rho, s_uniform)
    s_sd, decay = sharp_decay_check(sampler, s_grid, (0.0, 0.2, 0.4, 0.6))
    report = {
        "oscillator_sweep": worst,
        "reduction": {"rho": rho, "max_residual": resid_max},
        "sharp_decay": {"slope": iq.fit_slope(s_sd, decay)[0]},
    }
    _write_json(out / "kg_lab.json", report)
    _write_series(out / "reduction_residual.dat", s_in, resid)
    _write_series(out / "sharp_decay.dat", s_sd, decay)
    return ["kg_lab.json", "reduction_residual.dat", "sharp_decay.dat"]


def _stage_radiation(scn, out, history):
    sampler = HistorySampler(history)
    rows = []
    for mu in MU_FAN:
        est = radiation_null(sampler, mu, null_radii(history.t_last, mu))
        rows.append((est.mu, "", est.value, est.error_bar, est.method,
                     est.flagged))
    transport = {}
    for c0 in (1.0, 2.0, 3.0):
        curve = HyperbolaCurve(c0)
        mu = 0.5 * c0 - 2.0
        if c0 <= 2.0:
            # the curve never enters the covered cone; its limit is the
            # radiation field at a retarded time before the data can radiate
            rows.append((mu, c0, 0.0, 0.0, "hyperbola-outside-cone", False))
            continue
        tau_max = history.t_last
        est = radiation_hyperbola(sampler, scn, curve, tau_max)
        rows.append((est.mu, c0, est.value, est.error_bar, est.method,
                     est.flagged))
        tau = np.linspace(0.6 * tau_max, tau_max, 401)
        _, _, t_max = transport_check(sampler, scn, curve, tau)
        transport[f"{c0!r}"] = t_max
    _write_csv(out / "radiation.csv",
               ["mu", "c0", "value", "error_bar", "method", "flagged"], rows)
    decay = excessive_decay_check(history.foliation, scn)
    report = {
        "transport_residuals": transport,
        "excessive_decay": {k: decay[k] for k in
                            ("slope_hypothesis", "slope_excessive",
                             "slope_weighted_energy", "eta", "delta", "sigma")},
    }
    _write_json(out / "radiation.json", report)
    _write_series(out / "excessive_decay.dat", decay["s"], decay["excessive"])
    return ["radiation.csv", "radiation.json", "excessive_decay.dat"]


def _stage_rigidity(scn, out, history):
    # the controls are exact solutions: zero data stay zero, and with the
    # couplings off u is the free wave of its eps-scaled data
    coupled = history.foliation[::WORD_STRIDE]
    s_grid = [sample["s"] for sample in coupled]
    free = DalembertField(scn.u0.scaled(scn.eps), scn.u1.scaled(scn.eps))
    runs = {label: (sampler, hyperboloid_samples(sampler, s_grid, scn))
            for label, sampler in (("zero-data", OracleSampler()),
                                   ("free-wave", OracleSampler(free)))}
    runs["coupled"] = (HistorySampler(history), coupled)
    floor = 10.0 * scn.dr**2 * max(scn.eps, 1e-300)
    # one set of radii serves the whole fan: the latest ray ends at t_last
    report = rigidity_experiment(runs, MU_FAN,
                                 null_radii(history.t_last, MU_FAN[-1]), floor)
    _write_json(out / "rigidity.json", report)
    return ["rigidity.json"]


# -- orchestration --------------------------------------------------------------

_DEFAULT_SCENARIO = """\
# reference scenario
couplings.b00 = 1.0
couplings.bd = 1.0
couplings.p00 = 1.0
couplings.pd = 1.0
mass.c = 1.0
data.eps = 1e-3
data.u0 = bump k=4 radius=1.0 amp=1.0
data.u1 = zero
data.v0 = bump k=4 radius=1.0 amp=1.0
data.v1 = zero
grid.dr = 0.01
grid.r_max = 60.0
grid.t_end = 52.0
"""


def run_pipeline(subcommand, scn, out, seed=0):
    """Execute one stage chain; returns the manifest dict."""
    if subcommand not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "error.json").unlink(missing_ok=True)
    start = time.time()
    rng = np.random.default_rng(seed)
    stage_metrics = {}

    def run_stage(name, fn, *args):
        log.info("stage %s", name)
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        peak = _peak_rss_mb()
        stage_metrics[name] = {"wall_s": wall, "peak_rss_mb": peak}
        log.info("stage %s: wall %.3f s, peak RSS %.1f MB", name, wall, peak)
        return result

    history, artifacts = run_stage("simulate", _stage_simulate, scn, out)
    stage_calls = {
        "energies": (_stage_energies, (scn, out, history)),
        "inequalities": (_stage_inequalities, (scn, out, history, rng)),
        "kg-lab": (_stage_kg_lab, (scn, out, history, rng)),
        "radiation": (_stage_radiation, (scn, out, history)),
        "rigidity": (_stage_rigidity, (scn, out, history)),
    }
    stages = [subcommand] if subcommand != "all" else list(_SUBCOMMANDS[1:-1])
    for stage in stages:
        if stage in stage_calls:
            fn, args = stage_calls[stage]
            artifacts += run_stage(stage, fn, *args)
    manifest = {
        "version": __version__,
        "subcommand": subcommand,
        "scenario": serialize_scenario(scn),
        "grid": {"dr": scn.dr, "r_max": scn.r_max, "t_end": scn.t_end,
                 "cfl": scn.cfl},
        "seed": seed,
        "wall_clock_s": time.time() - start,
        # run costs; they vary between runs, so they stay out of the hashes
        "metrics": {
            "stages": stage_metrics,
            "solver": {"steps": history.n_slices - 1, "dt": history.dt,
                       "window_margin": solver._WINDOW_MARGIN,
                       # nominal MB of the stored fields; the resident part
                       # is smaller, since pages past the cone stay unbacked
                       "history_mb": sum(getattr(history, f).nbytes
                                         for f in solver._FIELDS) / 2**20,
                       **_field_health(history)},
        },
        "artifacts": {name: _sha256(out / name) for name in artifacts},
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wavekg",
        description="Numerical laboratory for a coupled wave/Klein-Gordon system")
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--scenario", type=Path, default=None,
                        help="scenario file (defaults to the reference scenario)")
    parser.add_argument("--out", type=Path, default=Path("wavekg-out"))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized sweeps")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.scenario is not None:
            text = args.scenario.read_text()
        else:
            text = _DEFAULT_SCENARIO
        scn = parse_scenario(text)
        run_pipeline(args.subcommand, scn, args.out, seed=args.seed)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        payload = {"status": "error", "subcommand": args.subcommand,
                   "type": type(exc).__name__, "message": str(exc)}
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            _write_json(args.out / "error.json", payload)
        except OSError:
            pass
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
