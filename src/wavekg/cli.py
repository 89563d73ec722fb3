"""Command-line driver: run experiments, persist results, emit reports.

Subcommands: simulate, energies, inequalities, kg-lab, radiation,
rigidity, all.  Every run writes a manifest (scenario echo, grid,
wall-clock, sha256 of each artifact, and outside the hashes the run's
metrics: wall time and peak RSS per stage, the solver's steps, dt and
window margin); outputs are deterministic given the manifest --
randomized sweeps draw from the explicit --seed.

Reports are CSV/JSON; every monitor series is additionally emitted as a
two-column plot-data file.
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
from .energies import (_word_energies, energy_e0c, energy_e0gc, energy_e1,
                       energy_f1, hyperboloid_nodes, hyperboloid_samples,
                       last_covered_s)
from .geometry import HyperbolaCurve
from .kg_reduction import (OscillatorProblem, check_ode_lemma,
                           integrate_oscillator, reduction_residual,
                           sharp_decay_check)
from .oracles import OracleSampler
from .profiles import Profile
from .radiation import (excessive_decay_check, radiation_hyperbola,
                        radiation_null, rigidity_experiment, transport_check)
from .scenario import Scenario, parse_scenario, serialize_scenario
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
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
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


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (2^20 bytes);
    Linux counts ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- shared grids ---------------------------------------------------------------
#
# Every point a stage samples lies at or before the run's last stored time:
# the hyperboloids end at last_covered_s, the null rays and the
# characteristic hyperbolas at t_last.


# retarded times mu of the null rays t = r + 2 + mu (radiation, rigidity)
_MU_FAN = np.linspace(-1.0, 1.0, 9)


def _s_grid(history, n=25):
    """Hyperboloid parameters whose sample nodes the run covers."""
    return np.linspace(2.0, last_covered_s(history.t_last, history.scenario.dr), n)


def _null_radii(t_last, mu):
    r_hi = t_last - 2.0 - mu  # where the ray t = r + 2 + mu ends
    # three nodes: higher-degree extrapolation amplifies the sampler's
    # interpolation noise faster than it removes the 1/r tail
    return np.linspace(0.45 * r_hi, 0.95 * r_hi, 3)


def run_length_problem(t_end, dr):
    """Why the stages cannot sample a run on [2, t_end], or None.

    The hyperboloids must reach past s = 2, and every null ray must start
    at or after t = 2; the earliest is the rigidity fan's first mu on the
    radii of its last.  The c0 = 3 hyperbola needs t_end > 3.61, which
    the fan already demands (t_end >= 5.22).
    """
    s_last = last_covered_s(t_end, dr)
    if not s_last > 2.0:
        return f"its hyperboloids would end at s = {s_last:.4f}, not past s = 2"
    t_first = min(_null_radii(t_end, mu_r)[0] + 2.0 + mu
                  for mu in _MU_FAN for mu_r in (mu, _MU_FAN[-1]))
    if t_first < 2.0:
        return f"its earliest null ray would start at t = {t_first:.4f}, before t = 2"
    return None


# -- pipeline stages ------------------------------------------------------------


def _stage_simulate(scn, out):
    history = evolve(scn)
    slice_dump(history, out / "slices.wkgh")
    return history, ["slices.wkgh"]


def _stage_energies(scn, out, history):
    sampler = HistorySampler(history)
    s_grid = _s_grid(history)
    rows = []
    e1_series = []
    for s, sample in zip(s_grid, hyperboloid_samples(sampler, s_grid, scn.dr)):
        e0_u = energy_e0c(sample, 0.0, "u")
        e0c_v = energy_e0c(sample, scn.c, "v")
        e1_u, parts = energy_e1(sample, "u")
        gc = energy_e0gc(sample, scn)
        e1_series.append(e1_u)
        rows.append((float(s), e0_u, e0c_v, e1_u, *parts,
                     gc["value"], gc["ratio"]))
    f1 = energy_f1(s_grid, e1_series)
    rows = [row + (float(f1[i]),) for i, row in enumerate(rows)]
    _write_csv(out / "energies.csv",
               ["s", "e0_u", "e0c_v", "e1_u", "e1_rotation", "e1_good",
                "e1_scaling", "e1_hardy", "e0gc_v", "gc_ratio", "f1_u"],
               rows)
    # the order <= 2 commuted tables are expensive; sample three slices
    tables = {}
    for s in (s_grid[0], s_grid[len(s_grid) // 2], s_grid[-1]):
        rn = hyperboloid_nodes(s, scn.dr)
        j = sampler.jets(np.hypot(float(s), rn), rn, order=3)
        tables[repr(float(s))] = {
            "u": _word_energies(j["u"], s, rn, 0.0),
            "v": _word_energies(j["v"], s, rn, scn.c),
        }
    e0 = np.array([r[1] for r in rows])
    e1 = np.array(e1_series)
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
    sampler = HistorySampler(history)
    s_grid = _s_grid(history)
    samples = hyperboloid_samples(sampler, s_grid, scn.dr)
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
    boot = iq.bootstrap_monitor(sampler, scn, _s_grid(history, n=6),
                                delta=scn.delta)
    report["bootstrap"] = boot
    _write_series(out / "bootstrap.dat", boot["s"], boot["value"])
    files.append("bootstrap.dat")
    s_mid = float(s_grid[len(s_grid) // 2])
    report["klainerman_sobolev"] = {
        "s": s_mid,
        "u": iq.check_klainerman_sobolev(sampler, s_mid, scn.dr, "u"),
        "v": iq.check_klainerman_sobolev(sampler, s_mid, scn.dr, "v"),
    }
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
    s_grid = _s_grid(history)
    # oscillator sweep: random bounded coefficients, explicit seed
    worst = {"c_quadratic": 0.0, "c_printed": 0.0, "diag_residual": 0.0,
             "slack_quadratic": np.inf}
    n_cases = 100
    for _ in range(n_cases):
        c = rng.uniform(0.5, 2.0)
        a = rng.uniform(-0.4, 0.4)
        b = rng.uniform(0.2, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp_f = rng.uniform(0.0, 0.5)
        freq_f = rng.uniform(0.2, 2.0)
        prob = OscillatorProblem(
            c=c,
            q=lambda s, a=a, b=b, p=phase: a * np.sin(b * s + p),
            qp=lambda s, a=a, b=b, p=phase: a * b * np.cos(b * s + p),
            f=lambda s, A=amp_f, w=freq_f: A * np.cos(w * s),
            v0=rng.uniform(-1.0, 1.0), v0p=rng.uniform(-1.0, 1.0),
            span=(2.0, 20.0))
        traj = integrate_oscillator(prob)
        res = check_ode_lemma(prob, traj)
        worst["c_quadratic"] = max(worst["c_quadratic"], res["c_quadratic"])
        worst["c_printed"] = max(worst["c_printed"], res["c_printed"])
        worst["diag_residual"] = max(worst["diag_residual"], res["diag_residual"])
        worst["slack_quadratic"] = min(worst["slack_quadratic"],
                                       res["slack_quadratic"])
    worst["n_cases"] = n_cases
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
    for mu in _MU_FAN:
        est = radiation_null(sampler, mu, _null_radii(history.t_last, mu))
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
    decay = excessive_decay_check(
        hyperboloid_samples(sampler, _s_grid(history), scn.dr),
        eta=scn.eta, delta=scn.delta)
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
    zero = Profile("zero")
    scn_zero = scn.with_grid(u0=zero, u1=zero, v0=zero, v1=zero)
    runs = {
        # evolve maps zero data to the zero history, whose exact sampler
        # is the empty oracle bundle
        "zero-data": {"sampler": OracleSampler(), "scn": scn_zero},
        "free-wave": {"sampler": HistorySampler(evolve(scn.free())),
                      "scn": scn.free()},
        "coupled": {"sampler": HistorySampler(history), "scn": scn},
    }
    s_grid = _s_grid(history, n=9)
    floor = 10.0 * scn.dr**2 * max(scn.eps, 1e-300)
    # one set of radii serves the whole fan: the latest ray ends at t_last
    report = rigidity_experiment(runs, s_grid, _MU_FAN,
                                 _null_radii(history.t_last, _MU_FAN[-1]), floor)
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
                       "window_margin": solver._WINDOW_MARGIN},
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
