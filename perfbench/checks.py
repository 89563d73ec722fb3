"""Correctness checks of the benchmark's workloads.

Every check compares the program's output with an independent computation
(a closed form, a hash, a checksum recomputed here) or with a property the
method must have; none compares with a stored copy of earlier output.  Each
returns a list of problems, empty when the output passes.  The tolerances
are explained in README.md next to the figures they were set from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import struct
import zlib
from pathlib import Path

import numpy as np

# acceptance-table tolerances, unchanged
SLACK_TOL = -1e-6          # criterion 4: estimate slack
COMPARABILITY = 1.1        # criterion 9: E0(s, u)/E0(2, u) in [1/1.1, 1.1]
ORACLE_ERR_MAX = 1e-4      # criterion 1: final-slice error at dr = 0.01
ORDER_MIN = 1.9            # criterion 1: observed convergence order
C_QUADRATIC_MAX = 1.0 + 1e-6  # criterion 5: ODE-lemma constant, round-off as in tests/test_cli.py
# benchmark tolerances (README.md, "Correctness checks")
FREE_NORM_REL = 0.05       # free-wave radiation norm vs closed form
FREE_POINT_REL = 0.25      # free-wave radiation values vs closed form, of the peak
LEAKAGE_REL = 5e-3         # fields past r = t - 1 + 10 dr, of the slice maximum
JET_REL = {0: 0.01, 1: 0.01, 2: 0.05}  # solver jets vs oracle, of the peak, per order
E0C_REL = 0.005            # solver E0c(v) vs oracle
E0C_DRIFT = 1e-6           # oracle E0c(v) across hyperboloids
WORDS_REL = 0.025          # solver word energies vs oracle

_NUMBER = re.compile(r"^np\.float64\((.*)\)$")


def number(text):
    """A CSV cell as float; also reads the ``np.float64(x)`` form the writer
    emits for numpy scalars (see CHANGES.md)."""
    match = _NUMBER.match(text)
    return float(match.group(1) if match else text)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- pipeline-mid ---------------------------------------------------------------


def check_manifest(out):
    """Every artifact's sha256 in manifest.json matches the file on disk."""
    out = Path(out)
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    if not manifest.get("artifacts"):
        problems.append("manifest lists no artifacts")
    for name, digest in manifest.get("artifacts", {}).items():
        if not (out / name).is_file():
            problems.append(f"manifest names missing artifact {name}")
        elif sha256_file(out / name) != digest:
            problems.append(f"sha256 of {name} differs from the manifest")
    return problems


def check_archive_crc(path):
    """The archive's trailing CRC-32 matches its bytes, recomputed here."""
    crc = 0
    with open(path, "rb") as fh:
        blob_len = fh.seek(0, 2)
        fh.seek(0)
        remaining = blob_len - 4
        while remaining > 0:
            block = fh.read(min(1 << 20, remaining))
            crc = zlib.crc32(block, crc)
            remaining -= len(block)
        stored, = struct.unpack("<I", fh.read(4))
    return [] if blob_len >= 4 and crc == stored else [f"CRC of {Path(path).name} does not match"]


def check_loaded_history(history, scn):
    """A loaded archive holds the run's scenario and a complete grid to t_end."""
    problems = []
    if history.scenario != scn:
        problems.append("archive scenario does not parse back to the run's scenario")
    n_steps = int(np.ceil((scn.t_end - 2.0) / (scn.cfl * scn.dr)))
    if history.n_slices != n_steps + 1:
        problems.append(f"archive holds {history.n_slices} slices, expected {n_steps + 1}")
    if abs(history.t0 - 2.0) > 1e-12 or abs(history.t_last - scn.t_end) > 1e-9:
        problems.append(f"archive covers [{history.t0}, {history.t_last}], "
                        f"expected [2, {scn.t_end}]")
    r_cap = min(scn.r_max, scn.t_end - 1.0)
    if history.r[0] != 0.0 or history.r[-1] < r_cap \
            or not np.allclose(np.diff(history.r), scn.dr):
        problems.append("archive radial grid is not uniform from 0 past the cone")
    for name in ("u", "ut", "v", "vt"):
        arr = getattr(history, name)
        if arr.shape != (history.n_slices, history.r.size) or not np.isfinite(arr).all():
            problems.append(f"archive field {name} has a bad shape or non-finite values")
    return problems


def check_energies_csv(rows):
    """Per-hyperboloid energies: positive, consistent decomposition, kappa band."""
    problems = []
    if len(rows) != 25:  # the pipeline's 25 hyperboloids
        return [f"energies.csv has {len(rows)} rows, expected 25"]
    data = {k: np.array([number(row[k]) for row in rows]) for k in rows[0]}
    if not all(np.isfinite(v).all() for v in data.values()):
        problems.append("energies.csv holds non-finite values")
    s = data["s"]
    if s[0] != 2.0 or np.any(np.diff(s) <= 0):
        problems.append("energies.csv s grid does not rise from 2")
    for key in ("e0_u", "e0c_v", "e0gc_v", "e1_u"):
        if np.any(data[key] <= 0):
            problems.append(f"energies.csv {key} is not positive")
    for key in ("e1_rotation", "e1_good", "e1_scaling", "e1_hardy"):
        if np.any(data[key] < 0):
            problems.append(f"energies.csv {key} is negative")
    ratio = data["gc_ratio"]
    if np.any(ratio < 0.25) or np.any(ratio > 4.0):
        problems.append("energies.csv curved/flat ratio leaves [1/kappa^2, kappa^2]")
    if np.any(np.diff(data["f1_u"]) < 0):
        problems.append("energies.csv F1 decreases")
    return problems


def check_kg_lab(report):
    """The sweep ran its 100 cases, the lemma constant stays within its bound
    and every diagonalization is exact."""
    sweep = report["oscillator_sweep"]
    problems = []
    if sweep["n_cases"] != 100:
        problems.append(f"oscillator sweep ran {sweep['n_cases']} cases, expected 100")
    if not sweep["c_quadratic"] <= C_QUADRATIC_MAX:
        problems.append(f"lemma constant c_quadratic {sweep['c_quadratic']!r} "
                        f"> {C_QUADRATIC_MAX!r}")
    if not sweep["diag_residual"] < 1e-12:
        problems.append(f"diagonalization residual {sweep['diag_residual']} >= 1e-12")
    return problems


def check_inequalities(report):
    """Criterion 4 slack on every estimate, the criterion 6 bootstrap and the
    Hardy constants."""
    problems = [f"{name} estimate slack {np.min(report[name]['slack']):.3e} < {SLACK_TOL}"
                for name in ("conformal", "standard_u", "standard_v")
                if not np.min(report[name]["slack"]) >= SLACK_TOL]
    if not report["bootstrap"]["ok"]:
        problems.append("bootstrap monitor fails")
    for key, h in report["hardy"].items():
        n_dim, alpha = (float(x) for x in re.match(r"n(\d+)_alpha(.+)", key).groups())
        if not h["ratio"] <= 2.0 / (n_dim - alpha):
            problems.append(f"Hardy ratio {h['ratio']} > 2/(n-alpha) for {key}")
    return problems


def check_null_vs_hyperbola(null, hyp):
    """Criterion 7: the two extractions agree within their summed error bars."""
    gap = abs(null[0] - hyp[0])
    if not gap <= null[1] + hyp[1]:
        return [f"null ray {null[0]:.6e} and hyperbola {hyp[0]:.6e} differ by "
                f"{gap:.3e} > {null[1] + hyp[1]:.3e}"]
    return []


def check_radiation_csv(rows):
    pair = radiation_csv_pair(rows)
    return (["radiation.csv lacks the mu = -1/2 pair"] if pair is None
            else check_null_vs_hyperbola(*pair))


def radiation_csv_pair(rows):
    """(value, error bar) of the null ray and the c0 = 3 hyperbola at mu = -1/2."""
    null = [r for r in rows if r["method"] == "null-ray" and number(r["mu"]) == -0.5]
    hyp = [r for r in rows if r["method"] == "hyperbola" and r["c0"] and number(r["c0"]) == 3.0]
    if len(null) != 1 or len(hyp) != 1:
        return None
    return tuple((number(r["value"]), number(r["error_bar"])) for r in (null[0], hyp[0]))


def check_comparability(e0, label):
    ratios = np.asarray(e0) / e0[0]
    if not (1.0 / COMPARABILITY <= ratios.min() and ratios.max() <= COMPARABILITY):
        return [f"{label} E0 ratios [{ratios.min():.4f}, {ratios.max():.4f}] "
                f"leave [1/{COMPARABILITY}, {COMPARABILITY}]"]
    return []


def check_rigidity(report, exact_values, mu_grid):
    """Criterion 9 verdicts plus the free wave against its closed form."""
    problems = []
    zero = report["zero-data"]
    if not (zero["e0_initial"] == 0.0 and zero["radiation_norm"] == 0.0):
        problems.append("zero-data run has nonzero energy or radiation")
    if not report["rigidity_consistent"]:
        problems.append("rigidity verdicts are inconsistent")
    lo, hi = report["coupled"]["comparability"]
    if not (1.0 / COMPARABILITY <= lo and hi <= COMPARABILITY):
        problems.append(f"coupled comparability [{lo}, {hi}] leaves the band")
    exact = np.asarray(exact_values)
    exact_norm = float(np.sqrt(np.trapezoid(exact**2, x=mu_grid)))
    free = report["free-wave"]
    if not abs(free["radiation_norm"] - exact_norm) <= FREE_NORM_REL * exact_norm:
        problems.append(f"free-wave radiation norm {free['radiation_norm']:.6e} vs "
                        f"closed form {exact_norm:.6e}")
    gap = np.max(np.abs(np.asarray(free["radiation_values"]) - exact))
    if not gap <= FREE_POINT_REL * np.max(np.abs(exact)):
        problems.append(f"free-wave radiation values leave the closed form by {gap:.3e}")
    return problems


# -- reference-run --------------------------------------------------------------


def leakage(history, cells=10, chunk=512):
    """Per field: the largest ratio, over slices, of max |f| past
    r = t - 1 + cells*dr to max |f| on the same slice."""
    dr = history.scenario.dr
    t = history.times()
    out = {}
    for name in ("u", "ut", "v", "vt"):
        arr = getattr(history, name)
        worst = 0.0
        for i0 in range(0, arr.shape[0], chunk):
            block = np.abs(arr[i0:i0 + chunk])
            outside = history.r[None, :] > (t[i0:i0 + chunk, None] - 1.0 + cells * dr)
            leak = np.max(block, axis=1, where=outside, initial=0.0)
            peak = np.max(block, axis=1)
            ratio = np.divide(leak, peak, out=np.zeros_like(leak), where=peak > 0)
            worst = max(worst, float(ratio.max()))
        out[name] = worst
    return out


def check_leakage(history):
    return [f"field {name} beyond the cone reaches {ratio:.3e} of its slice maximum"
            for name, ratio in leakage(history).items() if not ratio <= LEAKAGE_REL]


# -- oracle-validate ------------------------------------------------------------


def check_convergence(errors):
    """errors: {field: {dr: sup error of the final slice}}, for dr 0.02 and 0.01."""
    problems = []
    for field, err in errors.items():
        order = np.log2(err[0.02] / err[0.01])
        if not err[0.01] <= ORACLE_ERR_MAX:
            problems.append(f"{field} final-slice error {err[0.01]:.3e} > {ORACLE_ERR_MAX}")
        if not order >= ORDER_MIN:
            problems.append(f"{field} observed order {order:.3f} < {ORDER_MIN}")
    return problems


def check_jets(solver, oracle, label):
    """Solver jets vs oracle jets, each (a, b) relative to the oracle's peak."""
    problems = []
    for key, exact in oracle.items():
        peak = np.max(np.abs(exact))
        err = np.max(np.abs(solver[key] - exact))
        if not err <= JET_REL[sum(key)] * peak:
            problems.append(f"{label} jet {key} off by {err / peak:.3e} of its peak")
    return problems


def check_e0c(solver, oracle):
    """Oracle E0c(v) conserved across hyperboloids; solver within E0C_REL."""
    problems = []
    oracle = np.asarray(oracle)
    if not np.ptp(oracle) <= E0C_DRIFT * oracle[0]:
        problems.append(f"oracle E0c(v) drifts by {np.ptp(oracle) / oracle[0]:.3e}")
    rel = np.max(np.abs(np.asarray(solver) / oracle - 1.0))
    if not rel <= E0C_REL:
        problems.append(f"solver E0c(v) off the oracle by {rel:.3e}")
    return problems


def check_words(solver, oracle):
    """Order <= 2 word energies of v: solver within WORDS_REL of the oracle."""
    problems = []
    if set(solver) != set(oracle):
        return ["word tables name different words"]
    for word, row in oracle.items():
        for kind, exact in row.items():
            rel = abs(solver[word][kind] / exact - 1.0)
            if not rel <= WORDS_REL:
                problems.append(f"word {word} {kind} off the oracle by {rel:.3e}")
    return problems
