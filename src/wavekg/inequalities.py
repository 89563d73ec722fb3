"""Numerical verification of the standalone inequalities.

Each checker evaluates both sides of one inequality on sampled data and
reports the measured constant or slack; none of the constants are
assumed.  Slope fits for decay monitors use least squares on log-log
over s >= 5 (earlier times are transient-contaminated).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energies import KAPPA, cumulative_trapezoid, radial_integral, simpson

__all__ = [
    "MonitorSeries",
    "fit_slope",
    "check_hardy",
    "check_klainerman_sobolev",
    "check_conformal_estimate",
    "check_standard_estimate",
    "decay_monitors",
    "bootstrap_monitor",
    "C_CONFORMAL",
]

# frozen calibration: the conformal estimate holds with sqrt(2) (the
# constant follows from |K1 u + u| <= sqrt(2 t) e1^(1/2) pointwise)
C_CONFORMAL = float(np.sqrt(2.0))

_SPHERE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}

_HARDY_DR = 1e-3  # radial spacing of check_hardy's quadrature grid


@dataclass
class MonitorSeries:
    label: str
    grid: np.ndarray
    values: np.ndarray
    slope: float
    confidence: float


def fit_slope(grid, values, s_min=5.0):
    """Least-squares log-log slope over grid >= s_min and positive values,
    with its std error; both are NaN when fewer than 3 points qualify."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (grid >= s_min) & (values > 1e-300)
    if np.count_nonzero(mask) < 3:
        return np.nan, np.nan
    x = np.log(grid[mask])
    y = np.log(values[mask])
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


def monitor(label, grid, values):
    slope, conf = fit_slope(grid, values)
    return MonitorSeries(label=label, grid=np.asarray(grid, dtype=float),
                         values=np.asarray(values, dtype=float),
                         slope=slope, confidence=conf)


# -- Hardy --------------------------------------------------------------------


def check_hardy(profile, alpha, n=3):
    """Ratio ||r^(-a/2) u|| / ||r^(1-a/2) d_r u|| on R^n, alpha < n.

    profile must be differentiable with support in r < profile.radius (a
    Profile or any object with radius, __call__ and deriv).  The classical
    constant is 2/(n - alpha); the zero profile's ratio is 0 by convention.
    """
    if alpha >= n:
        raise ValueError(f"Hardy inequality requires alpha < n, got {alpha} >= {n}")
    # pad past the support so the boundary check sees exact zeros
    r_max = profile.radius + 10.0 * _HARDY_DR
    # offset grid keeps the r^{n-1-alpha} weight finite at the axis
    r = _HARDY_DR * (np.arange(int(r_max / _HARDY_DR)) + 0.5)
    u = profile(r)
    ur = profile.deriv(r, 1)
    if np.abs(u[-1]) > 1e-12 * max(np.max(np.abs(u)), 1.0):
        raise ValueError("Hardy check requires compact support inside r_max")
    w = _SPHERE[n] * r ** (n - 1)
    num = simpson(u**2 * r ** (-alpha) * w, r)
    den = simpson(ur**2 * r ** (2.0 - alpha) * w, r)
    if den <= 1e-300:
        return 0.0
    return float(np.sqrt(num / den))


# -- Klainerman-Sobolev -------------------------------------------------------


def check_klainerman_sobolev(record):
    """sup_{H_s} t^(3/2) |w| over the order-2 commuted L2 norms of w, for
    w = u and w = v, read from one word record of H_s (see
    energies.word_records); returns {"u": ..., "v": ...}."""
    out = {}
    for field, norms in record["norms"].items():
        sup = float(np.max(record["t"]**1.5 * np.abs(record[field])))
        total = sum(norms.values())
        out[field] = sup / total if total > 1e-300 else 0.0
    return out


# -- energy estimates ---------------------------------------------------------


def _source_norm_u(sample, scn, weight=None):
    """L2(H_s) norm of Box u (the coupling source), optionally (s/t)-weighted."""
    src = scn.wave_source(sample["ut"], sample["vt"], sample["ur"], sample["vr"])
    w = 1.0 if weight is None else weight
    return float(np.sqrt(radial_integral(w * src**2, sample["r"])))


def _s_of(samples):
    return np.array([sample["s"] for sample in samples])


def check_conformal_estimate(samples, scn):
    """Conformal energy growth against the weighted source integral.

    samples are hyperboloid samples on an increasing s grid (see
    energies.hyperboloid_samples); E1 is read from their "e1_u".
    LHS = E1(s, u)^(1/2); RHS =
    E1(s0, u)^(1/2) + C_CONFORMAL * int s'^(1/2) ||(s'/t)^(1/2) Box u|| ds'.
    Returns the slack series and the minimal constant making the bound
    hold on the run.
    """
    s_grid = _s_of(samples)
    lhs = np.zeros_like(s_grid)
    src = np.zeros_like(s_grid)
    for i, (s, sample) in enumerate(zip(s_grid, samples)):
        lhs[i] = np.sqrt(max(sample["e1_u"], 0.0))
        src[i] = np.sqrt(s) * _source_norm_u(sample, scn, weight=s / sample["t"])
    integral = cumulative_trapezoid(src, s_grid)
    rhs = lhs[0] + C_CONFORMAL * integral
    # the measured minimal constant is meaningful only where the source
    # integral rises above sampling noise on the energy scale
    eligible = integral > 1e-3 * max(lhs[0], 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(eligible, (lhs - lhs[0]) / np.where(eligible, integral, 1.0), 0.0)
    return {
        "s": s_grid, "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
        "integral": integral, "constant": C_CONFORMAL,
        "c_min": max(0.0, float(np.max(ratios))),
    }


def check_standard_estimate(samples, scn, which="u"):
    """Standard energy estimate for the wave or Klein-Gordon component,
    on hyperboloid samples over an increasing s grid; the energies are
    read from their "e0_u" and "e0gc_v".

    u: E0(s)^(1/2) <= E0(s0)^(1/2) + int ||Box u|| ds'.
    v: E0c(s)^(1/2) <= KAPPA^2 E0c(s0)^(1/2) + KAPPA^2 int M(s') ds'
       with M the curved-metric modulation built from the run (the
       equation has no external source, f = 0).
    """
    s_grid = _s_of(samples)
    lhs = np.zeros_like(s_grid)
    extra = np.zeros_like(s_grid)
    ratios_gc = np.zeros_like(s_grid)
    for i, (s, sample) in enumerate(zip(s_grid, samples)):
        if which == "u":
            lhs[i] = np.sqrt(max(sample["e0_u"], 0.0))
            extra[i] = _source_norm_u(sample, scn)
        else:
            gc = sample["e0gc_v"]
            lhs[i] = np.sqrt(max(gc["flat"], 0.0))
            ratios_gc[i] = gc["ratio"]
            # modulation from the metric's time variation and divergence
            t, r = sample["t"], sample["r"]
            ut, vt, ur, vr = sample["ut"], sample["vt"], sample["ur"], sample["vr"]
            dens = (s / t) * (scn.p00 * ut * vt**2 + scn.pd * ur * vt * vr
                              - 0.5 * ut * (scn.p00 * vt**2 + scn.pd * vr**2))
            num = abs(radial_integral(dens, r))
            extra[i] = num / max(lhs[i], 1e-300)
    integral = cumulative_trapezoid(extra, s_grid)
    if which == "u":
        rhs = lhs[0] + integral
    else:
        rhs = KAPPA**2 * lhs[0] + KAPPA**2 * integral
    out = {"s": s_grid, "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
           "integral": integral, "which": which}
    if which == "v":
        out["kappa"] = KAPPA
        out["gc_ratio"] = ratios_gc
    return out


# -- decay and bootstrap monitors ---------------------------------------------


def decay_monitors(samples):
    """Weighted sup monitors over the sampled H_s matching the pointwise
    decay list.

    Series: t|u| (wave interior rate t^-1), t^(3/2)|v| (Klein-Gordon
    rate), s^(3/2)(t/s)^(1/2)|d_t v| (derivative rate), t|d u| for the
    wave derivatives.  All slopes should be about 0 when the rates hold.
    """
    s_grid = _s_of(samples)
    series = {name: np.zeros_like(s_grid)
              for name in ("t_u", "t32_v", "s32_dv", "t_du")}
    for i, (s, sample) in enumerate(zip(s_grid, samples)):
        t = sample["t"]
        series["t_u"][i] = np.max(t * np.abs(sample["u"]))
        series["t32_v"][i] = np.max(t**1.5 * np.abs(sample["v"]))
        series["s32_dv"][i] = np.max(
            s**1.5 * (t / s) ** 0.5 * np.abs(sample["vt"]))
        series["t_du"][i] = np.max(
            t * np.maximum(np.abs(sample["ut"]), np.abs(sample["ur"])))
    return {name: monitor(name, s_grid, vals)
            for name, vals in series.items()}


def bootstrap_monitor(records, scn):
    """E1^(<=2)(s,u)^(1/2) + 4 E0c^(<=2)(s,v)^(1/2) <= c1eps * s^delta,
    with delta = scn.delta, on word records over an increasing s grid
    (see energies.word_records).

    Returns the combined series, the bound, and the first failure (or
    None).  The high-order sums run over the operator words of total
    order <= 2; c1eps is calibrated to 10x the initial combined value, so
    the monitor tests growth rather than absolute size.
    """
    delta = scn.delta
    s_grid = _s_of(records)

    def total(table, key):
        return sum(max(row[key], 0.0) for row in table.values())

    combined = np.array([np.sqrt(total(rec["energies"]["u"], "e1"))
                         + 4.0 * np.sqrt(total(rec["energies"]["v"], "e0c"))
                         for rec in records])
    c1eps = 10.0 * combined[0] / s_grid[0] ** delta
    bound = c1eps * s_grid**delta
    ok = combined <= bound
    first_failure = None if ok.all() else float(s_grid[np.argmin(ok)])
    return {"s": s_grid, "value": combined, "bound": bound,
            "ok": bool(ok.all()), "first_failure": first_failure,
            "c1eps": c1eps, "delta": delta}
