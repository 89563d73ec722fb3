"""Radiation-field extraction and the rigidity experiment.

The radiation field is extracted two independent ways:

* null rays -- r d_t u sampled at t = r + 2 + mu for increasing r,
  Richardson-extrapolated in 1/r (the retarded time mu is measured from
  the data time, so unit-ball data radiate in |mu| <= 1);
* characteristic hyperbolas -- U = t d_t u obeys the damped transport
  U' + P U = S^w + Delta^w along (t^2 - r^2)/r = c0; integrating to the
  horizon and discounting the remaining friction, exp(-int P d(tau)) with
  the integral in closed form (geometry.friction_integral), gives the
  limit at retarded time t - r -> c0/2, i.e. mu = c0/2 - 2.

The rigidity experiment correlates the size of the radiation field with
the initial wave energy across a family of runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (friction_P, friction_integral, good_scalars,
                       hyperbola_window)
from .inequalities import fit_slope

__all__ = [
    "RadiationEstimate",
    "transport_check",
    "radiation_null",
    "radiation_fan",
    "radiation_hyperbola",
    "excessive_decay_check",
    "rigidity_experiment",
]

# sample points of radiation_hyperbola's curve; the value is U at the last
# one, so only the tail fit's error bar depends on the count
_N_TAU = 2000


@dataclass(frozen=True)
class RadiationEstimate:
    mu: float
    value: float
    method: str
    error_bar: float
    flagged: bool = False


def _source_terms(scn, j, r, t):
    """S^w + Delta^w along a curve: the weight t^3 / (t^2 + r^2) applied to
    Box u, taken from the equation's right-hand side (never differenced
    twice), and to the good second derivatives sum_a dbar_a dbar_a u."""
    u, v = j["u"], j["v"]
    g, _, _, G = good_scalars(u, r, t)
    weight = t**3 / (t**2 + r**2)
    box_u = scn.wave_source(u[(1, 0)], v[(1, 0)], u[(0, 1)], v[(0, 1)])
    return weight * box_u + weight * (r**2 * G + 3.0 * g)


def transport_check(sampler, scn, curve, tau_grid):
    """Max residual of U' + P U = S^w + Delta^w along the curve.

    U = t d_t u; S^w = t^3 Box u / (t^2 + r^2) and Delta^w is the same
    weight applied to the good second derivatives.
    """
    tau = np.asarray(tau_grid, dtype=float)
    dtau = tau[1] - tau[0]
    if not np.allclose(np.diff(tau), dtau):
        raise ValueError("transport check requires a uniform tau grid")
    rr = curve.radius(tau)
    j = sampler.jets(tau, rr, order=2)
    U = tau * j["u"][(1, 0)]
    Up = (U[2:] - U[:-2]) / (2.0 * dtau)
    rhs = _source_terms(scn, j, rr, tau)
    inner = slice(1, -1)
    resid = Up + friction_P(tau[inner], rr[inner]) * U[inner] - rhs[inner]
    return tau[inner], resid, float(np.max(np.abs(resid)))


def _neville_to_zero(x, y):
    """Polynomial extrapolation of (x, y) samples to x = 0.

    Returns (limit, |last correction|) -- the standard error surrogate.
    """
    x = np.asarray(x, dtype=float)
    tableau = np.asarray(y, dtype=float).copy()
    n = tableau.size
    estimates = [tableau[-1]]
    for level in range(1, n):
        for i in range(n - level):
            tableau[i] = tableau[i + 1] + (tableau[i + 1] - tableau[i]) * \
                x[i + level] / (x[i] - x[i + level])
        estimates.append(tableau[0])
    if n < 2:
        return estimates[0], np.inf
    return estimates[-1], abs(estimates[-1] - estimates[-2])


def radiation_null(sampler, mu, r_sequence):
    """Limit of r d_t u along the outgoing ray t = r + 2 + mu.

    Richardson/Neville extrapolation in 1/r over the given increasing
    radii; the error bar is the magnitude of the final extrapolation
    correction.
    """
    r_seq = np.asarray(r_sequence, dtype=float)
    if np.any(np.diff(r_seq) <= 0):
        raise ValueError("radii must be strictly increasing")
    t_seq = r_seq + 2.0 + float(mu)
    j = sampler.jets(t_seq, r_seq, order=1)
    values = r_seq * j["u"][(1, 0)]
    limit, corr = _neville_to_zero(1.0 / r_seq, values)
    return RadiationEstimate(mu=float(mu), value=float(limit), method="null-ray",
                             error_bar=float(corr))


def radiation_hyperbola(sampler, scn, curve, tau_max):
    """Radiation field from the transport equation along one hyperbola.

    U at the horizon tau_max is discounted by the remaining friction
    integral, exact from tau_max to infinity; the error bar combines the
    friction discount itself with a power-law bound on the unseen tail of
    S^w + Delta^w fitted over the last decade of the _N_TAU samples.
    """
    tau0, earliest = hyperbola_window(curve)
    if tau_max <= earliest:
        raise ValueError("horizon too close to the curve's entry point")
    tau = np.linspace(tau0, float(tau_max), _N_TAU)
    rr = curve.radius(tau)
    j = sampler.jets(tau, rr, order=2)
    U_end = tau[-1] * j["u"][(1, 0)][-1]

    i_tail = friction_integral(curve, tau[-1], np.inf)
    value = U_end * np.exp(-i_tail)
    err_friction = abs(U_end) * abs(1.0 - np.exp(-i_tail))

    src = np.abs(_source_terms(scn, j, rr, tau))
    # fit |S^w + Delta^w| ~ A tau^-beta over the last decade and bound the tail
    sel = tau >= tau[-1] / 10.0
    flagged = False
    pos = src[sel] > 1e-300
    if np.count_nonzero(pos) >= 8:
        lt = np.log(tau[sel][pos])
        lv = np.log(src[sel][pos])
        beta, loga = np.polyfit(lt, lv, 1)
        beta = -beta
        amp = np.exp(loga)
        if beta > 1.05:
            err_tail = amp * tau[-1] ** (1.0 - beta) / (beta - 1.0)
        else:
            err_tail = amp * tau[-1] ** (1.0 - max(beta, 0.0)) * 10.0
            flagged = True
    else:
        err_tail = 0.0
    mu = 0.5 * curve.c0 - 2.0
    return RadiationEstimate(mu=float(mu), value=float(value), method="hyperbola",
                             error_bar=float(err_friction + err_tail),
                             flagged=flagged)


# -- excessive decay and rigidity ---------------------------------------------


def excessive_decay_check(samples, scn):
    """Exterior-band decay rates of d_t u and the weighted energy series.

    On each hyperboloid sample (see energies.hyperboloid_samples), over
    the band r >= eta * t, measures
    sup |d_t u| t^(1/2+delta) s   (the hypothesis weight) and
    sup |d_t u| t^(2-delta)       (the excessive-decay weight),
    plus s^(2 sigma) E0(s, u) for sigma = delta/2, with E0 the samples'
    "e0_u" and eta, delta those of the scenario.  Returns the series and
    fitted log-log slopes over the whole s grid; a bounded second series
    is the vanishing-radiation signature.
    """
    eta, delta = scn.eta, scn.delta
    sigma = 0.5 * delta
    s_grid = np.array([sample["s"] for sample in samples])
    m_hyp = np.zeros_like(s_grid)
    m_exc = np.zeros_like(s_grid)
    e0 = np.array([sample["e0_u"] for sample in samples])
    for i, (s, sample) in enumerate(zip(s_grid, samples)):
        t = sample["t"]
        band = sample["r"] >= eta * t
        ut = np.abs(sample["ut"])
        if np.any(band):
            m_hyp[i] = np.max(ut[band] * t[band] ** (0.5 + delta) * s)
            m_exc[i] = np.max(ut[band] * t[band] ** (2.0 - delta))
    weighted_e0 = s_grid ** (2.0 * sigma) * e0
    return {
        "s": s_grid,
        "hypothesis": m_hyp,
        "excessive": m_exc,
        "energy": e0,
        "weighted_energy": weighted_e0,
        "slope_hypothesis": fit_slope(s_grid, m_hyp, s_min=0.0)[0],
        "slope_excessive": fit_slope(s_grid, m_exc, s_min=0.0)[0],
        "slope_weighted_energy": fit_slope(s_grid, weighted_e0, s_min=0.0)[0],
        "eta": eta, "delta": delta, "sigma": sigma,
    }


def radiation_fan(sampler, mu_grid, r_sequence):
    """radiation_null on every ray of a fan, one RadiationEstimate per mu;
    row i of r_sequence holds ray i's radii (geometry.null_radii of the
    grid)."""
    return [radiation_null(sampler, mu, r_seq)
            for mu, r_seq in zip(mu_grid, r_sequence, strict=True)]


def _norm_in_mu(values, mu_grid):
    """L2 norm in mu of an array of radiation values on a mu grid
    (trapezoid rule)."""
    return float(np.sqrt(np.trapezoid(values**2, x=mu_grid)))


def rigidity_experiment(runs, mu_grid, floor):
    """Correlate radiation-field size with initial wave energy across runs.

    runs: {label: (E0 series, radiation values)}, each run's E0(s, u) on
    one s grid from s = 2 ("e0_u" of its hyperboloid samples, say) and its
    null-ray radiation field on mu_grid (radiation_fan's values, say).
    For each run, reports E0(2, u), the comparability band of
    E0(s, u)/E0(2, u) over the s grid, and the radiation norm over the mu
    fan.  The floor is an amplitude
    (field-scale) threshold: the verdict asserts that a radiation norm
    below the floor occurs only when sqrt of the initial energy is below
    the floor as well.
    """
    report = {}
    consistent = True
    for label, (e0, vals) in runs.items():
        e0 = np.asarray(e0, dtype=float)
        e0_init = e0[0]
        quiet_data = np.sqrt(max(e0_init, 0.0)) < floor
        if not quiet_data:
            ratios = e0 / e0_init
            band = (float(ratios.min()), float(ratios.max()))
        else:
            band = (1.0, 1.0)
        vals = np.asarray(vals, dtype=float)
        rnorm = _norm_in_mu(vals, mu_grid)
        silent = rnorm < floor
        if silent != quiet_data:
            consistent = False
        report[label] = {
            "e0_initial": float(e0_init),
            "comparability": band,
            "radiation_norm": rnorm,
            "radiation_values": vals,
            "silent": bool(silent),
            "zero_data": bool(quiet_data),
        }
    report["rigidity_consistent"] = consistent
    report["floor"] = float(floor)
    return report
