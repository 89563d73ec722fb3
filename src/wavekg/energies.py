"""Energy functionals on hyperboloids.

All integrals use the radial measure 4 pi r^2 dr (composite Simpson on
the uniform sampling grid).  The package's two quadratures of sampled
data, simpson and cumulative_trapezoid, are defined here.

Fields are radial; angular derivatives of the scalar unknowns vanish,
but commuted fields (boost and derivative words) are genuinely
three-dimensional tensors whose angular structure is carried exactly by
sector weights:

  sector l0 -- radial scalar word values W(r);
  sector l1 -- vector words W_a = (x^a/r) sigma with sigma odd in r;
  sector l2 -- two-tensor words W_ab = Y_ab p + Z_ab q with
               Y = x x / r^2, Z = delta - Y (Frobenius weights
               |Y|^2 = 1, |Z|^2 = 2, Y:Z = 0).

With these weights the order <= 2 energies of a free wave are genuine
conserved 3D energies of genuine solutions, which is what the
conservation regressions check.

Where the hyperboloids and their quadrature radii lie is the sampling
plan of the geometry module; this module samples the fields there and
integrates.
"""

from __future__ import annotations

import numpy as np

from .geometry import axis_ratio, hyperboloid_nodes

__all__ = [
    "EnergyError",
    "build_sample",
    "hyperboloid_samples",
    "word_records",
    "simpson",
    "cumulative_trapezoid",
    "radial_integral",
    "energy_e0c",
    "energy_e1",
    "energy_f1",
    "energy_e0gc",
    "word_scalars",
    "high_order_energies",
    "word_l2_norms",
    "WORDS",
    "KAPPA",
]

# equivalence constant of the curved and flat Klein-Gordon energies:
# kappa^-2 <= E0gc / E0c <= kappa^2 while |p00 u|, |pd u| <= 3/4
KAPPA = 2.0

# allowance of energy_e1's sign and decomposition checks, relative to the
# gross (uncancelled) integrals
_E1_TOL = 5e-2
# relative spread allowed between energy_e0c's three integrand forms
_E0C_TOL = 1e-8


class EnergyError(RuntimeError):
    pass


def build_sample(sampler, s, r_nodes):
    """Hyperboloid sample dict from any object with a jets() interface."""
    r_nodes = np.asarray(r_nodes, dtype=float)
    t = np.hypot(float(s), r_nodes)
    j = sampler.jets(t, r_nodes, order=1)
    return {
        "s": float(s), "r": r_nodes, "t": t,
        "u": j["u"][(0, 0)], "ut": j["u"][(1, 0)], "ur": j["u"][(0, 1)],
        "v": j["v"][(0, 0)], "vt": j["v"][(1, 0)], "vr": j["v"][(0, 1)],
    }


def hyperboloid_samples(sampler, s_grid, scn):
    """build_sample on hyperboloid_nodes(s, scn.dr) for each s, with the
    energies of each H_s: "e0_u" (energy_e0c of u), "e1_u" and "e1_parts"
    (energy_e1) and "e0gc_v" (energy_e0gc, its "flat" value included).

    One foliation, sampled and integrated once and handed to every
    checker that reads it.
    """
    samples = []
    for s in s_grid:
        sample = build_sample(sampler, s, hyperboloid_nodes(s, scn.dr))
        sample["e0_u"] = energy_e0c(sample, 0.0, "u")
        sample["e1_u"], sample["e1_parts"] = energy_e1(sample)
        sample["e0gc_v"] = energy_e0gc(sample, scn)
        samples.append(sample)
    return samples


def simpson(y, x):
    """Composite Simpson integral of y over the last axis, sampled at the
    increasing 1-D x (at least 3 points).

    SciPy 1.17's scipy.integrate.simpson, operation for operation, so its
    results are bit-identical: Simpson's rule for uneven spacing on pairs
    of intervals, and for even N Cartwright's correction on the last
    interval.
    """
    d = np.diff(x)
    n = d.size + 1
    # pairs of intervals; for even n the last interval is left to the
    # correction below
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = d[0:stop:2], d[1:stop + 1:2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[..., 0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[..., 1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[..., 2:stop + 2:2] * (2.0 - h0divh1)),
                    axis=-1)
    if n % 2 == 0:
        h0, h1 = d[..., -2], d[..., -1]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return result


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over the last axis, sampled at the
    1-D x, starting from 0 at x[0] (the shape of y).

    SciPy 1.17's scipy.integrate.cumulative_trapezoid with initial=0,
    operation for operation, so its results are bit-identical.
    """
    res = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate((np.zeros_like(res[..., :1]), res), axis=-1)


def radial_integral(y, r):
    """4 pi * int y r^2 dr by composite Simpson."""
    return 4.0 * np.pi * simpson(y * r**2, r)


# -- order-zero energies ------------------------------------------------------


def energy_e0c(sample, c, field="u"):
    """Mass-c energy on H_s, computed in three equivalent integrand forms.

    Returns the natural-frame value; raises EnergyError if the
    semi-hyperboloidal and rotation forms disagree beyond tolerance
    (that signals a sampling bug, not a physics feature).
    """
    r, t = sample["r"], sample["t"]
    w = sample[field]
    wt = sample[field + "t"]
    wr = sample[field + "r"]
    s_over_t = sample["s"] / t

    form1 = _e0c_l0((w, wt, wr), r, t, c)
    good = (r / t) * wt + wr
    form2 = (s_over_t * wt) ** 2 + good**2 + c**2 * w**2
    # rotation form: the good derivative assembled from x-weighted pieces
    good_x = r * (wt / t + axis_ratio(wr, r, 0.0))
    form3 = (s_over_t * wt) ** 2 + good_x**2 + c**2 * w**2

    vals = [radial_integral(f, r) for f in (form1, form2, form3)]
    scale = max(abs(vals[0]), 1e-300)
    spread = (max(vals) - min(vals)) / scale
    if spread > _E0C_TOL and scale > 1e-30:
        raise EnergyError(
            f"the three integrand forms of the mass energy disagree: {vals} "
            f"(relative spread {spread:.3e})")
    return vals[0]


def energy_e1(sample):
    """Conformal energy of u on H_s with its four-term positive decomposition.

    Returns (value, (rotation, good, scaling, hardy)) where the terms are
    nonnegative pieces whose sum is bounded by the value (the bound has
    genuine slack, growing with s); the rotation piece vanishes
    identically for radial fields.  A negative value or a decomposition
    exceeding the value beyond coarse-grid error aborts.
    """
    r, t = sample["r"], sample["t"]
    w, wt, wr = sample["u"], sample["ut"], sample["ur"]

    value = radial_integral(_e1_l0((w, wt, wr), r, t), r)
    k1 = t * wt + r * wr
    good = (r / t) * wt + wr

    d_rot = 0.0
    d_good = radial_integral(0.5 * (t - r) * good**2, r)
    d_scal = radial_integral(0.5 * (k1 + w) ** 2 / t, r)
    # (t-r)/(rt) w^2 r^2 = w^2 r (t-r)/t, regular on the axis
    d_hardy = radial_integral(axis_ratio(t - r, r * t, 0.0) * w**2, r)

    # the decomposition identity relies on an integration by parts, so on
    # sampled data it holds only up to quadrature error of the gross
    # (uncancelled) integrands -- use that as the comparison scale
    gross = radial_integral(0.5 * k1**2 / t + 0.5 * t * good**2
                            + np.abs(w * k1) / t, r)
    scale = max(gross, d_good + d_scal + d_hardy, 1e-300)
    if value < -_E1_TOL * scale - 1e-30:
        raise EnergyError(f"negative conformal energy {value:.3e}")
    total = d_rot + d_good + d_scal + d_hardy
    if total > value + _E1_TOL * scale + 1e-30:
        raise EnergyError(
            f"positive decomposition {total:.6e} exceeds the conformal "
            f"energy {value:.6e}")
    return value, (d_rot, d_good, d_scal, d_hardy)


def energy_f1(s_grid, e1_values):
    """Accumulated conformal functional on an increasing s grid.

    Square-root convention: F1(s) = E1(s0)^(1/2) + E1(s)^(1/2)
    + int_{s0}^{s} s'^{-1} E1(s')^(1/2) ds' with s0 the first grid point.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    e1_values = np.asarray(e1_values, dtype=float)
    if np.any(np.diff(s_grid) <= 0):
        raise EnergyError("s grid must be strictly increasing")
    roots = np.sqrt(np.maximum(e1_values, 0.0))
    tail = cumulative_trapezoid(roots / s_grid, s_grid)
    return roots[0] + roots + tail


def energy_e0gc(sample, scn):
    """Curved-metric mass energy of v on H_s, with the equivalence check.

    The metric perturbation is built from the sampled wave component,
    a = p00*u and b = pd*u; the flux density is

        (1-a) vt^2 + (1+b) vr^2 + c^2 v^2 + 2 (r/t)(1+b) vt vr.

    Returns {"value", "flat", "ratio", "kappa_ok"}: "flat" is the flat
    mass energy energy_e0c(sample, scn.c, "v"), the ratio compares against
    it, and kappa_ok asserts KAPPA^-2 <= ratio <= KAPPA^2 under the
    smallness |a|, |b| <= 3/4.
    """
    r, t = sample["r"], sample["t"]
    v, vt, vr = sample["v"], sample["vt"], sample["vr"]
    a = scn.p00 * sample["u"]
    b = scn.pd * sample["u"]
    density = ((1.0 - a) * vt**2 + (1.0 + b) * vr**2 + scn.c**2 * v**2
               + 2.0 * (r / t) * (1.0 + b) * vt * vr)
    value = radial_integral(density, r)
    flat = energy_e0c(sample, scn.c, "v")
    ratio = value / flat if flat > 1e-300 else 1.0
    small = bool(np.max(np.abs(a)) <= 0.75 and np.max(np.abs(b)) <= 0.75)
    kappa_ok = small and KAPPA**-2 <= ratio <= KAPPA**2
    return {"value": value, "flat": flat, "ratio": ratio, "kappa_ok": kappa_ok}


# -- high-order words ---------------------------------------------------------

WORDS = ("1", "dt", "dr", "L",
         "dtdt", "dtdr", "dtL", "Ldt", "drdr", "drL", "Ldr", "LL")


def word_scalars(j, r, t):
    """Radial scalar data of each operator word up to total order 2.

    j maps (a, b) to the array of d_t^a d_r^b values of one field (jets
    up to total order 3 required).  Returns word -> (sector, *triplets)
    where each triplet is (value, d_t, d_r) of a sector scalar; sector
    "l2" carries two triplets (p along x x/r^2, q along the complement).
    """
    w, wt, wr = j[(0, 0)], j[(1, 0)], j[(0, 1)]
    wtt, wtr, wrr = j[(2, 0)], j[(1, 1)], j[(0, 2)]
    wttt, wttr, wtrr, wrrr = j[(3, 0)], j[(2, 1)], j[(1, 2)], j[(0, 3)]

    def boost(ft, fr, ftt, ftr, frr):
        """(L f, d_t L f, d_r L f) of the radial boost L = t d_r + r d_t."""
        return (t * fr + r * ft, fr + t * ftr + r * ftt, t * frr + ft + r * ftr)

    def over_r(f, ft, fr, ftr, lift):
        """(F/r, d_t (F/r), d_r (F/r)) with their axis limits, for F = f,
        or for F = t f when lift is set (d_t then acts on t as well)."""
        q, q_t = axis_ratio(f, r, fr), axis_ratio(ft, r, ftr)
        if not lift:
            return q, q_t, axis_ratio(fr * r - f, r**2, 0.0)
        return t * q, q + t * q_t, axis_ratio(t * (fr * r - f), r**2, 0.0)

    # radial boost applied once: g = L w and its derivatives to order 2
    g, gt, gr = boost(wt, wr, wtt, wtr, wrr)
    gtt = 2.0 * wtr + t * wttr + r * wttt
    gtr = wrr + t * wtrr + wtt + r * wttr
    grr = t * wrrr + 2.0 * wtr + r * wtrr

    return {
        "1": ("l0", (w, wt, wr)),
        "dt": ("l0", (wt, wtt, wtr)),
        "dr": ("l1", (wr, wtr, wrr)),
        "L": ("l1", (g, gt, gr)),
        "dtdt": ("l0", (wtt, wttt, wttr)),
        "dtdr": ("l1", (wtr, wttr, wtrr)),
        "dtL": ("l1", (gt, gtt, gtr)),
        "Ldt": ("l1", boost(wtt, wtr, wttt, wttr, wtrr)),
        "drdr": ("l2", (wrr, wtrr, wrrr), over_r(wr, wtr, wrr, wtrr, False)),
        "drL": ("l2", (gr, gtr, grr), over_r(g, gt, gr, gtr, False)),
        "Ldr": ("l2", boost(wtr, wrr, wttr, wtrr, wrrr),
                over_r(wr, wtr, wrr, wtrr, True)),
        "LL": ("l2", boost(gt, gr, gtt, gtr, grr), over_r(g, gt, gr, gtr, True)),
    }


def _e0c_l0(trip, r, t, c):
    w, wt, wr = trip
    return wt**2 + wr**2 + 2.0 * (r / t) * wt * wr + c**2 * w**2


def _e1_l0(trip, r, t):
    w, wt, wr = trip
    k1 = t * wt + r * wr
    good = (r / t) * wt + wr
    return 0.5 * k1**2 / t + 0.5 * t * good**2 + w * k1 / t


def _word_densities(sector, trips, r, t, s2, c):
    """(e0c density, e1 density) of one word's sector data."""
    if sector == "l0":
        return _e0c_l0(trips[0], r, t, c), _e1_l0(trips[0], r, t)
    if sector == "l1":
        sig, sig_t, sig_r = trips[0]
        ang = axis_ratio(sig, r, sig_r) ** 2
        e0c = _e0c_l0(trips[0], r, t, c) + 2.0 * ang
        e1 = _e1_l0(trips[0], r, t) + s2 * ang / t
        return e0c, e1
    # l2
    p, q = trips
    diff = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
    ang = axis_ratio(diff[0], r, 0.0) ** 2
    e0c = _e0c_l0(p, r, t, c) + 2.0 * _e0c_l0(q, r, t, c) + 4.0 * ang
    e1 = _e1_l0(p, r, t) + 2.0 * _e1_l0(q, r, t) + 2.0 * s2 * ang / t
    return e0c, e1


def high_order_energies(sampler, s, r_nodes, c, field="u"):
    """Energies per operator word over {d_t, d_r, L} of total order <= 2.

    Returns {word: {"e0c": value, "e1": value}}; the order-0 entry agrees
    with energy_e0c / energy_e1 of the plain sample by construction.
    """
    r = np.asarray(r_nodes, dtype=float)
    t = np.hypot(float(s), r)
    return _word_tables(sampler.jets(t, r, order=3)[field], s, r, c)[0]


def word_l2_norms(sampler, s, r_nodes):
    """L2(H_s) norms of each word field of u (Frobenius magnitude for l2)."""
    r = np.asarray(r_nodes, dtype=float)
    t = np.hypot(float(s), r)
    return _word_tables(sampler.jets(t, r, order=3)["u"], s, r, 0.0)[1]


def _word_tables(j, s, r, c):
    """(high_order_energies, word_l2_norms) from one field's jets j (to
    total order 3) on H_s, in WORDS order, the order their callers sum
    them in; one jets() query serves both fields and both tables."""
    t = np.hypot(float(s), r)
    scal = word_scalars(j, r, t)
    s2 = float(s) ** 2
    energies, norms = {}, {}
    for word in WORDS:
        sector, *trips = scal[word]
        e0c_d, e1_d = _word_densities(sector, trips, r, t, s2, c)
        energies[word] = {"e0c": radial_integral(e0c_d, r),
                          "e1": radial_integral(e1_d, r)}
        mag2 = trips[0][0] ** 2
        if sector == "l2":
            mag2 = mag2 + 2.0 * trips[1][0] ** 2
        norms[word] = np.sqrt(radial_integral(mag2, r))
    return energies, norms


def word_records(sampler, s_grid, scn):
    """Word data of u and v on hyperboloid_nodes(s, scn.dr) for each s,
    from one jets(order=3) query per H_s: a record holds "s" and, keyed
    by field, the "energies" tables (mass 0 for u, scn.c for v), the
    word "norms" and the "sup" of t^(3/2) |w|.
    """
    records = []
    for s in s_grid:
        r = hyperboloid_nodes(s, scn.dr)
        t = np.hypot(float(s), r)
        jets = sampler.jets(t, r, order=3)
        record = {"s": float(s), "energies": {}, "norms": {}, "sup": {}}
        for field, c in (("u", 0.0), ("v", scn.c)):
            j = jets[field]
            record["energies"][field], record["norms"][field] = \
                _word_tables(j, s, r, c)
            record["sup"][field] = float(np.max(t**1.5 * np.abs(j[(0, 0)])))
        records.append(record)
    return records
