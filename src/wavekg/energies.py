"""Energy functionals on hyperboloids.

All integrals use the radial measure 4 pi r^2 dr (composite Simpson on
the uniform sampling grid).  Fields are radial; angular derivatives of
the scalar unknowns vanish, but commuted fields (boost and derivative
words) are genuinely three-dimensional tensors whose angular structure
is carried exactly by sector weights:

  sector l0 -- radial scalar word values W(r);
  sector l1 -- vector words W_a = (x^a/r) sigma with sigma odd in r;
  sector l2 -- two-tensor words W_ab = Y_ab p + Z_ab q with
               Y = x x / r^2, Z = delta - Y (Frobenius weights
               |Y|^2 = 1, |Z|^2 = 2, Y:Z = 0).

With these weights the order <= 2 energies of a free wave are genuine
conserved 3D energies of genuine solutions, which is what the
conservation regressions check.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson

__all__ = [
    "EnergyError",
    "hyperboloid_nodes",
    "last_covered_s",
    "build_sample",
    "hyperboloid_samples",
    "radial_integral",
    "energy_e0c",
    "energy_e1",
    "energy_f1",
    "energy_e0gc",
    "word_scalars",
    "high_order_energies",
    "word_l2_norms",
    "WORDS",
]


class EnergyError(RuntimeError):
    pass


_NODE_MARGIN = 10  # spacings hyperboloid_nodes reaches past the cone


def hyperboloid_nodes(s, dr):
    """Uniform quadrature radii covering the support cone on H_s.

    Data supported in the unit ball stay inside r <= t - 1, which on H_s
    means r <= (s^2 - 1)/2; a few extra spacings of margin are added.
    """
    r_sup = 0.5 * (s**2 - 1.0) + _NODE_MARGIN * dr
    return dr * np.arange(int(np.ceil(r_sup / dr)) + 1)


def last_covered_s(t_last, dr):
    """Largest s whose hyperboloid_nodes all lie at times <= t_last.

    The outermost node sits at most (margin + 1) spacings past the cone
    radius (s^2 - 1)/2, where H_s has t = (s^2 + 1)/2; along H_s the time
    grows more slowly than the radius, so those nodes have
    t < (s^2 + 1)/2 + (margin + 1) dr.  Returns 0 when no H_s is covered.
    """
    return float(np.sqrt(max(0.0, 2.0 * (t_last - (_NODE_MARGIN + 1) * dr) - 1.0)))


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


def hyperboloid_samples(sampler, s_grid, dr):
    """build_sample on hyperboloid_nodes for each s: one foliation, sampled
    once and handed to every checker that reads it."""
    return [build_sample(sampler, s, hyperboloid_nodes(s, dr)) for s in s_grid]


def radial_integral(y, r):
    """4 pi * int y r^2 dr by composite Simpson."""
    return 4.0 * np.pi * simpson(y * r**2, x=r)


def _axis_ratio(num, r, axis_value):
    """num/r with a prescribed finite axis value."""
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, num / safe, axis_value)


# -- order-zero energies ------------------------------------------------------


def energy_e0c(sample, c, field="u", tol=1e-8):
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

    form1 = wt**2 + wr**2 + 2.0 * (r / t) * wt * wr + c**2 * w**2
    good = (r / t) * wt + wr
    form2 = (s_over_t * wt) ** 2 + good**2 + c**2 * w**2
    # rotation form: the good derivative assembled from x-weighted pieces
    good_x = r * (wt / t + _axis_ratio(wr, r, 0.0))
    good_x = np.where(r > 0, good_x, 0.0)
    form3 = (s_over_t * wt) ** 2 + good_x**2 + c**2 * w**2

    vals = [radial_integral(f, r) for f in (form1, form2, form3)]
    scale = max(abs(vals[0]), 1e-300)
    spread = (max(vals) - min(vals)) / scale
    if spread > tol and scale > 1e-30:
        raise EnergyError(
            f"the three integrand forms of the mass energy disagree: {vals} "
            f"(relative spread {spread:.3e})")
    return vals[0]


def energy_e1(sample, field="u", tol_factor=5e-2):
    """Conformal energy on H_s with its four-term positive decomposition.

    Returns (value, (rotation, good, scaling, hardy)) where the terms are
    nonnegative pieces whose sum is bounded by the value (the bound has
    genuine slack, growing with s); the rotation piece vanishes
    identically for radial fields.  A negative value or a decomposition
    exceeding the value beyond coarse-grid error aborts.
    """
    r, t = sample["r"], sample["t"]
    s = sample["s"]
    w = sample[field]
    wt = sample[field + "t"]
    wr = sample[field + "r"]

    k1 = t * wt + r * wr
    good = (r / t) * wt + wr
    density = 0.5 * k1**2 / t + 0.5 * t * good**2 + w * k1 / t
    value = radial_integral(density, r)

    d_rot = 0.0
    d_good = radial_integral(0.5 * (t - r) * good**2, r)
    d_scal = radial_integral(0.5 * (k1 + w) ** 2 / t, r)
    # (t-r)/(rt) w^2 r^2 = w^2 r (t-r)/t, regular on the axis
    hardy_integrand = np.where(r > 0, (t - r) / (np.where(r > 0, r, 1.0) * t), 0.0)
    d_hardy = radial_integral(hardy_integrand * w**2, r)

    # the decomposition identity relies on an integration by parts, so on
    # sampled data it holds only up to quadrature error of the gross
    # (uncancelled) integrands -- use that as the comparison scale
    gross = radial_integral(0.5 * k1**2 / t + 0.5 * t * good**2
                            + np.abs(w * k1) / t, r)
    scale = max(gross, d_good + d_scal + d_hardy, 1e-300)
    if value < -tol_factor * scale - 1e-30:
        raise EnergyError(f"negative conformal energy {value:.3e}")
    total = d_rot + d_good + d_scal + d_hardy
    if total > value + tol_factor * scale + 1e-30:
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
    tail = cumulative_trapezoid(roots / s_grid, x=s_grid, initial=0.0)
    return roots[0] + roots + tail


def energy_e0gc(sample, scn, field="v", kappa=2.0):
    """Curved-metric mass energy of v on H_s, with the equivalence check.

    The metric perturbation is built from the sampled wave component,
    a = p00*u and b = pd*u; the flux density is

        (1-a) vt^2 + (1+b) vr^2 + c^2 v^2 + 2 (r/t)(1+b) vt vr.

    Returns {"value", "ratio", "kappa_ok"}; the ratio compares against
    the flat mass energy and kappa_ok asserts kappa^-2 <= ratio <= kappa^2
    under the smallness |a|, |b| <= 3/4.
    """
    r, t = sample["r"], sample["t"]
    w = sample[field]
    wt = sample[field + "t"]
    wr = sample[field + "r"]
    a = scn.p00 * sample["u"]
    b = scn.pd * sample["u"]
    density = ((1.0 - a) * wt**2 + (1.0 + b) * wr**2 + scn.c**2 * w**2
               + 2.0 * (r / t) * (1.0 + b) * wt * wr)
    value = radial_integral(density, r)
    flat = energy_e0c(sample, scn.c, field=field)
    ratio = value / flat if flat > 1e-300 else 1.0
    small = bool(np.max(np.abs(a)) <= 0.75 and np.max(np.abs(b)) <= 0.75)
    kappa_ok = small and kappa**-2 <= ratio <= kappa**2
    return {"value": value, "ratio": ratio, "kappa_ok": kappa_ok}


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

    # radial boost applied once: g = L w and its first derivatives
    g = t * wr + r * wt
    gt = wr + t * wtr + r * wtt
    gr = t * wrr + wt + r * wtr
    gtt = 2.0 * wtr + t * wttr + r * wttt
    gtr = wrr + t * wtrr + wtt + r * wttr
    grr = t * wrrr + 2.0 * wtr + r * wtrr

    def over_r(num, axis_val):
        return _axis_ratio(num, r, axis_val)

    out = {
        "1": ("l0", (w, wt, wr)),
        "dt": ("l0", (wt, wtt, wtr)),
        "dtdt": ("l0", (wtt, wttt, wttr)),
        "dr": ("l1", (wr, wtr, wrr)),
        "L": ("l1", (g, gt, gr)),
        "dtdr": ("l1", (wtr, wttr, wtrr)),
        "dtL": ("l1", (gt, gtt, gtr)),
        "Ldt": ("l1", (t * wtr + r * wtt,
                       wtr + t * wttr + r * wttt,
                       t * wtrr + wtt + r * wttr)),
        "drdr": ("l2",
                 (wrr, wtrr, wrrr),
                 (over_r(wr, wrr), over_r(wtr, wtrr),
                  np.where(r > 0, (wrr * r - wr) / np.where(r > 0, r, 1.0) ** 2, 0.0))),
        "drL": ("l2",
                (gr, gtr, grr),
                (over_r(g, gr), over_r(gt, gtr),
                 np.where(r > 0, (gr * r - g) / np.where(r > 0, r, 1.0) ** 2, 0.0))),
        "Ldr": ("l2",
                (t * wrr + r * wtr,
                 wrr + t * wtrr + r * wttr,
                 t * wrrr + wtr + r * wtrr),
                (t * over_r(wr, wrr),
                 over_r(wr, wrr) + t * over_r(wtr, wtrr),
                 np.where(r > 0, t * (wrr * r - wr) / np.where(r > 0, r, 1.0) ** 2, 0.0))),
        "LL": ("l2",
               (t * gr + r * gt,
                gr + t * gtr + r * gtt,
                t * grr + gt + r * gtr),
               (t * over_r(g, gr),
                over_r(g, gr) + t * over_r(gt, gtr),
                np.where(r > 0, t * (gr * r - g) / np.where(r > 0, r, 1.0) ** 2, 0.0))),
    }
    return out


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
        ang = _axis_ratio(sig, r, sig_r) ** 2
        e0c = _e0c_l0(trips[0], r, t, c) + 2.0 * ang
        e1 = _e1_l0(trips[0], r, t) + s2 * ang / t
        return e0c, e1
    # l2
    p, q = trips
    diff = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
    ang = _axis_ratio(diff[0], r, 0.0) ** 2
    e0c = _e0c_l0(p, r, t, c) + 2.0 * _e0c_l0(q, r, t, c) + 4.0 * ang
    e1 = _e1_l0(p, r, t) + 2.0 * _e1_l0(q, r, t) + 2.0 * s2 * ang / t
    return e0c, e1


def high_order_energies(sampler, s, r_nodes, c, field="u", order=2):
    """Energies per operator word over {d_t, d_r, L} up to the given order.

    Returns {word: {"e0c": value, "e1": value}}; the order-0 entry agrees
    with energy_e0c / energy_e1 of the plain sample by construction.
    """
    r = np.asarray(r_nodes, dtype=float)
    t = np.hypot(float(s), r)
    return _word_energies(sampler.jets(t, r, order=3)[field], s, r, c, order)


def _word_energies(j, s, r, c, order=2):
    """high_order_energies from one field's jets j (to total order 3) on
    H_s, so that one jets() query can serve both fields."""
    if order > 2:
        raise ValueError("high-order energies implemented up to total order 2")
    t = np.hypot(float(s), r)
    scal = word_scalars(j, r, t)
    s2 = float(s) ** 2
    table = {}
    for word in WORDS:
        if _word_order(word) > order:
            continue
        sector, *trips = scal[word]
        e0c_d, e1_d = _word_densities(sector, trips, r, t, s2, c)
        table[word] = {"e0c": radial_integral(e0c_d, r),
                       "e1": radial_integral(e1_d, r)}
    return table


def _word_order(word):
    if word == "1":
        return 0
    n = 0
    rest = word
    while rest:
        for tok in ("dt", "dr", "L"):
            if rest.startswith(tok):
                n += 1
                rest = rest[len(tok):]
                break
        else:  # pragma: no cover - table is static
            raise ValueError(f"bad word {word!r}")
    return n


def word_l2_norms(sampler, s, r_nodes, field="u", order=2):
    """L2(H_s) norms of each word field (Frobenius magnitude for l2)."""
    r = np.asarray(r_nodes, dtype=float)
    t = np.hypot(float(s), r)
    return _word_norms(sampler.jets(t, r, order=3)[field], s, r, order)


def _word_norms(j, s, r, order=2):
    """word_l2_norms from one field's jets j (to total order 3) on H_s."""
    t = np.hypot(float(s), r)
    scal = word_scalars(j, r, t)
    out = {}
    for word in WORDS:
        if _word_order(word) > order:
            continue
        sector, *trips = scal[word]
        if sector == "l2":
            mag2 = trips[0][0] ** 2 + 2.0 * trips[1][0] ** 2
        else:
            mag2 = trips[0][0] ** 2
        out[word] = np.sqrt(radial_integral(mag2, r))
    return out
