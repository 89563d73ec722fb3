"""Hyperboloidal geometry of the forward light cone.

Coordinates: (t, r) with r >= 0 the spatial radius in three dimensions.
The interior of the translated light cone is K = {r < t - 1}; it is
foliated by hyperboloids H_s = {t = sqrt(s^2 + r^2)} with s >= 2 the
hyperboloidal time.  This module provides the characteristic hyperbolas
of the null generator field (t^2 - r^2)/r = c0, the point where each
enters the covered region, and their friction coefficient, plus the
good derivatives tangent to H_s of a radial field and the one axis rule
(axis_ratio: a ratio num/r takes its limit at r == 0).

It also holds the sampling plan, the one rule for where every stage
samples a run ending at t_last: the quadrature radii of each H_s, the s
grid of the run's one foliation and the every-third subset whose
samples are the order-3 word records, the one fan of null rays
t = r + 2 + mu with each ray's own radii, the hyperbolas in the cone the
radiation stage follows (one with c0 <= 2 stays outside it and tends to
mu = c0/2 - 2 <= -1, where unit-ball data do not radiate) and the window
of each, and the shortest run the stages can analyse, read off those three.

All geometry is closed-form: no ODE integration enters curve positions,
and the friction integral along a hyperbola is its exact antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "SpacetimePoint",
    "HyperbolaCurve",
    "entry_point",
    "axis_ratio",
    "friction_P",
    "friction_integral",
    "good_scalars",
    "hyperboloid_nodes",
    "last_covered_s",
    "covered_s_grid",
    "WORD_STRIDE",
    "MU_FAN",
    "null_radii",
    "HYPERBOLA_C0",
    "hyperbola_window",
    "run_length_problem",
]


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class SpacetimePoint:
    """A point of the foliated region; ``region`` says where a curve
    enters it ("boundary" / "hyperboloid")."""

    t: float
    r: float
    s: float
    region: str = ""


_S_FIRST = 2.0  # the foliation's first H_s, which meets t = 2 on the axis only


def axis_ratio(num, r, axis_value):
    """num/r where r != 0, and the limit axis_value where r == 0; r is a
    radius, signed (the sampler's stencil nodes), or a product of radii."""
    on_axis = r == 0
    return np.where(on_axis, axis_value, num / np.where(on_axis, 1.0, r))


# -- characteristic hyperbolas ----------------------------------------------


@dataclass(frozen=True)
class HyperbolaCurve:
    """The characteristic hyperbola (t^2 - r^2)/r = c0.

    Parametrised by tau = t; the radius along the curve is
    r(tau) = sqrt(tau^2 + c0^2/4) - c0/2.
    """

    c0: float

    def radius(self, tau):
        tau = np.asarray(tau, dtype=float)
        a = 0.5 * self.c0
        return np.hypot(tau, a) - a


def entry_point(curve):
    """First point where the hyperbola enters the region covered by the
    foliation ({s >= 2} intersected with K).

    Along a curve both s and t - r increase, so the entry point is the
    later of the two crossings: with the cone boundary r = t - 1 (tag
    "boundary", for c0 up to the threshold 2 + 2/(s^2 - 1) = 8/3 at
    s = 2) or with the initial slice H_2 (tag "hyperboloid").
    Curves with c0 <= 2 stay in the collar t - 1 <= r < t forever and
    never reach K; this is an error.
    """
    c0, s0 = curve.c0, _S_FIRST
    if c0 <= 2.0:
        raise GeometryError(
            f"hyperbola with c0={c0} never enters the cone r < t - 1 "
            "(along the curve t - r increases only up to c0/2 <= 1)")
    c0_star = 2.0 + 2.0 / (s0**2 - 1.0)
    if c0 <= c0_star:
        # cone-boundary branch: t = r + 1 and t^2 - r^2 = c0 r
        r = 1.0 / (c0 - 2.0)
        t = r + 1.0
        region = "boundary"
    else:
        # initial-slice branch: s = 2 and t^2 - r^2 = c0 r
        r = s0**2 / c0
        t = float(np.hypot(s0, r))
        region = "hyperboloid"
    return SpacetimePoint(t=t, r=r, s=float(np.sqrt((t - r) * (t + r))),
                          region=region)


def friction_P(t, r):
    """Friction coefficient of the transport equation along hyperbolas,

        P(t, r) = 2 (t^2 - r^2) / (t (t^2 + r^2)) = (1/t) * 2 s^2/(t^2 + r^2).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t <= 0):
        raise GeometryError("friction_P requires t > 0")
    return 2.0 * (t - r) * (t + r) / (t * (t**2 + r**2))


def friction_integral(curve, tau_lo, tau_hi=np.inf):
    """int P d(tau) along the curve between tau_lo and tau_hi, in closed form.

    With a = c0/2 and tau = a sinh(theta), the curve t^2 - r^2 = c0 r has
    r = a cosh(theta) - a, and P d(tau) = 2 d(theta) / sinh(theta).  So
    the integral is [2 log(tau / (r(tau) + c0))] between the limits, a
    term that vanishes as tau -> infinity; it is evaluated as
    2 log1p(-c0 / (tau + hypot(tau, a) + a)), which loses nothing to
    cancellation for tau >> c0.
    """
    a = 0.5 * curve.c0

    def antiderivative(tau):
        return 2.0 * np.log1p(-curve.c0 / (tau + np.hypot(tau, a) + a))

    return float(antiderivative(tau_hi) - antiderivative(tau_lo))


def good_scalars(j, r, t):
    """The good derivatives of a radial field w as scalars: (g, g_t, g_r, G).

    j maps (a, b) to d_t^a d_r^b w (total order <= 2 used).  With
    g = w_t/t + w_r/r the good derivatives are dbar_a w = x^a g, and
    G = g_t/t + g_r/r gives sum_a dbar_a dbar_a w = r^2 G + 3 g.  On the
    axis g takes its limit w_t/t + w_rr; g_t, g_r and G enter only
    multiplied by r^2 there, so their terms in 1/r, and G, are zero there.
    """
    wt, wr = j[(1, 0)], j[(0, 1)]
    wtt, wtr, wrr = j[(2, 0)], j[(1, 1)], j[(0, 2)]
    g = wt / t + axis_ratio(wr, r, wrr)
    g_t = wtt / t - wt / t**2 + axis_ratio(wtr, r, 0.0)
    g_r = wtr / t + (axis_ratio(wrr, r, 0.0) - axis_ratio(wr, r**2, 0.0))
    # on the axis g_r/r reads -g_t/t, so that G is an exact zero there
    G = g_t / t + axis_ratio(g_r, r, -g_t / t)
    return g, g_t, g_r, G



# -- the sampling plan --------------------------------------------------------

_NODE_MARGIN = 10  # spacings hyperboloid_nodes reaches past the cone

# hyperboloids in a run's foliation; every third of them (9, the first,
# middle and last among them) is sampled as an order-3 word record
_FOLIATION_SIZE, WORD_STRIDE = 25, 3

# retarded times mu of the null rays t = r + 2 + mu; the radiation and
# rigidity stages both read this one fan, each ray on its own null_radii
MU_FAN = np.linspace(-1.0, 1.0, 9)

# constant c0 of the characteristic hyperbola the radiation stage follows,
# past c0 = 2 so that it enters the cone (see entry_point)
HYPERBOLA_C0 = 3.0


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


def covered_s_grid(t_last, dr):
    """The foliation's hyperboloid parameters, from s = 2 to the last H_s
    the run covers."""
    return np.linspace(_S_FIRST, last_covered_s(t_last, dr), _FOLIATION_SIZE)


def null_radii(t_last, mu):
    """Extrapolation radii on the null rays t = r + 2 + mu, ending by t_last:
    three per ray, in the last axis (one row per ray of a fan)."""
    r_hi = t_last - 2.0 - np.asarray(mu, dtype=float)  # where each ray ends
    # three nodes: higher-degree extrapolation amplifies the sampler's
    # interpolation noise faster than it removes the 1/r tail
    return np.linspace(0.45 * r_hi, 0.95 * r_hi, 3, axis=-1)


def hyperbola_window(curve):
    """(tau0, earliest horizon) of a transport integration along curve.

    It starts at tau0, just past the curve's entry point, and its horizon
    must lie past 1.5 tau0, so that the friction discount and the tail fit
    see more of the curve than its entry.
    """
    tau0 = entry_point(curve).t * (1.0 + 1e-9) + 1e-9
    return tau0, 1.5 * tau0


def run_length_problem(t_end, dr):
    """Why the stages cannot sample a run on [2, t_end], or None.

    Three rules of the plan: the hyperboloids reach past s = 2, every ray
    of MU_FAN starts on its null_radii at or after t = 2, and the
    hyperbola c0 = HYPERBOLA_C0 has its earliest horizon before t_end.  The
    last binds for dr <= 0.1: it asks for t_end > 3.6056, the fan for
    t_end > 1 + 1/0.45 and the hyperboloids for t_end > 2.5 + 11 dr.
    """
    s_last = last_covered_s(t_end, dr)
    if not s_last > _S_FIRST:
        return f"its hyperboloids would end at s = {s_last:.4f}, not past s = 2"
    t_first = np.min(null_radii(t_end, MU_FAN)[:, 0] + 2.0 + MU_FAN)
    if t_first < 2.0:
        return f"its earliest null ray would start at t = {t_first:.4f}, before t = 2"
    horizon = hyperbola_window(HyperbolaCurve(HYPERBOLA_C0))[1]
    if not horizon < t_end:
        return (f"the c0 = {HYPERBOLA_C0:g} hyperbola needs a horizon past "
                f"t = {horizon:.4f}")
    return None
