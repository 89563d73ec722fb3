"""Hyperboloidal geometry of the forward light cone.

Coordinates: (t, r) with r >= 0 the spatial radius in three dimensions.
The interior of the translated light cone is K = {r < t - 1}; it is
foliated by hyperboloids H_s = {t = sqrt(s^2 + r^2)} with s >= 2 the
hyperboloidal time.  This module provides the characteristic hyperbolas
of the null generator field (t^2 - r^2)/r = c0, the point where each
enters the covered region, and their friction coefficient.

All geometry is closed-form; no ODE integration enters curve positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

__all__ = [
    "GeometryError",
    "SpacetimePoint",
    "HyperbolaCurve",
    "asymptote_gap",
    "entry_point",
    "friction_P",
    "friction_integral",
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


def asymptote_gap(curve, tau):
    """tau * (r(tau) - (tau - c0/2)), written in a cancellation-free form.

    The scaled gap between the curve and its asymptote r = tau - c0/2;
    it converges to c0^2 / 8 as tau -> infinity.
    """
    tau = np.asarray(tau, dtype=float)
    a = 0.5 * curve.c0
    # r - (tau - a) = hypot(tau, a) - tau = a^2/(hypot + tau): this form
    # avoids the catastrophic subtraction for tau >> a
    return tau * a**2 / (np.hypot(tau, a) + tau)


def entry_point(curve, s0=2.0):
    """First point where the hyperbola enters the region covered by the
    foliation ({s >= s0} intersected with K).

    Along a curve both s and t - r increase, so the entry point is the
    later of the two crossings: with the cone boundary r = t - 1 (tag
    "boundary", for c0 below the threshold 2 + 2/(s0^2 - 1), which is
    8/3 for s0 = 2) or with the initial slice H_{s0} (tag "hyperboloid").
    Curves with c0 <= 2 stay in the collar t - 1 <= r < t forever and
    never reach K; this is an error.
    """
    c0 = curve.c0
    if s0 <= 1.0:
        raise GeometryError("entry_point requires s0 > 1")
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
        # initial-slice branch: s = s0 and t^2 - r^2 = c0 r
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
    """int P d(tau) along the curve between tau_lo and tau_hi.

    Along the curve t^2 - r^2 = c0 r, so the integrand equals
    2 c0 r / (tau (tau^2 + r^2)) and decays like 2 c0 / tau^2; the
    improper integral converges.
    """
    c0 = curve.c0

    def integrand(tau):
        r = curve.radius(tau)
        return 2.0 * c0 * r / (tau * (tau**2 + r**2))

    val, _ = quad(integrand, tau_lo, tau_hi, limit=200)
    return val

