"""Hyperboloidal geometry of the forward light cone.

Coordinates: (t, r) with r >= 0 the spatial radius in three dimensions.
The interior of the translated light cone is K = {r < t - 1}; it is
foliated by hyperboloids H_s = {t = sqrt(s^2 + r^2)} with s >= 2 the
hyperboloidal time.  Alongside the slicing this module provides the
semi-hyperboloidal frame matrices, the characteristic hyperbolas of the
null generator field (t^2 - r^2)/r = c0 together with their friction
coefficient, and the starting parameter used when integrating along rays
from the boundary of the covered region to a point of K.

All geometry is closed-form; no ODE integration enters curve positions.
Directions omega are carried in the types but unused by the radial
dynamics (kept for format stability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

__all__ = [
    "GeometryError",
    "SpacetimePoint",
    "FramePair",
    "HyperbolaCurve",
    "RadialFrame",
    "to_hyperboloidal",
    "from_hyperboloidal",
    "frame_pair",
    "radial_frame",
    "hyperbola_through",
    "asymptote_gap",
    "entry_point",
    "friction_P",
    "friction_integral",
    "lambda0",
]

_EX = (1.0, 0.0, 0.0)  # placeholder direction for radial work


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class SpacetimePoint:
    """A point of the foliated region in both coordinate systems.

    ``region`` is set by entry_point ("boundary" / "hyperboloid") and is
    empty for plain coordinate conversions.
    """

    t: float
    r: float
    s: float
    omega: tuple = _EX
    inside_cone: bool = True
    region: str = ""


@dataclass(frozen=True)
class FramePair:
    """Transition matrices of the semi-hyperboloidal frame at (t, x).

    ``phi`` expresses the frame derivatives in the natural ones
    (row 0: d_t; row a: (x^a/t) d_t + d_a) and ``psi`` is its exact
    inverse.  phi @ psi = identity in exact arithmetic.
    """

    phi: np.ndarray
    psi: np.ndarray


def to_hyperboloidal(t, r, omega=_EX):
    """Map (t, r) to the hyperboloidal time s = sqrt(t^2 - r^2).

    Raises GeometryError outside the chronological future of the origin
    (t <= r).  Points with r >= t - 1 are valid but flagged as lying
    outside the cone K.
    """
    t = float(t)
    r = float(r)
    if r < 0:
        raise GeometryError(f"negative radius r={r}")
    if t <= r:
        raise GeometryError(f"point (t={t}, r={r}) is not inside the light cone t > r")
    s = np.sqrt((t - r) * (t + r))
    return SpacetimePoint(t=t, r=r, s=float(s), omega=tuple(omega),
                          inside_cone=r < t - 1)


def from_hyperboloidal(s, r):
    """Inverse slicing map: the time coordinate of the point of H_s at radius r."""
    s = float(s)
    r = float(r)
    if s <= 0:
        raise GeometryError(f"hyperboloidal time must be positive, got s={s}")
    if r < 0:
        raise GeometryError(f"negative radius r={r}")
    return float(np.hypot(s, r))


def frame_pair(t, x):
    """Semi-hyperboloidal frame matrices at (t, x), x a 3-vector."""
    t = float(t)
    if t <= 0:
        raise GeometryError(f"frame_pair requires t > 0, got t={t}")
    x = np.asarray(x, dtype=float).reshape(3)
    phi = np.eye(4)
    psi = np.eye(4)
    phi[1:, 0] = x / t
    psi[1:, 0] = -x / t
    return FramePair(phi=phi, psi=psi)


@dataclass(frozen=True)
class RadialFrame:
    """Coefficients of the radial frame fields in (d_t, d_r).

    good : the radial semi-hyperboloidal derivative (r/t) d_t + d_r
    boost : the radial boost L = t d_r + r d_t
    scaling : K_1 = t d_t + r d_r
    ray : the ray generator (t/s) d_t + (r/s) d_r
    """

    good: tuple
    boost: tuple
    scaling: tuple
    ray: tuple


def radial_frame(t, r):
    """Radial frame coefficients at (t, r); see RadialFrame."""
    p = to_hyperboloidal(t, r)
    return RadialFrame(
        good=(p.r / p.t, 1.0),
        boost=(p.r, p.t),
        scaling=(p.t, p.r),
        ray=(p.t / p.s, p.r / p.s),
    )


# -- characteristic hyperbolas ----------------------------------------------


@dataclass(frozen=True)
class HyperbolaCurve:
    """The characteristic hyperbola (t^2 - r^2)/r = c0.

    Parametrised by tau = t; the radius along the curve is
    r(tau) = sqrt(tau^2 + c0^2/4) - c0/2.
    """

    c0: float
    omega: tuple = _EX

    def radius(self, tau):
        tau = np.asarray(tau, dtype=float)
        a = 0.5 * self.c0
        return np.hypot(tau, a) - a

    def tangent(self, tau):
        """dr/dtau along the curve (the generator is d_t + (dr/dtau) d_r)."""
        tau = np.asarray(tau, dtype=float)
        a = 0.5 * self.c0
        return tau / np.hypot(tau, a)


def hyperbola_through(t, r, omega=_EX):
    """The characteristic hyperbola through (t, r) with r > 0."""
    t = float(t)
    r = float(r)
    if r <= 0:
        raise GeometryError("characteristic hyperbolas require r > 0")
    if t <= r:
        raise GeometryError(f"point (t={t}, r={r}) is not inside the light cone t > r")
    return HyperbolaCurve(c0=(t - r) * (t + r) / r, omega=tuple(omega))


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
                          omega=curve.omega, inside_cone=r <= t - 1.0,
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


def lambda0(t, r, s0=2.0):
    """Starting parameter of the ray through (t, r).

    The ray lambda -> (lambda t/s, lambda r/s) leaves the region covered
    by the foliation either through the initial slice H_{s0} (small r/t)
    or through the cone boundary r = t - 1 (large r/t); the branch switch
    happens at r/t = (s0^2 - 1)/(s0^2 + 1).
    """
    p = to_hyperboloidal(t, r)
    rho = p.r / p.t
    crit = (s0**2 - 1.0) / (s0**2 + 1.0)
    if rho <= crit:
        return float(s0)
    # the ray meets r = t - 1 where lambda (t - r)/s = 1
    return float(np.sqrt((p.t + p.r) / (p.t - p.r)))
