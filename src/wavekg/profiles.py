"""Radial data profiles.

The experiments use a small family of named radial profiles supported in
r < 1 (the unit ball).  The polynomial bump family

    p(r) = amp * (1 - (r/radius)^2)^k,   r < radius,

is represented internally as a numpy Polynomial so that derivatives of any
order and the first moment integral (needed by the spherical-means solution
of the free wave equation) are available in closed form.

A Profile is a frozen value: equal descriptors give equal, equally hashed
profiles, and every zero profile (the zero family, or a bump of amplitude
0) is one and the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

__all__ = ["Profile", "ProfileError"]


class ProfileError(ValueError):
    pass


# the fields of the one zero profile
_ZERO = ("zero", 4, 1.0, 0.0)

# highest derivative order of a profile's polynomials that is read: the
# free-wave oracle's order-3 jets take one more r-derivative on the axis
M_MAX = 4
# largest bump exponent: the monomials of (1 - r^2)^k cancel more digits as k
# grows; against exact rationals the odd extension and its derivatives to
# order 4 are off by 2e-13 of their peak at k = 8, 2e-10 at 16 and 5e-6 at
# 30, so k <= 16 stays far below the Klein-Gordon oracle's 1e-8 truncation
K_MAX = 16


@dataclass(frozen=True, repr=False)
class Profile:
    """A compactly supported radial polynomial profile."""

    family: str = "bump"  # "zero" or "bump"
    k: int = 4  # smoothness exponent of the bump (integer, 1 to K_MAX)
    radius: float = 1.0  # support radius (0 < radius <= 1 for unit-ball data)
    amp: float = 1.0  # amplitude

    def __post_init__(self):
        if self.family not in ("zero", "bump"):
            raise ProfileError(f"unknown profile family {self.family!r}")
        if self.family == "bump":
            if not (float(self.k).is_integer() and self.k >= 1):
                raise ProfileError("bump exponent k must be a positive integer")
            if self.k > K_MAX:
                raise ProfileError(f"bump exponent k={self.k:g} is past K_MAX={K_MAX}, "
                                   "where its monomials lose their digits")
            if not (0.0 < self.radius):
                raise ProfileError("bump radius must be positive")
        values = _ZERO if self.family == "zero" or self.amp == 0.0 else (
            self.family, int(self.k), float(self.radius), float(self.amp))
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)
        # a radius whose square leaves the float range, or coefficients that
        # overflow, would give a profile whose values are inf or NaN; so
        # would a derivative to order M_MAX whose evaluation overflows
        # inside the support, which its Horner bound there rules out
        if not self.is_zero:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = 0.0 < self.radius * self.radius < np.inf and all(
                    np.isfinite(bound) for base in ("p", "odd", "moment")
                    for bound in self._horner_bounds(base))
            if not finite:
                raise ProfileError(f"{self.describe()} has polynomial coefficients "
                                   "past the float range (derivatives to order "
                                   f"{M_MAX} included)")

    @cached_property
    def _polys(self):
        """Lazily filled table: (base, m) -> the m-th derivative of base "p",
        the profile, "odd", its odd extension xi * p(|xi|) (a genuinely odd
        polynomial, so direct evaluation at negative arguments gives the
        extension for free), or "moment", the odd extension's antiderivative
        vanishing at 0 (an even function)."""
        p = Polynomial([0.0]) if self.is_zero else (
            self.amp * Polynomial([1.0, 0.0, -1.0 / self.radius**2]) ** self.k)
        odd = Polynomial([0.0, 1.0]) * p
        return {("p", 0): p, ("odd", 0): odd, ("moment", 0): odd.integ(lbnd=0.0)}

    def _poly(self, base, m):
        if (base, m) not in self._polys:
            self._polys[(base, m)] = self._polys[(base, 0)].deriv(m)
        return self._polys[(base, m)]

    def _horner_bounds(self, base):
        """For m = 0 to M_MAX, a bound on every partial sum of Horner's rule
        for the m-th derivative of base at |r| <= radius: the rule run on
        its absolute coefficients at r = radius (formed j c[j] at a time,
        as Polynomial.deriv forms them); inf or NaN where a sum can
        overflow."""
        c = np.abs(self._polys[(base, 0)].coef)
        for _ in range(M_MAX + 1):
            yield polyval(self.radius, c)
            c = np.append(c[1:] * np.arange(1, c.size), 0.0)

    # -- basic evaluation ------------------------------------------------

    @property
    def is_zero(self):
        return self.family == "zero"

    def _inside(self, base, m, r, outside=0.0):
        """The m-th derivative of base inside the support, outside elsewhere,
        where the polynomial's powers may leave the float range."""
        r = np.asarray(r, dtype=float)
        inside = np.abs(r) < self.radius
        out = np.full(r.shape, outside)
        out[inside] = self._poly(base, m)(r[inside])
        return out

    def __call__(self, r):
        return self._inside("p", 0, r)

    def deriv(self, r, m=1):
        """m-th derivative of the profile (even extension in r)."""
        return self._inside("p", m, r)

    # -- odd extension and its antiderivative ----------------------------

    def odd_deriv(self, xi, m=0):
        """m-th derivative of the odd extension xi * p(|xi|)."""
        return self._inside("odd", m, xi)

    def moment_deriv(self, xi, m=0):
        """m-th derivative of int_0^xi eta*p(|eta|) d(eta) (even in xi)."""
        # past the support the antiderivative stays at its plateau
        plateau = 0.0 if m or self.is_zero else self._poly("moment", 0)(self.radius)
        return self._inside("moment", m, xi, plateau)

    def scaled(self, factor):
        """The same profile with its amplitude multiplied by factor."""
        return replace(self, amp=self.amp * factor)

    # -- serialization ----------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Parse a profile descriptor like "bump k=4 radius=1.0 amp=1.0"."""
        parts = text.split()
        if not parts:
            raise ProfileError("empty profile descriptor")
        family, kwargs = parts[0], {}
        for item in parts[1:]:
            if "=" not in item:
                raise ProfileError(f"malformed profile parameter {item!r}")
            key, val = item.split("=", 1)
            if key not in ("k", "radius", "amp"):
                raise ProfileError(f"unknown profile parameter {key!r}")
            if key in kwargs:
                raise ProfileError(f"repeated profile parameter {key!r}")
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ProfileError(
                    f"profile parameter {key}={val!r} is not a number") from None
        return cls(family=family, **kwargs)

    def describe(self):
        if self.is_zero:
            return "zero"
        return f"bump k={self.k} radius={self.radius!r} amp={self.amp!r}"

    def __repr__(self):
        return f"Profile({self.describe()})"
