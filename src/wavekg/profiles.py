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

__all__ = ["Profile", "ProfileError"]


class ProfileError(ValueError):
    pass


# the fields of the one zero profile
_ZERO = ("zero", 4, 1.0, 0.0)


@dataclass(frozen=True, repr=False)
class Profile:
    """A compactly supported radial polynomial profile."""

    family: str = "bump"  # "zero" or "bump"
    k: int = 4  # smoothness exponent of the bump (integer >= 1)
    radius: float = 1.0  # support radius (0 < radius <= 1 for unit-ball data)
    amp: float = 1.0  # amplitude

    def __post_init__(self):
        if self.family not in ("zero", "bump"):
            raise ProfileError(f"unknown profile family {self.family!r}")
        if self.family == "bump":
            if not (float(self.k).is_integer() and self.k >= 1):
                raise ProfileError("bump exponent k must be a positive integer")
            if not (0.0 < self.radius):
                raise ProfileError("bump radius must be positive")
        values = _ZERO if self.family == "zero" or self.amp == 0.0 else (
            self.family, int(self.k), float(self.radius), float(self.amp))
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

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

    # -- basic evaluation ------------------------------------------------

    @property
    def is_zero(self):
        return self.family == "zero"

    def _mask(self, r):
        return np.abs(r) < self.radius

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(self._mask(r), self._poly("p", 0)(r), 0.0)

    def deriv(self, r, m=1):
        """m-th derivative of the profile (even extension in r)."""
        r = np.asarray(r, dtype=float)
        return np.where(self._mask(r), self._poly("p", m)(r), 0.0)

    # -- odd extension and its antiderivative ----------------------------

    def odd_deriv(self, xi, m=0):
        """m-th derivative of the odd extension xi * p(|xi|)."""
        xi = np.asarray(xi, dtype=float)
        return np.where(self._mask(xi), self._poly("odd", m)(xi), 0.0)

    def moment_deriv(self, xi, m=0):
        """m-th derivative of int_0^xi eta*p(|eta|) d(eta) (even in xi)."""
        xi = np.asarray(xi, dtype=float)
        moment = self._poly("moment", m)
        # past the support the antiderivative stays at its plateau
        plateau = moment(self.radius) if m == 0 and not self.is_zero else 0.0
        return np.where(self._mask(xi), moment(xi), plateau)

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
