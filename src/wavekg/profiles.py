"""Radial data profiles.

The experiments use a small family of named radial profiles supported in
r < 1 (the unit ball).  The polynomial bump family

    p(r) = amp * (1 - (r/radius)^2)^k,   r < radius,

is represented internally as a numpy Polynomial so that derivatives of any
order and the first moment integral (needed by the spherical-means solution
of the free wave equation) are available in closed form.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

__all__ = ["Profile", "ProfileError"]


class ProfileError(ValueError):
    pass


class Profile:
    """A compactly supported radial polynomial profile.

    Parameters
    ----------
    family : "zero" or "bump"
    k : smoothness exponent of the bump (integer >= 1)
    radius : support radius (0 < radius <= 1 for unit-ball data)
    amp : amplitude
    """

    def __init__(self, family="bump", k=4, radius=1.0, amp=1.0):
        if family not in ("zero", "bump"):
            raise ProfileError(f"unknown profile family {family!r}")
        if family == "bump":
            if int(k) != k or k < 1:
                raise ProfileError("bump exponent k must be a positive integer")
            if not (0.0 < radius):
                raise ProfileError("bump radius must be positive")
        self.family = family
        self.k = int(k)
        self.radius = float(radius)
        self.amp = float(amp)
        if family == "zero" or amp == 0.0:
            self.family = "zero"
            poly = Polynomial([0.0])
        else:
            poly = self.amp * Polynomial([1.0, 0.0, -1.0 / self.radius**2]) ** self.k
        self._poly = poly
        # odd extension of xi * p(|xi|): a genuinely odd polynomial, so direct
        # evaluation at negative arguments gives the extension for free
        self._odd = Polynomial([0.0, 1.0]) * poly
        # antiderivative of the odd extension, vanishing at 0 (even function)
        self._moment = self._odd.integ(lbnd=0.0)
        self._deriv_cache = {0: poly}
        self._odd_deriv_cache = {0: self._odd}
        self._moment_deriv_cache = {0: self._moment}

    # -- basic evaluation ------------------------------------------------

    @property
    def is_zero(self):
        return self.family == "zero"

    def _mask(self, r):
        return np.abs(r) < self.radius

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(self._mask(r), self._poly(r), 0.0)

    def deriv(self, r, m=1):
        """m-th derivative of the profile (even extension in r)."""
        r = np.asarray(r, dtype=float)
        if m not in self._deriv_cache:
            self._deriv_cache[m] = self._poly.deriv(m)
        return np.where(self._mask(r), self._deriv_cache[m](r), 0.0)

    # -- odd extension and its antiderivative ----------------------------

    def odd_deriv(self, xi, m=0):
        """m-th derivative of the odd extension xi * p(|xi|)."""
        xi = np.asarray(xi, dtype=float)
        if m not in self._odd_deriv_cache:
            self._odd_deriv_cache[m] = self._odd.deriv(m)
        return np.where(self._mask(xi), self._odd_deriv_cache[m](xi), 0.0)

    def moment_deriv(self, xi, m=0):
        """m-th derivative of int_0^xi eta*p(|eta|) d(eta) (even in xi)."""
        xi = np.asarray(xi, dtype=float)
        if m == 0:
            plateau = self._moment(self.radius) if not self.is_zero else 0.0
            return np.where(self._mask(xi), self._moment(xi), plateau)
        if m not in self._moment_deriv_cache:
            self._moment_deriv_cache[m] = self._moment.deriv(m)
        return np.where(self._mask(xi), self._moment_deriv_cache[m](xi), 0.0)

    def scaled(self, factor):
        """The same profile with its amplitude multiplied by factor."""
        return Profile(self.family, k=self.k, radius=self.radius,
                       amp=self.amp * factor)

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
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ProfileError(
                    f"profile parameter {key}={val!r} is not a number") from None
        if "k" in kwargs:
            kwargs["k"] = int(kwargs["k"])
        return cls(family=family, **kwargs)

    def describe(self):
        if self.is_zero:
            return "zero"
        return f"bump k={self.k} radius={self.radius!r} amp={self.amp!r}"

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return (self.family, self.k, self.radius, self.amp) == (
            other.family, other.k, other.radius, other.amp)

    def __repr__(self):
        return f"Profile({self.describe()})"
