"""Independent reference solutions for the decoupled equations.

Free wave: under radial symmetry A = 2 r u solves the 1+1 wave equation,
so u is available in closed form from the odd extensions of r*u0 and
r*u1 (d'Alembert); because the profiles are polynomials, every mixed
derivative of u is closed-form as well.

Free Klein-Gordon: w = r v solves the 1+1 Klein-Gordon equation on a
half-line with Dirichlet conditions; a discrete sine transform evolves
each mode exactly in time, and a sine-series representation gives jets
at arbitrary points.

Both oracles are deliberately independent of the finite-difference
solver (different representations, different grids).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, factorial

import numpy as np
from scipy.fft import dst

__all__ = [
    "DalembertField",
    "KGSpectralField",
    "OracleSampler",
    "KirchhoffEnvelope",
    "kirchhoff_envelope",
    "free_wave_radiation",
    "duhamel_radial",
]

_AXIS_EPS = 1e-8


class DalembertField:
    """Closed-form radial free wave with data (u0, u1) posed at t = 2.

    With T = t - 2 and Phi, IPsi the odd extension of r*u0 and the
    antiderivative of the odd extension of r*u1,

        2 r u(t, r) = Phi(r+T) + Phi(r-T) + IPsi(r+T) - IPsi(r-T).

    Mixed derivatives of any order follow by differentiating the
    polynomial pieces; the axis is handled by the parity of 2 r u
    (odd in r), so even r-derivative orders survive with factorial
    weights 1/(m+1)! on the (m+1)-st radial derivative of 2 r u.
    """

    def __init__(self, u0, u1):
        self.u0 = u0
        self.u1 = u1

    def _big_a(self, T, r, a, b):
        """d_T^a d_r^b of A(T, r) = Phi(r+T) + Phi(r-T) + IPsi(r+T) - IPsi(r-T)."""
        m = a + b
        sgn = (-1.0) ** a
        plus = r + T
        minus = r - T
        out = self.u0.odd_deriv(plus, m) + sgn * self.u0.odd_deriv(minus, m)
        out += self.u1.moment_deriv(plus, m) - sgn * self.u1.moment_deriv(minus, m)
        return out

    def jet(self, t, r, a=0, b=0):
        """d_t^a d_r^b u at (t, r), vectorized over matching arrays."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        t, r = np.broadcast_arrays(t, r)
        T = t - 2.0
        on_axis = np.abs(r) < _AXIS_EPS
        r_safe = np.where(on_axis, 1.0, r)
        # off-axis: u = A/(2r); Leibniz in r against powers of 1/r
        val = np.zeros_like(r)
        for j in range(b + 1):
            coeff = comb(b, j) * (-1.0) ** j * factorial(j)
            val += coeff * self._big_a(T, r_safe, a, b - j) / r_safe ** (j + 1)
        val *= 0.5
        if np.any(on_axis):
            if b % 2 == 1:
                axis_val = np.zeros_like(val)
            else:
                # A odd in r: u(t,r) = sum_m d_r^{2m+1}A(T,0) r^{2m}/(2 (2m+1)!),
                # so d_r^b u(t,0) = d_r^{b+1}A(T,0) / (2 (b+1))
                axis_val = self._big_a(T, np.zeros_like(r), a, b + 1) / (2.0 * (b + 1))
            val = np.where(on_axis, axis_val, val)
        return val

    def jets(self, t, r, order=3):
        return {(a, b): self.jet(t, r, a, b)
                for a in range(order + 1) for b in range(order + 1 - a)}

    def __call__(self, t, r):
        return self.jet(t, r, 0, 0)


# -- Klein-Gordon spectral oracle --------------------------------------------

# sinc = sin(x)/x and its first three derivatives; closed forms are
# unstable near 0, replaced by Taylor series there
def _sinc_derivs(x, order):
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)
    s, c = np.sin(xs), np.cos(xs)
    x2 = x * x
    out = []
    if order >= 0:
        exact = s / xs
        series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
        out.append(np.where(small, series, exact))
    if order >= 1:
        exact = c / xs - s / xs**2
        series = x * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0)
        out.append(np.where(small, series, exact))
    if order >= 2:
        exact = -s / xs - 2.0 * c / xs**2 + 2.0 * s / xs**3
        series = -1.0 / 3.0 + x2 / 10.0 - x2 * x2 / 168.0
        out.append(np.where(small, series, exact))
    if order >= 3:
        exact = -c / xs + 3.0 * s / xs**2 + 6.0 * c / xs**3 - 6.0 * s / xs**4
        series = x * (1.0 / 5.0 - x2 / 42.0 + x2 * x2 / 1080.0)
        out.append(np.where(small, series, exact))
    return out


class KGSpectralField:
    """Free Klein-Gordon field by exact mode evolution of w = r v.

    The odd extension of w is expanded in sine modes on [0, length] via
    a type-I DST; each mode advances exactly with frequency
    omega_k = sqrt(k^2 + c^2).  Values and derivatives at arbitrary
    points come from the sine series written as k*sinc(k r) terms.
    """

    def __init__(self, v0, v1, c, length=64.0, n_modes=4096):
        self.c = float(c)
        self.length = float(length)
        n = int(n_modes)
        h = self.length / (n + 1)
        nodes = h * np.arange(1, n + 1)
        w0 = nodes * v0(nodes)
        w1 = nodes * v1(nodes)
        # DST-I coefficients X_k = 2 sum_j x_j sin(pi j k/(n+1)); the
        # series amplitude of sin(k_m r) is X_m/(n+1)
        self.b0 = dst(w0, type=1) / (n + 1)
        self.b1 = dst(w1, type=1) / (n + 1)
        self.k = np.pi * np.arange(1, n + 1) / self.length
        self.omega = np.hypot(self.k, self.c)
        top = max(np.max(np.abs(self.b0[-8:])), np.max(np.abs(self.b1[-8:])))
        scale = max(np.max(np.abs(self.b0)), np.max(np.abs(self.b1)), 1e-300)
        if top / scale > 1e-8:
            warnings.warn(
                "profile spectrum not negligible at the Nyquist mode; "
                "increase n_modes", RuntimeWarning)

    def _mode_coeffs(self, t, a):
        """a-th time derivative of the mode amplitudes at time t."""
        phase = self.omega * (t - 2.0)
        cosp, sinp = np.cos(phase), np.sin(phase)
        b = self.b0 * cosp + self.b1 * sinp / self.omega
        bdot = -self.b0 * self.omega * sinp + self.b1 * cosp
        if a == 0:
            return b
        if a == 1:
            return bdot
        if a == 2:
            return -self.omega**2 * b
        if a == 3:
            return -self.omega**2 * bdot
        raise ValueError(f"time-derivative order {a} not supported")

    def jet(self, t, r, a=0, b=0):
        """d_t^a d_r^b v at scattered points, via v = sum b_m k_m sinc(k_m r)."""
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        t, r = np.broadcast_arrays(t, r)
        shape = t.shape
        tf, rf = t.ravel(), np.abs(r.ravel())
        out = np.empty_like(tf)
        # time coefficients vary point-by-point only through t; group by t
        # is overkill -- evaluate per chunk with an outer product
        chunk = 256
        for lo in range(0, tf.size, chunk):
            hi = min(lo + chunk, tf.size)
            tc, rc = tf[lo:hi], rf[lo:hi]
            x = rc[:, None] * self.k[None, :]
            sinc_b = _sinc_derivs(x, b)[b]
            # distinct times within a chunk are rare in practice but legal
            vals = np.empty(hi - lo)
            uniq, inv = np.unique(tc, return_inverse=True)
            for i, tv in enumerate(uniq):
                coeff = self._mode_coeffs(tv, a) * self.k ** (b + 1)
                sel = inv == i
                vals[sel] = sinc_b[sel] @ coeff
            out[lo:hi] = vals
        return out.reshape(shape)

    def jets(self, t, r, order=3):
        return {(a, b): self.jet(t, r, a, b)
                for a in range(order + 1) for b in range(order + 1 - a)}

    def __call__(self, t, r):
        return self.jet(t, r, 0, 0)


class OracleSampler:
    """Bundle of oracle fields presenting the common jets() interface.

    jets(t, r, order) returns {"u": {(a,b): array}, "v": {...}} with
    zeros for any field whose oracle is absent.
    """

    def __init__(self, wave=None, kg=None):
        self.wave = wave
        self.kg = kg

    def jets(self, t, r, order=3):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        t, r = np.broadcast_arrays(t, r)
        keys = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
        zero = {key: np.zeros(t.shape) for key in keys}
        out = {}
        out["u"] = self.wave.jets(t, r, order) if self.wave is not None else dict(zero)
        out["v"] = self.kg.jets(t, r, order) if self.kg is not None else dict(zero)
        return out


# -- decay envelope and Duhamel check ----------------------------------------


@dataclass(frozen=True)
class KirchhoffEnvelope:
    """Decay envelope for sources t^(-2-nu) (t-r)^(-1+mu) inside the cone."""

    cF: float
    mu: float
    nu: float

    def __post_init__(self):
        if not (0.0 < self.mu <= 0.5):
            raise ValueError(f"exponent mu must lie in (0, 1/2], got {self.mu}")
        if not (0.0 < abs(self.nu) <= 0.5):
            raise ValueError(f"exponent nu must satisfy 0 < |nu| <= 1/2, got {self.nu}")


def kirchhoff_envelope(env, t, r, constant=1.0):
    """Pointwise envelope value at (t, r) inside the cone r < t - 1."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r >= t - 1.0) or np.any(r < 0):
        raise ValueError("envelope defined inside the cone 0 <= r < t - 1")
    lead = constant * env.cF / (env.mu * abs(env.nu))
    if env.nu > 0:
        return lead * (t - r) ** (env.mu - env.nu) / t
    return lead * (t - r) ** (-env.mu) * t ** (-1.0 - env.nu)


def duhamel_radial(source, t, r, n_tau=400, n_xi=160):
    """Solve Box u = source (radial, zero data at t = 2) by Duhamel.

    2 r u(t, r) = int_2^t int_{r-(t-tau)}^{r+(t-tau)} g(tau, xi) dxi dtau
    with g the odd extension of xi * source(tau, xi).  Plain tensor-grid
    trapezoids; the sources of interest are bounded with at worst jump
    discontinuities, for which this is adequate for slope checks.
    """
    t = float(t)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    tau = np.linspace(2.0, t, n_tau)
    eta = np.linspace(-1.0, 1.0, n_xi)
    half = (t - tau)[None, :, None]
    xi = r[:, None, None] + half * eta[None, None, :]
    g = np.sign(xi) * np.abs(xi) * source(tau[None, :, None], np.abs(xi))
    inner = np.trapezoid(g, x=eta, axis=2) * half[:, :, 0]
    a2ru = np.trapezoid(inner, x=tau, axis=1)
    out = np.where(np.abs(r) < _AXIS_EPS, 0.0, a2ru / (2.0 * np.where(r == 0, 1.0, r)))
    return out


# -- radiation field of the free wave ----------------------------------------


def free_wave_radiation(u0, u1, mu):
    """Closed-form radiation field of the free wave with data (u0, u1).

    The limit of r d_t u along the outgoing null rays t = r + 2 + mu is
    -[Phi'(mu) + Psi(mu)]/2 with Phi, Psi the odd extensions of r*u0 and
    r*u1; it is supported in |mu| <= 1 for unit-ball data.
    """
    mu = np.asarray(mu, dtype=float)
    return -0.5 * (u0.odd_deriv(mu, 1) + u1.odd_deriv(mu, 0))
