"""Independent reference solutions for the decoupled equations.

Free wave: under radial symmetry A = 2 r u solves the 1+1 wave equation,
so u is available in closed form from the odd extensions of r*u0 and
r*u1 (d'Alembert); because the profiles are polynomials, every mixed
derivative of u is closed-form as well.

Free Klein-Gordon: w = r v solves the 1+1 Klein-Gordon equation on a
half-line with Dirichlet conditions; a discrete sine transform evolves
each mode exactly in time, and a sine-series representation gives jets
at arbitrary points.  Every derivative of a chunk of points comes from
one set of sin/cos tables (of k r and of omega (t - 2)), and chunks are
sized in bytes, so memory does not grow with the mode count.

Both oracles are deliberately independent of the finite-difference
solver (different representations, different grids).  The free wave's
radiation field is closed-form as well (free_wave_radiation).
"""

from __future__ import annotations

import warnings
from math import comb, factorial

import numpy as np
from scipy.fft import dst

__all__ = [
    "DalembertField",
    "KGSpectralField",
    "OracleSampler",
    "free_wave_radiation",
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
        t, r = (np.asarray(x, dtype=float) for x in np.broadcast_arrays(t, r))
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

_SINC_SWITCH = 0.1      # below this x the sinc recurrence loses digits
_CHUNK_BYTES = 2**22    # one (points x modes) float64 table per chunk


def _sinc_series(x, n):
    """Taylor series of the n-th derivative of sinc = sin(x)/x near 0."""
    x2 = x * x
    if n == 0:
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    if n == 1:
        return x * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0)
    if n == 2:
        return -1.0 / 3.0 + x2 / 10.0 - x2 * x2 / 168.0
    return x * (1.0 / 5.0 - x2 / 42.0 + x2 * x2 / 1080.0)


def _sinc_table(x, order):
    """[sinc^(n)(x) for n <= order] over a table of x >= 0.

    Differentiating x f = sin x gives f^(n) = (sin^(n) x - n f^(n-1)) / x,
    so one sin and one cos of x serve every order; the series replaces
    the recurrence where x < _SINC_SWITCH.
    """
    trig = (np.sin(x), np.cos(x) if order >= 1 else None)
    small = x < _SINC_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / x
        out = [trig[0] * inv]
        for n in range(1, order + 1):
            # sin^(n) = sin, cos, -sin, -cos for n = 0, 1, 2, 3
            f = out[-1] * -float(n)
            if n % 4 < 2:
                f += trig[n % 2]
            else:
                f -= trig[n % 2]
            f *= inv
            out.append(f)
    if small.any():
        xs = x[small]
        for n, f in enumerate(out):
            f[small] = _sinc_series(xs, n)
    return out


class KGSpectralField:
    """Free Klein-Gordon field by exact mode evolution of w = r v.

    The odd extension of w is expanded in sine modes on [0, length] via
    a type-I DST; each mode advances exactly with frequency
    omega_k = sqrt(k^2 + c^2).  Values and derivatives at arbitrary
    points come from the sine series written as k*sinc(k r) terms:

        d_t^a d_r^b v = sum_m A_m k_m^(b+1) (-omega_m^2)^(a//2) sinc^(b)(k_m r)

    with A the mode amplitude B (a even) or its time derivative (a odd).
    jets() evaluates points in chunks sized so that one chunk's
    (points x modes) table takes _CHUNK_BYTES.  Within a chunk, one sin
    and cos of k r give every sinc^(b), one sin and cos of omega (t - 2)
    per distinct time give both amplitudes, and each (a, b) is one
    weighted sum over modes.
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

    def _amplitudes(self, t):
        """Mode amplitudes B and dB/dt at the times t, one row per time."""
        phase = np.multiply.outer(np.asarray(t, dtype=float) - 2.0, self.omega)
        cosp, sinp = np.cos(phase), np.sin(phase)
        b = self.b0 * cosp + (self.b1 / self.omega) * sinp
        bdot = (-self.b0 * self.omega) * sinp + self.b1 * cosp
        return b, bdot

    def jet(self, t, r, a=0, b=0):
        """d_t^a d_r^b v at scattered points."""
        return self.jets(t, r, a + b)[(a, b)]

    def jets(self, t, r, order=3):
        """{(a, b): d_t^a d_r^b v} for a + b <= order <= 3 at scattered points."""
        if order > 3:
            raise ValueError(f"derivative order {order} not supported")
        t, r = (np.asarray(x, dtype=float) for x in np.broadcast_arrays(t, r))
        shape = t.shape
        tf, rf = t.ravel(), np.abs(r.ravel())
        keys = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
        weight = {(a, b): self.k ** (b + 1) * (-self.omega**2) ** (a // 2)
                  for a, b in keys}
        out = {key: np.empty(tf.size) for key in keys}
        chunk = max(1, _CHUNK_BYTES // (8 * self.k.size))
        for lo in range(0, tf.size, chunk):
            sl = slice(lo, lo + chunk)
            sincs = _sinc_table(np.multiply.outer(rf[sl], self.k), order)
            times, row = np.unique(tf[sl], return_inverse=True)
            amps = [amp[row] for amp in self._amplitudes(times)]
            for a, b in keys:
                out[(a, b)][sl] = np.einsum("pm,pm,m->p", amps[a % 2], sincs[b],
                                            weight[(a, b)])
        return {key: val.reshape(shape) for key, val in out.items()}

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
        shape = np.broadcast_shapes(np.shape(t), np.shape(r))
        zero = {(a, b): np.zeros(shape)
                for a in range(order + 1) for b in range(order + 1 - a)}
        u = self.wave.jets(t, r, order) if self.wave is not None else dict(zero)
        v = self.kg.jets(t, r, order) if self.kg is not None else dict(zero)
        return {"u": u, "v": v}


# -- radiation field of the free wave ----------------------------------------


def free_wave_radiation(u0, u1, mu):
    """Closed-form radiation field of the free wave with data (u0, u1).

    The limit of r d_t u along the outgoing null rays t = r + 2 + mu is
    -[Phi'(mu) + Psi(mu)]/2 with Phi, Psi the odd extensions of r*u0 and
    r*u1; it is supported in |mu| <= 1 for unit-ball data.
    """
    mu = np.asarray(mu, dtype=float)
    return -0.5 * (u0.odd_deriv(mu, 1) + u1.odd_deriv(mu, 0))
