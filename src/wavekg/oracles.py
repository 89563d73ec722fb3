"""Independent reference solutions for the decoupled equations.

Free wave: under radial symmetry A = 2 r u solves the 1+1 wave equation,
so u is available in closed form from the odd extensions of r*u0 and
r*u1 (d'Alembert); because the profiles are polynomials, every mixed
derivative of u is closed-form as well.

Free Klein-Gordon: w = r v solves the 1+1 Klein-Gordon equation on a
half-line with Dirichlet conditions; a discrete sine transform evolves
each mode exactly in time, and a sine-series representation gives jets
at arbitrary points.  Every derivative of a chunk of points comes from
one sin/cos table of k r, built by angle addition from a few libm calls
per point since the k are evenly spaced, and the mode amplitudes at each
point from one of omega (t - 2) (one row for a chunk at a single time);
each (a, b) is then one mat-vec of a product table shared by the jets
of its parity of a and its b.  A call splits its points into contiguous
shares of whole chunks, one per CPU the process may run on, and runs
the same chunk loop on each share in its own thread with its own work
tables; numpy releases the GIL inside the table-wide ufuncs, so the
shares run in parallel, and since each point's values depend on that
point alone the result does not depend on the number of shares.
Chunks are sized in bytes (a table of _CHUNK_BYTES stays in cache) and
their tables are allocated once per share, so the working memory grows
with neither the mode count nor the number of points.

Both oracles are deliberately independent of the finite-difference
solver (different representations, different grids).  The free wave's
radiation field is closed-form as well (free_wave_radiation).
"""

from __future__ import annotations

import warnings
from math import comb, factorial

import numpy as np

from . import _shares

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
_CHUNK_BYTES = 2**18    # one (points x modes) float64 table per chunk
_BLOCK = 64             # modes per angle-addition block of the radial table
_LENGTH = 64.0          # KGSpectralField's domain [0, _LENGTH]
_N_MODES = 4096         # KGSpectralField's sine modes


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


def _sinc_tables(r, k, trig, inv, out):
    """Fill out[n] with sinc^(n)(x) for x = k r, one row per r >= 0.

    trig holds sin x and cos x; inv is a work table that receives 1/x.
    Differentiating x f = sin x gives f^(n) = (sin^(n) x - n f^(n-1)) / x,
    so one sin and one cos of x serve every order; the series replaces
    the recurrence where x < _SINC_SWITCH.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply.outer(1.0 / r, 1.0 / k, out=inv)
        np.multiply(trig[0], inv, out=out[0])
        for n in range(1, len(out)):
            # sin^(n) = sin, cos, -sin, -cos for n = 0, 1, 2, 3
            f = out[n]
            np.multiply(out[n - 1], -float(n), out=f)
            if n % 4 < 2:
                f += trig[n % 2]
            else:
                f -= trig[n % 2]
            f *= inv
    # x < _SINC_SWITCH holds on a prefix of the modes, longest at the
    # smallest r
    n_small = np.count_nonzero(r.min() * k < _SINC_SWITCH)
    if n_small:
        x = np.multiply.outer(r, k[:n_small])
        small = x < _SINC_SWITCH
        xs = x[small]
        for n, f in enumerate(out):
            f[:, :n_small][small] = _sinc_series(xs, n)


def _dst1(x):
    """DST-I of x, X_k = 2 sum_j x_j sin(pi j k/(n+1)) for j, k = 1..n.

    It is -Im of the real FFT of the odd extension [0, x, 0, -x[::-1]];
    this equals scipy.fft.dst(x, type=1) bit for bit.
    """
    n = x.size
    odd = np.zeros(2 * (n + 1))
    odd[1:n + 1] = x
    odd[n + 2:] = -x[::-1]
    return -np.fft.rfft(odd)[1:n + 1].imag


class KGSpectralField:
    """Free Klein-Gordon field by exact mode evolution of w = r v.

    The odd extension of w is expanded in _N_MODES sine modes on
    [0, _LENGTH] (read at construction) via a type-I DST; each mode
    advances exactly with frequency omega_k = sqrt(k^2 + c^2).  Values
    and derivatives at arbitrary points come from the sine series written
    as k*sinc(k r) terms:

        d_t^a d_r^b v = sum_m A_m k_m^(b+1) (-omega_m^2)^(a//2) sinc^(b)(k_m r)

    with A the mode amplitude B (a even) or its time derivative (a odd).
    jets() splits its points into contiguous shares of whole chunks, at
    most one share per chunk and one per CPU the process may run on
    (_shares.worker_count), and runs each share on its own thread
    (_shares.run_shares) through the same chunk loop (_jets_chunks) with
    its own work tables.
    A chunk holds as many points as make one (points x modes) table of
    _CHUNK_BYTES, which keeps each worker's tables cache-sized.  Each
    point's values depend on that point alone, so every share count gives
    the one-worker loop's values bit for bit.  Within a chunk:

    - the amplitudes B and dB/dt come from one sin/cos table of
      omega (t - 2) at the chunk's points (_amplitudes); a chunk at a
      single time takes one row, and reuses the previous chunk's row when
      that chunk was at the same time;
    - the sin/cos table of k r is built by angle addition (_radial_trig):
      since k_m = m pi / length is evenly spaced, each point needs only
      the sin/cos of _BLOCK base angles and of one offset per block of
      _BLOCK modes, not one per mode;
    - the sin/cos of k r give every sinc^(b) through the recurrence of
      _sinc_tables, with a Taylor series where k r < _SINC_SWITCH;
    - each (parity of a, b) forms one product table A sinc^(b), and each
      (a, b) is one mat-vec of its product table with its weights, so a
      jet does not depend on which other jets were asked for.
    """

    def __init__(self, v0, v1, c):
        self.c = float(c)
        self.length = _LENGTH
        n = _N_MODES
        h = self.length / (n + 1)
        nodes = h * np.arange(1, n + 1)
        w0 = nodes * v0(nodes)
        w1 = nodes * v1(nodes)
        # DST-I coefficients X_k = 2 sum_j x_j sin(pi j k/(n+1)); the
        # series amplitude of sin(k_m r) is X_m/(n+1)
        self.b0 = _dst1(w0) / (n + 1)
        self.b1 = _dst1(w1) / (n + 1)
        self.k = np.pi * np.arange(1, n + 1) / self.length
        self.omega = np.hypot(self.k, self.c)
        top = max(np.max(np.abs(self.b0[-8:])), np.max(np.abs(self.b1[-8:])))
        scale = max(np.max(np.abs(self.b0)), np.max(np.abs(self.b1)), 1e-300)
        if top / scale > 1e-8:
            warnings.warn(
                "profile spectrum not negligible at the Nyquist mode; "
                "increase oracles._N_MODES", RuntimeWarning)

    def _amplitudes(self, t, out):
        """Mode amplitudes B and dB/dt at the times t, one row per time.

        out is four (times x modes) tables to work in; B and dB/dt are
        returned in the first two.
        """
        b, bdot, sinp, cosp = out
        np.multiply.outer(t - 2.0, self.omega, out=sinp)
        np.cos(sinp, out=cosp)
        np.sin(sinp, out=sinp)
        np.multiply(cosp, self.b0, out=b)
        np.multiply(sinp, -self.b0 * self.omega, out=bdot)
        sinp *= self.b1 / self.omega
        b += sinp
        cosp *= self.b1
        bdot += cosp
        return b, bdot

    def _radial_trig(self, r, out):
        """sin and cos of k_m r for every mode, one row per r >= 0.

        With m - 1 = _BLOCK j + i, k_m r is the base angle
        pi (i + 1) r / length plus the block offset pi _BLOCK j r / length,
        so angle addition builds the table from 2 (_BLOCK + n/_BLOCK) libm
        calls per point instead of 2 n.  Each entry is off from the exact
        sin(k_m r) by about as much as np.sin(r * k) is: both errors are
        dominated by rounding the argument.

        out is a (points, 2, modes rounded up to _BLOCK) table; the sin and
        cos are returned as (points, modes) views of its two halves.
        """
        n_blocks = out.shape[2] // _BLOCK
        base = np.multiply.outer(r, np.pi * np.arange(1, _BLOCK + 1) / self.length)
        offset = np.multiply.outer(r, np.pi * _BLOCK * np.arange(n_blocks) / self.length)
        # per point, [sin; cos](offset_j + base_i) = rot_j @ [cos; sin](base_i)
        rot = np.empty((r.size, 2, n_blocks, 2))
        np.sin(offset, out=rot[:, 0, :, 0])
        np.cos(offset, out=rot[:, 0, :, 1])
        rot[:, 1, :, 0] = rot[:, 0, :, 1]
        np.negative(rot[:, 0, :, 0], out=rot[:, 1, :, 1])
        np.matmul(rot.reshape(r.size, 2 * n_blocks, 2),
                  np.stack((np.cos(base), np.sin(base)), axis=1),
                  out=out.reshape(r.size, 2 * n_blocks, _BLOCK))
        return out[:, 0, :self.k.size], out[:, 1, :self.k.size]

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
        products = {}
        for a, b in keys:
            products.setdefault((a % 2, b), []).append((a, b))
        out = {key: np.empty(tf.size) for key in keys}
        chunk = max(1, min(tf.size, _CHUNK_BYTES // (8 * self.k.size)))
        n_chunks = -(-tf.size // chunk)
        n_shares = max(1, min(_shares.worker_count(), n_chunks))
        # whole chunks per share, so the shares cut the points into the
        # chunks the one-worker loop would
        bounds = [min(tf.size, chunk * (n_chunks * i // n_shares))
                  for i in range(n_shares + 1)]

        def share(lo, hi):
            self._jets_chunks(tf[lo:hi], rf[lo:hi], chunk, order, weight, products,
                              {key: val[lo:hi] for key, val in out.items()})

        _shares.run_shares(share, zip(bounds[:-1], bounds[1:]))
        return {key: val.reshape(shape) for key, val in out.items()}

    def _jets_chunks(self, t, r, chunk, order, weight, products, out):
        """Fill out[(a, b)] with the jets at (t, r >= 0), chunk points at a
        time; weight and products are those of jets()."""
        n = self.k.size
        width = -(-n // _BLOCK) * _BLOCK
        # the work tables, reused by every chunk: the sin and cos of
        # omega (t - 2), then of k r; 1/(k r), then each product table;
        # B and dB/dt at the points (one row for a chunk at one time);
        # one sinc^(b) per b
        trig = np.empty((chunk, 2, width))
        work = np.empty((3 + order + 1, chunk, width))
        held = None     # the single time of the previous chunk, if it had one
        for lo in range(0, t.size, chunk):
            sl = slice(lo, lo + chunk)
            tc, rc = t[sl], r[sl]
            tables = work[:, :rc.size, :n]
            single = tc[0] if np.all(tc == tc[0]) else None
            rows = rc.size if single is None else 1
            amps, sincs = tables[1:3, :rows], tables[3:]
            if single is None or single != held:
                self._amplitudes(tc[:rows], (amps[0], amps[1],
                                             trig[:rows, 0, :n], trig[:rows, 1, :n]))
            held = single
            _sinc_tables(rc, self.k, self._radial_trig(rc, trig[:rc.size]),
                         tables[0], sincs)
            prod = tables[0]
            for (parity, b), members in products.items():
                np.multiply(amps[parity], sincs[b], out=prod)
                for key in members:
                    np.matmul(prod, weight[key], out=out[key][sl])

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
