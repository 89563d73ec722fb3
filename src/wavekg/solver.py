"""Radial finite-difference evolution of the coupled system.

Unknowns u (wave) and v (Klein-Gordon) on a uniform r-grid, evolved by
classical four-stage Runge-Kutta from data at t = 2:

    d_t^2 u = Lap_r u + b00 (d_t u)(d_t v) + bd (d_r u)(d_r v)
    d_t^2 v = [(1 + pd u) Lap_r v - c^2 v] / (1 - p00 u)

with Lap_r w = w_rr + (2/r) w_r and the axis limit 3 w_rr at r = 0.
The axis uses an even ghost extension.

The data sit in the unit ball at t = 2, so both fields vanish for
r > t - 1.  Each step therefore integrates only the active window
r <= t - 1 + WINDOW_MARGIN * dr of the step's end time; cells past it
stay exactly zero, and the window's last cell gets zero spatial
derivatives, the treatment the grid's own edge r_max >= t_end gets once
the window reaches it.  The margin, a constant number of cells, keeps
the clipped numerical tail ahead of the cone at round-off level.  No
array is sized by r_max, so an r_max past the last window changes nothing.

Only the live fields are evolved and stored (scenario.live_fields):
every term of u's equation carries a factor u and v's equation is
linear in v, so a field whose data are zero stays exactly zero at every
coupling.  With F live fields, the state is one C-contiguous (2F, width)
array, the live fields and then their time derivatives (u, v, ut, vt on
a coupled run, u, ut on a free wave, v, vt on a free Klein-Gordon run),
its width the window plus at least one cell rounded up to whole chunks
of _CHUNK cells; it is widened by a copy when the window outgrows it.  A
run with no live field does no step.  Each RK4 stage combination and the
final update is one operation on the whole state, one stencil pass over
the flat live rows serves every Laplacian, and the right-hand side
writes into buffers allocated once per width, so a step allocates no
array.  Each cell of a live field still sees the floating-point
operations of a plain RK4 of all four fields in the same order, so the
history is bit for bit the one such a loop stores.

A coupling term costs nothing when its scenario constant is 0 or one of
the fields is dead, since the right-hand side skips it; with all four
skipped, as on free runs and the oracle validations, that is 14 of a
coupled stage's 27 numpy calls.  b00 = 0 drops the b00 ut vt product and
its add, bd = 0 the bd u_r v_r product, its tail zeroing and its add,
pd = 0 the factor 1 + pd u, and p00 = 0 the denominator 1 - p00 u, its
degeneracy guard and the division.  The bytes stay those of the plain
loop, which computes every term: a skipped factor 1 + pd u or 1 - p00 u
with pd, p00 or u zero is exactly 1, and a skipped addend b00 ut vt or
bd u_r v_r with a zero factor is a signed zero, which can only turn a
-0.0 into +0.0 (equal values; on the solver's bit-for-bit test's data no
byte differs).  Where 1 - p00 u is skipped there is no guard: the
denominator is exactly 1, so it could never trip.

Every accepted step is stored, slice k out to the first cell at or past
its own support cone r = t_k - 1 and STORE_MARGIN cells more, capped at
r = t_end - 1 + STORE_MARGIN * dr (scenario.store_widths); the sampler
reads zeros past a slice's width.  The stages read at most 19 cells
past a slice's cone, so the cells the window integrates past the store
change no number they compute.  This dense time coverage is what
sampling fields and their derivative jets on hyperboloids
t = sqrt(s^2 + r^2) and along characteristic curves needs.

The history is one C-contiguous (n_slices, n_radii, 2F) record array,
the 2F values of each cell side by side, the state's row order; on a
coupled run:

    records[k] = | u v ut vt | u v ut vt | ... | u v ut vt | 0 0 0 0 | ...
                   cell 0      cell 1            widths[k]-1 (zeros past it)

n_radii is the cap rounded up so that each row fills whole 4 KiB pages
(scenario.history_shape), so every row starts on a page boundary.  A
dead field is not stored: SliceHistory reads it as read-only zeros.
Step k writes its row only out to widths[k] cells, with one copy of the
state's transpose, so a row's cells past them are never written.  The
records live in one private anonymous memory mapping advised against
huge pages (SliceHistory.empty), where the kernel backs a 4 KiB page
only when evolve first writes it; reads of unwritten pages (the
sampler, the health values) see the kernel's shared zero page.  A
slice's written prefix thus takes whole pages from its row's first, and
the history is resident only inside the cone, about 0.51 of its
nominal bytes on the reference grid; the mapping is freed with its
array.  (A numpy buffer this large takes huge pages, which would make
the zeros past the cone resident 2 MiB at a time.)
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .energies import hyperboloid_samples, word_records
from .geometry import MU_FAN, WORD_STRIDE, covered_s_grid, null_radii
from .radiation import radiation_fan
from .scenario import (MIN_DENOM, Scenario, history_bytes, history_shape, live_fields,
                       store_cap, store_widths, time_steps)

__all__ = [
    "SolverError",
    "SliceHistory",
    "evolve",
    "HistorySampler",
]

log = logging.getLogger(__name__)

# the four fields and the scenario data each starts from
_FIELDS = ("u", "v", "ut", "vt")
_DATA = {"u": "u0", "v": "v0", "ut": "u1", "vt": "v1"}


def _columns(scn):
    """The values of one record, in the state's row order: each live field
    (scenario.live_fields), then the time derivative of each."""
    live = live_fields(scn)
    return live + tuple(name + "t" for name in live)


class SolverError(RuntimeError):
    pass


@dataclass
class SliceHistory:
    """Uniformly spaced time slices of the four fields.

    records has shape (n_slices, n_radii, 2F) for the run's F live fields
    (scenario.live_fields): the values of each cell side by side, each
    live field, then its time derivative (u, v, ut, vt on a coupled run).
    The grid and the store are the scenario's: slice k lies at t0 + k dt,
    with t0 = 2 the data time and dt the step of time_steps, column i at
    r = i dr, and widths[k] is the number of cells the run stores in slice
    k (scenario.store_widths), past which its records are +0.0.  The
    stored radial range may be shorter than the computational grid
    (fields vanish beyond the support cone r <= t - 1).  u, v, ut and vt
    are (n_slices, n_radii) views: of records for a live field, read-only
    zeros for a dead one.
    """

    scenario: Scenario
    records: np.ndarray
    u: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    ut: np.ndarray = field(init=False, repr=False)
    vt: np.ndarray = field(init=False, repr=False)
    t0 = 2.0  # a class constant, not a field

    def __post_init__(self):
        stored = dict(zip(_columns(self.scenario), np.moveaxis(self.records, -1, 0)))
        dead = np.broadcast_to(0.0, self.records.shape[:2])
        self.u, self.v, self.ut, self.vt = (stored.get(name, dead) for name in _FIELDS)

    @classmethod
    def empty(cls, scn):
        """The history of scn before its run: records of history_shape and
        the live fields' values, all +0.0, in one private anonymous mapping
        whose pages take memory only once written."""
        shape = (*history_shape(scn), len(_columns(scn)))
        if not history_bytes(scn):
            records = np.zeros(shape)  # no live field: no bytes to map
        else:
            buf = mmap.mmap(-1, history_bytes(scn), flags=mmap.MAP_PRIVATE)
            # under THP "always" one write would otherwise back 2 MiB at once
            if hasattr(mmap, "MADV_NOHUGEPAGE"):
                buf.madvise(mmap.MADV_NOHUGEPAGE)
            records = np.frombuffer(buf, dtype=np.float64).reshape(shape)
        return cls(scn, records)

    @cached_property
    def dt(self):
        return time_steps(self.scenario)[1]

    @cached_property
    def widths(self):
        return store_widths(self.scenario)

    @property
    def cells(self):
        """records as one (n_slices * n_radii, 2F) array of cells, the
        sampler's flat index space: a view, since records is C-contiguous."""
        n_slices, n_radii, n_values = self.records.shape
        return self.records.reshape(n_slices * n_radii, n_values)

    @cached_property
    def r(self):
        return self.scenario.dr * np.arange(self.records.shape[1])

    @property
    def n_slices(self):
        return self.records.shape[0]

    @property
    def t_last(self):
        return self.t0 + (self.n_slices - 1) * self.dt

    def times(self):
        return self.t0 + self.dt * np.arange(self.n_slices)

    @cached_property
    def foliation(self):
        """Samples of the 25 covered hyperboloids with their energies, one
        jets() query each, built on first use: every third, from the first
        on, is a word record (see energies.word_records).  Every stage
        reads this one list, and it is freed with the history.
        """
        sampler, scn = HistorySampler(self), self.scenario
        s_grid = covered_s_grid(self.t_last, scn.dr)
        is_word = np.arange(s_grid.size) % WORD_STRIDE == 0
        words = iter(word_records(sampler, s_grid[is_word], scn))
        others = iter(hyperboloid_samples(sampler, s_grid[~is_word], scn))
        return [next(words if w else others) for w in is_word]

    @cached_property
    def null_fan(self):
        """Null-ray radiation estimates of the MU_FAN rays, each on its own
        geometry.null_radii (see radiation.radiation_fan), built on first
        use; the radiation and rigidity stages both read this one fan."""
        return radiation_fan(HistorySampler(self), MU_FAN,
                             null_radii(self.t_last, MU_FAN))


# -- time stepping ------------------------------------------------------------

# Cells integrated past the support cone r = t - 1.  The scheme's numerical
# tail ahead of the cone decays cell by cell; with 80 cells the last slices
# of the reference (dr = 0.01) and mid (dr = 0.02) runs stay within 2e-11
# of each field's maximum of the full-grid run, as with 120 or 160 cells
# (round-off); 40 cells leave 4e-7 at the reference grid.
WINDOW_MARGIN = 80

# The state's width is a whole number of _CHUNK cells.
_CHUNK = 256


class _Stage:
    """Views of one RK4 stage buffer of 3F rows for F live fields: the
    fields, their time derivatives and their second time derivatives, F
    rows each in the order of scenario.live_fields.  Rows 0 to 2F-1 are
    the stage's state y and rows F to 3F-1 its time derivative k, each one
    contiguous (2F, width) array, so k shares the first time derivatives
    with y.  u, ut, utt (and v, vt, vtt) are a live field's rows, None for
    a dead one.  The views are taken once, not per call."""

    def __init__(self, buf, live):
        f = len(live)
        self.y, self.k = buf[:2 * f], buf[f:]
        rows = {name: buf[i::f] for i, name in enumerate(live)}
        self.u, self.ut, self.utt = rows.get("u", (None,) * 3)
        self.v, self.vt, self.vtt = rows.get("v", (None,) * 3)
        w = buf[:f].reshape(-1)  # the live fields as one flat row
        self.w_next, self.w_prev, self.w_mid = w[2:], w[:-2], w[1:-1]
        self.lap = buf[2 * f:]  # the Laplacians, then the second derivatives
        self.lap_inner = self.lap.reshape(-1)[1:-1]
        self.w_1, self.w_0, self.lap_0 = buf[:f, 1], buf[:f, 0], self.lap[:, 0]
        if self.u is not None:
            self.utt_inner = self.utt[1:-1]


class _RK4:
    """Classical RK4 on one C-contiguous state of a fixed width, the live
    fields of scn and their time derivatives.

    stages[0]'s state is the run's state, and stages[1:] hold the other
    three stages (see _Stage).  Every buffer is allocated here, once per
    width; a step allocates none.  The coupling constants are the
    scenario's when both fields are live, else 0 (module docstring).
    """

    def __init__(self, width, scn, state):
        live = live_fields(scn)
        f = len(live)
        self.width = width
        buf = np.zeros((4, 3 * f, width))
        self.stages = [_Stage(b, live) for b in buf]
        self.state = self.stages[0].y
        self.state[:, :state.shape[1]] = state[:, :width]
        self._fields = self.state[:f].reshape(-1)  # the live fields, flat
        dr = scn.dr
        self.inv_dr2 = 1.0 / dr**2
        self.b00, self.bd, self.p00, self.pd = (
            (scn.b00, scn.bd, scn.p00, scn.pd) if f == 2 else (0.0,) * 4)
        self.c2 = scn.c**2
        # 1/(dr r) at the interior cells of the flat live rows, 0 where two
        # rows meet
        inv_drr = np.zeros((f, width))
        inv_drr[:, 1:-1] = 1.0 / (dr * (dr * np.arange(1, width - 1)))
        self._inv_drr = inv_drr.reshape(-1)[1:-1]
        self._diff = np.empty(f * width - 2)
        self._tmp = np.empty(f * width - 2)
        self._row = np.empty(width)
        self._denom = np.empty(width)
        self._axis = np.empty(f)
        self._finite = np.empty(f * width // 16, dtype=bool)  # width % 16 == 0

    def rhs(self, st, n):
        """Fill the second-derivative rows of stage st from its state on the
        window of n cells.

        Centered differences, with w[i+1] - w[i-1] shared by the Laplacian
        and d_r; one stencil pass over the flat live rows serves every
        field, and the cells where two rows meet are overwritten after it.
        The axis uses the even ghost (Laplacian 3 w_rr, d_r w = 0).  From
        the window's last cell on, the Laplacian and the bd product are
        zero, the treatment of the full grid's outer edge, so the zeros
        past the window stay +0.0.

        A term whose coupling constant is 0 is skipped (module docstring):
        b00 = 0 saves 3 passes, bd = 0 4, pd = 0 3 (its factor is exactly
        1) and p00 = 0 4 (its denominator is exactly 1, so there is no
        degeneracy guard to trip).  A skipped addend is a signed zero, so
        only the sign of a zero can differ from the plain RK4's sum.
        """
        width, inv_dr2 = self.width, self.inv_dr2
        denom, d, tmp, t = self._denom, self._diff, self._tmp, self._row
        if self.p00:
            np.multiply(st.u, self.p00, out=denom)
            np.subtract(1.0, denom, out=denom)
            # a minimum of 1 - p00 u at or above MIN_DENOM bounds |1 - p00 u|
            # too; only otherwise (or on a nan) is the absolute minimum taken
            if not denom.min() >= MIN_DENOM:
                closest = np.abs(denom, out=t).min()
                if closest < MIN_DENOM:
                    raise SolverError("quasilinear degeneracy: |1 - p00*u| < 1/2 "
                                      f"on the grid (min {closest:.3e})")
        np.subtract(st.w_next, st.w_prev, out=d)
        inner = st.lap_inner
        np.add(st.w_next, st.w_prev, out=inner)
        inner -= np.multiply(st.w_mid, 2.0, out=tmp)
        inner *= inv_dr2
        inner += np.multiply(d, self._inv_drr, out=tmp)
        axis = np.subtract(st.w_1, st.w_0, out=self._axis)
        axis *= 6.0 * inv_dr2
        st.lap_0[...] = axis
        st.lap[:, n - 1:] = 0.0
        # + b00 ut vt + bd u_r v_r, with u_r = (u[i+1] - u[i-1]) / (2 dr)
        if self.b00:
            np.multiply(st.ut, self.b00, out=t)
            t *= st.vt
            st.utt += t
        if self.bd:
            prod = np.multiply(d[:width - 2], 0.25 * self.bd * inv_dr2,
                               out=tmp[:width - 2])
            prod *= d[width:]
            prod[n - 2:] = 0.0
            st.utt_inner += prod
        if st.v is None:
            return
        # v_tt = ((1 + pd u) Lap v - c^2 v) / (1 - p00 u)
        vtt = st.vtt
        if self.pd:
            np.multiply(st.u, self.pd, out=t)
            t += 1.0
            vtt *= t
        vtt -= np.multiply(st.v, self.c2, out=t)
        if self.p00:
            vtt /= denom

    def step(self, n, dt):
        """Advance the state by dt on the window of n cells."""
        s1, s2, s3, s4 = self.stages
        self.rhs(s1, n)
        for st, prev, h in ((s2, s1, 0.5 * dt), (s3, s2, 0.5 * dt), (s4, s3, dt)):
            np.multiply(prev.k, h, out=st.y)
            st.y += self.state
            self.rhs(st, n)
        # state += (k1 + 2 (k2 + k3) + k4) dt/6, summed in that order
        acc = s2.k
        acc += s3.k
        acc *= 2.0
        acc += s1.k
        acc += s4.k
        acc *= dt / 6.0
        self.state += acc

    def finite(self):
        """Whether every 16th cell of the live fields is finite."""
        return np.isfinite(self._fields[::16], out=self._finite).all()


def evolve(scn):
    """Run the scenario to t_end from its eps-scaled data at t = 2,
    returning the full SliceHistory.  Only the live fields are stepped
    (scenario.live_fields); a run with none does no step."""
    history = SliceHistory.empty(scn)
    live = live_fields(scn)
    if not live:
        return history
    dr = scn.dr
    n_grid = int(round(scn.r_max / dr)) + 1  # cells out to r_max
    n_steps, dt = time_steps(scn)
    records, widths = history.records, history.widths

    # the data, which vanish past r = 1, on the radii out to the cap
    r = history.r[:store_cap(scn)]
    state = np.zeros((records.shape[2], r.size))
    for row, name in zip(state, _columns(scn)):
        row[:] = scn.eps * getattr(scn, _DATA[name])(r)
    records[0, :widths[0]] = state[:, :widths[0]].T
    # past r = t - 1 + margin the fields are zero and are left alone
    times = 2.0 + np.arange(1, n_steps + 1) * dt
    windows = np.minimum(n_grid, np.ceil((times - 1.0) / dr).astype(int)
                         + WINDOW_MARGIN + 1)
    rk = None

    report_every = max(1, n_steps // 10)
    for step, (t, n, m) in enumerate(zip(times.tolist(), windows.tolist(),
                                         widths[1:].tolist()), start=1):
        if rk is None or n >= rk.width:
            rk = _RK4(_CHUNK * (n // _CHUNK + 1), scn, state)
            state = rk.state
        rk.step(n, dt)
        if not rk.finite():
            raise SolverError(f"non-finite field values at slice {step} "
                              f"(t = {t:.4f})")
        records[step, :m] = state[:, :m].T
        if step % report_every == 0 and log.isEnabledFor(logging.INFO):
            peak = {name: np.max(np.abs(row)) for name, row in zip(live, state)}
            log.info("evolve: t = %.2f (%d/%d), max|u| = %.3e, max|v| = %.3e",
                     t, step, n_steps, peak.get("u", 0.0), peak.get("v", 0.0))

    return history


# -- interpolation machinery --------------------------------------------------
#
# The sampler gathers, for each query point, a window of 8 radial nodes
# around the point on 4 bracketing time slices: one flat (P, 4, 8) index
# into the history's cells reads the live fields' records with one take,
# and a dead field's window is zeros.
# Negative window indices are mapped through the axis mirror (all four
# base fields are even in r); nodes beyond the stored range are zeroed
# after the take (the fields vanish outside the support cone).
# Working with signed node radii keeps the parity bookkeeping automatic:
# derived odd fields pick up their signs from the mirrored even data.
# Each slice gives centered radial stencils of u, v, ut and vt at the 4
# central nodes, combined by Lagrange interpolation in r and over the 4
# slices in t.  A key with a time derivative of order a >= 1 reads ut or
# vt: its (a - 1)-th time derivative, taken of the 4-slice interpolant, so
# the sampler reads no equation and no coupling constant, only the
# stored fields.  Only the stencils a query's order reads are built.

_WINDOW = 8
_CENTER = slice(2, 6)  # the 4 interpolation nodes inside the window
_SLICES = 4

# the Lagrange basis on the slice nodes x = 0, 1, 2, 3: basis polynomial i
# is sum_p _BASIS[i, p] x^p
_BASIS = np.array([[1.0, -11.0 / 6.0, 1.0, -1.0 / 6.0],
                   [0.0, 3.0, -5.0 / 2.0, 1.0 / 2.0],
                   [0.0, -3.0 / 2.0, 2.0, -1.0 / 2.0],
                   [0.0, 1.0 / 3.0, -1.0 / 2.0, 1.0 / 6.0]])


def _gather(history, ts, rs):
    ts = np.asarray(ts, dtype=float).ravel()
    rs = np.asarray(rs, dtype=float).ravel()
    nt, nr = history.records.shape[:2]
    dt, dr = history.dt, history.scenario.dr
    if nt < _SLICES:
        raise SolverError("history too short for interpolation")
    tmin, tmax = history.t0, history.t_last
    if np.any(ts < tmin - 1e-9 * dt) or np.any(ts > tmax + 1e-9 * dt):
        raise SolverError(
            f"requested times [{ts.min():.4f}, {ts.max():.4f}] outside stored "
            f"range [{tmin:.4f}, {tmax:.4f}]")
    j0 = np.clip(np.floor((ts - tmin) / dt).astype(int) - 1, 0, nt - _SLICES)
    idx_t = j0[:, None] + np.arange(_SLICES)

    i0 = np.floor(rs / dr).astype(int) - 3
    idx_r = i0[:, None] + np.arange(_WINDOW)
    mirrored = np.abs(idx_r)
    beyond = mirrored > nr - 1
    mirrored[beyond] = 0
    flat = (idx_t * nr)[:, :, None] + mirrored[:, None, :]  # (P, 4, 8)

    vals = history.cells.take(flat, axis=0)
    vals[np.broadcast_to(beyond[:, None, :], flat.shape)] = 0.0
    fields = dict(zip(_columns(history.scenario), np.moveaxis(vals, -1, 0)))
    if len(fields) < len(_FIELDS):
        dead = np.zeros(flat.shape)
        fields = {name: fields.get(name, dead) for name in _FIELDS}
    r_nodes = idx_r * dr  # signed radii
    t_nodes = tmin + idx_t * dt
    return fields, r_nodes, t_nodes, ts, rs


def _lagrange_weights(nodes, target):
    """Barycentric-free Lagrange weights, nodes shape (P, k), target (P,)."""
    P, k = nodes.shape
    w = np.ones((P, k))
    for i in range(k):
        for m in range(k):
            if m == i:
                continue
            w[:, i] *= (target - nodes[:, m]) / (nodes[:, i] - nodes[:, m])
    return w


def _time_derivative_weights(x, dt, m):
    """Weights of the m-th time derivative (m >= 1) of the 4-slice Lagrange
    interpolant at x = (t - t_first) / dt, t_first the first slice's time,
    shape (P, 4): the basis' monomials differentiated by the power rule."""
    powers = np.arange(m, _SLICES)
    coef = _BASIS[:, m:] * [math.perm(p, m) for p in powers.tolist()]
    return np.einsum("pq,iq->pi", x[:, None] ** (powers - m), coef) / dt**m


def _radial_stencils(fields, r_nodes, dr, order):
    """Per-slice centered r-derivatives at the 4 central window nodes.

    fields: dict of (P, S, 8) arrays; returns dict[name] of a tuple whose
    b-th entry is the (P, S, 4) array of d_r^b of that field, b <= order
    for u and v and b < order for ut and vt.
    """
    rc = r_nodes[:, None, _CENTER]

    def d0(x):
        return x[..., _CENTER]

    def d1(x):
        return (x[..., 3:7] - x[..., 1:5]) / (2.0 * dr)

    def d2(x):
        return (x[..., 3:7] - 2.0 * x[..., 2:6] + x[..., 1:5]) / dr**2

    def d3(x):
        # odd, so zero on the axis, where the terms of the even u and v
        # cancel only up to rounding
        d = (x[..., 4:8] - 2.0 * x[..., 3:7]
             + 2.0 * x[..., 1:5] - x[..., 0:4]) / (2.0 * dr**3)
        return np.where(rc == 0, 0.0, d)

    stencils = (d0, d1, d2, d3)
    return {name: tuple(d(X) for d in stencils[:order + (name in ("u", "v"))])
            for name, X in fields.items()}


class HistorySampler:
    """Derivative jets of a run at scattered spacetime points.

    Centered radial stencils per slice are combined by Lagrange
    interpolation over four bracketing time slices and four radial nodes.
    d_t^a d_r^b for a >= 1 is the (a - 1)-th time derivative of the
    interpolant of the stored ut or vt: the sampler reads no evolution
    equation.
    """

    def __init__(self, history):
        self.history = history

    def jets(self, ts, rs, order=3):
        if order > 3:
            raise ValueError("jets available up to total order 3")
        history = self.history
        fields, r_nodes, t_nodes, ts, rs = _gather(history, ts, rs)
        if order >= 2:
            # the stencils of orders 2 and 3 read each field often enough
            # to repay a contiguous copy of it
            fields = {name: np.ascontiguousarray(x) for name, x in fields.items()}
        stencils = _radial_stencils(fields, r_nodes, history.scenario.dr, order)
        # wt[m]: the weights of the interpolant's m-th time derivative
        x = (ts - t_nodes[:, 0]) / history.dt
        wt = [_lagrange_weights(t_nodes, ts)]  # (P, 4)
        wt += [_time_derivative_weights(x, history.dt, m) for m in range(1, order)]
        wr = _lagrange_weights(r_nodes[:, _CENTER], rs)  # (P, 4)
        out = {"u": {}, "v": {}}
        for f, jet in out.items():
            for a in range(order + 1):
                name, m = (f, 0) if a == 0 else (f + "t", a - 1)
                for b in range(order + 1 - a):
                    in_t = np.einsum("ps,psn->pn", wt[m], stencils[name][b])
                    jet[(a, b)] = np.einsum("pn,pn->p", wr, in_t)
        return out
