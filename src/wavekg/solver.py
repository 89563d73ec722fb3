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
reads zeros past a slice's width.  The stages read at most 20 cells
past a slice's cone, so the cells the window integrates past the store
change no number they compute.  This dense time coverage is what
sampling fields and their derivative jets on hyperboloids
t = sqrt(s^2 + r^2) and along characteristic curves needs.

The history stores the live fields alone, not their time derivatives:
one C-contiguous (n_slices, n_radii, F) record array, the F values of
each cell side by side, the state's row order; on a coupled run:

    records[k] = | u v | u v | ... | u v | 0 0 | ...
                   cell 0              widths[k]-1 (zeros past it)

u_t and v_t are read as time differences of the stored u and v by one
rule, which the sampler and SliceHistory.ut and .vt share: the data
eps u1 and eps v1 on slice 0 (exact), (x[k+1] - x[k-1]) / (2 dt) on an
interior slice, and on the last slice K the same centred difference with
x[K+1] taken from the cubic through the last four slices,
4 x[K] - 6 x[K-1] + 4 x[K-2] - x[K-3].  That keeps the last slice's error
the centred one's to O(dt^3).  The three-point one-sided difference,
whose error is twice the centred one's and of the other sign, made the
d_t of the interpolant of u_t first order in the last window: the mid
run's transport residual read 4.2e-5 there, against 3.5e-6.

n_radii is the cap rounded up so that each row fills whole 4 KiB pages
(scenario.history_shape), so every row starts on a page boundary.  A
dead field is not stored: SliceHistory reads it as read-only zeros.
Step k writes its row only out to widths[k] cells, with one copy of the
state's transpose, so a row's cells past them are never written.  The
records live in one private anonymous memory mapping advised against
huge pages (_unbacked_zeros), where the kernel backs a 4 KiB page
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
from .scenario import (MIN_DENOM, Scenario, history_shape, live_fields,
                       store_cap, store_widths, time_steps)

__all__ = [
    "SolverError",
    "SliceHistory",
    "evolve",
    "HistorySampler",
]

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    pass


def _unbacked_zeros(shape):
    """A float64 array of the shape, all +0.0, in one private anonymous
    mapping advised against huge pages, whose pages take memory only once
    written."""
    if not math.prod(shape):
        return np.zeros(shape)  # no bytes to map
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    # under THP "always" one write would otherwise back 2 MiB at once
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


# The time-difference rule for u_t and v_t (module docstring); the sampler
# and SliceHistory.ut and .vt both apply these two, so they agree bit for bit.
def _centred(ahead, behind, dt, out=None):
    out = np.subtract(ahead, behind, out=out)
    out /= 2.0 * dt
    return out


def _last_rate(last, before, second, third, dt):
    # the centred difference, its missing neighbour the cubic extrapolation
    return _centred(4.0 * last - 6.0 * before + 4.0 * second - third, before, dt)


@dataclass
class SliceHistory:
    """Uniformly spaced time slices of the four fields.

    records has shape (n_slices, n_radii, F) for the run's F live fields
    (scenario.live_fields): the values of each cell side by side (u, v on
    a coupled run).  The grid and the store are the scenario's: slice k
    lies at t0 + k dt, with t0 = 2 the data time and dt the step of
    time_steps, column i at r = i dr, and widths[k] is the number of cells
    the run stores in slice k (scenario.store_widths), past which its
    records are +0.0.  The stored radial range may be shorter than the
    computational grid (fields vanish beyond the support cone r <= t - 1).
    u and v are (n_slices, n_radii) views: of records for a live field,
    read-only zeros for a dead one.

    ut and vt are their time derivatives by the rule the sampler reads
    (_rates), derived on read.  The history holds the last one read, so a
    write into it is seen by the next read of the same name, as when the
    records stored it; reading the other releases it first, so a history
    holds at most one.  An attribute set on the history overrides either.
    """

    scenario: Scenario
    records: np.ndarray
    u: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    t0 = 2.0  # a class constant, not a field

    def __post_init__(self):
        stored = dict(zip(live_fields(self.scenario), np.moveaxis(self.records, -1, 0)))
        dead = np.broadcast_to(0.0, self.records.shape[:2])
        self.u, self.v = (stored.get(name, dead) for name in ("u", "v"))

    def __getattr__(self, name):
        # only attributes not found otherwise: ut and vt, unless held or set
        if name not in ("ut", "vt"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        for held in ("ut", "vt"):
            self.__dict__.pop(held, None)
        rate = self.__dict__[name] = self._rates(name[0])
        return rate

    @classmethod
    def empty(cls, scn):
        """The history of scn before its run: records of history_shape and
        the live fields, all +0.0, whose pages take memory only once
        written (_unbacked_zeros)."""
        return cls(scn, _unbacked_zeros((*history_shape(scn), len(live_fields(scn)))))

    @cached_property
    def data_rates(self):
        """Slice 0's u_t and v_t of the live fields at every radius,
        (n_radii, F): the data eps u1 and eps v1, known exactly."""
        scn, live = self.scenario, live_fields(self.scenario)
        rates = np.zeros((self.r.size, len(live)))
        for col, name in enumerate(live):
            rates[:, col] = scn.eps * getattr(scn, name + "1")(self.r)
        return rates

    def _rates(self, name):
        """The time derivative of the stored field name ("u" or "v") at
        every cell, by the time-difference rule, in unbacked zeros written
        only where the rule reads stored cells: slice k out to widths[k + 1],
        the last slice out to its own width.  Read-only zeros for a dead
        field."""
        live = live_fields(self.scenario)
        if name not in live:
            return np.broadcast_to(0.0, self.records.shape[:2])
        if self.n_slices < _SLICES:
            raise SolverError("history too short for time derivatives")
        x = self.records[..., live.index(name)]
        rate, dt, widths = _unbacked_zeros(x.shape), self.dt, self.widths.tolist()
        rate[0] = self.data_rates[:, live.index(name)]
        last = self.n_slices - 1
        for k in range(1, last):
            w = widths[k + 1]
            _centred(x[k + 1, :w], x[k - 1, :w], dt, rate[k, :w])
        w = widths[last]
        rate[last, :w] = _last_rate(x[last, :w], x[last - 1, :w], x[last - 2, :w],
                                    x[last - 3, :w], dt)
        return rate

    @cached_property
    def dt(self):
        return time_steps(self.scenario)[1]

    @cached_property
    def widths(self):
        return store_widths(self.scenario)

    @property
    def cells(self):
        """records as one (n_slices * n_radii, F) array of cells, the
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

    # the data, which vanish past r = 1, on the radii out to the cap: the
    # live fields, then their time derivatives
    r = history.r[:store_cap(scn)]
    f = len(live)
    state = np.zeros((2 * f, r.size))
    for row, data in zip(state, [name + "0" for name in live] + [name + "1" for name in live]):
        row[:] = scn.eps * getattr(scn, data)(r)
    records[0, :widths[0]] = state[:f, :widths[0]].T
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
        records[step, :m] = state[:f, :m].T
        if step % report_every == 0 and log.isEnabledFor(logging.INFO):
            peak = {name: np.max(np.abs(row)) for name, row in zip(live, state)}
            log.info("evolve: t = %.2f (%d/%d), max|u| = %.3e, max|v| = %.3e",
                     t, step, n_steps, peak.get("u", 0.0), peak.get("v", 0.0))

    return history


# -- interpolation machinery --------------------------------------------------
#
# The sampler gathers, for each query point, a window of radial nodes
# around the point on 4 bracketing time slices, and for a time derivative
# one slice more on each side: one flat (P, 4 or 6, nodes) index into the
# history's cells reads the live fields' records with one take, and a dead
# field's window is zeros.  The window holds the 4 interpolation nodes and
# as many more on each side as the query's order reads (_NODES).  The 6
# slices give u_t and v_t on the 4 by the time-difference rule
# (_window_rates).
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

_SLICES = 4
# radial nodes a query of each order reads: the 4 interpolation nodes, one
# more on each side for d_r and d_r^2, two for d_r^3
_NODES = (4, 6, 6, 8)

# the Lagrange basis on the slice nodes x = 0, 1, 2, 3: basis polynomial i
# is sum_p _BASIS[i, p] x^p
_BASIS = np.array([[1.0, -11.0 / 6.0, 1.0, -1.0 / 6.0],
                   [0.0, 3.0, -5.0 / 2.0, 1.0 / 2.0],
                   [0.0, -3.0 / 2.0, 2.0, -1.0 / 2.0],
                   [0.0, 1.0 / 3.0, -1.0 / 2.0, 1.0 / 6.0]])


def _gather(history, ts, rs, order):
    """Each field's window, (P, 4, nodes) for u, v and with order >= 1 ut
    and vt, the radii of the 4 interpolation nodes (signed), the window's
    slice times, and the query points."""
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
    pad = 1 if order else 0  # the slices a time difference reads past the window
    rows = np.clip(j0[:, None] + np.arange(-pad, _SLICES + pad), 0, nt - 1)

    side = (_NODES[order] - 4) // 2
    idx_r = np.floor(rs / dr).astype(int)[:, None] + np.arange(-1 - side, 3 + side)
    mirrored = np.abs(idx_r)
    beyond = mirrored > nr - 1
    mirrored[beyond] = 0
    flat = (rows * nr)[:, :, None] + mirrored[:, None, :]

    # (F, P, 4 or 6, nodes): each live field's window, a view of the take
    vals = np.moveaxis(history.cells.take(flat, axis=0), -1, 0)
    edge = np.flatnonzero(beyond[:, -1])  # windows that run past the stored radii
    if edge.size:
        vals[:, edge] = np.where(beyond[edge, None, :], 0.0, vals[:, edge])
    live = live_fields(history.scenario)
    fields = {}
    if order:
        rates = _window_rates(history, vals, j0, mirrored, beyond, order)
        fields.update(zip([name + "t" for name in live], rates))
        vals = vals[:, :, 1:-1]
    if order >= 2:
        # the stencils of orders 2 and 3 read each window often enough to
        # repay a contiguous copy
        vals = np.ascontiguousarray(vals)
    fields.update(zip(live, vals))
    names = ("u", "v", "ut", "vt") if order else ("u", "v")
    if len(fields) < len(names):
        dead = np.zeros((ts.size, _SLICES, _NODES[order]))
        fields = {name: fields.get(name, dead) for name in names}
    r_center = idx_r[:, side:side + 4] * dr
    t_nodes = tmin + (j0[:, None] + np.arange(_SLICES)) * dt
    return fields, r_center, t_nodes, ts, rs


def _window_rates(history, x, j0, mirrored, beyond, order):
    """u_t and v_t of the live fields by the time-difference rule on the
    4 window slices, (F, P, 4, nodes), from their values x on the 6 slices
    around them, (F, P, 6, ...): the data's where the window's first slice
    is slice 0, the last slice's form where its last is the history's
    last.  Their stencils are one order lower than u's and v's, so they
    take the _NODES[order - 1] central nodes of the window."""
    nt, dt = history.n_slices, history.dt
    side = (x.shape[-1] - _NODES[order - 1]) // 2
    nodes = slice(side, x.shape[-1] - side)
    x = x[..., nodes]
    rate = _centred(x[:, :, 2:], x[:, :, :-2], dt,
                    np.empty((*x.shape[:2], _SLICES, x.shape[3])))
    first = np.flatnonzero(j0 == 0)
    if first.size:
        data = history.data_rates[mirrored[first, nodes]]  # (points, nodes, F)
        data[beyond[first, nodes]] = 0.0
        rate[:, first, 0] = np.moveaxis(data, -1, 0)
    last = np.flatnonzero(j0 == nt - _SLICES)
    if last.size:
        y = x[:, last]
        rate[:, last, -1] = _last_rate(y[:, :, -2], y[:, :, -3], y[:, :, -4], y[:, :, -5],
                                       dt)
    return rate


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


def _radial_stencils(fields, r_center, dr, order):
    """Per-slice centered r-derivatives at the 4 central window nodes.

    fields: dict of (P, S, nodes) windows; returns dict[name] of a tuple
    whose b-th entry is the (P, S, 4) array of d_r^b of that field,
    b <= order for u and v and b < order for ut and vt.
    """
    rc = r_center[:, None, :]

    def at(x, shift):
        # the 4 central nodes of the window, moved out by shift nodes
        lo = (x.shape[-1] - 4) // 2 + shift
        return x[..., lo:lo + 4]

    def d0(x):
        return at(x, 0)

    def d1(x):
        return (at(x, 1) - at(x, -1)) / (2.0 * dr)

    def d2(x):
        return (at(x, 1) - 2.0 * at(x, 0) + at(x, -1)) / dr**2

    def d3(x):
        # odd, so zero on the axis, where the terms of the even u and v
        # cancel only up to rounding
        d = (at(x, 2) - 2.0 * at(x, 1) + 2.0 * at(x, -1) - at(x, -2)) / (2.0 * dr**3)
        return np.where(rc == 0, 0.0, d)

    stencils = (d0, d1, d2, d3)
    return {name: tuple(d(X) for d in stencils[:order + (name in ("u", "v"))])
            for name, X in fields.items()}


class HistorySampler:
    """Derivative jets of a run at scattered spacetime points.

    Centered radial stencils per slice are combined by Lagrange
    interpolation over four bracketing time slices and four radial nodes.
    d_t^a d_r^b for a >= 1 is the (a - 1)-th time derivative of the
    interpolant of ut or vt, the time differences of the stored u and v
    (module docstring): the sampler reads no evolution equation.
    """

    def __init__(self, history):
        self.history = history

    def jets(self, ts, rs, order=3):
        if order > 3:
            raise ValueError("jets available up to total order 3")
        history = self.history
        fields, r_center, t_nodes, ts, rs = _gather(history, ts, rs, order)
        stencils = _radial_stencils(fields, r_center, history.scenario.dr, order)
        # wt[m]: the weights of the interpolant's m-th time derivative
        x = (ts - t_nodes[:, 0]) / history.dt
        wt = [_lagrange_weights(t_nodes, ts)]  # (P, 4)
        wt += [_time_derivative_weights(x, history.dt, m) for m in range(1, order)]
        wr = _lagrange_weights(r_center, rs)  # (P, 4)
        out = {"u": {}, "v": {}}
        for f, jet in out.items():
            for a in range(order + 1):
                name, m = (f, 0) if a == 0 else (f + "t", a - 1)
                for b in range(order + 1 - a):
                    in_t = np.einsum("ps,psn->pn", wt[m], stencils[name][b])
                    jet[(a, b)] = np.einsum("pn,pn->p", wr, in_t)
        return out
