"""Radial finite-difference evolution of the coupled system.

Unknowns u (wave) and v (Klein-Gordon) on a uniform r-grid, evolved by
classical four-stage Runge-Kutta from data at t = 2:

    d_t^2 u = Lap_r u + b00 (d_t u)(d_t v) + bd (d_r u)(d_r v)
    d_t^2 v = [(1 + pd u) Lap_r v - c^2 v] / (1 - p00 u)

with Lap_r w = w_rr + (2/r) w_r and the axis limit 3 w_rr at r = 0.
The axis uses an even ghost extension.

The data sit in the unit ball at t = 2, so both fields vanish for
r > t - 1.  Each step therefore integrates only the active window
r <= t - 1 + _WINDOW_MARGIN * dr of the step's end time; cells past it
stay exactly zero, and the window's last cell gets zero spatial
derivatives, the treatment the grid's own edge r_max >= t_end gets once
the window reaches it.  The margin, a constant number of cells, keeps
the clipped numerical tail ahead of the cone at round-off level.

The state is one C-contiguous (4, width) array with rows u, v, ut, vt,
its width the window plus at least one cell rounded up to whole chunks
of _CHUNK cells; it is widened by a copy when the window outgrows it.
Each RK4 stage combination and the final update is one operation on the
whole state, one stencil pass over the flat (u, v) pair serves both
Laplacians, and the right-hand side writes into buffers allocated once
per width, so a step allocates no array.  Each cell still sees the
floating-point operations of a plain field-by-field RK4 in the same
order, so the history is bit for bit the one such a loop stores.

Every accepted step is stored out to one radius cap,
r <= t_end - 1 + STORE_MARGIN * dr (scenario.history_shape); the sampler
treats the fields as zero beyond it.  This dense time coverage is what sampling fields and
their derivative jets on hyperboloids t = sqrt(s^2 + r^2) and along
characteristic curves needs.

Each step writes its row only out to its window, so a row's cells past
the cone are never written.  Each stored field lives in a private
anonymous memory mapping advised against huge pages, where the kernel
backs a 4 KiB page only when evolve first writes it; reads of unwritten
pages (the sampler, the health values, the dump) see the kernel's shared
zero page.  So the history is resident only inside the cone, about 0.62
of its nominal bytes on the reference grid, and each mapping is freed
with its array.  (A numpy buffer this large takes huge pages, which
would make the zeros past the cone resident 2 MiB at a time.)
"""

from __future__ import annotations

import logging
import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energies import hyperboloid_samples, word_records
from .geometry import MU_FAN, WORD_STRIDE, axis_ratio, covered_s_grid, null_radii
from .radiation import radiation_fan
from .scenario import (MIN_DENOM, Scenario, ScenarioError, history_shape,
                       stable_cfl, time_steps)

__all__ = [
    "SolverError",
    "SliceHistory",
    "evolve",
    "HistorySampler",
]

log = logging.getLogger(__name__)

_FIELDS = ("u", "ut", "v", "vt")


class SolverError(RuntimeError):
    pass


@dataclass
class SliceHistory:
    """Uniformly spaced time slices of the four fields.

    Arrays have shape (n_slices, n_radii); the stored radial range may be
    shorter than the computational grid (fields vanish beyond the support
    cone r <= t - 1).
    """

    scenario: Scenario
    t0: float
    dt: float
    r: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    v: np.ndarray
    vt: np.ndarray

    @property
    def n_slices(self):
        return self.u.shape[0]

    @property
    def t_last(self):
        return self.t0 + (self.n_slices - 1) * self.dt

    def times(self):
        return self.t0 + self.dt * np.arange(self.n_slices)

    @cached_property
    def foliation(self):
        """Samples of the 25 covered hyperboloids with their energies
        (see energies.hyperboloid_samples), built on first use.

        Every stage that reads the foliation reads this one list, and it
        is freed with the history.
        """
        return hyperboloid_samples(HistorySampler(self),
                                   covered_s_grid(self.t_last, self.scenario.dr),
                                   self.scenario)

    @cached_property
    def words(self):
        """Order-3 word records (see energies.word_records) of every third
        foliation hyperboloid, built on first use and freed with the history."""
        s_grid = covered_s_grid(self.t_last, self.scenario.dr)[::WORD_STRIDE]
        return word_records(HistorySampler(self), s_grid, self.scenario)

    @cached_property
    def null_fan(self):
        """Null-ray radiation estimates of the MU_FAN rays, each on its own
        geometry.null_radii (see radiation.radiation_fan), built on first
        use; the radiation and rigidity stages both read this one fan."""
        return radiation_fan(HistorySampler(self), MU_FAN,
                             null_radii(self.t_last, MU_FAN))


# -- time stepping ------------------------------------------------------------

def _failure(scn, message):
    """SolverError for a run that went bad; when the step is past the RK4
    stability rule (see scenario.stable_cfl), it names the unstable step,
    which is then the likely cause."""
    try:
        limit = stable_cfl(scn)
    except ScenarioError:  # degenerate data
        limit = np.inf
    if scn.cfl > limit:
        message = (f"unstable time step: cfl = {scn.cfl} is past the largest stable "
                   f"cfl {limit:.4g} (scenario.stable_cfl); {message}")
    return SolverError(message)


# Cells integrated past the support cone r = t - 1.  The scheme's numerical
# tail ahead of the cone decays cell by cell; with 80 cells the last slices
# of the reference (dr = 0.01) and mid (dr = 0.02) runs stay within 2e-11
# of each field's maximum of the full-grid run, as with 120 or 160 cells
# (round-off); 40 cells leave 4e-7 at the reference grid.
_WINDOW_MARGIN = 80

# The state's rows; its width is a whole number of _CHUNK cells.
_ROWS = ("u", "v", "ut", "vt")
_CHUNK = 256


class _Stage:
    """Views of one RK4 stage buffer, with the six rows u, v, ut, vt, u_tt,
    v_tt: rows 0-3 are the stage's state y and rows 2-5 its time
    derivative k, each one contiguous (4, width) array, so k shares ut and
    vt with y.  The views are taken once, not per call."""

    def __init__(self, buf):
        self.y, self.k = buf[:4], buf[2:]
        self.u, self.v, self.ut, self.vt, self.utt, self.vtt = buf
        uv = buf[:2].reshape(-1)  # the (u, v) pair as one flat row
        self.uv_next, self.uv_prev, self.uv_mid = uv[2:], uv[:-2], uv[1:-1]
        self.lap = buf[4:]  # Lap u and Lap v, then u_tt and v_tt
        self.lap_inner = buf[4:].reshape(-1)[1:-1]
        self.uv_1, self.uv_0, self.lap_0 = buf[:2, 1], buf[:2, 0], buf[4:, 0]
        self.utt_inner = buf[4, 1:-1]


class _RK4:
    """Classical RK4 on one C-contiguous state of a fixed width.

    stages[0]'s state is the run's state, and stages[1:] hold the other
    three stages (see _Stage).  Every buffer is allocated here, once per
    width; a step allocates none.
    """

    def __init__(self, width, dr, state):
        self.width = width
        buf = np.zeros((4, 6, width))
        self.stages = [_Stage(b) for b in buf]
        self.state = self.stages[0].y
        self.state[:, :state.shape[1]] = state[:, :width]
        self.inv_dr2 = 1.0 / dr**2
        # 1/(dr r) at the interior cells of the flat (u, v) pair, 0 at the
        # junction of the two rows
        inv_drr = np.zeros((2, width))
        inv_drr[:, 1:-1] = 1.0 / (dr * (dr * np.arange(1, width - 1)))
        self._inv_drr = inv_drr.reshape(-1)[1:-1]
        self._diff = np.empty(2 * width - 2)
        self._tmp = np.empty(2 * width - 2)
        self._denom = np.empty(width)
        self._axis = np.empty(2)
        self._finite = np.empty(width // 8, dtype=bool)  # width % 16 == 0

    def rhs(self, st, n, scn):
        """Fill rows u_tt, v_tt of stage st from its state on the window
        of n cells.

        Centered differences, with w[i+1] - w[i-1] shared by the Laplacian
        and d_r; one stencil pass over the flat (u, v) pair serves both
        fields, and the two cells where the rows meet are overwritten
        after it.  The axis uses the even ghost (Laplacian 3 w_rr,
        d_r w = 0).  From the window's last cell on, the Laplacian and the
        bd product are zero, the treatment of the full grid's outer edge,
        so the zeros past the window stay +0.0.
        """
        width, inv_dr2 = self.width, self.inv_dr2
        denom, d, tmp = self._denom, self._diff, self._tmp
        np.multiply(st.u, scn.p00, out=denom)
        np.subtract(1.0, denom, out=denom)
        # |1 - p00 u| >= MIN_DENOM everywhere when 1 - p00 u does
        if not denom.min() >= MIN_DENOM:
            closest = np.abs(denom, out=tmp[:width]).min()
            if closest < MIN_DENOM:
                raise _failure(scn, "quasilinear degeneracy: |1 - p00*u| < 1/2 on "
                               f"the grid (min {closest:.3e})")
        np.subtract(st.uv_next, st.uv_prev, out=d)
        inner = st.lap_inner
        np.add(st.uv_next, st.uv_prev, out=inner)
        inner -= np.multiply(st.uv_mid, 2.0, out=tmp)
        inner *= inv_dr2
        inner += np.multiply(d, self._inv_drr, out=tmp)
        axis = np.subtract(st.uv_1, st.uv_0, out=self._axis)
        axis *= 6.0 * inv_dr2
        st.lap_0[...] = axis
        st.lap[:, n - 1:] = 0.0
        # + b00 ut vt + bd u_r v_r, with u_r = (u[i+1] - u[i-1]) / (2 dr)
        t = tmp[:width]
        np.multiply(st.ut, scn.b00, out=t)
        t *= st.vt
        st.utt += t
        prod = np.multiply(d[:width - 2], 0.25 * scn.bd * inv_dr2, out=tmp[:width - 2])
        prod *= d[width:]
        prod[n - 2:] = 0.0
        st.utt_inner += prod
        # v_tt = ((1 + pd u) Lap v - c^2 v) / (1 - p00 u)
        vtt = st.vtt
        np.multiply(st.u, scn.pd, out=t)
        t += 1.0
        vtt *= t
        vtt -= np.multiply(st.v, scn.c**2, out=t)
        vtt /= denom

    def step(self, n, dt, scn):
        """Advance the state by dt on the window of n cells."""
        s1, s2, s3, s4 = self.stages
        self.rhs(s1, n, scn)
        for st, prev, h in ((s2, s1, 0.5 * dt), (s3, s2, 0.5 * dt), (s4, s3, dt)):
            np.multiply(prev.k, h, out=st.y)
            st.y += self.state
            self.rhs(st, n, scn)
        # state += (k1 + 2 (k2 + k3) + k4) dt/6, summed in that order
        acc = s2.k
        acc += s3.k
        acc *= 2.0
        acc += s1.k
        acc += s4.k
        acc *= dt / 6.0
        self.state += acc

    def finite(self):
        """Whether every 16th cell of u and v is finite."""
        uv = self.state[:2].reshape(-1)
        return np.isfinite(uv[::16], out=self._finite).all()


def _unbacked_zeros(shape):
    """Zero float64 array whose pages take memory only once written."""
    buf = mmap.mmap(-1, 8 * shape[0] * shape[1], flags=mmap.MAP_PRIVATE)
    # under THP "always" one write would otherwise back 2 MiB at once
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def evolve(scn):
    """Run the scenario to t_end from its eps-scaled data at t = 2,
    returning the full SliceHistory."""
    dr = scn.dr
    r = dr * np.arange(int(round(scn.r_max / dr)) + 1)
    n_steps, dt = time_steps(scn)

    shape = history_shape(scn)
    n_store = shape[1]
    hist = {name: _unbacked_zeros(shape) for name in _FIELDS}

    data = {name: scn.eps * prof(r)
            for name, prof in zip(_FIELDS, (scn.u0, scn.u1, scn.v0, scn.v1))}
    for name, arr in data.items():
        hist[name][0] = arr[:n_store]
    state = np.array([data[name] for name in _ROWS])
    rk = None

    report_every = max(1, n_steps // 10)
    for step in range(1, n_steps + 1):
        t = 2.0 + step * dt
        # past r = t - 1 + margin the fields are zero and are left alone
        n = min(r.size, int(np.ceil((t - 1.0) / dr)) + _WINDOW_MARGIN + 1)
        if rk is None or n >= rk.width:
            rk = _RK4(_CHUNK * (n // _CHUNK + 1), dr, state)
            state = rk.state
        rk.step(n, dt, scn)
        if not rk.finite():
            raise _failure(scn, f"non-finite field values at slice {step} "
                           f"(t = {t:.4f})")
        m = min(n, n_store)
        for name, row in zip(_ROWS, state):
            hist[name][step, :m] = row[:m]
        if step % report_every == 0:
            log.info("evolve: t = %.2f (%d/%d), max|u| = %.3e, max|v| = %.3e",
                     t, step, n_steps,
                     np.max(np.abs(state[0])), np.max(np.abs(state[1])))

    return SliceHistory(scenario=scn, t0=2.0, dt=dt, r=r[:n_store].copy(),
                        u=hist["u"], ut=hist["ut"], v=hist["v"], vt=hist["vt"])


# -- interpolation machinery --------------------------------------------------
#
# The sampler gathers, for each query point, a window of 8 radial nodes
# around the point on 4 bracketing time slices: one flat (P, 4, 8) index
# into the row-major history serves all four fields, each read with one
# take.  Negative window indices are mapped through the axis mirror (all
# four base fields are even in r); nodes beyond the stored range are
# zeroed after the take (the fields vanish outside the support cone).
# Working with signed node radii keeps the parity bookkeeping automatic:
# derived odd fields pick up their signs from the mirrored even data.
# Only the stencils a query's order reads are built.

_WINDOW = 8
_CENTER = slice(2, 6)  # the 4 interpolation nodes inside the window
_SLICES = 4


def _gather(history, ts, rs):
    ts = np.asarray(ts, dtype=float).ravel()
    rs = np.asarray(rs, dtype=float).ravel()
    nt, nr = history.u.shape
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

    fields = {}
    for name in _FIELDS:
        vals = getattr(history, name).reshape(-1).take(flat)
        np.copyto(vals, 0.0, where=beyond[:, None, :])
        fields[name] = vals
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


def _slice_derived(fields, r_nodes, scn, order):
    """Per-slice derived jets at the 4 central window nodes.

    fields: dict of (P, S, 8) arrays; returns dict[(field, a, b)] of
    (P, S, 4) arrays with a + b <= order, time derivatives eliminated
    through the evolution equations.
    """
    dr = scn.dr
    c2 = scn.c**2
    rc = r_nodes[:, None, _CENTER]

    def d0(x):
        return x[..., _CENTER]

    def d1(x):
        return (x[..., 3:7] - x[..., 1:5]) / (2.0 * dr)

    def d2(x):
        return (x[..., 3:7] - 2.0 * x[..., 2:6] + x[..., 1:5]) / dr**2

    def d3(x):
        return (x[..., 4:8] - 2.0 * x[..., 3:7]
                + 2.0 * x[..., 1:5] - x[..., 0:4]) / (2.0 * dr**3)

    def lap(x1, x2):
        return x2 + axis_ratio(2.0 * x1, rc, 2.0 * x2)

    def lap_r(x1, x2, x3):
        # d_r of the radial Laplacian; odd, so it vanishes on the axis, where
        # d3 does only up to rounding: 2 x2/r reads -x3 there, so the sum is 0
        return x3 + axis_ratio(2.0 * x2, rc, -x3) - axis_ratio(2.0 * x1, rc**2, 0.0)

    # each field and the centered r-derivatives the order reads: u and v
    # to the order, ut and vt to one less
    stencils = (d0, d1, d2, d3)
    out = {name: tuple(d(X) for d in stencils[:order + (name in ("u", "v"))])
           for name, X in fields.items()}

    jets = {}
    for f, dot in (("u", "ut"), ("v", "vt")):
        for b in range(order + 1):
            jets[(f, 0, b)] = out[f][b]
        for b in range(order):
            jets[(f, 1, b)] = out[dot][b]
    if order < 2:
        return jets

    u0, u1, u2 = out["u"][:3]
    ut0, ut1 = out["ut"][:2]
    v0, v1, v2 = out["v"][:3]
    vt0, vt1 = out["vt"][:2]
    lap_u = lap(u1, u2)
    lap_v = lap(v1, v2)
    denom = 1.0 - scn.p00 * u0

    utt = lap_u + scn.b00 * ut0 * vt0 + scn.bd * u1 * v1
    numer = (1.0 + scn.pd * u0) * lap_v - c2 * v0
    vtt = numer / denom
    jets[("u", 2, 0)] = utt
    jets[("v", 2, 0)] = vtt
    if order < 3:
        return jets

    u3, ut2, v3, vt2 = out["u"][3], out["ut"][2], out["v"][3], out["vt"][2]
    lap_ut = lap(ut1, ut2)
    lap_vt = lap(vt1, vt2)
    uttr = lap_r(u1, u2, u3) + scn.b00 * (ut1 * vt0 + ut0 * vt1) \
        + scn.bd * (u2 * v1 + u1 * v2)
    numer_r = scn.pd * u1 * lap_v + (1.0 + scn.pd * u0) * lap_r(v1, v2, v3) - c2 * v1
    vttr = numer_r / denom + numer * scn.p00 * u1 / denom**2
    uttt = lap_ut + scn.b00 * (utt * vt0 + ut0 * vtt) \
        + scn.bd * (ut1 * v1 + u1 * vt1)
    vttt = (scn.pd * ut0 * lap_v + (1.0 + scn.pd * u0) * lap_vt
            - c2 * vt0 + scn.p00 * ut0 * vtt) / denom
    jets[("u", 2, 1)] = uttr
    jets[("v", 2, 1)] = vttr
    jets[("u", 3, 0)] = uttt
    jets[("v", 3, 0)] = vttt
    return jets


class HistorySampler:
    """Derivative jets of a run at scattered spacetime points.

    Four bracketing time slices are combined by Lagrange interpolation;
    spatial derivatives come from centered stencils per slice, with time
    derivatives of order >= 2 eliminated through the evolution equations
    rather than differenced.
    """

    def __init__(self, history):
        self.history = history

    def jets(self, ts, rs, order=3):
        if order > 3:
            raise ValueError("jets available up to total order 3")
        fields, r_nodes, t_nodes, ts, rs = _gather(self.history, ts, rs)
        derived = _slice_derived(fields, r_nodes, self.history.scenario, order)
        wt = _lagrange_weights(t_nodes, ts)  # (P, 4)
        rc = r_nodes[:, _CENTER]
        wr = _lagrange_weights(rc, rs)  # (P, 4)
        out = {"u": {}, "v": {}}
        for (f, a, b), arr in derived.items():
            in_t = np.einsum("ps,psn->pn", wt, arr)
            out[f][(a, b)] = np.einsum("pn,pn->p", wr, in_t)
        return out

