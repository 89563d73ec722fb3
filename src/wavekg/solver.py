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
from .geometry import MU_FAN, WORD_STRIDE, covered_s_grid, null_radii
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


def _rhs(u, ut, v, vt, scn, inv_dr2, inv_drr):
    """Time derivatives of (u, ut, v, vt) on a window of the grid.

    Centered differences, with w[i+1] - w[i-1] shared by the Laplacian
    and d_r; inv_drr holds 1/(dr r) at the window's interior cells.  The
    axis uses the even ghost (Laplacian 3 w_rr, d_r w = 0); the last cell
    gets zero spatial derivatives, as the outer edge of the full grid.
    """
    denom = 1.0 - scn.p00 * u
    if np.min(np.abs(denom)) < MIN_DENOM:
        raise _failure(scn, "quasilinear degeneracy: |1 - p00*u| < 1/2 on the "
                       f"grid (min {np.min(np.abs(denom)):.3e})")
    diff, lap = [], []
    for w in (u, v):
        d = w[2:] - w[:-2]
        lw = np.empty_like(w)
        inner = lw[1:-1]
        np.add(w[2:], w[:-2], out=inner)
        inner -= 2.0 * w[1:-1]
        inner *= inv_dr2
        inner += d * inv_drr
        lw[0] = 6.0 * inv_dr2 * (w[1] - w[0])
        lw[-1] = 0.0
        diff.append(d)
        lap.append(lw)
    dut = lap[0]
    dut += scn.b00 * ut * vt
    # bd u_r v_r with u_r = (u[i+1] - u[i-1]) / (2 dr)
    dut[1:-1] += (0.25 * scn.bd * inv_dr2) * diff[0] * diff[1]
    dvt = (1.0 + scn.pd * u) * lap[1]
    dvt -= scn.c**2 * v
    dvt /= denom
    return ut, dut, vt, dvt


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
    inv_dr2 = 1.0 / dr**2
    inv_drr = 1.0 / (dr * r[1:-1])

    shape = history_shape(scn)
    n_store = shape[1]
    hist = {name: _unbacked_zeros(shape) for name in _FIELDS}

    y = [scn.eps * prof(r) for prof in (scn.u0, scn.u1, scn.v0, scn.v1)]
    for name, arr in zip(_FIELDS, y):
        hist[name][0] = arr[:n_store]

    report_every = max(1, n_steps // 10)
    for step in range(1, n_steps + 1):
        t = 2.0 + step * dt
        # past r = t - 1 + margin the fields are zero and are left alone
        n = min(r.size, int(np.ceil((t - 1.0) / dr)) + _WINDOW_MARGIN + 1)
        yw = [a[:n] for a in y]
        inv_drr_w = inv_drr[:n - 2]
        k1 = _rhs(*yw, scn, inv_dr2, inv_drr_w)
        y2 = [a + 0.5 * dt * k for a, k in zip(yw, k1)]
        k2 = _rhs(*y2, scn, inv_dr2, inv_drr_w)
        y3 = [a + 0.5 * dt * k for a, k in zip(yw, k2)]
        k3 = _rhs(*y3, scn, inv_dr2, inv_drr_w)
        y4 = [a + dt * k for a, k in zip(yw, k3)]
        k4 = _rhs(*y4, scn, inv_dr2, inv_drr_w)
        # in place, in the order u, ut, v, vt: k1 of u is ut itself (and k1
        # of v is vt), so each field is updated before its time derivative
        for a, p, q, s, w in zip(yw, k1, k2, k3, k4):
            a += (dt / 6.0) * (p + 2.0 * (q + s) + w)
        if not np.isfinite(yw[0][::16]).all() or not np.isfinite(yw[2][::16]).all():
            raise _failure(scn, f"non-finite field values at slice {step} "
                           f"(t = {t:.4f})")
        m = min(n, n_store)
        for name, arr in zip(_FIELDS, yw):
            hist[name][step, :m] = arr[:m]
        if step % report_every == 0:
            log.info("evolve: t = %.2f (%d/%d), max|u| = %.3e, max|v| = %.3e",
                     t, step, n_steps,
                     np.max(np.abs(yw[0])), np.max(np.abs(yw[2])))

    return SliceHistory(scenario=scn, t0=2.0, dt=dt, r=r[:n_store].copy(),
                        u=hist["u"], ut=hist["ut"], v=hist["v"], vt=hist["vt"])


# -- interpolation machinery --------------------------------------------------
#
# The sampler gathers, for each query point, a window of 8 radial nodes
# around the point on 4 bracketing time slices.  Negative window
# indices are mapped through the axis mirror (all four base fields are
# even in r); indices beyond the stored range are clamped to zero (the
# fields vanish outside the support cone).  Working with signed node
# radii keeps the parity bookkeeping automatic: derived odd fields pick
# up their signs from the mirrored even data.

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
    valid = mirrored <= nr - 1
    safe = np.where(valid, mirrored, 0)

    fields = {}
    for name in _FIELDS:
        arr = getattr(history, name)
        vals = arr[idx_t[:, :, None], safe[:, None, :]]
        fields[name] = np.where(valid[:, None, :], vals, 0.0)
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
    on_axis = np.abs(rc) < 0.5 * dr
    r_safe = np.where(on_axis, 1.0, rc)

    def d1(x):
        return (x[..., 3:7] - x[..., 1:5]) / (2.0 * dr)

    def d2(x):
        return (x[..., 3:7] - 2.0 * x[..., 2:6] + x[..., 1:5]) / dr**2

    def d3(x):
        return (x[..., 4:8] - 2.0 * x[..., 3:7]
                + 2.0 * x[..., 1:5] - x[..., 0:4]) / (2.0 * dr**3)

    def lap(x1, x2):
        return np.where(on_axis, 3.0 * x2, x2 + 2.0 * x1 / r_safe)

    def lap_r(x1, x2, x3):
        # d_r of the radial Laplacian; odd, so it vanishes on the axis
        return np.where(on_axis, 0.0, x3 + 2.0 * x2 / r_safe - 2.0 * x1 / r_safe**2)

    # each field and its first three centered r-derivatives
    out = {name: (X[..., _CENTER], d1(X), d2(X), d3(X))
           for name, X in fields.items()}

    jets = {}
    for f, dot in (("u", "ut"), ("v", "vt")):
        for b in range(order + 1):
            jets[(f, 0, b)] = out[f][b]
        for b in range(order):
            jets[(f, 1, b)] = out[dot][b]
    if order < 2:
        return jets

    u0, u1, u2, u3 = out["u"]
    ut0, ut1, ut2, _ = out["ut"]
    v0, v1, v2, v3 = out["v"]
    vt0, vt1, vt2, _ = out["vt"]
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

