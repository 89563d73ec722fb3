"""Reduction of the Klein-Gordon equation to an oscillator along rays.

Along the rays lambda -> (lambda t/s, lambda x/s) the generator
L = (s/t) d_t + (x^a/s) underbar-d_a is d/d(lambda), and w = s^(3/2) v
satisfies

    w'' + c^2 (1 - Hbar) w = s^(3/2) S2[v] + s^(3/2) f / (1 + Hbar)

with Hbar = -(t/s)^2 (p00 + pd (r/t)^2) u the scalar metric perturbation
induced by the coupling (zero for free runs) and S2 the explicit
lower-order remainder, specialized here to radial symmetry.  The module
verifies this identity numerically, integrates the model oscillator
v'' + c^2 (1 + q) v = f, and checks the diagonalization bound that the
sharp decay estimate rests on.

The oscillator is integrated for a whole batch of cases at once: one
Dormand-Prince 5(4) loop advances every case in lock step, and each case
keeps its own step size and error control, the controller scipy's RK45
applies to a single case.  Trajectories come back as (cases, n_dense)
arrays on one shared grid, and the lemma's constants are computed per
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import good_scalars

__all__ = [
    "OscillatorProblem",
    "integrate_oscillator",
    "appendix_matrices",
    "check_ode_lemma",
    "ray_points",
    "reduction_residual",
    "sharp_decay_check",
]


@dataclass
class OscillatorProblem:
    """A batch of oscillators v'' + c^2 (1 + q(s)) v = f(s) on one span.

    c, v0 and v0p hold one value per case; a scalar is a batch of one.
    q, f and qp (the derivative of q) take s of shape (cases, m), the
    case on axis 0, and return values that broadcast to it.  |q| <= 1/2
    is required.
    """

    c: np.ndarray
    q: callable
    f: callable
    v0: np.ndarray
    v0p: np.ndarray
    span: tuple
    qp: callable

    def __post_init__(self):
        per_case = np.broadcast_arrays(np.atleast_1d(self.c), self.v0, self.v0p)
        self.c, self.v0, self.v0p = (np.array(x, dtype=float) for x in per_case)


def _on_grid(values, s):
    """A coefficient evaluated on the array s, constants broadcast to it."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == s.shape else np.broadcast_to(values, s.shape)


# Dormand-Prince 5(4): scipy's RK45 tableau, error weights E and quartic
# dense-output matrix P, and its step-size controller constants.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5


def _rms(x):
    """Per-case RMS over the two components of x, shaped (2, cases)."""
    return np.sqrt(x[0] ** 2 + x[1] ** 2) / 2 ** 0.5


def integrate_oscillator(problem, rtol=1e-10, atol=1e-13, n_dense=20000):
    """Integrate every case; returns s (n_dense,) and v, vp (cases, n_dense).

    RK45's controller applied per case: each case picks its first step as
    scipy's select_initial_step does, and keeps its own s, step size and
    accept/reject state, with the error norm the RMS over its own (v, v')
    scaled by atol + max(|y|, |y_new|) rtol.  All cases advance together,
    one step attempt per case per iteration, until each reaches the end of
    the span.  Each accepted step evaluates RK45's quartic interpolant at
    the points of the shared grid linspace(s0, s1, n_dense) it covers.

    Raises ValueError if |q| > 1/2 at any stage point of any case, and
    RuntimeError if a case's step falls below scipy's minimum step.
    """
    s0, s1 = map(float, problem.span)
    if not s1 > s0:
        raise ValueError(f"oscillator span must increase, got {problem.span}")
    n = problem.c.size
    c2 = problem.c ** 2

    def rhs(t, y, out):
        s = t[:, None]
        q = _on_grid(problem.q(s), s)[:, 0]
        bad = np.flatnonzero(np.abs(q) > 0.5)
        if bad.size:
            i = bad[0]
            raise ValueError(f"oscillator coefficient |q({t[i]:.4f})| = "
                             f"{abs(q[i]):.3f} > 1/2 (case {i})")
        out[0] = y[1]
        out[1] = -c2 * (1.0 + q) * y[0] + _on_grid(problem.f(s), s)[:, 0]
        return out

    t = np.full(n, s0)
    y = np.stack([problem.v0, problem.v0p])
    f = rhs(t, y, np.empty((2, n)))

    # the first step, as scipy's select_initial_step
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, s1 - s0)
    f1 = rhs(t + h0, y + h0 * f, np.empty((2, n)))
    d2 = _rms((f1 - f) / scale) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1 / 5))
    h_abs = np.minimum(np.minimum(100 * h0, h1), s1 - s0)

    s = np.linspace(s0, s1, n_dense)
    v = np.empty((n, n_dense))
    vp = np.empty_like(v)
    v[:, 0], vp[:, 0] = y  # the interpolant at a step's start is its y_old
    done = np.zeros(n, dtype=bool)
    rejected = np.zeros(n, dtype=bool)  # the current step was rejected before
    K = np.empty((7, 2, n))
    K_flat = K.reshape(7, 2 * n)  # stage weights combine rows of this view
    while not done.all():
        active = ~done
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        too_small = np.flatnonzero(active & (h_abs < min_step))
        if too_small.size:
            i = too_small[0]
            raise RuntimeError(f"oscillator integration failed: step size "
                               f"below the spacing of floats at s = {t[i]} "
                               f"(case {i})")
        t_new = np.where(active, np.minimum(t + h_abs, s1), t)
        h = t_new - t
        h_abs = np.where(active, h, h_abs)

        K[0] = f
        for i in range(1, 6):
            dy = (_A[i, :i] @ K_flat[:i]).reshape(2, n) * h
            rhs(t + _C[i] * h, y + dy, K[i])
        y_new = y + h * (_B @ K_flat[:6]).reshape(2, n)
        rhs(t + h, y_new, K[6])

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms((_E @ K_flat).reshape(2, n) * h / scale)
        with np.errstate(divide="ignore"):
            factor = _SAFETY * error_norm ** _ERROR_EXPONENT
        accept = active & (error_norm < 1)
        grow = np.where(error_norm == 0, _MAX_FACTOR,
                        np.minimum(_MAX_FACTOR, factor))
        grow = np.where(rejected, np.minimum(1, grow), grow)
        shrink = np.maximum(_MIN_FACTOR, factor)
        h_abs = np.where(accept, h_abs * grow,
                         np.where(active, h_abs * shrink, h_abs))
        rejected = active & ~accept

        acc = np.flatnonzero(accept)
        if acc.size:
            # the grid points in (t, t_new] of each accepted step, the
            # step scipy's OdeSolution evaluates them on, through RK45's
            # quartic interpolant in Horner form
            first = np.searchsorted(s, t[acc], side="right")
            count = np.searchsorted(s, t_new[acc], side="right") - first
            offset = np.repeat(first - np.cumsum(count) + count, count)
            cols = np.arange(offset.size) + offset
            rows = np.repeat(acc, count)
            h_pt = np.repeat(h[acc], count)
            x = (s[cols] - np.repeat(t[acc], count)) / h_pt
            Q = np.repeat(np.tensordot(_P, K[:, :, acc], axes=(0, 0)), count,
                          axis=-1)
            poly = Q[3]
            for k in (2, 1, 0):
                poly = poly * x + Q[k]
            v[rows, cols], vp[rows, cols] = \
                h_pt * (x * poly) + np.repeat(y[:, acc], count, axis=1)

            t[acc] = t_new[acc]
            y[:, acc] = y_new[:, acc]
            f[:, acc] = K[6][:, acc]
            done[acc] = t_new[acc] >= s1

    return {"s": s, "v": v, "vp": vp}


def _mat2(a, b, c, d):
    """2x2 matrices [[a, b], [c, d]] over the entries' broadcast shape."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)


def appendix_matrices(c, q):
    """Diagonalization of the first-order oscillator system.

    With V = (v', v) the system reads V' = A V + F,
    A = [[0, -c^2(1+q)], [1, 0]]; columns of P are the eigenvectors of A
    for the eigenvalues -/+ i c sqrt(1+q) held in Q, so A = P Q P^{-1}.
    c and q broadcast; each matrix has shape (..., 2, 2).
    """
    om = c * np.sqrt(1.0 + q)
    P = _mat2(-1j * om, 1j * om, 1.0, 1.0)
    Q = _mat2(-1j * om, 0.0, 0.0, 1j * om)
    Pinv = _mat2(1j / (2.0 * om), 0.5, -1j / (2.0 * om), 0.5)
    return P, Q, Pinv


def _running_trapezoid(y, s, start):
    """start plus the trapezoid integral of each row of y over s, summed
    left to right (the running sums of scipy's cumulative_trapezoid)."""
    out = np.empty(y.shape)
    out[:, 0] = start
    out[:, 1:] = np.diff(s) * (y[:, 1:] + y[:, :-1]) / 2.0
    return np.cumsum(out, axis=1, out=out)


# Grid columns per pass of check_ode_lemma, so that its temporaries are
# (cases, 2049) arrays, 1.6 MB each for 100 cases, not (cases, n_dense).
_LEMMA_COLUMNS = 2048


def check_ode_lemma(problem, trajectory):
    """Bound |v'| + c|v| against the initial amplitude plus source integrals.

    The diagonalization controls the quadratic form
    N(s) = sqrt(v'^2/(1+q) + c^2 v^2) with constant exactly 1 against the
    integrand |f|/sqrt(1+q) + |q' v'|/(2 (1+q)^(3/2)); the printed
    |v'| + c|v| version then follows with a norm-equivalence factor
    <= sqrt(2) (for |q| <= 1/2 an extra sqrt(2) enters the integrand).
    Takes the (cases, n_dense) trajectory of integrate_oscillator and
    returns, per case, the measured minimal constants for both versions,
    the slack of the quadratic form and the diagonalization residual.
    Every case is processed at once, over blocks of grid columns that
    overlap by one column, which carries the running integrals.
    """
    s = trajectory["s"]
    n, m = trajectory["v"].shape
    c = problem.c[:, None]
    c_quadratic, c_printed = np.zeros(n), np.zeros(n)
    slack_quadratic = np.full(n, np.inf)
    q_min, q_max = np.full(n, np.inf), np.full(n, -np.inf)
    acc_end, acc_pr_end = 0.0, 0.0
    for lo in range(0, max(m - 1, 1), _LEMMA_COLUMNS):
        cols = slice(lo, min(lo + _LEMMA_COLUMNS, m - 1) + 1)
        v, vp = trajectory["v"][:, cols], trajectory["vp"][:, cols]
        grid = np.broadcast_to(s[cols], v.shape)
        q = _on_grid(problem.q(grid), grid)
        q_min = np.minimum(q_min, q.min(axis=1))
        q_max = np.maximum(q_max, q.max(axis=1))
        if lo <= m // 2 < cols.stop:
            q_mid = q[:, m // 2 - lo]
        abs_f = np.abs(_on_grid(problem.f(grid), grid))
        abs_qpvp = np.abs(_on_grid(problem.qp(grid), grid) * vp)

        # quadratic form with the proof's exact integrand
        quad = np.sqrt(vp**2 / (1.0 + q) + c**2 * v**2)
        integrand = abs_f / np.sqrt(1.0 + q) \
            + abs_qpvp / (2.0 * (1.0 + q) ** 1.5)
        acc = _running_trapezoid(integrand, s[cols], acc_end)
        # the literally printed bound with the c^{-1} weighting
        lhs = np.abs(vp) + c * np.abs(v)
        acc_pr = _running_trapezoid(abs_f + abs_qpvp, s[cols], acc_pr_end)
        if lo == 0:
            quad0, lhs0 = quad[:, :1], lhs[:, :1]
        acc_end, acc_pr_end = acc[:, -1], acc_pr[:, -1]
        acc_pr = acc_pr / c
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(acc > 1e-14, (quad - quad0) / acc, 0.0)
            ratios_pr = np.where(acc_pr > 1e-14, (lhs - lhs0) / acc_pr, 0.0)
        c_quadratic = np.maximum(c_quadratic, ratios.max(axis=1))
        c_printed = np.maximum(c_printed, ratios_pr.max(axis=1))
        slack_quadratic = np.minimum(slack_quadratic,
                                     (quad0 + acc - quad).min(axis=1))

    # diagonalization residual, worst case over three sampled q per case
    q_sampled = np.stack([q_min, q_max, q_mid])
    A = _mat2(0.0, -problem.c**2 * (1.0 + q_sampled), 1.0, 0.0)
    P, Q, Pinv = appendix_matrices(problem.c, q_sampled)
    resid = np.maximum(np.abs(P @ Pinv - np.eye(2)).max(axis=(-2, -1)),
                       np.abs(P @ Q @ Pinv - A).max(axis=(-2, -1))).max(axis=0)

    return {
        "c_quadratic": c_quadratic,
        "c_printed": c_printed,
        "slack_quadratic": slack_quadratic,
        "equivalence_factor": float(np.sqrt(2.0)),
        "diag_residual": resid,
    }


# -- reduction along rays -----------------------------------------------------


def ray_points(rho, s_values):
    """Spacetime points of the ray with fixed r/t = rho, parametrized by s."""
    s_values = np.asarray(s_values, dtype=float)
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"ray slope r/t must lie in [0, 1), got {rho}")
    gamma = 1.0 / np.sqrt(1.0 - rho**2)
    return gamma * s_values, gamma * rho * s_values  # (t, r)


def _radial_s2(j_v, u, r, t, s, p00, pd, c):
    """S2[v] specialized to radial symmetry (coupling shift P = 0).

    Needs jets of v up to total order 2 and the wave value u (for the
    metric perturbation).  All x-weighted angular combinations reduce to
    the good-derivative scalars g and G of geometry.good_scalars; g_t and
    G are always multiplied by r^2 below, so their zero axis values are
    moot.
    """
    v, vt = j_v[(0, 0)], j_v[(1, 0)]
    vtt, vtr = j_v[(2, 0)], j_v[(1, 1)]
    g, g_t, _, G = good_scalars(j_v, r, t)

    hbar = -(t / s) ** 2 * (p00 + pd * (r / t) ** 2) * u
    inv = 1.0 / (1.0 + hbar)

    # T1: the exact commutation remainder of the L^2 rewriting
    t1 = (r**4 * G + 4.0 * r**2 * g + 0.75 * v) / s**2
    # T2: mass-term mismatch, quadratic in hbar
    t2 = (1.0 - inv - hbar) * c**2 * v
    # T3: first-order transport terms scaled by (1 - 1/(1+hbar))
    t3 = (1.0 - inv) * ((2.0 * r**2 / t) * g_t + 2.0 * vt / t)
    # T4: the remaining second-order frame terms
    h00_semi = -(p00 + pd * (r / t) ** 2) * u  # semi-hyperboloidal 00 component
    term_h00 = h00_semi * (t / s) * (r / t) ** 2 * vt / s
    sum_dbar2 = r**2 * G + 3.0 * g
    pos = r > 1e-12
    vtt_over = vtt / t + np.where(pos, vtr / np.where(pos, r, 1.0), 0.0)
    h_deldel = (pd * u * (r**2 / t) * (g_t + vtt_over)
                - pd * u * sum_dbar2
                + 3.0 * pd * u * vt / t)
    t4 = inv * (term_h00 - h_deldel + sum_dbar2)
    return t1 + t2 + t3 + t4, hbar


def reduction_residual(sampler, scn, rho, s_grid):
    """Residual of the oscillator identity along the ray r/t = rho.

    Builds w = s^(3/2) v on the uniform s grid, forms w'' by 5-point
    centered differences, and subtracts c^2 (1 - Hbar) w and
    s^(3/2) S2[v].  Returns (interior s, residual array, max |residual|).
    """
    s = np.asarray(s_grid, dtype=float)
    ds = s[1] - s[0]
    if not np.allclose(np.diff(s), ds):
        raise ValueError("reduction residual requires a uniform s grid")
    if s.size < 7:
        raise ValueError("s grid too short to resolve the second derivative")
    t, r = ray_points(rho, s)
    j = sampler.jets(t, r, order=2)
    v = j["v"][(0, 0)]
    u = j["u"][(0, 0)]
    w = s**1.5 * v
    wpp = (-w[:-4] + 16.0 * w[1:-3] - 30.0 * w[2:-2]
           + 16.0 * w[3:-1] - w[4:]) / (12.0 * ds**2)
    s2_term, hbar = _radial_s2(j["v"], u, r, t, s, scn.p00, scn.pd, scn.c)
    inner = slice(2, -2)
    resid = wpp + scn.c**2 * (1.0 - hbar[inner]) * w[inner] \
        - (s[inner] ** 1.5) * s2_term[inner]
    return s[inner], resid, float(np.max(np.abs(resid)))


def sharp_decay_check(sampler, s_grid, rho_values):
    """sup over a ray fan of s^(3/2) ((s/t)|L v| + |v|), per s.

    L v = (t/s) v_t + (r/s) v_r along the ray.  Returns (s_grid, values);
    boundedness in s (slope about 0) is the sharp-decay conclusion.
    """
    s = np.asarray(s_grid, dtype=float)
    out = np.zeros_like(s)
    for rho in rho_values:
        t, r = ray_points(rho, s)
        j = sampler.jets(t, r, order=1)
        v = j["v"][(0, 0)]
        lv = (t / s) * j["v"][(1, 0)] + (r / s) * j["v"][(0, 1)]
        vals = s**1.5 * ((s / t) * np.abs(lv) + np.abs(v))
        out = np.maximum(out, vals)
    return s, out
