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

The oscillator is integrated for a whole batch of cases at once, as one
stacked first-order system (v of every case, then v' of every case) that a
single scipy DOP853 solve advances: the 8(5,3) Dormand-Prince pair
(Hairer, Norsett and Wanner, Solving Ordinary Differential Equations I,
2nd ed., 1993).  Its steps and error norm span the whole stack, so a
case's trajectory depends on its batch only at the level of the solve's
tolerances.  The lemma reads the solve's dense output a block of grid
columns at a time (see check_ode_lemma), so no (cases, n_dense) array is
ever held, and its constants are computed per case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .energies import cumulative_trapezoid
from .geometry import axis_ratio, good_scalars

__all__ = [
    "OscillatorProblem",
    "integrate_oscillator",
    "trajectory_values",
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


# Tolerances of the DOP853 solve, and grid columns per block of
# check_ode_lemma, each block one evaluation of the dense output.
_RTOL, _ATOL = 1e-12, 1e-13
_DENSE_COLUMNS = 256


def integrate_oscillator(problem, n_dense=20000):
    """Integrate every case; returns the grid s = linspace(s0, s1, n_dense)
    and sol, the dense output of the solve (read it with trajectory_values).

    One DOP853 solve of the stacked first-order system, v of every case
    then v' of every case.

    Raises ValueError if |q| > 1/2 at any stage point of any case, and
    RuntimeError if the solve fails, as it does on a non-finite source.
    """
    s0, s1 = map(float, problem.span)
    if not s1 > s0:
        raise ValueError(f"oscillator span must increase, got {problem.span}")
    n = problem.c.size
    c2 = problem.c ** 2

    def rhs(t, y):
        s = np.full((n, 1), t)
        q = _on_grid(problem.q(s), s)[:, 0]
        bad = np.flatnonzero(np.abs(q) > 0.5)
        if bad.size:
            i = bad[0]
            raise ValueError(f"oscillator coefficient |q({t:.4f})| = "
                             f"{abs(q[i]):.3f} > 1/2 (case {i})")
        f = _on_grid(problem.f(s), s)[:, 0]
        return np.concatenate([y[n:], -c2 * (1.0 + q) * y[:n] + f])

    # scipy loads its integrate subpackage here, on first use: this solve is
    # the package's one scipy call, so no other stage pays for the import
    sol = scipy.integrate.solve_ivp(
        rhs, (s0, s1), np.concatenate([problem.v0, problem.v0p]),
        method="DOP853", dense_output=True, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise RuntimeError(f"oscillator integration failed: {sol.message}")
    return {"s": np.linspace(s0, s1, n_dense), "sol": sol.sol}


def trajectory_values(trajectory, cols=slice(None)):
    """v and v' of every case, each (cases, columns), on the grid columns
    cols of an integrate_oscillator trajectory.

    One evaluation of the dense output, which holds several copies of its
    result, so a long trajectory is read a block of columns at a time (see
    check_ode_lemma).  Each value depends only on its own grid point, not
    on which columns are read together.
    """
    return np.split(trajectory["sol"](trajectory["s"][cols]), 2)


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


def check_ode_lemma(problem, trajectory):
    """Bound |v'| + c|v| against the initial amplitude plus source integrals.

    The diagonalization controls the quadratic form
    N(s) = sqrt(v'^2/(1+q) + c^2 v^2) with constant exactly 1 against the
    integrand |f|/sqrt(1+q) + |q' v'|/(2 (1+q)^(3/2)); the printed
    |v'| + c|v| version then follows with a norm-equivalence factor
    <= sqrt(2) (for |q| <= 1/2 an extra sqrt(2) enters the integrand).
    Takes the trajectory of integrate_oscillator and returns, per case,
    the measured minimal constants for both versions, the slack of the
    quadratic form and the diagonalization residual.  It reads the
    trajectory over blocks of _DENSE_COLUMNS grid columns, every case at
    once, and each block overlaps the previous one by one column, which
    carries the running integrals.  The block width groups the integrals'
    sums, so another width changes the constants in their last bits.
    """
    s = trajectory["s"]
    n, m = problem.c.size, s.size
    c = problem.c[:, None]
    c_quadratic, c_printed = np.zeros(n), np.zeros(n)
    slack_quadratic = np.full(n, np.inf)
    q_min, q_max = np.full(n, np.inf), np.full(n, -np.inf)
    acc_end, acc_pr_end = np.zeros((n, 1)), np.zeros((n, 1))
    step = _DENSE_COLUMNS - 1
    for lo in range(0, max(m - 1, 1), step):
        cols = slice(lo, min(lo + step, m - 1) + 1)
        v, vp = trajectory_values(trajectory, cols)
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
        acc = acc_end + cumulative_trapezoid(integrand, s[cols])
        # the literally printed bound with the c^{-1} weighting
        lhs = np.abs(vp) + c * np.abs(v)
        acc_pr = acc_pr_end + cumulative_trapezoid(abs_f + abs_qpvp, s[cols])
        if lo == 0:
            quad0, lhs0 = quad[:, :1], lhs[:, :1]
        acc_end, acc_pr_end = acc[:, -1:], acc_pr[:, -1:]
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
    vtt_over = vtt / t + axis_ratio(vtr, r, 0.0)
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
