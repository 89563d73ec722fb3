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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

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
    """v'' + c^2 (1 + q(s)) v = f(s) on span, with |q| <= 1/2."""

    c: float
    q: callable
    f: callable
    v0: float
    v0p: float
    span: tuple
    qp: callable = None  # derivative of q; finite-differenced if absent

    def q_prime(self, s):
        if self.qp is not None:
            return self.qp(s)
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        return (self.q(s + h) - self.q(s - h)) / (2.0 * h)


def _on_grid(values, s):
    """A coefficient evaluated on the array s, constants broadcast to it."""
    return np.broadcast_to(np.asarray(values, dtype=float), s.shape)


def integrate_oscillator(problem, rtol=1e-10, atol=1e-13, n_dense=20000):
    """Integrate the oscillator; returns (s, v, vp) plus the dense solution.

    Adaptive explicit Runge-Kutta with dense output; rejects |q| > 1/2.
    """
    s0, s1 = problem.span

    def rhs(s, y):
        q = problem.q(s)
        if abs(q) > 0.5:
            raise ValueError(f"oscillator coefficient |q({s:.4f})| = {abs(q):.3f} > 1/2")
        return [y[1], -problem.c**2 * (1.0 + q) * y[0] + problem.f(s)]

    sol = solve_ivp(rhs, (s0, s1), [problem.v0, problem.v0p],
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"oscillator integration failed: {sol.message}")
    s = np.linspace(s0, s1, n_dense)
    v, vp = sol.sol(s)
    return {"s": s, "v": v, "vp": vp, "dense": sol.sol}


def appendix_matrices(c, q):
    """Diagonalization of the first-order oscillator system.

    With V = (v', v) the system reads V' = A V + F,
    A = [[0, -c^2(1+q)], [1, 0]]; columns of P are the eigenvectors of A
    for the eigenvalues -/+ i c sqrt(1+q) held in Q, so A = P Q P^{-1}.
    """
    om = c * np.sqrt(1.0 + q)
    P = np.array([[-1j * om, 1j * om], [1.0, 1.0]])
    Q = np.diag([-1j * om, 1j * om])
    Pinv = np.array([[1j / (2.0 * om), 0.5], [-1j / (2.0 * om), 0.5]])
    return P, Q, Pinv


def check_ode_lemma(problem, trajectory):
    """Bound |v'| + c|v| against the initial amplitude plus source integrals.

    The diagonalization controls the quadratic form
    N(s) = sqrt(v'^2/(1+q) + c^2 v^2) with constant exactly 1 against the
    integrand |f|/sqrt(1+q) + |q' v'|/(2 (1+q)^(3/2)); the printed
    |v'| + c|v| version then follows with a norm-equivalence factor
    <= sqrt(2) (for |q| <= 1/2 an extra sqrt(2) enters the integrand).
    Returns measured minimal constants for both versions plus the
    diagonalization residual.
    """
    s = trajectory["s"]
    v, vp = trajectory["v"], trajectory["vp"]
    c = problem.c
    q = _on_grid(problem.q(s), s)
    qp = _on_grid(problem.q_prime(s), s)
    f = _on_grid(problem.f(s), s)

    # quadratic form with the proof's exact integrand
    quad = np.sqrt(vp**2 / (1.0 + q) + c**2 * v**2)
    integrand = np.abs(f) / np.sqrt(1.0 + q) \
        + np.abs(qp * vp) / (2.0 * (1.0 + q) ** 1.5)
    acc = cumulative_trapezoid(integrand, x=s, initial=0.0)
    growth = quad - quad[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(acc > 1e-14, growth / acc, 0.0)
    c_quadratic = max(0.0, float(np.max(ratios)))

    # the literally printed bound with the c^{-1} weighting
    lhs = np.abs(vp) + c * np.abs(v)
    base = lhs[0]
    acc_pr = cumulative_trapezoid(np.abs(f) + np.abs(qp * vp), x=s, initial=0.0) / c
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios_pr = np.where(acc_pr > 1e-14, (lhs - base) / acc_pr, 0.0)
    c_printed = max(0.0, float(np.max(ratios_pr)))

    # diagonalization residual, worst case over the sampled q values
    resid = 0.0
    for qv in (q.min(), q.max(), q[len(q) // 2]):
        A = np.array([[0.0, -c**2 * (1.0 + qv)], [1.0, 0.0]], dtype=complex)
        P, Q, Pinv = appendix_matrices(c, qv)
        resid = max(resid,
                    float(np.max(np.abs(P @ Pinv - np.eye(2)))),
                    float(np.max(np.abs(P @ Q @ Pinv - A))))

    slack_quadratic = float(np.min(quad[0] + acc - quad))
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
    the scalars g = vt/t + vr/r and G = d_t g / t + d_r g / r.
    """
    v, vt, vr = j_v[(0, 0)], j_v[(1, 0)], j_v[(0, 1)]
    vtt, vtr, vrr = j_v[(2, 0)], j_v[(1, 1)], j_v[(0, 2)]
    pos = r > 1e-12
    r_safe = np.where(pos, r, 1.0)

    g = vt / t + np.where(pos, vr / r_safe, vrr)
    # g_t, g_r and G are always multiplied by r^2 below, so their axis
    # values are moot and may be zeroed
    g_t = vtt / t - vt / t**2 + np.where(pos, vtr / r_safe, 0.0)
    g_r = vtr / t + np.where(pos, vrr / r_safe - vr / r_safe**2, 0.0)
    G = np.where(pos, g_t / t + g_r / r_safe, 0.0)

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
    vtt_over = vtt / t + np.where(pos, vtr / r_safe, 0.0)
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
