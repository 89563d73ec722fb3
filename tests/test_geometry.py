from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from wavekg import geometry as geo
from wavekg.kg_reduction import ray_points
from wavekg.scenario import stable_cfl, time_steps

from conftest import make_scenario


@settings(max_examples=200, deadline=None)
@given(c0=st.floats(0.1, 50.0), tau=st.floats(0.5, 1e6))
def test_c0_drift_along_curve(c0, tau):
    # the curve parametrization keeps (t^2 - r^2)/r = c0 exactly; the
    # reconstruction uses the cancellation-free form of tau - r
    curve = geo.HyperbolaCurve(c0)
    r = float(curve.radius(tau))
    a = 0.5 * c0
    gap = a - a**2 / (np.hypot(tau, a) + tau)  # = tau - r, stably
    assert abs(gap * (tau + r) / r - c0) / c0 < 1e-12


@pytest.mark.parametrize("c0", [1.0, 2.5, 3.0, 10.0])
def test_asymptote_constant(c0):
    # tau * (r - (tau - c0/2)) -> c0^2/8 at large tau; the gap is a
    # difference of nearly equal numbers, so tau = 1e4 keeps the rounding
    # of r (about tau * ulp(tau)) far below the tolerance
    tau = 1e4
    gap = tau * (float(geo.HyperbolaCurve(c0).radius(tau)) - (tau - 0.5 * c0))
    assert abs(gap - c0**2 / 8.0) / (c0**2 / 8.0) < 1e-4


def test_entry_point_branches():
    # below the threshold 8/3 the curve enters through the cone boundary
    p = geo.entry_point(geo.HyperbolaCurve(2.5))
    assert p.region == "boundary"
    assert_allclose(p.r, 2.0)
    assert_allclose(p.t, 3.0)
    # above it, through the initial hyperboloid
    q = geo.entry_point(geo.HyperbolaCurve(3.0))
    assert q.region == "hyperboloid"
    assert_allclose(q.r, 4.0 / 3.0)
    assert_allclose(q.s, 2.0)


def test_entry_point_threshold_flip():
    c0_star = 8.0 / 3.0
    below = geo.entry_point(geo.HyperbolaCurve(c0_star * (1 - 1e-9)))
    above = geo.entry_point(geo.HyperbolaCurve(c0_star * (1 + 1e-9)))
    assert below.region == "boundary"
    assert above.region == "hyperboloid"
    # both branches meet at the threshold
    assert_allclose(below.t, above.t, rtol=1e-6)
    assert_allclose(below.r, above.r, rtol=1e-6)


def test_entry_point_rejects_shallow_curves():
    for c0 in (1.0, 2.0):
        with pytest.raises(geo.GeometryError):
            geo.entry_point(geo.HyperbolaCurve(c0))


def test_axis_ratio_divides_off_the_axis_and_takes_the_limit_on_it():
    # the sampler's stencil nodes are signed, so negative radii divide too
    r = np.array([-0.3, -0.0, 0.0, 1e-300, 0.27, 7.0])
    num = np.array([1.1, 2.0, -3.0, 1e-310, -0.5, 4.2])
    limit = np.array([5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    with np.errstate(all="raise"):
        out = geo.axis_ratio(num, r, limit)
    off = r != 0
    assert np.array_equal(out[off], num[off] / r[off])
    assert np.array_equal(out[~off], limit[~off])
    # a scalar limit broadcasts, and a product of radii that rounds to
    # zero (1e-300 squared) is on the axis too
    r2 = r * r
    with np.errstate(all="raise"):
        out = geo.axis_ratio(num, r2, 0.0)
    assert np.array_equal(out[r2 != 0], num[r2 != 0] / r2[r2 != 0])
    assert np.array_equal(out[r2 == 0], np.zeros(3))


def test_friction_integral_additive_and_positive():
    curve = geo.HyperbolaCurve(3.0)
    a = geo.friction_integral(curve, 2.0, 10.0)
    b = geo.friction_integral(curve, 10.0, np.inf)
    total = geo.friction_integral(curve, 2.0, np.inf)
    assert a > 0 and b > 0
    assert_allclose(a + b, total, rtol=1e-8)


@pytest.mark.parametrize("c0", [2.5, 3.0, 7.5])
@pytest.mark.parametrize("tau_lo, tau_hi", [(2.0, 10.0), (5.0, 50.0),
                                            (2.0, np.inf), (49.9, np.inf)])
def test_friction_integral_matches_quadrature(c0, tau_lo, tau_hi):
    # the closed form against adaptive quadrature of P along the curve
    curve = geo.HyperbolaCurve(c0)

    def integrand(tau):
        return geo.friction_P(tau, curve.radius(tau))

    expected, _ = quad(integrand, tau_lo, tau_hi, limit=200)
    assert_allclose(geo.friction_integral(curve, tau_lo, tau_hi), expected,
                    rtol=1e-13)


def test_friction_P_matches_curve_form():
    curve = geo.HyperbolaCurve(4.0)
    tau = np.linspace(3.0, 30.0, 11)
    r = curve.radius(tau)
    direct = geo.friction_P(tau, r)
    curve_form = 2.0 * curve.c0 * r / (tau * (tau**2 + r**2))
    assert_allclose(direct, curve_form, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(dr=st.floats(0.01, 0.05), t_end=st.floats(2.5, 64.0),
       share=st.floats(1e-9, 1.0))
def test_pipeline_queries_stay_inside_stored_times(dr, t_end, share):
    # every run length parse_scenario accepts
    assume(geo.run_length_problem(t_end, dr) is None)
    # the last time evolve would store, without evolving, at any step the
    # stability rule accepts: only t_last and the grid spacing decide
    # where the stages may sample.  time_steps reads only the grid, so it
    # takes the small shares whose history a Scenario would refuse
    scn = make_scenario(dr=dr, t_end=t_end, r_max=t_end)
    grid = SimpleNamespace(t_end=t_end, dr=dr, cfl=share * stable_cfl(scn))
    n_steps, dt = time_steps(grid)
    t_last = 2.0 + n_steps * dt
    # the one foliation every stage reads; its every-third subset carries
    # the word records and the rigidity grid, and holds the first, middle
    # and last H_s (the energies tables and the Klainerman-Sobolev check)
    s_grid = geo.covered_s_grid(t_last, dr)
    assert s_grid[-1] == geo.last_covered_s(t_last, dr) and np.all(np.diff(s_grid) > 0)
    words = s_grid[::geo.WORD_STRIDE]
    assert len(s_grid) == 25 and len(words) == 9
    assert words[0] == s_grid[0] and words[len(words) // 2] == s_grid[12]
    assert words[-1] == s_grid[-1]
    queries = [np.hypot(s, geo.hyperboloid_nodes(s, dr)) for s in s_grid]
    # the kg-lab rays r/t = rho over the same s range
    for rho in (0.0, 0.2, 0.3, 0.4, 0.6):
        queries.append(ray_points(rho, s_grid)[0])
    # the one fan of the radiation and rigidity stages, each ray on its radii
    for mu, radii in zip(geo.MU_FAN, geo.null_radii(t_last, geo.MU_FAN)):
        queries.append(radii + 2.0 + mu)
    # the hyperbola in the cone runs from its start to a horizon at t_last,
    # and its transport residual is checked from 0.6 t_last on
    tau0, earliest = geo.hyperbola_window(geo.HyperbolaCurve(geo.HYPERBOLA_C0))
    assert earliest < t_last
    queries.append(np.array([tau0, 0.6 * t_last]))
    queries = np.concatenate(queries)
    assert queries.min() >= 2.0 and queries.max() <= t_last
