import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavekg import geometry as geo


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
    # tau * (r - (tau - c0/2)) -> c0^2/8 at large tau
    curve = geo.HyperbolaCurve(c0)
    gap = geo.asymptote_gap(curve, 1e6)
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
    with pytest.raises(geo.GeometryError):
        geo.entry_point(geo.HyperbolaCurve(3.0), s0=1.0)


def test_friction_integral_additive_and_positive():
    curve = geo.HyperbolaCurve(3.0)
    a = geo.friction_integral(curve, 2.0, 10.0)
    b = geo.friction_integral(curve, 10.0, np.inf)
    total = geo.friction_integral(curve, 2.0, np.inf)
    assert a > 0 and b > 0
    assert_allclose(a + b, total, rtol=1e-8)


def test_friction_P_matches_curve_form():
    curve = geo.HyperbolaCurve(4.0)
    tau = np.linspace(3.0, 30.0, 11)
    r = curve.radius(tau)
    direct = geo.friction_P(tau, r)
    curve_form = 2.0 * curve.c0 * r / (tau * (tau**2 + r**2))
    assert_allclose(direct, curve_form, rtol=1e-12)
