from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from wavekg.profiles import K_MAX, M_MAX, Profile, ProfileError


def test_support_and_values():
    p = Profile("bump", k=4, radius=0.8, amp=2.0)
    assert p(0.0) == 2.0
    assert p(0.8) == 0.0
    assert p(5.0) == 0.0
    r = np.linspace(0, 2, 101)
    assert np.all(p(r)[r >= 0.8] == 0.0)


def test_zero_profile():
    z = Profile("zero")
    assert z.is_zero
    assert np.all(z(np.linspace(0, 2, 11)) == 0.0)
    # zero amplitude collapses to the one zero value
    assert Profile("bump", k=2, radius=0.5, amp=0.0) == z
    assert repr(Profile("bump", k=2, amp=0.0)) == "Profile(zero)"


def test_scaled_multiplies_the_amplitude():
    p = Profile("bump", k=3, radius=0.7, amp=2.0)
    r = np.linspace(0, 1, 51)
    assert_allclose(p.scaled(1e-3)(r), 1e-3 * p(r), rtol=1e-12, atol=1e-16)
    assert p.scaled(1e-3) == Profile("bump", k=3, radius=0.7, amp=2e-3)
    assert p.scaled(0.0).is_zero
    assert Profile("zero").scaled(5.0).is_zero


def test_deriv_matches_finite_difference():
    p = Profile("bump", k=5, radius=1.0, amp=1.3)
    r = np.linspace(0.05, 0.9, 40)
    h = 1e-6
    fd = (p(r + h) - p(r - h)) / (2 * h)
    assert_allclose(p.deriv(r, 1), fd, rtol=1e-7, atol=1e-9)
    h2 = 1e-4
    fd2 = (p(r + h2) - 2 * p(r) + p(r - h2)) / h2**2
    assert_allclose(p.deriv(r, 2), fd2, rtol=1e-5, atol=1e-5)


def test_odd_extension_is_odd():
    p = Profile("bump", k=3, radius=0.7, amp=0.9)
    xi = np.linspace(-0.65, 0.65, 31)
    assert_allclose(p.odd_deriv(xi, 0), -p.odd_deriv(-xi, 0), atol=1e-15)
    # derivative of an odd function is even
    assert_allclose(p.odd_deriv(xi, 1), p.odd_deriv(-xi, 1), atol=1e-14)


def test_moment_plateau():
    p = Profile("bump", k=4, radius=1.0, amp=1.0)
    inside, _ = quad(lambda x: x * p(x), 0.0, 1.0)
    assert_allclose(p.moment_deriv(1.5, 0), inside, rtol=1e-10)
    assert p.moment_deriv(2.0, 0) == p.moment_deriv(3.0, 0)
    assert p.moment_deriv(2.0, 1) == 0.0


def test_values_past_the_support_are_not_evaluated():
    # at r = 9 the polynomial's r^32 term alone is 1e295 * 9^32, past the
    # float range; past the support each evaluator gives its plain zero, or
    # the moment's plateau, without evaluating it
    p = Profile("bump", k=16, radius=1.0, amp=1e295)
    r = np.array([-9.0, 0.0, 0.5, 1.0, 9.0])
    for m in (0, 1):
        for values in (p.deriv(r, m), p.odd_deriv(r, m), p.moment_deriv(r, m)):
            assert np.isfinite(values).all()
    assert p(r).tolist() == [0.0, 1e295, p(0.5), 0.0, 0.0]
    assert p.moment_deriv(r)[-1] == p.moment_deriv(r)[0] == p.moment_deriv(1.0)
    # a 0-d argument gives a 0-d array, as before
    assert p(9.0).shape == p.moment_deriv(np.float64(0.5)).shape == ()


@pytest.mark.parametrize("radius", [1.0, 0.05])
def test_accepted_bumps_evaluate_every_read_derivative_in_range(radius):
    # the largest amplitude accepted at k = 16 (to a factor 10) evaluates
    # each derivative the oracles read, to order M_MAX, without overflow
    # inside its support; ten times that amplitude is rejected
    amp = next(a for a in 10.0 ** np.arange(308, 200, -1) if _accepts(radius, a))
    p = Profile("bump", k=16, radius=radius, amp=amp)
    xi = np.linspace(-radius, radius, 201)[1:-1]
    with np.errstate(all="raise"):
        for m in range(M_MAX + 1):
            for values in (p.deriv(xi, m), p.odd_deriv(xi, m), p.moment_deriv(xi, m)):
                assert np.isfinite(values).all(), m
    with pytest.raises(ProfileError, match="past the float range"):
        Profile("bump", k=16, radius=radius, amp=10.0 * amp)


def _accepts(radius, amp):
    try:
        Profile("bump", k=16, radius=radius, amp=amp)
    except ProfileError:
        return False
    return True


def test_parse_round_trip():
    p = Profile.parse("bump k=4 radius=0.75 amp=0.002")
    assert p == Profile("bump", k=4, radius=0.75, amp=0.002)
    assert Profile.parse(p.describe()) == p
    assert Profile.parse("zero").is_zero


@pytest.mark.parametrize("bad", [
    "", "gauss k=2", "bump k=0", "bump k=2 width=1", "bump k=x",
    "bump k=3.7 radius=0.5 amp=1", "bump k=nan",
    "bump k=4 radius=0.5 radius=0.9", "zero amp=1 amp=2",
    "bump k=4 radius=1e200",  # radius^2 overflows
])
def test_parse_rejects(bad):
    with pytest.raises(ProfileError):
        Profile.parse(bad)


@pytest.mark.parametrize("k", [K_MAX + 1, 60, 101])
def test_exponent_past_the_cap_is_rejected(k):
    with pytest.raises(ProfileError, match="K_MAX"):
        Profile("bump", k=k)


def test_bump_at_the_cap_keeps_its_digits():
    # the odd extension x (1 - x^2)^k and its derivatives to order 4 at
    # k = K_MAX, against exact rationals: within 1e-9 of each peak
    p = Profile("bump", k=K_MAX)
    xs = np.linspace(0.0, 0.999, 101)
    for m in range(5):
        # d^m/dx^m of the term x^(2j+1) is its falling factorial times x^(2j+1-m)
        exact = np.array([float(sum(
            comb(K_MAX, j) * (-1) ** j * prod(range(2 * j + 2 - m, 2 * j + 2))
            * Fraction(x) ** (2 * j + 1 - m)
            for j in range(K_MAX + 1) if 2 * j + 1 >= m)) for x in xs])
        err = np.max(np.abs(p.odd_deriv(xs, m) - exact))
        assert err <= 1e-9 * np.max(np.abs(exact)), (m, err)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 8),
       radius=st.floats(0.1, 1.0),
       amp=st.floats(-5.0, 5.0).filter(lambda a: abs(a) > 1e-8))
def test_describe_parse_identity(k, radius, amp):
    p = Profile("bump", k=k, radius=radius, amp=amp)
    assert Profile.parse(p.describe()) == p
