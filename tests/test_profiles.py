import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from wavekg.profiles import Profile, ProfileError


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


def test_parse_round_trip():
    p = Profile.parse("bump k=4 radius=0.75 amp=0.002")
    assert p == Profile("bump", k=4, radius=0.75, amp=0.002)
    assert Profile.parse(p.describe()) == p
    assert Profile.parse("zero").is_zero


@pytest.mark.parametrize("bad", [
    "", "gauss k=2", "bump k=0", "bump k=2 width=1", "bump k=x",
    "bump k=3.7 radius=0.5 amp=1", "bump k=nan",
    "bump k=4 radius=0.5 radius=0.9", "zero amp=1 amp=2",
])
def test_parse_rejects(bad):
    with pytest.raises(ProfileError):
        Profile.parse(bad)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 8),
       radius=st.floats(0.1, 1.0),
       amp=st.floats(-5.0, 5.0).filter(lambda a: abs(a) > 1e-8))
def test_describe_parse_identity(k, radius, amp):
    p = Profile("bump", k=k, radius=radius, amp=amp)
    assert Profile.parse(p.describe()) == p
