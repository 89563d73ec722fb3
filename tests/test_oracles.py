from math import comb, factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekg.oracles import (DalembertField, KGSpectralField, KirchhoffEnvelope,
                            OracleSampler, duhamel_radial, free_wave_radiation,
                            kirchhoff_envelope)
from wavekg.profiles import Profile

U0 = Profile("bump", k=4, radius=1.0, amp=1.0)
U1 = Profile("bump", k=3, radius=0.8, amp=0.5)
V1 = Profile("bump", k=4, radius=1.0, amp=0.5)   # negligible at the Nyquist mode
ZERO = Profile("zero")


def box_residual(field, t, r, h=1e-4):
    """Box u = u_tt - u_rr - (2/r) u_r by central differences of the oracle."""
    utt = (field(t + h, r) - 2 * field(t, r) + field(t - h, r)) / h**2
    urr = (field(t, r + h) - 2 * field(t, r) + field(t, r - h)) / h**2
    ur = (field(t, r + h) - field(t, r - h)) / (2 * h)
    return utt - urr - 2.0 * ur / r


class TestDalembert:
    def test_initial_data(self):
        f = DalembertField(U0, U1)
        r = np.linspace(0.0, 1.5, 40)
        assert_allclose(f(2.0, r), U0(r), atol=1e-14)
        assert_allclose(f.jet(2.0, r, 1, 0), U1(r), atol=1e-13)

    def test_satisfies_wave_equation(self):
        f = DalembertField(U0, U1)
        rng = np.random.default_rng(3)
        t = rng.uniform(2.5, 8.0, 50)
        r = rng.uniform(0.3, 6.0, 50)
        assert np.max(np.abs(box_residual(f, t, r))) < 1e-6

    def test_strong_huygens(self):
        # the radial free wave vanishes identically once t - 2 > r + 1
        f = DalembertField(U0, U1)
        r = np.linspace(0.0, 3.0, 31)
        assert np.all(f(7.0, r) == 0.0)

    def test_jets_match_finite_differences(self):
        f = DalembertField(U0, U1)
        t = np.array([3.1]); r = np.array([1.7])
        h = 1e-5
        fd_tr = (f(t + h, r + h) - f(t + h, r - h)
                 - f(t - h, r + h) + f(t - h, r - h)) / (4 * h * h)
        assert_allclose(f.jet(t, r, 1, 1), fd_tr, rtol=1e-5)

    def test_axis_regularity(self):
        f = DalembertField(U0, U1)
        # even in r: value at tiny r agrees with the axis limit
        assert_allclose(f(2.7, 0.0), f(2.7, 1e-6), rtol=1e-8)
        assert f.jet(2.7, 0.0, 0, 1) == 0.0


@pytest.fixture(scope="module")
def field():
    return KGSpectralField(U0, ZERO, 1.0)


class TestKGSpectral:
    def test_initial_data(self, field):
        # series truncation leaves ~1e-7 absolute error for the k=4 bump
        r = np.linspace(0.05, 1.5, 30)
        assert_allclose(field(2.0, r), U0(r), atol=1e-6)
        assert_allclose(field.jet(2.0, r, 1, 0), 0.0, atol=1e-8)

    def test_satisfies_kg_equation(self, field):
        rng = np.random.default_rng(4)
        t = rng.uniform(2.5, 7.0, 20)
        r = rng.uniform(0.3, 5.0, 20)
        resid = box_residual(field, t, r) + field(t, r)  # c = 1 mass term
        assert np.max(np.abs(resid)) < 1e-6

    def test_mode_energy_conserved(self, field):
        # sum omega_k^2 b_k^2 + bdot_k^2 is exactly constant in time
        def mode_energy(t):
            b, bd = field._amplitudes([t])
            return np.sum(field.omega**2 * b**2 + bd**2)

        e0 = mode_energy(2.0)
        for t in (3.0, 10.0, 40.0):
            assert_allclose(mode_energy(t), e0, rtol=1e-12)

    def test_jet_even_in_r(self, field):
        assert_allclose(field(3.0, 0.3), field(3.0, -0.3), rtol=1e-12)


@pytest.fixture(scope="module")
def moving_field():
    # both amplitudes nonzero, so odd time derivatives see b1 as well
    return KGSpectralField(U0, V1, 1.0)


def leibniz_reference(field, t, r, a, b):
    """d_t^a d_r^b (w / r) for r > 0 with w = sum B_m sin(k_m r), term by term."""
    phase = np.multiply.outer(t - 2.0, field.omega)
    amp = [field.b0 * np.cos(phase) + field.b1 / field.omega * np.sin(phase),
           -field.b0 * field.omega * np.sin(phase) + field.b1 * np.cos(phase)]
    coeff = amp[a % 2] * (-field.omega**2) ** (a // 2)
    out = np.zeros_like(r)
    for j in range(b + 1):
        n = b - j   # d_r^n sin(k r) = k^n sin(k r + n pi/2)
        w_n = np.sum(coeff * field.k**n * np.sin(np.multiply.outer(r, field.k) + n * np.pi / 2),
                     axis=1)
        out += comb(b, j) * (-1.0) ** j * factorial(j) * w_n / r ** (j + 1)
    return out


KEYS = [(a, b) for a in range(4) for b in range(4 - a)]


class TestKGJets:
    def test_match_leibniz_reference_off_axis(self, moving_field):
        rng = np.random.default_rng(11)
        t = rng.uniform(2.0, 12.0, 200)
        r = rng.uniform(1.0, 10.0, 200)
        got = moving_field.jets(t, r, order=3)
        for a, b in KEYS:
            ref = leibniz_reference(moving_field, t, r, a, b)
            assert_allclose(got[(a, b)], ref, rtol=0,
                            atol=1e-10 * np.max(np.abs(ref)), err_msg=f"{(a, b)}")

    def test_value_independent_of_chunk_and_repeated_times(self, moving_field):
        rng = np.random.default_rng(12)
        t = rng.uniform(2.0, 12.0, 600)
        r = rng.uniform(0.0, 1.0, 600) * (t - 1.0)
        t[100:300] = 5.0     # one repeated time across a chunk boundary
        t[400:420] = t[7]
        r[:10] = 0.0
        r[10:20] = 0.1 / moving_field.k[:10]
        whole = moving_field.jets(t, r, order=3)
        single = [moving_field.jets(t[i], r[i], order=3) for i in range(t.size)]
        for key in KEYS:
            alone = np.array([point[key] for point in single])
            assert_allclose(whole[key], alone, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(alone)), err_msg=f"{key}")

    def test_continuous_across_series_switch_and_axis(self, moving_field):
        k = moving_field.k
        # x = k_m r crosses 0.1 for mode m; steps of 1e-12 in r (relative
        # at the switch, absolute at the axis) move a smooth jet by at
        # most 2e-11 of its peak
        at = 0.1 / k[[0, 1, 4, 40, 400]]
        below, above = at * (1.0 - 1e-12), at * (1.0 + 1e-12)
        t = np.full(at.shape, 4.5)
        lo = moving_field.jets(t, below, order=3)
        hi = moving_field.jets(t, above, order=3)
        axis = moving_field.jets(np.full(3, 4.5), np.array([0.0, 1e-12, -1e-12]), order=3)
        peak = moving_field.jets(np.full(200, 4.5), np.linspace(0.0, 3.0, 200), order=3)
        for a, b in KEYS:
            scale = np.max(np.abs(peak[(a, b)]))
            assert_allclose(lo[(a, b)], hi[(a, b)], rtol=0, atol=1e-10 * scale)
            assert_allclose(axis[(a, b)][1:], axis[(a, b)][0], rtol=0, atol=1e-10 * scale)
            if b % 2:
                assert axis[(a, b)][0] == 0.0   # odd in r: zero on the axis

    def test_jet_is_the_jets_entry(self, moving_field):
        rng = np.random.default_rng(13)
        t = rng.uniform(2.0, 12.0, 300)
        r = rng.uniform(0.0, 8.0, 300)
        r[:5] = 0.0
        full = moving_field.jets(t, r, order=3)
        for a, b in KEYS:
            assert np.array_equal(moving_field.jet(t, r, a, b), full[(a, b)])

    def test_rejects_order_above_three(self, moving_field):
        with pytest.raises(ValueError):
            moving_field.jets(3.0, 1.0, order=4)


def test_oracle_sampler_fills_missing_fields():
    s = OracleSampler(DalembertField(U0, U1), None)
    j = s.jets(np.array([3.0]), np.array([1.0]), order=2)
    assert set(j) == {"u", "v"}
    assert np.all(j["v"][(1, 1)] == 0.0)
    assert j["u"][(0, 0)].shape == (1,)


class TestKirchhoff:
    def test_envelope_shapes(self):
        up = KirchhoffEnvelope(1.0, 0.25, 0.5)
        t = np.linspace(4.0, 100.0, 30)
        vals = kirchhoff_envelope(up, t, 0.3 * t)
        # nu > 0: decays like t^{mu - nu - 1} in the interior
        slope = np.polyfit(np.log(t), np.log(vals), 1)[0]
        assert_allclose(slope, up.mu - up.nu - 1.0, atol=0.02)

    def test_envelope_negative_nu(self):
        down = KirchhoffEnvelope(1.0, 0.25, -0.25)
        t = np.linspace(4.0, 100.0, 30)
        vals = kirchhoff_envelope(down, t, 0.3 * t)
        slope = np.polyfit(np.log(t), np.log(vals), 1)[0]
        assert_allclose(slope, -down.mu - 1.0 - down.nu, atol=0.02)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            KirchhoffEnvelope(1.0, 0.9, 0.5)
        with pytest.raises(ValueError):
            KirchhoffEnvelope(1.0, 0.25, 0.0)

    def test_rejects_points_outside_cone(self):
        env = KirchhoffEnvelope(1.0, 0.25, 0.5)
        with pytest.raises(ValueError):
            kirchhoff_envelope(env, 3.0, 2.5)


class TestDuhamel:
    def test_manufactured_solution(self):
        # u = (t-2)^2 p(r) has zero data at t = 2 and a closed-form source
        p = Profile("bump", k=4, radius=1.0, amp=1.0)

        def lap(r):
            rs = np.where(r > 0, r, 1.0)
            return p.deriv(r, 2) + np.where(r > 1e-9,
                                            2.0 * p.deriv(r, 1) / rs,
                                            3.0 * p.deriv(r, 2))

        def source(tau, xi):
            return 2.0 * p(xi) - (tau - 2.0) ** 2 * lap(xi)

        r = np.linspace(0.1, 0.9, 5)
        for t in (2.5, 3.0):
            u = duhamel_radial(source, t, r, n_tau=800, n_xi=800)
            assert_allclose(u, (t - 2.0) ** 2 * p(r), atol=5e-6)

    def test_envelope_dominates_power_law_source(self):
        # source exactly saturating the envelope hypothesis with C_F = 1;
        # the solution must sit below the envelope up to a modest constant
        # (measured ~2.2 at t = 256; the bound hides a slow log factor)
        env = KirchhoffEnvelope(1.0, 0.25, 0.5)

        def source(tau, xi):
            inside = xi < tau - 1.0
            tmr = np.where(inside, tau - xi, 1.0)
            return np.where(inside, tau**-2.5 * tmr**-0.75, 0.0)

        worst = 0.0
        for t in (8.0, 16.0, 32.0, 64.0):
            r = np.linspace(0.1, 0.5, 5) * t
            u = duhamel_radial(source, t, r, n_tau=1200, n_xi=600)
            bound = kirchhoff_envelope(env, t, r)
            worst = max(worst, np.max(np.abs(u) / bound))
        assert worst < 4.0
        assert worst > 0.05  # the comparison is not vacuous

    def test_zero_source(self):
        out = duhamel_radial(lambda tau, xi: np.zeros_like(xi), 5.0,
                             np.linspace(0.1, 3.0, 7))
        assert_allclose(out, 0.0)


class TestFreeWaveRadiation:
    def test_support(self):
        mu = np.linspace(-2.0, 2.0, 41)
        vals = free_wave_radiation(U0, U1, mu)
        assert np.all(vals[np.abs(mu) > 1.0] == 0.0)
        assert np.max(np.abs(vals)) > 0.0

    def test_matches_null_limit_of_oracle(self):
        f = DalembertField(U0, U1)
        for mu in (-0.5, 0.0, 0.4):
            r = 1e6
            approx = r * f.jet(r + 2.0 + mu, r, 1, 0)
            assert_allclose(approx, free_wave_radiation(U0, U1, mu),
                            rtol=1e-5, atol=1e-12)
