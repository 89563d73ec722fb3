import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekg import inequalities as ineq
from wavekg.energies import hyperboloid_samples, word_records
from wavekg.profiles import Profile

from conftest import ZERO, make_scenario


def random_bump(rng):
    return Profile("bump", k=int(rng.integers(1, 7)),
                   radius=float(rng.uniform(0.2, 1.0)),
                   amp=float(rng.uniform(0.1, 3.0)))


def test_fit_slope_recovers_power_law():
    s = np.linspace(2.0, 20.0, 50)
    slope, conf = ineq.fit_slope(s, 3.0 * s**-1.5)
    assert_allclose(slope, -1.5, atol=1e-10)
    assert conf < 1e-8


def test_fit_slope_degenerate_series():
    # no fit: NaN, never a slope that would read as a rate holding
    slope, conf = ineq.fit_slope(np.array([2.0, 3.0]), np.array([0.0, 0.0]))
    assert np.isnan(slope) and np.isnan(conf)


def test_monitor_fields():
    s = np.linspace(2.0, 20.0, 30)
    m = ineq.monitor("demo", s, s**-1.0)
    assert m.label == "demo"
    assert_allclose(m.slope, -1.0, atol=1e-10)
    assert m.values.shape == s.shape


class TestHardy:
    @pytest.mark.parametrize("n,alpha", [(3, 1), (3, 2), (2, 1)])
    def test_random_profiles_below_constant(self, n, alpha):
        rng = np.random.default_rng(100 * n + alpha)
        bound = 2.0 / (n - alpha)
        for _ in range(30):
            ratio = ineq.check_hardy(random_bump(rng), alpha, n=n)
            assert 0.0 < ratio <= bound * (1 + 1e-3)

    def test_zero_profile_convention(self):
        assert ineq.check_hardy(ZERO, 1, n=3) == 0.0

    def test_rejects_supercritical_alpha(self):
        with pytest.raises(ValueError):
            ineq.check_hardy(Profile("bump", k=4, radius=1.0, amp=1.0), 3, n=3)

    def test_rejects_noncompact_window(self):
        # a profile whose radius claims less than its support: the window
        # the check derives from it ends where the profile is not yet zero
        class Understated:
            radius = 0.5
            wide = Profile("bump", k=4, radius=1.0, amp=1.0)

            def __call__(self, r):
                return self.wide(r)

            def deriv(self, r, m=1):
                return self.wide.deriv(r, m)

        with pytest.raises(ValueError, match="compact support"):
            ineq.check_hardy(Understated(), 1, n=3)


def test_klainerman_sobolev_bounded(oracle_sampler):
    scn = make_scenario(dr=0.02)
    vals = [ineq.check_klainerman_sobolev(record)["u"]
            for record in word_records(oracle_sampler, (2.0, 4.0, 8.0), scn)]
    assert all(0.0 < v < 10.0 for v in vals)
    # the ratio may not grow: the sup is controlled by the norms uniformly
    assert vals[-1] < 2.0 * vals[0] + 1e-12


class TestConformal:
    def test_free_wave_has_constant_energy(self, oracle_sampler):
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=0.02)
        s_grid = np.linspace(2.0, 10.0, 9)
        out = ineq.check_conformal_estimate(
            hyperboloid_samples(oracle_sampler, s_grid, scn), scn)
        # no source: the slack only drifts at round-off/quadrature level
        assert np.min(out["slack"]) > -1e-6 * out["lhs"][0]
        assert out["c_min"] == 0.0

    def test_slack_positive_on_coupled_sampler(self, small_sampler, small_scn):
        s_grid = np.linspace(2.0, 4.5, 7)
        out = ineq.check_conformal_estimate(
            hyperboloid_samples(small_sampler, s_grid, small_scn), small_scn)
        assert np.min(out["slack"]) >= -1e-6
        assert out["c_min"] <= out["constant"]


class TestStandard:
    def test_wave_component_free(self, oracle_sampler):
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=0.02)
        s_grid = np.linspace(2.0, 10.0, 9)
        out = ineq.check_standard_estimate(
            hyperboloid_samples(oracle_sampler, s_grid, scn), scn, "u")
        assert np.min(out["slack"]) > -1e-6 * out["lhs"][0]
        assert_allclose(out["integral"], 0.0, atol=1e-300)

    def test_kg_component_free(self, oracle_sampler):
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=0.02)
        s_grid = np.linspace(2.0, 8.0, 7)
        out = ineq.check_standard_estimate(
            hyperboloid_samples(oracle_sampler, s_grid, scn), scn, "v")
        # kappa^2 * lhs(s0) alone dominates a conserved energy
        assert np.min(out["slack"]) > 0.0
        assert_allclose(out["gc_ratio"], 1.0, rtol=1e-12)

    def test_kg_component_coupled(self, small_sampler, small_scn):
        s_grid = np.linspace(2.0, 4.5, 7)
        out = ineq.check_standard_estimate(
            hyperboloid_samples(small_sampler, s_grid, small_scn), small_scn, "v")
        assert np.min(out["slack"]) > 0.0
        assert np.all(out["gc_ratio"] > 0.25)
        assert np.all(out["gc_ratio"] < 4.0)


def test_decay_monitors_flat_for_free_fields(oracle_sampler):
    scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=0.02)
    # s <= 11 keeps every H_s node inside the spectral oracle's domain
    s_grid = np.linspace(2.0, 11.0, 10)
    mons = ineq.decay_monitors(hyperboloid_samples(oracle_sampler, s_grid, scn))
    assert set(mons) == {"t_u", "t32_v", "s32_dv", "t_du"}
    # the sups oscillate around their plateaus at these desk-scale s, so
    # only rule out genuine growth here; the sharp exponent checks run
    # on long windows with the oscillation amplitude removed
    for name, cap in (("t_u", 0.1), ("t32_v", 0.7), ("s32_dv", 0.7)):
        assert np.isfinite(mons[name].slope)
        assert mons[name].slope < cap, (name, mons[name].slope)


class TestBootstrap:
    def test_default_calibration_holds_on_free_data(self, oracle_sampler):
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=0.02)
        s_grid = np.linspace(2.0, 10.0, 9)
        out = ineq.bootstrap_monitor(word_records(oracle_sampler, s_grid, scn), scn)
        assert out["ok"]
        assert out["first_failure"] is None
        assert_allclose(out["c1eps"] * s_grid[0] ** out["delta"],
                        10.0 * out["value"][0])

    def test_growth_past_ten_times_reports_first_failure(self):
        # fabricated word records whose combined series sqrt(E1) + 4
        # sqrt(E0c) runs 1, 2, 11, 12: at s = 4 it passes the calibrated
        # bound 10 (4/2)^delta = 10.35
        scn = make_scenario()
        # (s, E1 of two words of u, E0c of v)
        series = ((2.0, (1.0, 0.0), 0.0), (3.0, (1.0, 3.0), 0.0),
                  (4.0, (49.0, 32.0), 0.25), (5.0, (144.0, 0.0), 0.0))
        records = [{"s": s, "energies": {"u": {"": {"e1": e1[0]}, "t": {"e1": e1[1]}},
                                         "v": {"": {"e0c": e0c}}}}
                   for s, e1, e0c in series]
        out = ineq.bootstrap_monitor(records, scn)
        assert_allclose(out["value"], [1.0, 2.0, 11.0, 12.0])
        assert not out["ok"]
        assert out["first_failure"] == 4.0
