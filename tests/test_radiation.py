import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekg import radiation as rad
from wavekg.energies import hyperboloid_samples
from wavekg.geometry import MU_FAN, HyperbolaCurve, null_radii
from wavekg.oracles import DalembertField, OracleSampler, free_wave_radiation
from wavekg.profiles import Profile
from wavekg.solver import HistorySampler

from conftest import EPS, ZERO, make_scenario

U0 = Profile("bump", k=4, radius=1.0, amp=EPS)


@pytest.fixture(scope="module")
def free_sampler():
    return OracleSampler(DalembertField(U0, ZERO), None)


@pytest.fixture(scope="module")
def free_scn():
    return make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, v0=ZERO, v1=ZERO)


def test_neville_extrapolation_exact_on_polynomials():
    x = 1.0 / np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    y = 3.0 + 2.0 * x + 5.0 * x**2
    limit, corr = rad._neville_to_zero(x, y)
    assert_allclose(limit, 3.0, rtol=1e-12)
    assert corr < 1e-10


def test_neville_single_sample_has_infinite_bar():
    limit, corr = rad._neville_to_zero(np.array([0.1]), np.array([7.0]))
    assert limit == 7.0 and corr == np.inf


class TestNullRay:
    def test_matches_closed_form(self, free_sampler):
        radii = np.geomspace(50.0, 800.0, 6)
        for mu in (-0.5, 0.0, 0.5):
            est = rad.radiation_null(free_sampler, mu, radii)
            exact = free_wave_radiation(U0, ZERO, np.array([mu]))[0]
            assert abs(est.value - exact) < 1e-6 * EPS / 1e-3
            assert abs(est.value - exact) <= max(3.0 * est.error_bar, 1e-12)
            assert est.method == "null-ray"

    def test_vanishes_outside_unit_retarded_window(self, free_sampler):
        radii = np.geomspace(50.0, 800.0, 6)
        est = rad.radiation_null(free_sampler, 1.5, radii)
        assert abs(est.value) < 1e-12

    def test_rejects_unsorted_radii(self, free_sampler):
        with pytest.raises(ValueError, match="strictly increasing"):
            rad.radiation_null(free_sampler, 0.0, np.array([10.0, 5.0, 20.0]))


class TestHyperbola:
    def test_matches_null_ray_free_wave(self, free_sampler, free_scn):
        # c0 = 3 lands at retarded time mu = c0/2 - 2 = -0.5
        curve = HyperbolaCurve(3.0)
        est = rad.radiation_hyperbola(free_sampler, free_scn, curve, tau_max=600.0)
        exact = free_wave_radiation(U0, ZERO, np.array([-0.5]))[0]
        assert est.mu == pytest.approx(-0.5)
        assert abs(est.value - exact) <= est.error_bar + 1e-6
        assert abs(est.value - exact) < 1e-4

    def test_rejects_horizon_at_entry(self, free_sampler, free_scn):
        with pytest.raises(ValueError, match="horizon"):
            rad.radiation_hyperbola(free_sampler, free_scn,
                                    HyperbolaCurve(3.0), tau_max=3.0)


def test_transport_residual_small_on_oracle(free_sampler, free_scn):
    curve = HyperbolaCurve(3.0)
    tau = np.linspace(4.0, 40.0, 1200)
    _, resid, worst = rad.transport_check(free_sampler, free_scn, curve, tau)
    # U solves the transport identity exactly; only the centered
    # difference of U' survives
    assert worst < 1e-7

    with pytest.raises(ValueError, match="uniform"):
        rad.transport_check(free_sampler, free_scn, curve,
                            np.geomspace(4.0, 40.0, 100))


def test_excessive_decay_structure(free_sampler, free_scn):
    s_grid = np.linspace(3.0, 10.0, 8)
    out = rad.excessive_decay_check(
        hyperboloid_samples(free_sampler, s_grid, free_scn), free_scn)
    for key in ("hypothesis", "excessive", "energy", "weighted_energy",
                "slope_hypothesis", "slope_excessive",
                "slope_weighted_energy"):
        assert key in out
    # at s = 2 the exterior band sits ahead of the wavefront; from s = 3
    # on it straddles the support and the sups are positive
    assert np.all(out["hypothesis"] > 0.0)
    # free-wave energy is conserved, so the sigma-weighted series grows
    # at exactly 2 sigma
    assert_allclose(out["slope_weighted_energy"], 2.0 * out["sigma"],
                    atol=1e-3)


def _fan_values(sampler, mu_grid, radii):
    """The fan's values, radii holding one row per ray or one row for all."""
    rows = np.broadcast_to(radii, np.shape(mu_grid) + np.shape(radii)[-1:])
    return np.array([e.value for e in rad.radiation_fan(sampler, mu_grid, rows)])


def _norm_in_mu(vals, mu_grid):
    return float(np.sqrt(np.trapezoid(vals**2, x=mu_grid)))


def _e0_series(sampler, s_grid, scn):
    """E0(s, u) of a run on the s grid, rigidity_experiment's input."""
    return [sample["e0_u"] for sample in hyperboloid_samples(sampler, s_grid, scn)]


def test_radiation_norm_positive_free_zero_otherwise(free_sampler):
    mu_grid = np.linspace(-1.0, 1.0, 9)
    radii = np.geomspace(50.0, 800.0, 6)
    vals = _fan_values(free_sampler, mu_grid, radii)
    assert _norm_in_mu(vals, mu_grid) > 0.0
    assert vals.shape == mu_grid.shape

    silent = OracleSampler(None, None)
    vals0 = _fan_values(silent, mu_grid, radii)
    assert _norm_in_mu(vals0, mu_grid) == 0.0
    assert np.all(vals0 == 0.0)


def test_solver_free_wave_radiation_matches_closed_form(free_wave_history):
    # the pipeline's fan, each ray on its own radii, on a solver run; the
    # rigidity stage samples its free-wave control from the oracle, so this
    # is where the solver's extraction of a radiating run is checked
    sampler = HistorySampler(free_wave_history)
    radii = null_radii(free_wave_history.t_last, MU_FAN)
    vals = _fan_values(sampler, MU_FAN, radii)
    norm = _norm_in_mu(vals, MU_FAN)
    exact = free_wave_radiation(U0, ZERO, MU_FAN)
    exact_norm = np.sqrt(np.trapezoid(exact**2, x=MU_FAN))
    assert abs(norm - exact_norm) <= 0.05 * exact_norm
    assert np.max(np.abs(vals - exact)) <= 0.25 * np.max(np.abs(exact))


class TestRigidity:
    def test_verdicts(self, free_sampler, free_scn):
        samplers = {"zero": OracleSampler(None, None), "free": free_sampler}
        s_grid = np.linspace(2.0, 6.0, 5)
        mu_grid = np.linspace(-1.0, 1.0, 9)
        radii = np.geomspace(50.0, 800.0, 6)
        floor = 10.0 * free_scn.dr**2 * free_scn.eps
        runs = {label: (_e0_series(sampler, s_grid, free_scn),
                        _fan_values(sampler, mu_grid, radii))
                for label, sampler in samplers.items()}
        out = rad.rigidity_experiment(runs, mu_grid, floor)
        assert out["rigidity_consistent"]
        assert out["zero"]["zero_data"] and out["zero"]["silent"]
        assert out["zero"]["e0_initial"] == 0.0
        assert out["zero"]["radiation_norm"] == 0.0
        assert not out["free"]["zero_data"] and not out["free"]["silent"]
        lo, hi = out["free"]["comparability"]
        assert 0.9 < lo <= 1.0 <= hi < 1.1

    def test_negative_control_detects_mismatch(self, free_sampler, free_scn):
        # a floor placed between the radiation norm and the data amplitude
        # must break consistency: the run looks silent but carries energy
        s_grid = np.linspace(2.0, 4.0, 3)
        mu_grid = np.linspace(-1.0, 1.0, 9)
        radii = np.geomspace(50.0, 800.0, 6)
        vals = _fan_values(free_sampler, mu_grid, radii)
        rnorm = _norm_in_mu(vals, mu_grid)
        from wavekg.energies import build_sample, energy_e0c, hyperboloid_nodes
        e0 = energy_e0c(build_sample(free_sampler, 2.0,
                                     hyperboloid_nodes(2.0, free_scn.dr)),
                        0.0, "u")
        amp = np.sqrt(e0)
        lo, hi = sorted((rnorm, amp))
        if hi / lo < 1.05:
            pytest.skip("norm and amplitude too close to separate")
        floor = np.sqrt(lo * hi)
        runs = {"free": (_e0_series(free_sampler, s_grid, free_scn), vals)}
        out = rad.rigidity_experiment(runs, mu_grid, floor)
        assert not out["rigidity_consistent"]
