import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from wavekg import kg_reduction as kgr

from conftest import make_scenario


def harmonic_problem(c=1.3, span=(2.0, 20.0)):
    return kgr.OscillatorProblem(c=c, q=lambda s: 0.0, f=lambda s: 0.0,
                                 v0=1.0, v0p=0.0, span=span,
                                 qp=lambda s: 0.0)


def sinusoidal_batch(c, a, b, phi, amp, w, v0, v0p, span=(2.0, 20.0)):
    """Cases v'' + c^2 (1 + a sin(b s + phi)) v = amp cos(w s), one per entry."""
    a, b, phi, amp, w = (np.asarray(x, dtype=float)[:, None]
                         for x in (a, b, phi, amp, w))
    return kgr.OscillatorProblem(
        c=c,
        q=lambda s: a * np.sin(b * s + phi),
        qp=lambda s: a * b * np.cos(b * s + phi),
        f=lambda s: amp * np.cos(w * s),
        v0=v0, v0p=v0p, span=span)


def random_batch(rng, n):
    """n random cases; row i of the draws holds case i's c, a, b, phi, amp,
    w, v0, v0p, in the order of drawing one case at a time."""
    lo = [0.5, -0.4, 0.2, 0.0, 0.0, 0.3, -1.0, -1.0]
    hi = [2.0, 0.4, 2.0, 2 * np.pi, 1.0, 3.0, 1.0, 1.0]
    return sinusoidal_batch(*rng.uniform(lo, hi, size=(n, 8)).T)


class TestOscillator:
    def test_matches_exact_harmonic_solution(self):
        prob = harmonic_problem()
        out = kgr.integrate_oscillator(prob)
        s0 = prob.span[0]
        # a scalar problem is a batch of one case
        assert out["v"].shape == out["vp"].shape == (1, out["s"].size)
        exact = np.cos(prob.c * (out["s"] - s0))
        assert_allclose(out["v"][0], exact, atol=1e-8)
        assert_allclose(out["vp"][0], -prob.c * np.sin(prob.c * (out["s"] - s0)),
                        atol=1e-8)

    def test_rejects_large_coefficient(self):
        prob = kgr.OscillatorProblem(c=1.0, q=lambda s: 0.8, f=lambda s: 0.0,
                                     v0=1.0, v0p=0.0, span=(2.0, 4.0),
                                     qp=lambda s: 0.0)
        with pytest.raises(ValueError, match="> 1/2"):
            kgr.integrate_oscillator(prob)

    def test_driven_oscillator_particular_solution(self):
        # v'' + v = sin(2s): particular solution -sin(2s)/3
        c = 1.0
        s0 = 2.0
        part = lambda s: -np.sin(2.0 * s) / 3.0
        partp = lambda s: -2.0 * np.cos(2.0 * s) / 3.0
        prob = kgr.OscillatorProblem(c=c, q=lambda s: 0.0,
                                     f=lambda s: np.sin(2.0 * s),
                                     v0=part(s0), v0p=partp(s0),
                                     span=(s0, 12.0), qp=lambda s: 0.0)
        out = kgr.integrate_oscillator(prob)
        assert_allclose(out["v"][0], part(out["s"]), atol=1e-8)

    @pytest.mark.parametrize("prob", [
        random_batch(np.random.default_rng(11), 12),
        # a slow case next to a fast, strongly modulated one
        sinusoidal_batch(c=[0.5, 2.0], a=[0.1, 0.49], b=[0.7, 2.0],
                         phi=[0.3, 1.0], amp=[0.2, 0.5], w=[1.1, 2.5],
                         v0=[0.8, 1.0], v0p=[-0.4, 0.0]),
    ], ids=["random-12", "slow-next-to-fast"])
    def test_every_case_matches_an_independent_reference(self, prob):
        # each case against its own tighter DOP853 solve, within 1e-10 of
        # the case's peak
        out = kgr.integrate_oscillator(prob)
        s = out["s"]
        n = prob.c.size
        for i in range(n):
            def rhs(t, y, i=i):
                grid = np.array([[t]])
                q = np.broadcast_to(prob.q(grid), (n, 1))[i, 0]
                f = np.broadcast_to(prob.f(grid), (n, 1))[i, 0]
                return [y[1], -prob.c[i] ** 2 * (1.0 + q) * y[0] + f]

            ref = solve_ivp(rhs, prob.span, [prob.v0[i], prob.v0p[i]],
                            method="DOP853", rtol=1e-13, atol=1e-16,
                            dense_output=True).sol(s)
            for got, want in ((out["v"][i], ref[0]), (out["vp"][i], ref[1])):
                peak = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-10 * peak, i

    def test_non_finite_source_raises(self):
        prob = kgr.OscillatorProblem(
            c=1.0, q=lambda s: 0.0, f=lambda s: np.where(s > 3.0, np.nan, 0.0),
            v0=1.0, v0p=0.0, span=(2.0, 20.0), qp=lambda s: 0.0)
        with pytest.raises(RuntimeError, match="oscillator integration failed"):
            kgr.integrate_oscillator(prob, n_dense=200)

    def test_rejects_one_large_coefficient_in_a_batch(self):
        prob = sinusoidal_batch(c=[1.0, 1.5, 0.8], a=[0.2, 0.45, 0.7],
                                b=[1.0, 1.0, 1.0], phi=[0.0, 0.0, 0.0],
                                amp=[0.0, 0.0, 0.0], w=[1.0, 1.0, 1.0],
                                v0=[1.0, 1.0, 1.0], v0p=[0.0, 0.0, 0.0],
                                span=(2.0, 4.0))
        with pytest.raises(ValueError, match="> 1/2"):
            kgr.integrate_oscillator(prob)


class TestAppendixMatrices:
    @pytest.mark.parametrize("c,q", [(1.0, 0.0), (0.7, 0.4), (2.0, -0.45)])
    def test_diagonalization_identities(self, c, q):
        P, Q, Pinv = kgr.appendix_matrices(c, q)
        A = np.array([[0.0, -c**2 * (1.0 + q)], [1.0, 0.0]], dtype=complex)
        assert np.max(np.abs(P @ Pinv - np.eye(2))) < 1e-12
        assert np.max(np.abs(P @ Q @ Pinv - A)) < 1e-12


class TestOdeLemma:
    def test_quadratic_constant_at_most_one_over_sweep(self):
        # the exact-integrand form of the lemma has constant exactly 1;
        # the measured ratio over a hundred random coefficient/source
        # pairs must never exceed it
        prob = random_batch(np.random.default_rng(7), 100)
        report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        assert report["c_quadratic"].shape == (100,)
        worst = report["c_quadratic"].max()
        assert worst <= 1.0 + 1e-6, worst
        assert report["diag_residual"].max() < 1e-12

    def test_dense_trajectory_resolves_the_quadrature_error(self):
        # case 60 of the kg-lab sweep at --seed 227023696: on a 2000-point
        # trajectory the trapezoid error of the source integral (h = 18/1999)
        # pushed the measured constant past 1 + 1e-6
        a, b, phi = -0.0712742080513521, 1.1974367162377348, 3.6594245146933644
        amp, w = 0.06114291653628995, 1.604522262593011
        prob = kgr.OscillatorProblem(
            c=0.9981340012859121,
            q=lambda s: a * np.sin(b * s + phi),
            qp=lambda s: a * b * np.cos(b * s + phi),
            f=lambda s: amp * np.cos(w * s),
            v0=0.009731903831669442, v0p=-0.889990854876255, span=(2.0, 20.0))
        coarse = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob, n_dense=2000))
        assert coarse["c_quadratic"] > 1.0 + 1e-6
        report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        assert report["c_quadratic"] <= 1.0

    def test_constants_do_not_depend_on_the_column_blocks(self, monkeypatch):
        # the lemma runs over blocks of grid columns; the running integrals
        # carried between blocks must give the one-block constants
        prob = random_batch(np.random.default_rng(3), 8)
        traj = kgr.integrate_oscillator(prob, n_dense=5001)
        blocked = kgr.check_ode_lemma(prob, traj)
        monkeypatch.setattr(kgr, "_LEMMA_COLUMNS", 5000)
        whole = kgr.check_ode_lemma(prob, traj)
        for key in ("c_quadratic", "c_printed", "slack_quadratic",
                    "diag_residual"):
            assert_allclose(blocked[key], whole[key], rtol=1e-12, atol=1e-15)

    def test_printed_form_carries_equivalence_factor(self):
        prob = harmonic_problem(c=1.0)
        report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        assert report["equivalence_factor"] == pytest.approx(np.sqrt(2.0))
        # free oscillation: no growth at all in either form
        assert report["c_quadratic"] <= 1e-6
        assert report["slack_quadratic"] >= -1e-9


class TestRayPoints:
    def test_points_lie_on_ray(self):
        s = np.linspace(2.0, 10.0, 5)
        t, r = kgr.ray_points(0.6, s)
        assert_allclose(r / t, 0.6)
        assert_allclose(t**2 - r**2, s**2, rtol=1e-12)

    def test_axis_ray(self):
        t, r = kgr.ray_points(0.0, np.array([3.0]))
        assert r[0] == 0.0 and t[0] == 3.0

    def test_rejects_bad_slope(self):
        for rho in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                kgr.ray_points(rho, np.array([2.0]))


class TestReductionResidual:
    def test_free_kg_oracle_residual_converges(self, oracle_sampler):
        # on exact jets the residual is pure differencing error in w'';
        # the finite smoothness of the data at the support edge caps the
        # observable rate near second order
        scn = make_scenario(p00=0.0, pd=0.0)
        maxes = []
        for n in (81, 161, 321, 641):
            s = np.linspace(2.0, 8.0, n)
            _, _, m = kgr.reduction_residual(oracle_sampler, scn, 0.3, s)
            maxes.append(m)
        order = np.log2(maxes[0] / maxes[-1]) / 3.0
        assert order > 1.5, (maxes, order)
        assert maxes[-1] < 1e-5

    def test_requires_uniform_grid(self, oracle_sampler):
        scn = make_scenario()
        with pytest.raises(ValueError, match="uniform"):
            kgr.reduction_residual(oracle_sampler, scn, 0.3,
                                   np.geomspace(2.0, 8.0, 30))

    def test_requires_enough_points(self, oracle_sampler):
        scn = make_scenario()
        with pytest.raises(ValueError, match="second derivative"):
            kgr.reduction_residual(oracle_sampler, scn, 0.3,
                                   np.linspace(2.0, 3.0, 5))


def test_sharp_decay_bounded_for_free_kg(oracle_sampler):
    s = np.linspace(2.0, 14.0, 25)
    s_out, vals = kgr.sharp_decay_check(oracle_sampler, s, (0.0, 0.3, 0.6))
    assert s_out.shape == vals.shape
    assert np.all(vals > 0.0)
    # bounded: the weighted sup does not grow with s
    assert np.max(vals[s_out > 8.0]) < 2.0 * np.max(vals[s_out < 4.0])
