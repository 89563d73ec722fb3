import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import solve_ivp

from wavekg import _shares, kg_reduction as kgr

from conftest import make_scenario


def zero(s):
    return np.full_like(s, 0.0)


def harmonic_problem(c=1.3, span=(2.0, 20.0)):
    """One case of v'' + c^2 v = 0 from v = 1, v' = 0."""
    return kgr.OscillatorProblem(c=np.array([c]), q=zero, f=zero,
                                 v0=np.array([1.0]), v0p=np.array([0.0]),
                                 span=span, qp=zero)


def sinusoidal_batch(c, a, b, phi, amp, w, v0, v0p, span=(2.0, 20.0)):
    """Cases v'' + c^2 (1 + a sin(b s + phi)) v = amp cos(w s), one per entry."""
    a, b, phi, amp, w = (np.asarray(x, dtype=float)[:, None]
                         for x in (a, b, phi, amp, w))
    c, v0, v0p = (np.asarray(x, dtype=float) for x in (c, v0, v0p))
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


def kg_lab_batch(seed):
    """The kg-lab stage's 100 cases, drawn as _stage_kg_lab draws them, from
    a generator at seed."""
    lo = [0.5, -0.4, 0.2, 0.0, 0.0, 0.2, -1.0, -1.0]
    hi = [2.0, 0.4, 2.0, 2 * np.pi, 0.5, 2.0, 1.0, 1.0]
    return sinusoidal_batch(*np.random.default_rng(seed).uniform(lo, hi, size=(100, 8)).T)


class TestOscillator:
    def test_matches_exact_harmonic_solution(self):
        prob = harmonic_problem()
        out = kgr.integrate_oscillator(prob)
        v, vp = kgr.trajectory_values(out)
        s0 = prob.span[0]
        # a batch of one case
        assert v.shape == vp.shape == (1, out["s"].size)
        exact = np.cos(prob.c * (out["s"] - s0))
        assert_allclose(v[0], exact, atol=1e-8)
        assert_allclose(vp[0], -prob.c * np.sin(prob.c * (out["s"] - s0)),
                        atol=1e-8)

    def test_rejects_large_coefficient(self):
        prob = kgr.OscillatorProblem(c=np.array([1.0]),
                                     q=lambda s: np.full_like(s, 0.8), f=zero,
                                     v0=np.array([1.0]), v0p=np.array([0.0]),
                                     span=(2.0, 4.0), qp=zero)
        with pytest.raises(ValueError, match="> 1/2"):
            kgr.integrate_oscillator(prob)

    def test_driven_oscillator_particular_solution(self):
        # v'' + v = sin(2s): particular solution -sin(2s)/3
        c = 1.0
        s0 = 2.0
        part = lambda s: -np.sin(2.0 * s) / 3.0
        partp = lambda s: -2.0 * np.cos(2.0 * s) / 3.0
        prob = kgr.OscillatorProblem(c=np.array([c]), q=zero,
                                     f=lambda s: np.sin(2.0 * s),
                                     v0=np.array([part(s0)]),
                                     v0p=np.array([partp(s0)]),
                                     span=(s0, 12.0), qp=zero)
        out = kgr.integrate_oscillator(prob)
        assert_allclose(kgr.trajectory_values(out)[0][0], part(out["s"]), atol=1e-8)

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
        v, vp = kgr.trajectory_values(out)
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
            for got, want in ((v[i], ref[0]), (vp[i], ref[1])):
                peak = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-10 * peak, i

    def test_non_finite_source_raises(self):
        prob = kgr.OscillatorProblem(
            c=np.array([1.0]), q=zero, f=lambda s: np.where(s > 3.0, np.nan, 0.0),
            v0=np.array([1.0]), v0p=np.array([0.0]), span=(2.0, 20.0), qp=zero)
        with pytest.raises(RuntimeError, match=r"oscillator integration failed: "
                           r"non-finite q or f at s = 3\.0020 \(case 0\)"):
            kgr.integrate_oscillator(prob)

    def test_rejects_one_large_coefficient_in_a_batch(self):
        prob = sinusoidal_batch(c=[1.0, 1.5, 0.8], a=[0.2, 0.45, 0.7],
                                b=[1.0, 1.0, 1.0], phi=[0.0, 0.0, 0.0],
                                amp=[0.0, 0.0, 0.0], w=[1.0, 1.0, 1.0],
                                v0=[1.0, 1.0, 1.0], v0p=[0.0, 0.0, 0.0],
                                span=(2.0, 4.0))
        with pytest.raises(ValueError, match="> 1/2"):
            kgr.integrate_oscillator(prob)


def test_sixth_order_on_the_harmonic_oscillator(monkeypatch):
    # twice the steps divide the error by 2^6 = 64 (62-64 measured from 125
    # to 1000 steps)
    prob = harmonic_problem()
    errors = []
    for n_steps in (250, 500):
        monkeypatch.setattr(kgr, "_N_STEPS", n_steps)
        out = kgr.integrate_oscillator(prob)
        exact = np.cos(prob.c[0] * (out["s"] - prob.span[0]))
        errors.append(np.max(np.abs(kgr.trajectory_values(out)[0][0] - exact)))
    assert errors[0] >= 45.0 * errors[1], errors


def test_kg_lab_sweep_matches_a_stacked_reference():
    # the stage's 100 cases against one tight DOP853 solve of the stacked
    # system, within 1e-10 of each row's peak
    prob = kg_lab_batch(0)
    n = prob.c.size
    out = kgr.integrate_oscillator(prob)

    def rhs(t, y):
        grid = np.full((n, 1), t)
        q, f = prob.q(grid)[:, 0], prob.f(grid)[:, 0]
        return np.concatenate([y[n:], -prob.c**2 * (1.0 + q) * y[:n] + f])

    ref = solve_ivp(rhs, prob.span, np.concatenate([prob.v0, prob.v0p]),
                    method="DOP853", rtol=1e-13, atol=1e-16,
                    dense_output=True).sol(out["s"])
    got = np.concatenate(kgr.trajectory_values(out))
    err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert err.max() <= 1e-10, err.max()


def test_kg_lab_sweep_peak_memory():
    # the nodes of 100 cases are 2.3 MiB; the chunks' coefficients come and
    # go, and the solve peaks at 3.7 MiB under tracemalloc
    prob = kg_lab_batch(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = kgr.integrate_oscillator(prob)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out["nodes"].nbytes == 1001 * 3 * 100 * 8
    assert peak <= 4.5 * 2**20, peak


@pytest.mark.parametrize("q,f,v0,error,message", [
    (lambda s: np.where(s > 5.1, [[0.0], [0.8]], 0.0), zero, 1.0, ValueError,
     r"^oscillator coefficient \|q\(5\.1020\)\| = 0\.800 > 1/2 \(case 1\)$"),
    (zero, zero, np.nan, ValueError,
     r"^All components of the initial state `y0` must be finite\.$"),
    (zero, lambda s: np.where(s > 3.0, [[0.0], [np.nan]], 0.0), 1.0, RuntimeError,
     r"^oscillator integration failed: non-finite q or f at s = 3\.0020 "
     r"\(case 1\)$"),
], ids=["large-coefficient", "non-finite-start", "non-finite-source"])
def test_failure_messages(q, f, v0, error, message):
    # each names the first offending stage time and case: with h = 0.018,
    # 5.1020 is s0 + (172 + 1/3) h and 3.0020 is s0 + (55 + 2/3) h
    prob = kgr.OscillatorProblem(c=np.array([1.0, 1.0]), q=q, f=f,
                                 v0=np.array([1.0, v0]), v0p=np.zeros(2),
                                 span=(2.0, 20.0), qp=zero)
    with pytest.raises(error, match=message):
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

    def test_dense_trajectory_resolves_the_quadrature_error(self, monkeypatch):
        # case 60 of the kg-lab sweep at --seed 227023696: on a 2000-point
        # trajectory the trapezoid error of the source integral (h = 18/1999)
        # pushed the measured constant past 1 + 1e-6
        a, b, phi = -0.0712742080513521, 1.1974367162377348, 3.6594245146933644
        amp, w = 0.06114291653628995, 1.604522262593011
        prob = kgr.OscillatorProblem(
            c=np.array([0.9981340012859121]),
            q=lambda s: a * np.sin(b * s + phi),
            qp=lambda s: a * b * np.cos(b * s + phi),
            f=lambda s: amp * np.cos(w * s),
            v0=np.array([0.009731903831669442]),
            v0p=np.array([-0.889990854876255]), span=(2.0, 20.0))
        report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        monkeypatch.setattr(kgr, "_N_DENSE", 2000)
        coarse = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        assert coarse["c_quadratic"] > 1.0 + 1e-6
        assert report["c_quadratic"] <= 1.0

    def test_constants_do_not_depend_on_the_column_blocks(self, monkeypatch):
        # the lemma runs over blocks of grid columns; the running integrals
        # carried between blocks must give the one-block constants
        prob = random_batch(np.random.default_rng(3), 8)
        monkeypatch.setattr(kgr, "_N_DENSE", 5001)
        traj = kgr.integrate_oscillator(prob)
        blocked = kgr.check_ode_lemma(prob, traj)
        monkeypatch.setattr(kgr, "_DENSE_COLUMNS", 5001)
        whole = kgr.check_ode_lemma(prob, traj)
        for key in ("c_quadratic", "c_printed", "slack_quadratic",
                    "diag_residual"):
            assert_allclose(blocked[key], whole[key], rtol=1e-12, atol=1e-15)

    def test_column_reads_keep_every_bit(self, monkeypatch):
        # each dense value depends only on its own grid point, so how the
        # trajectory's columns are read together changes no bit
        prob = random_batch(np.random.default_rng(5), 23)
        monkeypatch.setattr(kgr, "_N_DENSE", 5001)
        traj = kgr.integrate_oscillator(prob)
        whole = kgr.trajectory_values(traj)
        for lo, hi in ((0, 1), (7, 2049), (4000, 5001)):
            for part, full in zip(kgr.trajectory_values(traj, slice(lo, hi)), whole):
                assert_array_equal(part, full[:, lo:hi])

    # 5001 points: 20 blocks, the last one short; 300: fewer blocks than
    # workers
    @pytest.mark.parametrize("n_dense", [5001, 300])
    def test_worker_count_does_not_change_a_bit(self, monkeypatch, n_dense):
        prob = random_batch(np.random.default_rng(11), 9)
        monkeypatch.setattr(kgr, "_N_DENSE", n_dense)
        traj = kgr.integrate_oscillator(prob)
        appendix_matrices = kgr.appendix_matrices
        sampled = []

        def spy(c, q):
            sampled.append(q)
            return appendix_matrices(c, q)

        monkeypatch.setattr(kgr, "appendix_matrices", spy)
        keys = ("c_quadratic", "c_printed", "slack_quadratic", "diag_residual")
        monkeypatch.setattr(_shares, "worker_count", lambda: 1)
        one = kgr.check_ode_lemma(prob, traj)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            for workers in (2, 3):
                monkeypatch.setattr(_shares, "worker_count", lambda: workers)
                shared = kgr.check_ode_lemma(prob, traj)
                for key in keys:
                    assert np.array_equal(shared[key], one[key]), (workers, key)
        finally:
            sys.setswitchinterval(interval)
        # the residual is taken at q = -1/2, 0 and 1/2, on every worker count
        assert len(sampled) == 3
        for q_sampled in sampled:
            assert np.array_equal(q_sampled.ravel(), [-0.5, 0.0, 0.5])

    # of two shares, block 0 on the calling share and block 3 on the other;
    # of three, the last block, on the second share (8 blocks) and on the
    # calling share (7 blocks), where the None lands behind carries already
    # on the queues
    @pytest.mark.parametrize("workers, n_dense, failing_block", [
        pytest.param(2, 2000, 0, id="0"),
        pytest.param(2, 2000, 3, id="3"),
        pytest.param(3, 2000, 7, id="last-of-three"),
        pytest.param(3, 1700, 6, id="last-of-three-on-the-caller")])
    def test_a_failing_share_releases_the_others(self, monkeypatch, workers,
                                                 n_dense, failing_block):
        class BlockFailed(Exception):
            pass

        prob = random_batch(np.random.default_rng(13), 4)
        monkeypatch.setattr(kgr, "_N_DENSE", n_dense)
        traj = kgr.integrate_oscillator(prob)
        s_fail = traj["s"][failing_block * (kgr._DENSE_COLUMNS - 1)]
        q = prob.q

        def failing_q(s):
            if s[0, 0] == s_fail:
                raise BlockFailed
            return q(s)

        failing = dataclasses.replace(prob, q=failing_q)
        monkeypatch.setattr(_shares, "worker_count", lambda: workers)
        before = threading.active_count()
        raised = []

        def call():
            try:
                kgr.check_ode_lemma(failing, traj)
            except BlockFailed as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(10.0)
        assert not caller.is_alive(), "a share waits for a carry never handed on"
        assert len(raised) == 1
        assert threading.active_count() == before

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
