import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import solve_ivp

from wavekg import _shares, kg_reduction as kgr

from conftest import make_scenario


def one_case(c=1.3, a=0.0, b=1.0, phase=0.0, amp=0.0, freq=1.0, v0=1.0, v0p=0.0,
             span=(2.0, 20.0)):
    """One case of v'' + c^2 (1 + a sin(b s + phase)) v = amp cos(freq s),
    by default harmonic from v = 1, v' = 0."""
    return kgr.OscillatorProblem(*([x] for x in (c, a, b, phase, amp, freq, v0, v0p)),
                                 span=span)


def sinusoidal_batch(c, a, b, phi, amp, w, v0, v0p, span=(2.0, 20.0)):
    """Cases v'' + c^2 (1 + a sin(b s + phi)) v = amp cos(w s), one per entry."""
    return kgr.OscillatorProblem(c, a, b, phi, amp, w, v0, v0p, span=span)


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
        prob = one_case()
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
        with pytest.raises(ValueError, match=r"\|a\| = 0\.800 > 1/2, .* \(case 0\)$"):
            one_case(a=0.8, span=(2.0, 4.0))

    def test_driven_oscillator_particular_solution(self):
        # v'' + v = cos(2s): particular solution -cos(2s)/3
        s0 = 2.0
        part = lambda s: -np.cos(2.0 * s) / 3.0
        partp = lambda s: 2.0 * np.sin(2.0 * s) / 3.0
        prob = one_case(c=1.0, amp=1.0, freq=2.0, v0=part(s0), v0p=partp(s0),
                        span=(s0, 12.0))
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
        with pytest.raises(ValueError, match=r"^oscillator amp = nan is not finite "
                                             r"\(case 0\)$"):
            one_case(amp=np.nan)

    def test_rejects_one_large_coefficient_in_a_batch(self):
        with pytest.raises(ValueError, match=r"\|a\| = 0\.700 > 1/2, .* \(case 2\)$"):
            sinusoidal_batch(c=[1.0, 1.5, 0.8], a=[0.2, 0.45, 0.7],
                             b=[1.0, 1.0, 1.0], phi=[0.0, 0.0, 0.0],
                             amp=[0.0, 0.0, 0.0], w=[1.0, 1.0, 1.0],
                             v0=[1.0, 1.0, 1.0], v0p=[0.0, 0.0, 0.0],
                             span=(2.0, 4.0))

    def test_the_batch_is_a_frozen_copy(self):
        a = np.array([0.1, -0.2])
        prob = sinusoidal_batch(c=[1.0, 2.0], a=a, b=[1.0, 1.0], phi=[0.0, 0.0],
                                amp=[0.0, 0.0], w=[1.0, 1.0], v0=[1.0, 1.0],
                                v0p=[0.0, 0.0])
        a[0] = 0.9
        assert prob.a[0] == 0.1
        with pytest.raises(ValueError, match="read-only"):
            prob.a[0] = 0.9
        with pytest.raises(AttributeError):
            prob.a = a
        assert prob[1:].c.tolist() == [2.0] and prob[1:].span == prob.span


def test_sixth_order_on_the_harmonic_oscillator(monkeypatch):
    # twice the steps divide the error by 2^6 = 64 (62-64 measured from 125
    # to 1000 steps)
    prob = one_case()
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


@pytest.mark.parametrize("field,value,message", [
    ("a", -0.8, r"^oscillator coefficient \|a\| = 0\.800 > 1/2, so \|q\| may pass 1/2 "
                r"\(case 1\)$"),
    ("v0", np.nan, r"^oscillator v0 = nan is not finite \(case 1\)$"),
    ("freq", np.inf, r"^oscillator freq = inf is not finite \(case 1\)$"),
    ("c", [1.0, 1.0, 1.0], r"^oscillator cases must be 1-D arrays of one shape, "
                           r"got shapes \[\(3,\), \(2,\), \(2,\), "),
    ("span", (2.0, 2.0), r"^oscillator span must be finite and increase, "
                         r"got \(2\.0, 2\.0\)$"),
], ids=["large-coefficient", "non-finite-start", "non-finite-source", "shapes", "span"])
def test_failure_messages(field, value, message):
    # the batch is checked once, when it is built; each error names the
    # first offending case, the bad value sitting in case 1 of two
    fields = dict(c=[1.0, 1.0], a=[0.1, 0.1], b=[1.0, 1.0], phase=[0.0, 0.0],
                  amp=[0.5, 0.5], freq=[1.0, 1.0], v0=[1.0, 1.0], v0p=[0.0, 0.0],
                  span=(2.0, 20.0))
    fields[field] = value if np.ndim(value) != 0 else [fields[field][0], value]
    with pytest.raises(ValueError, match=message):
        kgr.OscillatorProblem(**fields)


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
        # the sup sits in the first columns, where the trapezoid's first
        # interval decides, so the grid is not thinned
        cases = [
            # case 60 of the kg-lab sweep at --seed 227023696: on a
            # 2000-point trajectory the trapezoid error of the source
            # integral (h = 18/1999) pushed the constant past 1 + 1e-6
            (dict(c=0.9981340012859121, a=-0.0712742080513521, b=1.1974367162377348,
                  phase=3.6594245146933644, amp=0.06114291653628995,
                  freq=1.604522262593011, v0=0.009731903831669442,
                  v0p=-0.889990854876255), 2000, None),
            # case 45 of the kg-lab sweep at --seed 961320356: 5001 columns,
            # a quarter of the grid, still read 1.0000051112854582
            (dict(c=0.7983097749167382, a=0.381684989194631, b=1.8758796404149027,
                  phase=0.2799615864787465, amp=0.4970447233006803,
                  freq=1.6963309348183164, v0=0.00446066079062879,
                  v0p=-0.8352114907059442), 5001, 1.0000051112854582),
        ]
        for case, n_coarse, coarse in cases:
            prob = one_case(**case)
            report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
            with monkeypatch.context() as patch:
                patch.setattr(kgr, "_N_DENSE", n_coarse)
                thinned = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
            assert thinned["c_quadratic"] > 1.0 + 1e-6, n_coarse
            if coarse is not None:
                assert thinned["c_quadratic"][0] == pytest.approx(coarse, rel=1e-12)
            assert report["c_quadratic"] <= 1.0, n_coarse

    def test_constants_do_not_depend_on_the_column_blocks(self, monkeypatch):
        # the lemma runs over blocks of grid columns; the running integrals
        # carried between blocks must give the one-block constants
        prob = random_batch(np.random.default_rng(3), 8)
        monkeypatch.setattr(kgr, "_N_DENSE", 5001)
        traj = kgr.integrate_oscillator(prob)
        blocked = kgr.check_ode_lemma(prob, traj)
        monkeypatch.setattr(kgr, "_DENSE_COLUMNS", 5001)
        whole = kgr.check_ode_lemma(prob, traj)
        for key in ("c_quadratic", "c_printed_whole", "slack_quadratic",
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

    # 5001 points: 14 blocks, the last one short; 300: one block.  9 cases
    # on 2, 3 and 4 shares split 4 + 5, 3 + 3 + 3 and 2 + 2 + 2 + 3; 12
    # workers are more than the cases, and a share takes at least two
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
        shares = []
        run_shares = _shares.run_shares

        def counting(run, args):
            shares.append([rows.stop - rows.start for rows, in args])
            return run_shares(run, args)

        monkeypatch.setattr(_shares, "run_shares", counting)
        keys = ("c_quadratic", "c_printed_whole", "slack_quadratic", "diag_residual")
        monkeypatch.setattr(_shares, "worker_count", lambda: 1)
        one = kgr.check_ode_lemma(prob, traj)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            for workers in (2, 3, 4, 12):
                monkeypatch.setattr(_shares, "worker_count", lambda: workers)
                shared = kgr.check_ode_lemma(prob, traj)
                for key in keys:
                    assert np.array_equal(shared[key], one[key]), (workers, key)
        finally:
            sys.setswitchinterval(interval)
        assert shares == [[9], [4, 5], [3, 3, 3], [2, 2, 2, 3], [2, 2, 2, 3]]
        # the residual is taken at q = -1/2, 0 and 1/2, on every worker count
        assert len(sampled) == 5
        for q_sampled in sampled:
            assert np.array_equal(q_sampled.ravel(), [-0.5, 0.0, 0.5])

    def test_printed_form_carries_equivalence_factor(self):
        prob = one_case(c=1.0)
        report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        assert report["printed_factor"] == pytest.approx(np.sqrt(6.0))
        # free oscillation: no growth at all in either form
        assert report["c_quadratic"] <= 1e-6
        assert report["slack_quadratic"] >= -1e-9

    def test_printed_constant_is_the_whole_form_ratio(self):
        # the kg-lab batch drawn at seed 0: each case's smallest constant of
        # the printed lemma lies within its derived factor sqrt(6) max(1, c).
        # An increment over the integral just past s0 read 194 here
        lo = [0.5, -0.4, 0.2, 0.0, 0.0, 0.2, -1.0, -1.0]
        hi = [2.0, 0.4, 2.0, 2.0 * np.pi, 0.5, 2.0, 1.0, 1.0]
        prob = kgr.OscillatorProblem(
            *np.random.default_rng(0).uniform(lo, hi, size=(100, 8)).T,
            span=(2.0, 20.0))
        report = kgr.check_ode_lemma(prob, kgr.integrate_oscillator(prob))
        ratio = report["c_printed_whole"]
        assert np.all(ratio <= report["printed_factor"])
        assert 1.0 <= ratio.max() <= 2.0
        # zero data and zero source: v stays 0, and the ratio reads 0
        still = one_case(amp=0.0, v0=0.0, v0p=0.0)
        report = kgr.check_ode_lemma(still, kgr.integrate_oscillator(still))
        assert report["c_printed_whole"] == 0.0


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
