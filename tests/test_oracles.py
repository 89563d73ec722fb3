import sys
import threading
from math import comb, factorial

import numpy as np
import pytest
from conftest import run_python_process, spectral_field
from numpy.testing import assert_allclose
from scipy.fft import dst

from wavekg import _shares, oracles
from wavekg.oracles import (_CHUNK_BYTES, _SINC_SWITCH, DalembertField,
                            KGSpectralField, OracleSampler, free_wave_radiation)
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
        tables = np.empty((4, 1, field.k.size))

        def mode_energy(t):
            b, bd = field._amplitudes(np.array([t]), tables)
            return np.sum(field.omega**2 * b**2 + bd**2)

        e0 = mode_energy(2.0)
        for t in (3.0, 10.0, 40.0):
            assert_allclose(mode_energy(t), e0, rtol=1e-12)

    def test_jet_even_in_r(self, field):
        assert_allclose(field(3.0, 0.3), field(3.0, -0.3), rtol=1e-12)

    @pytest.mark.parametrize("length, n_modes", [(64.0, 4096), (256.0, 16384)])
    def test_coefficients_are_scipy_dst_bit_for_bit(self, length, n_modes):
        # the numpy DST-I of the odd extension, against scipy's, on the
        # oracle's own w0 = r v0 and w1 = r v1 at the test suite's mode counts
        f = spectral_field(U0, V1, length, n_modes)
        nodes = length / (n_modes + 1) * np.arange(1, n_modes + 1)
        for b, profile in ((f.b0, U0), (f.b1, V1)):
            assert np.array_equal(b, dst(nodes * profile(nodes), type=1) / (n_modes + 1))


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

    def test_match_leibniz_reference_far_out_with_many_modes(self):
        # the 16384-mode, length-256 oracle of criterion 6 out to r = 50,
        # where the radial table's angle addition spans the most blocks
        field = spectral_field(U0, V1, 256.0, 16384)
        rng = np.random.default_rng(14)
        t = rng.uniform(2.0, 52.0, 64)
        r = rng.uniform(1.0, 50.0, 64)
        got = field.jets(t, r, order=3)
        for a, b in KEYS:
            ref = leibniz_reference(field, t, r, a, b)
            assert_allclose(got[(a, b)], ref, rtol=0,
                            atol=1e-10 * np.max(np.abs(ref)), err_msg=f"{(a, b)}")

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("length, n_modes", [(64.0, 4096), (256.0, 16384)])
    def test_radial_table_as_accurate_as_libm(self, length, n_modes):
        # against sin(k_m r) in long double with the exact k_m = m pi / length;
        # libm of the float64 product r*k is off by its argument's rounding
        field = spectral_field(U0, ZERO, length, n_modes)
        r = np.random.default_rng(15).uniform(0.0, 60.0, 48)
        sin, cos = field._radial_trig(r, np.empty((r.size, 2, n_modes)))
        pi = np.arccos(np.longdouble(-1.0))
        x = np.multiply.outer(r.astype(np.longdouble),
                              np.arange(1, n_modes + 1, dtype=np.longdouble) * pi / length)
        direct = np.multiply.outer(r, field.k)
        for table, libm, exact in ((sin, np.sin, np.sin(x)), (cos, np.cos, np.cos(x))):
            err = np.max(np.abs(table - exact))
            err_libm = np.max(np.abs(libm(direct) - exact))
            assert err <= 1.5 * err_libm, (err, err_libm)

    def test_memory_does_not_grow_with_the_mode_count(self):
        # the ru_maxrss rise of order-3 jets at 2000 points, in a fresh
        # process per mode count; the work tables are sized in bytes, so
        # the rise (about 5.4 MiB at 4096 modes and 6.1 MiB at 16384, with
        # two worker shares) should not depend on the modes
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from wavekg import oracles\n"
            "from wavekg.profiles import Profile\n"
            "oracles._N_MODES = int(sys.argv[1])\n"
            "field = oracles.KGSpectralField(Profile('bump', k=4, radius=1.0, amp=1.0),\n"
            "                                Profile('zero'), 1.0)\n"
            "rng = np.random.default_rng(0)\n"
            "t, r = rng.uniform(2.0, 12.0, 2000), rng.uniform(0.0, 10.0, 2000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "field.jets(t, r, order=3)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        rise_kib = []
        for n_modes in (4096, 16384):
            proc = run_python_process(["-c", script, str(n_modes)], threads=1)
            assert proc.returncode == 0, proc.stderr
            rise_kib.append(int(proc.stdout.split()[-1]))
        assert abs(rise_kib[1] - rise_kib[0]) <= 4 * 1024, rise_kib

    def test_value_independent_of_chunk_and_repeated_times(self, moving_field):
        rng = np.random.default_rng(12)
        t = rng.uniform(2.0, 12.0, 600)
        r = rng.uniform(0.0, 1.0, 600) * (t - 1.0)
        chunk = _CHUNK_BYTES // (8 * moving_field.k.size)
        edge = chunk * max(1, round(200 / chunk))   # a chunk boundary
        lo, hi = edge - 100, edge + 100
        assert 20 <= lo and hi <= 400 and lo // chunk < (hi - 1) // chunk
        t[lo:hi] = 5.0       # one repeated time across that boundary
        t[400:420] = t[7]
        r[:10] = 0.0
        r[10:20] = 0.1 / moving_field.k[:10]
        whole = moving_field.jets(t, r, order=3)
        single = [moving_field.jets(t[i], r[i], order=3) for i in range(t.size)]
        for key in KEYS:
            alone = np.array([point[key] for point in single])
            assert_allclose(whole[key], alone, rtol=1e-13,
                            atol=1e-13 * np.max(np.abs(alone)), err_msg=f"{key}")

    @pytest.mark.parametrize("order", range(4))
    def test_worker_count_does_not_change_a_bit(self, moving_field, monkeypatch, order):
        # 12 chunks: one time across the first chunk boundary, and one
        # time over chunks 3-8, across every share boundary for 2 and 3
        # workers, so a share reuses no amplitude row it did not compute
        chunk = _CHUNK_BYTES // (8 * moving_field.k.size)
        n = 11 * chunk + 3
        rng = np.random.default_rng(16)
        t = rng.uniform(2.0, 12.0, n)
        r = rng.uniform(0.0, 8.0, n)
        t[chunk - 3:chunk + 3] = 4.0
        t[3 * chunk:9 * chunk] = 6.0
        r[::5] = 0.0
        # k r below the series switch for the first 8 modes
        r[1::7] = rng.uniform(0.0, _SINC_SWITCH / moving_field.k[7], r[1::7].size)
        default = _shares.worker_count()
        monkeypatch.setattr(_shares, "worker_count", lambda: 1)
        one = moving_field.jets(t, r, order)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            for workers in (default, 3):
                monkeypatch.setattr(_shares, "worker_count", lambda: workers)
                shared = moving_field.jets(t, r, order)
                for key, val in one.items():
                    assert np.array_equal(shared[key], val), (workers, key)
        finally:
            sys.setswitchinterval(interval)

    def test_shares_leave_no_thread_and_raise_in_the_caller(self, moving_field, monkeypatch):
        # three shares of two chunks each; the second share's first chunk
        # fails inside _sinc_tables on a thread of its own
        chunk = _CHUNK_BYTES // (8 * moving_field.k.size)
        t, r = np.full(6 * chunk, 4.0), np.linspace(0.5, 8.0, 6 * chunk)
        monkeypatch.setattr(_shares, "worker_count", lambda: 3)
        before = threading.active_count()
        moving_field.jets(t, r, order=3)
        assert threading.active_count() == before

        class ShareFailed(Exception):
            pass

        sinc_tables = oracles._sinc_tables

        def failing(rc, *args):
            if rc[0] == r[2 * chunk]:
                raise ShareFailed
            sinc_tables(rc, *args)

        monkeypatch.setattr(oracles, "_sinc_tables", failing)
        with pytest.raises(ShareFailed):
            moving_field.jets(t, r, order=3)
        assert threading.active_count() == before

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
