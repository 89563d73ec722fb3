import numpy as np
import pytest
from conftest import run_python_process, spectral_field
from numpy.testing import assert_allclose
from scipy import integrate

from wavekg import energies as en
from wavekg.oracles import DalembertField, OracleSampler
from wavekg.profiles import Profile

EPS = 1e-3
U0 = Profile("bump", k=4, radius=1.0, amp=EPS)
U1 = Profile("bump", k=3, radius=0.9, amp=0.5 * EPS)
DR = 0.01


@pytest.fixture(scope="module")
def wave_sampler():
    return OracleSampler(DalembertField(U0, U1), None)


@pytest.fixture(scope="module")
def kg_sampler():
    # the data's spectrum at the Nyquist mode is 1.5e-10 of its peak at
    # 16384 modes (6.5e-8 at 4096, 7.4e-9 at 8192): no truncation
    return OracleSampler(None, spectral_field(U0, U1, 64.0, 16384))


def sample_at(sampler, s):
    return en.build_sample(sampler, s, en.hyperboloid_nodes(s, DR))


def test_hyperboloid_nodes_cover_support():
    s = 5.0
    r = en.hyperboloid_nodes(s, DR)
    assert r[0] == 0.0
    assert r[-1] >= 0.5 * (s**2 - 1.0)
    assert_allclose(np.diff(r), DR)


def test_radial_integral_closed_form():
    r = np.linspace(0.0, 1.0, 2001)
    # int 4 pi r^4 dr = 4 pi / 5
    assert_allclose(en.radial_integral(r**2, r), 4 * np.pi / 5, rtol=1e-10)


# the grids the package integrates on: hyperboloid nodes (uniform from 0),
# the Hardy check's offset grid and an s grid (linspace), all evenly
# spaced as simpson requires, and an uneven one for cumulative_trapezoid
_GRIDS = {
    "nodes": lambda n: 0.01 * np.arange(n),
    "offset": lambda n: 0.002 * (np.arange(n) + 0.5),
    "s-grid": lambda n: np.linspace(2.0, 7.3, n),
    "uneven": lambda n: np.cumsum(np.random.default_rng(n).uniform(0.1, 1.0, n)),
}
_EVEN_GRIDS = sorted(set(_GRIDS) - {"uneven"})


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("n", [3, 4, 25, 26, 1001, 1200])
def test_quadratures_repeat_scipy_bit_for_bit(grid, n):
    # the one quadrature that ports SciPy's arithmetic, cumulative_trapezoid;
    # simpson is held to SciPy's result at round-off below
    x = _GRIDS[grid](n)
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) * np.exp(-x)
    assert np.array_equal(en.cumulative_trapezoid(y, x),
                          integrate.cumulative_trapezoid(y, x=x, initial=0.0))
    # a 2-D y over a 1-D x, as the ODE lemma integrates its case rows
    y2 = rng.standard_normal((7, n))
    assert np.array_equal(en.cumulative_trapezoid(y2, x),
                          integrate.cumulative_trapezoid(y2, x, initial=0.0))


@pytest.mark.parametrize("grid", _EVEN_GRIDS)
@pytest.mark.parametrize("n", [3, 4, 25, 26, 1001, 1200])
def test_simpson_matches_scipy_on_even_grids(grid, n):
    # scipy's uneven-spacing rule at equal spacings, up to round-off in
    # the integral's scale, int |y|
    x = _GRIDS[grid](n)
    rng = np.random.default_rng(n)
    for y in (rng.standard_normal(n) * np.exp(-x), rng.standard_normal((7, n))):
        scale = integrate.simpson(np.abs(y), x=x)
        assert np.all(np.abs(en.simpson(y, x) - integrate.simpson(y, x=x))
                      <= 1e-13 * scale)


@pytest.mark.parametrize("grid", ["nodes", "offset"])
@pytest.mark.parametrize("n", [3, 4, 25, 26])
def test_simpson_exact_for_low_degree(grid, n):
    # cubics at an odd point count, and quadratics at an even one, where
    # the last interval's correction is exact to degree 2 only
    x = _GRIDS[grid](n)
    a, b = x[0], x[-1]
    if n % 2:
        y, exact = 1.0 - 2.0 * x + 3.0 * x**2 + 5.0 * x**3, (
            (b - a) - (b**2 - a**2) + (b**3 - a**3) + 1.25 * (b**4 - a**4))
    else:
        y, exact = 1.0 - 2.0 * x + 3.0 * x**2, (
            (b - a) - (b**2 - a**2) + (b**3 - a**3))
    assert_allclose(en.simpson(y, x), exact, rtol=1e-14)
    assert_allclose(en.simpson(np.stack([y, 2.0 * y]), x), [exact, 2.0 * exact],
                    rtol=1e-14)


_SIMPSON_BYTES = """
import numpy as np
from wavekg.energies import simpson
x = 0.01 * np.arange(20001)
y = np.random.default_rng(3).standard_normal((4, x.size))
print(simpson(y[0], x).tobytes().hex(), simpson(y, x).tobytes().hex())
"""


def test_simpson_independent_of_blas_threads():
    # a BLAS dot product splits a vector this long across its threads,
    # which regroups the sum; simpson's weighted sum must not
    out = []
    for threads in (1, 2):
        proc = run_python_process(["-c", _SIMPSON_BYTES], threads=threads)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


def test_triple_form_agreement(wave_sampler):
    # the three integrand forms agree to near round-off on oracle jets
    assert en._E0C_TOL <= 1e-8
    for s in (2.0, 5.0, 9.0):
        sample = sample_at(wave_sampler, s)
        en.energy_e0c(sample, 0.0, "u")  # raises on disagreement


def test_e0_conserved_free_wave(wave_sampler):
    vals = [en.energy_e0c(sample_at(wave_sampler, s), 0.0, "u")
            for s in np.linspace(2.0, 20.0, 10)]
    drift = (max(vals) - min(vals)) / max(vals)
    assert drift < 1e-6


def test_e1_conserved_free_wave(wave_sampler):
    vals = [en.energy_e1(sample_at(wave_sampler, s))[0]
            for s in np.linspace(2.0, 20.0, 10)]
    drift = (max(vals) - min(vals)) / max(vals)
    assert drift < 1e-6


def test_e0c_conserved_free_kg(kg_sampler):
    vals = [en.energy_e0c(sample_at(kg_sampler, s), 1.0, "v")
            for s in (2.0, 4.0, 8.0)]
    drift = (max(vals) - min(vals)) / max(vals)
    assert drift < 1e-5


def test_e1_decomposition_nonnegative(wave_sampler):
    value, parts = en.energy_e1(sample_at(wave_sampler, 4.0))
    assert value > 0
    assert all(p >= 0 for p in parts)
    assert parts[0] == 0.0  # no rotation for radial fields
    assert sum(parts) <= value * (1 + 1e-6)


def test_f1_closed_form_for_constant_e1():
    # E1 constant: F1(s) = 2 sqrt(E) + sqrt(E) log(s/s0)
    s = np.linspace(2.0, 10.0, 400)
    e1 = np.full_like(s, 9.0)
    f1 = en.energy_f1(s, e1)
    assert_allclose(f1, 6.0 + 3.0 * np.log(s / 2.0), rtol=1e-4)


def test_f1_requires_increasing_grid():
    with pytest.raises(en.EnergyError):
        en.energy_f1(np.array([2.0, 2.0, 3.0]), np.ones(3))


def test_e0gc_reduces_to_flat_without_coupling(kg_sampler):
    from conftest import make_scenario
    scn = make_scenario(p00=0.0, pd=0.0)
    sample = sample_at(kg_sampler, 3.0)
    out = en.energy_e0gc(sample, scn)
    # the flat energy it compares against is the one the stages report
    assert out["flat"] == en.energy_e0c(sample, scn.c, "v")
    assert_allclose(out["ratio"], 1.0, rtol=1e-12)
    assert out["kappa_ok"]


class TestHighOrder:
    def test_order0_matches_plain_energies(self, wave_sampler):
        s = 3.0
        rn = en.hyperboloid_nodes(s, DR)
        table = en.high_order_energies(wave_sampler, s, rn, 0.0, "u")
        sample = sample_at(wave_sampler, s)
        assert_allclose(table["1"]["e0c"], en.energy_e0c(sample, 0.0, "u"), rtol=1e-10)
        assert_allclose(table["1"]["e1"], en.energy_e1(sample)[0],
                        rtol=1e-10)

    def test_word_energies_conserved(self, wave_sampler):
        # every commuted word of a free wave is itself a free 3D field
        # (with the exact angular sector weights), so its energies are
        # conserved; this pins the sector weights
        tables = {}
        for s in (2.0, 6.0, 12.0):
            rn = en.hyperboloid_nodes(s, DR)
            tables[s] = en.high_order_energies(wave_sampler, s, rn, 0.0, "u")
        for word in en.WORDS:
            vals = [tables[s][word]["e0c"] for s in tables]
            drift = (max(vals) - min(vals)) / max(max(vals), 1e-300)
            assert drift < 2e-4, (word, drift)


def test_word_l2_norms_positive(wave_sampler):
    rn = en.hyperboloid_nodes(3.0, DR)
    norms = en.word_l2_norms(wave_sampler, 3.0, rn)
    assert set(norms) == set(en.WORDS)
    assert all(v >= 0 for v in norms.values())
    assert norms["1"] > 0
