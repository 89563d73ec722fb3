import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekg import energies as en
from wavekg.oracles import DalembertField, KGSpectralField, OracleSampler
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
    return OracleSampler(None, KGSpectralField(U0, U1, 1.0, n_modes=16384))


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


def test_triple_form_agreement(wave_sampler):
    # the three integrand forms agree to near round-off on oracle jets
    for s in (2.0, 5.0, 9.0):
        sample = sample_at(wave_sampler, s)
        en.energy_e0c(sample, 0.0, "u", tol=1e-8)  # raises on disagreement


def test_e0_conserved_free_wave(wave_sampler):
    vals = [en.energy_e0c(sample_at(wave_sampler, s), 0.0, "u")
            for s in np.linspace(2.0, 20.0, 10)]
    drift = (max(vals) - min(vals)) / max(vals)
    assert drift < 1e-6


def test_e1_conserved_free_wave(wave_sampler):
    vals = [en.energy_e1(sample_at(wave_sampler, s), "u")[0]
            for s in np.linspace(2.0, 20.0, 10)]
    drift = (max(vals) - min(vals)) / max(vals)
    assert drift < 1e-6


def test_e0c_conserved_free_kg(kg_sampler):
    vals = [en.energy_e0c(sample_at(kg_sampler, s), 1.0, "v")
            for s in (2.0, 4.0, 8.0)]
    drift = (max(vals) - min(vals)) / max(vals)
    assert drift < 1e-5


def test_e1_decomposition_nonnegative(wave_sampler):
    value, parts = en.energy_e1(sample_at(wave_sampler, 4.0), "u")
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
    assert_allclose(out["ratio"], 1.0, rtol=1e-12)
    assert out["kappa_ok"]


class TestHighOrder:
    def test_order0_matches_plain_energies(self, wave_sampler):
        s = 3.0
        rn = en.hyperboloid_nodes(s, DR)
        table = en.high_order_energies(wave_sampler, s, rn, 0.0, "u")
        sample = sample_at(wave_sampler, s)
        assert_allclose(table["1"]["e0c"], en.energy_e0c(sample, 0.0, "u"), rtol=1e-10)
        assert_allclose(table["1"]["e1"], en.energy_e1(sample, "u")[0],
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

    def test_rejects_order_3(self, wave_sampler):
        rn = en.hyperboloid_nodes(2.0, DR)
        with pytest.raises(ValueError):
            en.high_order_energies(wave_sampler, 2.0, rn, 0.0, "u", order=3)

    def test_word_order_classifier(self):
        assert en._word_order("1") == 0
        assert en._word_order("dt") == 1
        assert en._word_order("Ldt") == 2
        assert en._word_order("LL") == 2


def test_word_l2_norms_positive(wave_sampler):
    rn = en.hyperboloid_nodes(3.0, DR)
    norms = en.word_l2_norms(wave_sampler, 3.0, rn, "u")
    assert set(norms) == set(en.WORDS)
    assert all(v >= 0 for v in norms.values())
    assert norms["1"] > 0
