import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavekg.energies import build_sample, word_records
from wavekg.oracles import DalembertField, KGSpectralField, OracleSampler
from wavekg.profiles import Profile
from wavekg import scenario, solver
from wavekg.sliceio import slice_dump, slice_load
from wavekg.solver import HistorySampler, SolverError, evolve
from wavekg.geometry import WORD_STRIDE, HyperbolaCurve, covered_s_grid

from conftest import make_scenario, run_python_process

EPS = 1e-3
ZERO = Profile("zero")
BUMP = Profile("bump", k=4, radius=1.0, amp=1.0)


def wave_oracle_for(scn):
    return DalembertField(scn.u0.scaled(scn.eps), scn.u1.scaled(scn.eps))


def test_initial_state_scaling():
    # the first stored row is the eps-scaled data at t = 2
    scn = make_scenario(u1=Profile("bump", k=2, radius=0.5, amp=3.0),
                        v0=Profile("bump", k=3, radius=0.8, amp=-1.0),
                        v1=Profile("bump", k=5, radius=0.9, amp=2.0), t_end=2.5)
    h = evolve(scn)
    assert h.t0 == 2.0
    for name, prof in (("u", scn.u0), ("ut", scn.u1), ("v", scn.v0), ("vt", scn.v1)):
        np.testing.assert_array_equal(getattr(h, name)[0], scn.eps * prof(h.r))
    assert_allclose(np.max(np.abs(h.u[0])), EPS)


def test_free_wave_matches_oracle(free_wave_scn, free_wave_history):
    oracle = wave_oracle_for(free_wave_scn)
    h = free_wave_history
    for i in (h.n_slices // 3, h.n_slices - 1):
        t = h.t0 + i * h.dt
        err = np.max(np.abs(h.u[i] - oracle(t, h.r)))
        assert err < 1e-6 * EPS / 1e-3  # well below the field scale


def test_free_kg_matches_oracle(free_kg_scn, free_kg_history):
    oracle = KGSpectralField(
        Profile("bump", k=4, radius=1.0, amp=EPS), ZERO, free_kg_scn.c)
    h = free_kg_history
    i = h.n_slices - 1
    t = h.t0 + i * h.dt
    sel = h.r < 10.0
    err = np.max(np.abs(h.v[i][sel] - oracle(t, h.r[sel])))
    assert err < 1e-6


def test_free_wave_convergence_order():
    errs = []
    for dr in (0.04, 0.02):
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0,
                            v0=ZERO, v1=ZERO, dr=dr, r_max=8.0, t_end=8.0)
        h = evolve(scn)
        oracle = wave_oracle_for(scn)
        i = h.n_slices - 1
        errs.append(np.max(np.abs(h.u[i] - oracle(h.t0 + i * h.dt, h.r))))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


def test_domain_of_dependence(free_wave_history):
    # data in the unit ball cannot influence r > t - 1
    h = free_wave_history
    for i in (0, h.n_slices // 2, h.n_slices - 1):
        t = h.t0 + i * h.dt
        outside = h.r > t - 1.0 + 10 * h.scenario.dr
        # round-off level leakage only (fields are ~1e-3 here)
        assert np.max(np.abs(h.u[i][outside])) < 1e-9


def test_work_does_not_depend_on_r_max():
    # the active window r <= t - 1 + margin never reaches either outer edge
    dr, t_end = 0.02, 8.0
    assert (t_end - 1.0) / dr + solver.WINDOW_MARGIN < (t_end + 2.0) / dr
    near, far = (evolve(make_scenario(dr=dr, t_end=t_end, r_max=t_end + pad))
                 for pad in (2.0, 8.0))
    assert near.r.size == far.r.size
    for name in ("u", "ut", "v", "vt"):
        assert np.array_equal(getattr(near, name), getattr(far, name)), name


def test_window_margin_is_converged(monkeypatch):
    scn = make_scenario(dr=0.02, t_end=10.0, r_max=14.0)
    base = evolve(scn)
    monkeypatch.setattr(solver, "WINDOW_MARGIN", 2 * solver.WINDOW_MARGIN)
    wide = evolve(scn)
    for name in ("u", "ut", "v", "vt"):
        a, b = getattr(base, name), getattr(wide, name)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


@pytest.mark.parametrize("dead", ["u", "v"])
def test_progress_log_reads_each_field_by_name(free_wave_scn, free_kg_scn, dead, caplog):
    # a free run's one live field is the state's first row, whichever it
    # is; the log reads it as u or v, and the dead one as 0
    scn = free_kg_scn if dead == "u" else free_wave_scn
    caplog.set_level("INFO", logger="wavekg.solver")
    h = evolve(scn)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "wavekg.solver"]
    assert len(lines) == 10
    live = "v" if dead == "u" else "u"
    assert all(f"max|{dead}| = 0.000e+00" in line for line in lines)
    peak = np.max(np.abs(getattr(h, live)[-1]))
    assert f"max|{live}| = {peak:.3e}" in lines[-1]


def test_quasilinear_guard():
    # the data pass the scenario's rules (1 + u >= 1 at t = 2), but the free
    # wave focuses on the axis to u = -0.55 eps, where 1 - p00 u < 1/2
    scn = make_scenario(b00=0.0, bd=0.0, p00=-1.0, pd=0.0, eps=0.9,
                        dr=0.1, r_max=6.0, t_end=6.0)
    with pytest.raises(SolverError, match="quasilinear"):
        evolve(scn)


def test_radial_operator_spectral_radius_is_the_stability_rule_constant():
    # columns of the radial Laplacian: u's time derivative with the
    # couplings off, applied to each unit vector of a window of n cells
    dr, n = 0.1, 40
    scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=dr)
    rk = solver._RK4(solver._CHUNK, scn, np.zeros((4, 0)))
    stage = rk.stages[0]
    columns = []
    for e in np.eye(n):
        stage.u[:n] = e
        rk.rhs(stage, n)
        columns.append(stage.utt[:n].copy())
    radius = np.max(np.abs(np.linalg.eigvals(np.array(columns).T)))
    assert abs(radius * dr**2 - scenario._LAP_RADIUS) < 1e-9


def _plain_rhs(u, ut, v, vt, scn, inv_dr2, inv_drr):
    # the solver's right-hand side field by field on the window, in the
    # arithmetic order evolve keeps
    diff, lap = [], []
    for w in (u, v):
        d = w[2:] - w[:-2]
        lw = np.empty_like(w)
        inner = lw[1:-1]
        np.add(w[2:], w[:-2], out=inner)
        inner -= 2.0 * w[1:-1]
        inner *= inv_dr2
        inner += d * inv_drr
        lw[0] = 6.0 * inv_dr2 * (w[1] - w[0])
        lw[-1] = 0.0
        diff.append(d)
        lap.append(lw)
    dut = lap[0]
    dut += scn.b00 * ut * vt
    dut[1:-1] += (0.25 * scn.bd * inv_dr2) * diff[0] * diff[1]
    dvt = (1.0 + scn.pd * u) * lap[1]
    dvt -= scn.c**2 * v
    dvt /= 1.0 - scn.p00 * u
    return ut, dut, vt, dvt


_COUPLINGS = dict(b00=0.7, bd=-1.3, p00=0.9, pd=-0.6)
# the data of a field made dead, or of both (eps = 0)
_DEAD = {"u": dict(u0=ZERO, u1=ZERO), "v": dict(v0=ZERO, v1=ZERO), "uv": dict(eps=0.0)}


@pytest.mark.parametrize("zero,dead", [
    *[pytest.param(zero, "", id="-".join(zero) + "=0" if zero else "all-on")
      for zero in [(), tuple(_COUPLINGS), *[(k,) for k in _COUPLINGS]]],
    # coupled, with one field's data zero
    pytest.param((), "u", id="u-dead"), pytest.param((), "v", id="v-dead"),
    pytest.param(tuple(_COUPLINGS), "v", id="free-wave"),
    pytest.param(tuple(_COUPLINGS), "u", id="free-kg"),
    pytest.param((), "uv", id="zero-data"),
])
def test_evolve_repeats_a_plain_rk4_bit_for_bit(zero, dead):
    # the couplings on except those in zero (evolve skips a term whose
    # constant is 0; _plain_rhs computes every term), c != 1, both
    # velocities nonzero unless dead, and a window that outgrows the state
    # twice (256 -> 512 -> 768 cells) and reaches the grid's edge r_max
    # from t = 27 on.  The plain RK4 evolves all four fields; evolve steps
    # the live ones and their time derivatives and stores the live fields,
    # and a dead field and its time derivative read as +0.0
    couplings = {k: 0.0 if k in zero else value for k, value in _COUPLINGS.items()}
    data = dict(u1=Profile("bump", k=3, radius=0.9, amp=0.8),
                v1=Profile("bump", k=5, radius=0.7, amp=-1.1), eps=0.02)
    scn = make_scenario(**couplings, c=2.5, **{**data, **_DEAD.get(dead, {})},
                        dr=0.05, r_max=30.0, t_end=30.0)
    got = evolve(scn)
    assert scenario.live_fields(scn) == tuple(f for f in "uv" if f not in dead)
    dr = scn.dr
    r = dr * np.arange(int(round(scn.r_max / dr)) + 1)
    n_steps, dt = scenario.time_steps(scn)
    n_slices, n_radii = scenario.history_shape(scn)
    assert scn.t_end - 1.0 + scenario.STORE_MARGIN * dr == scn.r_max
    # each slice is stored out to its cone and STORE_MARGIN cells, capped
    # at r = t_end - 1 + STORE_MARGIN dr, which is r_max here

    def stored(t):
        return min(r.size, int(np.ceil((t - 1.0) / dr)) + scenario.STORE_MARGIN + 1)

    y = [scn.eps * prof(r) for prof in (scn.u0, scn.u1, scn.v0, scn.v1)]
    want = [np.zeros((n_slices, n_radii)) for _ in y]
    m = stored(2.0)
    for row, arr in zip(want, y):
        row[0, :m] = arr[:m]
    want_widths = [m]
    for step in range(1, n_steps + 1):
        t = 2.0 + step * dt
        n = min(r.size, int(np.ceil((t - 1.0) / dr)) + solver.WINDOW_MARGIN + 1)
        m = stored(t)
        yw = [a[:n] for a in y]
        args = (scn, 1.0 / dr**2, 1.0 / (dr * r[1:n - 1]))
        k1 = _plain_rhs(*yw, *args)
        k2 = _plain_rhs(*[a + 0.5 * dt * k for a, k in zip(yw, k1)], *args)
        k3 = _plain_rhs(*[a + 0.5 * dt * k for a, k in zip(yw, k2)], *args)
        k4 = _plain_rhs(*[a + dt * k for a, k in zip(yw, k3)], *args)
        for a, p, q, s, w in zip(yw, k1, k2, k3, k4):
            a += (dt / 6.0) * (p + 2.0 * (q + s) + w)
        for row, arr in zip(want, yw):
            row[step, :m] = arr[:m]
        want_widths.append(m)
    assert n == r.size == m and n_steps > 500
    assert got.records.shape[-1] == 2 - len(dead)
    for name, arr in zip(("u", "ut", "v", "vt"), want):
        view = getattr(got, name)
        if name[0] in dead:
            assert not view.flags.writeable, name
            assert np.array_equal(view, arr) and not np.signbit(view).any(), name
        elif name in ("u", "v"):
            assert view.tobytes() == arr.tobytes(), name
    for name in scenario.live_fields(scn):  # no live field has died out
        assert np.max(np.abs(getattr(got, name)[-1])) > 1e-5, name
    assert np.array_equal(got.widths, want_widths)


@pytest.mark.parametrize("c", [1.0, 30.0])
def test_step_under_the_stability_limit_stays_bounded(c, monkeypatch):
    base = make_scenario(c=c, cfl=0.5)  # under the limit at either mass
    limit = scenario.stable_cfl(base)
    h = evolve(base.with_grid(cfl=0.999 * limit))
    for name in ("u", "v"):
        field = getattr(h, name)
        assert np.isfinite(field).all()
        assert np.max(np.abs(field)) <= 2.0 * np.max(np.abs(field[0])), name
    # a scenario past the limit cannot be built; with the rule's share
    # lifted to 1.2, at 1.1 times the unscaled RK4 limit the axis mode
    # grows without bound, and |1 - p00 u| trips the guard
    with pytest.raises(scenario.ScenarioError, match="unstable time step"):
        base.with_grid(cfl=1.001 * limit)
    unscaled = limit / scenario._CFL_SAFETY
    monkeypatch.setattr(scenario, "_CFL_SAFETY", 1.2)
    with pytest.raises(SolverError, match="degeneracy"):
        evolve(base.with_grid(cfl=1.1 * unscaled))


def test_unstable_run_without_the_guard_stops_on_non_finite_values(monkeypatch):
    # with p00 = 0 there is no degeneracy guard: past the limit (the rule's
    # share lifted to 1.5) the growing mode turns the fields non-finite
    scn = make_scenario(p00=0.0, pd=0.0, dr=0.1)
    cfl = 1.5 * scenario.stable_cfl(scn)
    monkeypatch.setattr(scenario, "_CFL_SAFETY", 1.5 * scenario._CFL_SAFETY)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="non-finite field values"):
        evolve(scn.with_grid(cfl=cfl))


def test_history_bookkeeping(small_history, small_scn):
    # test_sliceio.test_round_trip_is_bit_exact checks that slice_load
    # reproduces an evolved history bit for bit
    h = small_history
    assert h.t0 == 2.0
    assert_allclose(h.t0 + (h.n_slices - 1) * h.dt, small_scn.t_end)
    # the grid is the scenario's
    assert h.dt == scenario.time_steps(small_scn)[1]
    assert np.array_equal(h.r, small_scn.dr * np.arange(h.r.size))
    records = h.records
    assert records.shape == (*scenario.history_shape(small_scn), 2)
    assert records.dtype == np.float64
    assert records[0, 0].nbytes == 2 * scenario.FIELD_BYTES == 16
    assert records.flags.c_contiguous and records.flags.writeable
    for k, name in enumerate(("u", "v")):
        arr, view = getattr(h, name), records[..., k]
        assert arr.shape == (h.n_slices, h.r.size)
        assert arr.ctypes.data == view.ctypes.data and arr.strides == view.strides
    # each slice is stored out to its width (scenario.store_widths), the
    # last out to the cap; the radii past the cap only pad rows to whole
    # pages
    widths = h.widths
    assert np.array_equal(widths, scenario.store_widths(small_scn))
    assert widths[-1] == scenario.store_cap(small_scn) < h.r.size
    assert records[0].nbytes % 4096 == 0
    # every record past its slice's width is exactly +0.0
    past = records[np.arange(h.r.size) >= widths[:, None]]
    assert past.size and np.all(past == 0.0) and not np.signbit(past).any()


def test_history_rows_start_on_pages_and_the_sampler_reads_them_in_place(
        small_history, free_wave_history, tmp_path):
    # evolved and loaded live histories alike: one C-contiguous record array
    # whose slice rows each start on a 4 KiB boundary, which the sampler's
    # flat take reads in place; a layout that copied the history for it
    # would double its memory unnoticed
    path = tmp_path / "run.wkgh"
    slice_dump(small_history, path)
    for h in (small_history, free_wave_history, slice_load(path)):
        records = h.records
        assert records.flags.c_contiguous
        starts = records.ctypes.data + records.strides[0] * np.arange(h.n_slices)
        assert np.all(starts % 4096 == 0)
        assert np.shares_memory(h.cells, records)


def test_a_free_run_keeps_half_the_history(reference_history, reference_free_history):
    # the free wave's v is dead, so on the reference grid its run stores
    # u alone, 8 bytes a cell against the coupled run's 16
    free = reference_free_history
    assert scenario.live_fields(free.scenario) == ("u",)
    assert np.array_equal(free.widths, reference_history.widths)
    assert 2 * free.records[0, 0].nbytes == reference_history.records[0, 0].nbytes == 16
    assert free.records.nbytes == scenario.history_bytes(free.scenario)
    # each row is padded to whole pages, 5121 cells to 5632 and 5376
    assert free.records[0].nbytes - reference_history.records[0].nbytes / 2 < 4096


# Evolves dr = 0.01, r_max = t_end = 27 (200 MiB of nominal history) and
# prints the ru_maxrss rise over evolve, the current-RSS fall once the
# history is dropped, the bytes of its written records, its slice count
# and the page size.
_RSS_CHILD = """
import gc, json, os, resource
from wavekg.scenario import Scenario
from wavekg.profiles import Profile
from wavekg.solver import evolve

bump, zero = Profile("bump", k=4, radius=1.0, amp=1.0), Profile("zero")
scn = Scenario(u0=bump, u1=zero, v0=bump, v1=zero, eps=1e-3,
               dr=0.01, r_max=27.0, t_end=27.0)
page = os.sysconf("SC_PAGE_SIZE")

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

before = maxrss()
history = evolve(scn)
rise = maxrss() - before
written = history.records[0, 0].nbytes * int(history.widths.sum())
n_slices = history.n_slices
held = resident()
del history
gc.collect()
print(json.dumps({"rise": rise, "written": written, "n_slices": n_slices,
                  "page": page, "freed": held - resident()}))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="needs /proc/self/statm for the current RSS")
def test_history_is_resident_only_where_written():
    # rows are written only out to the store rule's widths, and the pages
    # past them stay unbacked: the rise is at most the written records and
    # one page per slice, where a slice's prefix ends mid-page, and it
    # goes with the history
    child = run_python_process(["-c", _RSS_CHILD], threads=1)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["rise"] <= got["written"] + got["page"] * got["n_slices"], got
    assert got["freed"] >= 0.9 * got["rise"], got


# Evolves the run of _RSS_CHILD (dr = 0.01, r_max = t_end = 27) and prints
# the current-RSS and ru_maxrss rises over reading its ut, the bytes the
# derivation writes (slice 0 whole, slice k out to widths[k + 1], the last
# out to its own width), ut's nominal bytes, its slice count and the page
# size.
_RATE_CHILD = """
import json, os, resource
from wavekg.scenario import Scenario
from wavekg.profiles import Profile
from wavekg.solver import evolve

bump, zero = Profile("bump", k=4, radius=1.0, amp=1.0), Profile("zero")
history = evolve(Scenario(u0=bump, u1=zero, v0=bump, v1=zero, eps=1e-3,
                          dr=0.01, r_max=27.0, t_end=27.0))
page = os.sysconf("SC_PAGE_SIZE")

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

widths = history.widths
before, before_max = resident(), maxrss()
ut = history.ut
print(json.dumps({"rise": resident() - before, "max_rise": maxrss() - before_max,
                  "written": 8 * (history.r.size + int(widths[2:].sum()) + int(widths[-1])),
                  "nominal": ut.nbytes, "n_slices": history.n_slices, "page": page}))
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="needs /proc/self/statm for the current RSS")
def test_a_derived_time_derivative_is_resident_only_where_written():
    # ut is written only where the rule reads stored cells, into pages
    # that are backed only once written: the rise is at most those bytes
    # and one page per slice, where a slice's prefix ends mid-page, well
    # under its nominal bytes, at which an array written in full, or
    # backed by huge pages, would be resident
    child = run_python_process(["-c", _RATE_CHILD], threads=1)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    bound = got["written"] + got["page"] * got["n_slices"]
    assert got["rise"] <= bound and got["max_rise"] <= bound, got
    assert bound < 0.75 * got["nominal"], got


class TestSampling:
    def test_jets_match_oracle(self, free_wave_scn, free_wave_history):
        oracle = wave_oracle_for(free_wave_scn)
        sampler = HistorySampler(free_wave_history)
        rng = np.random.default_rng(11)
        t = rng.uniform(3.0, 11.0, 30)
        r = rng.uniform(0.0, 8.0, 30)
        j = sampler.jets(t, r, order=2)
        scale = EPS
        for (a, b), tol in (((0, 0), 1e-3), ((1, 0), 3e-3), ((0, 1), 3e-3),
                            ((2, 0), 3e-2), ((1, 1), 3e-2), ((0, 2), 3e-2)):
            err = np.max(np.abs(j["u"][(a, b)] - oracle.jet(t, r, a, b)))
            assert err < tol * scale, (a, b, err)

    def test_jets_rejects_uncovered_times(self, small_history):
        sampler = HistorySampler(small_history)
        with pytest.raises(SolverError, match="outside stored range"):
            sampler.jets(np.array([100.0]), np.array([1.0]), order=1)

    def test_hyperboloid_sample(self, free_wave_scn, free_wave_history):
        oracle = wave_oracle_for(free_wave_scn)
        # avoid s = 3: there the wavefront crosses the axis and the kink
        # degrades the time interpolation locally
        s = 3.5
        r = np.linspace(0.0, 3.0, 61)
        out = build_sample(HistorySampler(free_wave_history), s, r)
        t = np.hypot(s, r)
        assert_allclose(out["u"], oracle(t, r), atol=2e-6)
        assert_allclose(out["ur"], oracle.jet(t, r, 0, 1), atol=2e-5)

    def test_curve_sample(self, free_wave_scn, free_wave_history):
        oracle = wave_oracle_for(free_wave_scn)
        curve = HyperbolaCurve(3.0)
        tau = np.linspace(4.0, 10.0, 25)
        rr = curve.radius(tau)
        j = HistorySampler(free_wave_history).jets(tau, rr, order=1)
        assert_allclose(j["u"][(0, 0)], oracle(tau, rr), atol=1e-6)

    def test_axis_parity(self, small_sampler):
        # the odd r-derivatives below vanish on the axis exactly: d1 of an
        # even field cancels there, while d3, whose four terms cancel only
        # up to rounding, and (2, 1), the d_r of the Laplacian, take their
        # axis value
        t = np.linspace(2.5, 13.0, 200)
        j = small_sampler.jets(t, np.zeros_like(t), order=3)
        for f in ("u", "v"):
            for key in ((0, 1), (1, 1), (2, 1), (0, 3)):
                assert np.array_equal(j[f][key], np.zeros_like(t)), (f, key)

    def test_lower_orders_are_the_order_3_keys(self, small_sampler):
        # a lower order builds fewer stencils, but each key it returns is
        # the order-3 query's value bit for bit
        rng = np.random.default_rng(7)
        t = rng.uniform(3.0, 13.0, 200)
        r = rng.uniform(0.0, 13.0, 200)
        full = small_sampler.jets(t, r, order=3)
        for order in (0, 1, 2):
            j = small_sampler.jets(t, r, order=order)
            for f in ("u", "v"):
                assert set(j[f]) == {k for k in full[f] if sum(k) <= order}
                for key, arr in j[f].items():
                    assert np.array_equal(arr, full[f][key]), (order, f, key)

    def test_nodes_past_the_cap_read_as_stored_zeros(self, small_history):
        # windows that cross the axis or run past the last stored column:
        # the same jets as on a copy with explicit zero columns past the cap
        h = small_history
        pad = 8
        padded = solver.SliceHistory(
            scenario=h.scenario,
            records=np.pad(h.records, ((0, 0), (0, pad), (0, 0))))
        dr, rng = h.scenario.dr, np.random.default_rng(8)
        r = np.concatenate([rng.uniform(h.r[-1] - 4 * dr, h.r[-1] + 2 * dr, 60),
                            rng.uniform(0.0, 3 * dr, 20), [h.r[-1], 0.0]])
        t = rng.uniform(h.t0, h.t_last, r.size)
        got = HistorySampler(h).jets(t, r, order=3)
        want = HistorySampler(padded).jets(t, r, order=3)
        for f in ("u", "v"):
            for key, arr in want[f].items():
                assert np.array_equal(got[f][key], arr), (f, key)

    def test_jets_on_a_copy_of_the_records_are_the_same(self, small_history):
        # the evolved history's mapping, a plain numpy copy of its records
        # and that copy under other coupling constants give the same jets
        # bit for bit, the axis and the cap included: the sampler reads the
        # stored fields, not the equations
        h = small_history
        recoupled = h.scenario.with_grid(b00=-0.5, bd=2.0, p00=0.25, pd=-1.5)
        copies = [solver.SliceHistory(scenario=scn, records=h.records.copy())
                  for scn in (h.scenario, recoupled)]
        rng = np.random.default_rng(9)
        r = np.concatenate([rng.uniform(0.0, h.r[-1] + h.scenario.dr, 200),
                            [0.0, h.r[-1]]])
        t = rng.uniform(h.t0, h.t_last, r.size)
        for order in (0, 1, 2, 3):
            got = HistorySampler(h).jets(t, r, order=order)
            for copy in copies:
                want = HistorySampler(copy).jets(t, r, order=order)
                for f in ("u", "v"):
                    for key, arr in want[f].items():
                        assert np.array_equal(got[f][key], arr), (order, f, key)

    def test_time_derivatives_are_exact_on_quadratics(self, small_history):
        # u and v hold quadratics in t, constant in r out to the cap, whose
        # slope at t = 2 is the scenario's data's, zero: the time
        # differences are exact on them (the data on slice 0, centred ones
        # inside and on the last slice, whose missing neighbour is the
        # cubic through the last four), so d_t, d_t^2 and d_t^3, the
        # interpolant of u_t and v_t and its derivatives, are exact in the
        # first and last windows as in the interior
        h = small_history
        assert h.scenario.u1.is_zero and h.scenario.v1.is_zero
        quad = solver.SliceHistory(scenario=h.scenario, records=np.zeros_like(h.records))
        p = {"u": np.polynomial.Polynomial([0.3, 0.0, -0.008]),
             "v": np.polynomial.Polynomial([-0.6, 0.0, 0.011])}
        quad.u[...] = p["u"](h.times() - h.t0)[:, None]
        quad.v[...] = p["v"](h.times() - h.t0)[:, None]
        dt, rng = h.dt, np.random.default_rng(12)
        for lo, hi in ((h.t0, h.t0 + 2 * dt), (h.t0 + 3 * dt, h.t_last - 3 * dt),
                       (h.t_last - 2 * dt, h.t_last)):
            t = np.concatenate([rng.uniform(lo, hi, 40), [lo, hi]])
            r = rng.uniform(0.0, h.r[-1] - 5 * h.scenario.dr, t.size)
            j = HistorySampler(quad).jets(t, r, order=3)
            for f in ("u", "v"):
                for key, want in (((1, 0), p[f].deriv(1)(t - h.t0)),
                                  ((2, 0), p[f].deriv(2)(t - h.t0)), ((3, 0), 0.0 * t),
                                  ((1, 1), 0.0 * t), ((2, 1), 0.0 * t)):
                    err = np.max(np.abs(j[f][key] - want))
                    assert err < 1e-12 / dt ** (key[0] - 1), (lo, f, key, err)

    def test_ut_and_vt_are_the_samplers_time_derivatives(self):
        # one rule: at grid nodes, among them the first and last slices and
        # radii past the cap, the sampler's d_t of u and v is
        # SliceHistory.ut and .vt bit for bit, on a run whose data
        # velocities are not zero
        h = evolve(make_scenario(u1=Profile("bump", k=3, radius=0.9, amp=0.8),
                                 v1=Profile("bump", k=5, radius=0.7, amp=-1.1),
                                 dr=0.1, r_max=10.0, t_end=10.0))
        last, rng = h.n_slices - 1, np.random.default_rng(13)
        k = np.concatenate([[0, 0, 0, 1, last - 1, last, last, last],
                            rng.integers(0, h.n_slices, 400)])
        i = np.concatenate([[0, 4, 9, 2, 30, 0, 50, h.r.size - 1],
                            rng.integers(0, h.r.size, 400)])
        j = HistorySampler(h).jets(h.times()[k], h.r[i], order=1)
        for f in ("u", "v"):
            rate = getattr(h, f + "t")
            assert np.abs(rate[0]).max() > 0 and np.abs(rate[last]).max() > 0, f
            assert np.array_equal(j[f][(1, 0)], rate[k, i]), f
        # a write into ut is seen by the next read of ut; reading vt
        # releases it, and ut is derived again
        h.ut[3, 5] = 7.0
        assert h.ut[3, 5] == 7.0
        assert h.vt[3, 5] != 7.0 and h.ut[3, 5] != 7.0

    def test_time_differences_of_the_exact_lattice(self):
        # a history that holds d'Alembert's u at the solver's nodes, read
        # on its last covered word hyperboloid (s = 7.11): the words with
        # no L, d_t and d_r to order 2, are the oracle's to 2 %, so the
        # time differences agree with the radial stencils on the exact
        # lattice.  The words with L cancel near the cone, and there the
        # order-2 and order-3 time derivatives (of the interpolant of u_t)
        # read far off: the sum over the words measured 86.9 times the
        # oracle's (514 with the exact u_t stored, the sampler before the
        # time differences), and is held under 1.05 times that
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, v0=ZERO,
                            dr=0.02, r_max=26.0, t_end=26.0)
        oracle = DalembertField(BUMP.scaled(EPS), ZERO)
        lattice = solver.SliceHistory.empty(scn)
        for k, t in enumerate(lattice.times()):
            w = lattice.widths[k]
            lattice.u[k, :w] = oracle(t, lattice.r[:w])
        s_word = covered_s_grid(lattice.t_last, scn.dr)[::WORD_STRIDE][-1:]
        got, want = (word_records(sampler, s_word, scn)[0]["energies"]["u"]
                     for sampler in (HistorySampler(lattice), OracleSampler(wave=oracle)))
        assert s_word[0] == pytest.approx(7.1106, abs=1e-4)
        for word in ("1", "dt", "dr", "dtdt", "dtdr", "drdr"):
            assert abs(got[word]["e1"] / want[word]["e1"] - 1.0) < 0.02, word
        ratio = sum(g["e1"] for g in got.values()) / sum(w["e1"] for w in want.values())
        assert 1.0 < ratio < 1.05 * 86.9, ratio

    # word-energy sums of free mid-grid runs (dr 0.02, t_end 26) over the
    # exact oracle's, on the last three word hyperboloids: e1 of the
    # wave's words and e0c of the Klein-Gordon field's.  Read-out error
    # makes the ratios grow with s; each is held under 1.05 times its
    # measured value, and above 0.95, since the free words' energies are
    # conserved and the early hyperboloids read 0.99
    @pytest.mark.parametrize("field, energy, bounds", [
        ("u", "e1", (1.555, 2.587, 5.069)),
        ("v", "e0c", (1.058, 1.121, 1.228)),
    ])
    def test_word_energies_of_free_mid_runs_stay_near_the_oracle(self, field, energy,
                                                                 bounds):
        amp = BUMP.scaled(EPS)
        if field == "u":
            dead, oracle = {"v0": ZERO}, OracleSampler(wave=DalembertField(amp, ZERO))
        else:
            dead, oracle = {"u0": ZERO}, OracleSampler(kg=KGSpectralField(amp, ZERO, 1.0))
        scn = make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0, dr=0.02, r_max=34.0,
                            t_end=26.0, **dead)
        history = evolve(scn)
        s_words = covered_s_grid(history.t_last, scn.dr)[::WORD_STRIDE][-3:]
        got, want = ([sum(word[energy] for word in record["energies"][field].values())
                      for record in word_records(sampler, s_words, scn)]
                     for sampler in (HistorySampler(history), oracle))
        for s, mine, exact, bound in zip(s_words, got, want, bounds):
            assert 0.95 < mine / exact < 1.05 * bound, (s, mine / exact)
