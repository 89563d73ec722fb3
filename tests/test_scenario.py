from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavekg.profiles import Profile
from wavekg.scenario import (MAX_HISTORY_BYTES, Scenario, ScenarioError,
                             history_bytes, history_shape, live_fields, parse_scenario,
                             serialize_scenario, stable_cfl, store_cap, store_widths,
                             time_steps)

MINIMAL = """
couplings.b00 = 1.0
data.eps = 0.0
grid.dr = 0.05
grid.r_max = 10.0
grid.t_end = 8.0
"""

# the reference data on a coarse grid
TINY = """data.eps = 1e-3
data.u0 = bump k=4 radius=1.0 amp=1.0
data.u1 = zero
data.v0 = bump k=4 radius=1.0 amp=1.0
data.v1 = zero
grid.dr = 0.1
grid.r_max = 9.0
grid.t_end = 8.0
"""


def test_minimal_document_with_defaults():
    scn = parse_scenario(MINIMAL)
    assert scn.eps == 0.0
    assert scn.b00 == 1.0
    assert scn.bd == 1.0  # default
    assert (scn.p00, scn.pd) == (1.0, 1.0)  # defaults: the couplings are on


def test_round_trip():
    scn = parse_scenario(MINIMAL)
    assert parse_scenario(serialize_scenario(scn)) == scn


def test_comments_and_blank_lines():
    scn = parse_scenario("# header\n\nmass.c = 2.0  # inline\n")
    assert scn.c == 2.0


@pytest.mark.parametrize("doc,fragment", [
    ("bogus.key = 1", "unknown key"),
    ("mass.c = 1\nmass.c = 2", "duplicate"),
    ("mass.c", "expected"),
    ("mass.c = fast", "bad value"),
    ("grid.cfl = 1.2", "cfl"),  # past the RK4 limit, about 1.04 on the default grid
    ("mass.c = -1", "positive"),
    ("grid.t_end = 1.0", "final time"),
    ("grid.r_max = 5\ngrid.t_end = 9", "r_max"),
    ("data.u0 = bump radius=1.5", "unit ball"),
])
def test_rejects_with_message(doc, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(doc)


def test_error_carries_line_number():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("mass.c = 1.0\n# fine\nwhat.ever = 2\n")


@pytest.mark.parametrize("doc,line", [
    ("mass.c = 1.0\n# fine\ngrid.cfl = 1.2", 3),
    ("data.eps = 0.1\nmass.c = -1", 2),
    ("grid.t_end = 9\ngrid.r_max = 5", 2),
    ("grid.t_end = 70", 1),  # r_max keeps its default 60
    ("data.eps = 0.1\n\ndata.v1 = bump radius=1.5", 3),
    # too short for the stages: only the c0 = 3 hyperbola's horizon,
    # past t = 3.6056, rejects it
    ("grid.dr = 0.05\ngrid.t_end = 3.5", 2),
    ("mass.c = 1.0\ngrid.dr = 0.25", 2),  # too coarse for the energy checks
    # non-finite numbers, profile parameters included
    ("data.eps = nan", 1),
    ("mass.c = 1.0\ncouplings.b00 = inf", 2),
    ("mass.c = inf", 1),
    ("data.eps = 0.1\nmonitors.delta = nan", 2),
    ("data.u0 = bump k=4 amp=nan", 1),
    ("data.v1 = bump k=inf", 1),
])
def test_range_violation_carries_line_number(doc, line):
    with pytest.raises(ScenarioError, match=f"^line {line}: "):
        parse_scenario(doc)


def test_bad_profile_descriptors_carry_line_number():
    # a truncated k or a last-one-wins parameter would put a profile
    # nobody wrote into the manifest
    with pytest.raises(ScenarioError, match="^line 1: bad value for 'data.u1': "
                                            "bump exponent k must be a positive integer"):
        parse_scenario("data.u1 = bump k=3.7 radius=0.5 amp=1")
    with pytest.raises(ScenarioError, match="^line 2: bad value for 'data.v0': "
                                            "repeated profile parameter 'radius'"):
        parse_scenario("mass.c = 1.0\ndata.v0 = bump k=4 radius=0.5 radius=0.9")


@pytest.mark.parametrize("k", [60, 101])
def test_bump_exponent_past_the_cap_carries_line_number(k):
    # k = 60 evaluates to 7.6 at r = 0.99 for 8.5e-103, and from k = 101 on
    # numpy's power overflows while the data are checked
    with pytest.raises(ScenarioError, match=f"^line 2: bad value for 'data.v0': "
                                            f"bump exponent k={k} is past K_MAX"):
        parse_scenario(f"mass.c = 1.0\ndata.v0 = bump k={k}")


@pytest.mark.parametrize("lines", [
    ["data.u0 = bump k=4 radius=1e-160 amp=1.0"],  # radius^-8 overflows
    ["data.u0 = bump k=16 radius=1.0 amp=1e306", "data.eps = 1e-300"],
    ["data.u0 = bump k=4 radius=1e-200 amp=1.0"],  # radius^2 underflows to 0
    # finite coefficients, but those of the derivatives from order 2 on
    # overflow, as the oracles' order-3 jets take them
    ["data.u0 = bump k=16 radius=1.0 amp=1e302"],
])
def test_bumps_whose_coefficients_overflow_carry_line_number(lines):
    # the first two were accepted, with stable_cfl NaN, and wavekg all died
    # in simulate on non-finite field values; the third raised a bare
    # ZeroDivisionError; the fourth was accepted, and its derivatives
    # overflowed under -W error
    doc = "grid.dr = 0.1\ngrid.r_max = 9\ngrid.t_end = 8\n" + "\n".join(lines)
    with pytest.raises(ScenarioError, match="^line 4: bad value for 'data.u0': bump "
                                            ".* has polynomial coefficients past"):
        parse_scenario(doc)


def test_a_nan_stability_limit_is_rejected():
    # p00 u and pd u overflow, so kappa = inf / -inf and the limit are NaN,
    # which a plain cfl > limit let through
    doc = ("grid.dr = 0.1\ngrid.r_max = 9\ngrid.t_end = 8\ncouplings.p00 = 1e300\n"
           "couplings.pd = 1e300\ndata.eps = 1e10\n")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ScenarioError, match="^line 1: unstable time step: .* largest stable cfl nan "
            ) as info:
        parse_scenario(doc)
    # kappa reads both couplings, so the error names their lines
    assert str(info.value).endswith("(grid.dr on line 1, data.eps on line 6, "
                                    "couplings.p00 on line 4, couplings.pd on line 5)")


def test_scenarios_are_values():
    # Scenario is frozen, so it promises a hash; equal scenarios hash equal
    assert hash(Scenario()) == hash(Scenario())
    assert {Profile("zero"), Profile("bump", amp=0.0), Profile("bump", k=2, amp=-0.0),
            Profile("zero", k=7, radius=0.3, amp=2.0)} == {Profile("zero")}
    ref = (Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
           / "reference.cfg").read_text()
    runs = {parse_scenario(ref): "reference"}
    assert runs[parse_scenario(ref)] == "reference"
    assert runs.get(replace(parse_scenario(ref), eps=0.0)) is None


@pytest.mark.parametrize("key,value,fragment", [
    ("data.eps", "0.6", "degenerate data"),  # |1 - p00*eps*u0| reaches 0.4
    ("mass.c", "60", "unstable time step"),
    ("mass.c", "100", "unstable time step"),
])
def test_runs_that_would_stop_mid_run_are_rejected(key, value, fragment):
    # each of these once passed the parser and stopped evolve at its first
    # steps with a "quasilinear degeneracy" SolverError
    doc = [line for line in TINY.splitlines() if not line.startswith(key)]
    doc.append(f"{key} = {value}")
    with pytest.raises(ScenarioError, match=f"^line {len(doc)}: {fragment}"):
        parse_scenario("\n".join(doc))


def test_under_resolved_data_are_rejected_with_their_lines():
    # finding J: this document passed the parser, and wavekg all died in
    # the energies stage ("positive decomposition 1.378537e-09 exceeds the
    # conformal energy 1.289244e-09"); the radius spans 1.28 cells
    doc = ("data.u0 = bump k=4 radius=0.22 amp=1.0\ngrid.dr = 0.172\n"
           "grid.r_max = 8\ngrid.t_end = 8\n")
    with pytest.raises(ScenarioError, match="^line 1: profile u0 is under-resolved: "
                                            "its radius 0.22 spans 1.28 cells") as info:
        parse_scenario(doc)
    assert str(info.value).endswith("(data.u0 on line 1, grid.dr on line 2)")
    # five cells pass, and a zero profile has no radius to resolve
    assert parse_scenario(doc.replace("radius=0.22", "radius=0.86")).u0.radius == 0.86
    assert parse_scenario(doc.replace("amp=1.0", "amp=0.0")).u0 == Profile("zero")


def test_stability_error_gives_the_largest_stable_cfl():
    limit = stable_cfl(parse_scenario(TINY))
    with pytest.raises(ScenarioError, match=f"largest stable cfl {limit:.4g} ") as info:
        parse_scenario(TINY + "mass.c = 1.0\ngrid.cfl = 1.1\n")
    assert str(info.value).startswith("line 10: ")
    assert "grid.cfl on line 10, mass.c on line 9" in str(info.value)
    assert parse_scenario(TINY + f"grid.cfl = {limit}\n").cfl == limit


def test_checked_in_scenarios_take_the_default_cfl():
    scenarios = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
    for cfg in sorted(scenarios.glob("*.cfg")):
        scn = parse_scenario(cfg.read_text())
        assert scn.cfl == 1.0 <= stable_cfl(scn), cfg.name


def test_history_past_the_memory_rule_is_rejected_with_its_lines():
    ref = (Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
           / "reference.cfg").read_text()
    # 2 x 5001 x 5376 doubles (5121 radii padded to whole pages), 0.40 GiB
    assert history_bytes(parse_scenario(ref)) <= MAX_HISTORY_BYTES
    lines = ref.splitlines()
    dr_line, t_end_line = (next(i for i, line in enumerate(lines, 1)
                                if line.startswith(key))
                           for key in ("grid.dr", "grid.t_end"))
    # 2 x 50 001 x 51 200 doubles (51 021 radii padded to whole pages)
    with pytest.raises(ScenarioError, match=f"^line {dr_line}: history too large: "
                                            "38.15 GiB nominal") as info:
        parse_scenario(ref.replace("grid.dr = 0.01", "grid.dr = 0.001"))
    assert f"grid.t_end on line {t_end_line}" in str(info.value)


def test_the_coupled_reference_grid_at_half_the_spacing_is_within_the_rule():
    # 2 x 10 001 x 10 240 doubles (10 221 radii padded to whole pages),
    # 1.53 GiB nominal
    ref = parse_scenario((Path(__file__).resolve().parents[1] / "perfbench"
                          / "scenarios" / "reference.cfg").read_text())
    fine = ref.with_grid(dr=0.005)
    assert history_shape(fine) == (10001, 10240)
    assert history_bytes(fine) == 1_638_563_840 <= MAX_HISTORY_BYTES


@pytest.mark.parametrize("data,cfl,n_live", [
    ({}, 0.15, 2),
    ({"v0": Profile("zero")}, 0.075, 1),  # the free wave's v is dead
    ({"eps": 0.0}, 0.075, 0),
])
def test_the_memory_rule_counts_the_live_fields(data, cfl, n_live):
    # 8 bytes a live field in each cell: at cfl = 0.15 the coupled
    # reference grid asks for 2.67 GiB, and with one live field (or none,
    # which is held to the one-field limit) it takes cfl = 0.075 to ask
    # about as much.  A row is padded to whole 4 KiB pages, from 5121 radii
    # to 5376 with two live fields and to 5632 with one (2.544 GiB
    # unpadded, as with none); at twice the cfl each run is within the
    # limit
    ref = parse_scenario((Path(__file__).resolve().parents[1] / "perfbench"
                          / "scenarios" / "reference.cfg").read_text()).with_grid(**data)
    assert len(live_fields(ref)) == n_live
    roomy = ref.with_grid(cfl=2 * cfl)
    assert history_bytes(roomy) == 8 * n_live * np.prod(history_shape(roomy))
    nominal = {2: r"2\.67", 1: r"2\.798", 0: r"2\.544"}[n_live]
    counted = ", counted as 1" if not n_live else ""
    with pytest.raises(ScenarioError, match=rf"^history too large: {nominal} GiB nominal "
                                            rf"\({n_live} of 2 fields live{counted};"):
        ref.with_grid(cfl=cfl)


def test_each_slice_is_stored_to_its_cone_and_the_margin_on_whole_pages():
    # slice k keeps r <= t_k - 1 + STORE_MARGIN dr, from its first cell at
    # or past the cone, capped at the history's radius cap, which the last
    # slice reaches; the radii are padded so that a row of the live
    # fields' records fills whole 4 KiB pages (none with no live field)
    scn = parse_scenario(TINY)
    n_steps, dt = time_steps(scn)
    cone = np.ceil((2.0 + dt * np.arange(n_steps + 1) - 1.0) / scn.dr)
    widths = store_widths(scn)
    assert np.array_equal(widths, np.minimum(cone + 21, 91))
    assert store_cap(scn) == widths[-1] == 91 > widths[-2]  # r_cap = 7 + 20 dr
    for data, radii in (({}, 256), ({"v0": Profile("zero")}, 512),
                        ({"eps": 0.0}, 91)):
        case = scn.with_grid(**data)
        assert history_shape(case) == (n_steps + 1, radii)
        assert history_bytes(case) % 4096 == 0
    # r_max caps the store below t_end - 1 + 20 dr
    near = scn.with_grid(r_max=8.0)
    assert store_cap(near) == 81 == store_widths(near)[-1]


@pytest.mark.parametrize("dr", ["1e-12", "5e-324"])
def test_memory_rule_runs_before_anything_is_sized_by_the_grid(dr):
    # stable_cfl evaluates the data on the grid out to r = 1, 10^12 points
    # at dr = 1e-12; at 5e-324 the step count itself overflows
    with pytest.raises(ScenarioError, match="^line 6: history too large"):
        parse_scenario(TINY.replace("grid.dr = 0.1", f"grid.dr = {dr}"))


@pytest.mark.parametrize("change,fragment", [
    (dict(eps=0.6), "degenerate data"),  # |1 - p00*eps*u0| reaches 0.4
    (dict(cfl=1.2), "unstable time step"),
    (dict(dr=5e-4), "history too large"),  # 2.5 GiB nominal
])
def test_a_scenario_is_runnable_however_it_is_built(change, fragment):
    # the solver's rules hold for a Scenario built directly or by
    # with_grid, not only for a parsed one
    base = parse_scenario(TINY)
    with pytest.raises(ScenarioError, match=f"^{fragment}"):
        base.with_grid(**change)
    fields = {name: getattr(base, name) for name in base.__dataclass_fields__}
    with pytest.raises(ScenarioError, match=f"^{fragment}"):
        Scenario(**{**fields, **change})


def test_a_step_that_rounds_to_zero_is_a_history_too_large():
    # dr * cfl = 1e-400 rounds to 0, and the step count divided by it; this
    # raised a bare ZeroDivisionError
    with pytest.raises(ScenarioError, match="^line 6: history too large"):
        parse_scenario(TINY.replace("grid.dr = 0.1", "grid.dr = 1e-200")
                       + "grid.cfl = 1e-200\n")


def test_with_grid_override():
    scn = parse_scenario(MINIMAL).with_grid(dr=0.01)
    assert scn.dr == 0.01


# radii from 5 cells of the property's dr = 0.05 (parse_scenario's
# resolution rule)
profile_st = st.one_of(
    st.just(Profile("zero")),
    st.builds(Profile,
              st.just("bump"),
              k=st.integers(1, 6),
              radius=st.floats(0.25, 1.0),
              amp=st.floats(0.001, 2.0)))


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.5, 3.0), eps=st.floats(0.0, 0.1),
       b00=st.floats(-2.0, 2.0), u0=profile_st, v1=profile_st)
def test_serialize_parse_property(c, eps, b00, u0, v1):
    # the drawn data reach kappa = 1.5, where the largest stable cfl is 0.85
    scn = Scenario(c=c, eps=eps, b00=b00, u0=u0, v1=v1,
                   dr=0.05, r_max=12.0, t_end=10.0, cfl=0.5)
    assert parse_scenario(serialize_scenario(scn)) == scn
