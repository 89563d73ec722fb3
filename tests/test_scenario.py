from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavekg.profiles import Profile
from wavekg.scenario import (MAX_HISTORY_BYTES, Scenario, ScenarioError,
                             history_bytes, parse_scenario, serialize_scenario,
                             stable_cfl)

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
    # 4 x 5001 x 5121 doubles, 0.76 GiB
    assert history_bytes(parse_scenario(ref)) <= MAX_HISTORY_BYTES
    lines = ref.splitlines()
    dr_line, t_end_line = (next(i for i, line in enumerate(lines, 1)
                                if line.startswith(key))
                           for key in ("grid.dr", "grid.t_end"))
    # 4 x 50 001 x 51 021 doubles
    with pytest.raises(ScenarioError, match=f"^line {dr_line}: history too large: "
                                            "76.03 GiB nominal") as info:
        parse_scenario(ref.replace("grid.dr = 0.01", "grid.dr = 0.001"))
    assert f"grid.t_end on line {t_end_line}" in str(info.value)


@pytest.mark.parametrize("dr", ["1e-12", "5e-324"])
def test_memory_rule_runs_before_anything_is_sized_by_the_grid(dr):
    # stable_cfl evaluates the data on the grid out to r = 1, 10^12 points
    # at dr = 1e-12; at 5e-324 the step count itself overflows
    with pytest.raises(ScenarioError, match="^line 6: history too large"):
        parse_scenario(TINY.replace("grid.dr = 0.1", f"grid.dr = {dr}"))


def test_with_grid_override():
    scn = parse_scenario(MINIMAL).with_grid(dr=0.01)
    assert scn.dr == 0.01


profile_st = st.one_of(
    st.just(Profile("zero")),
    st.builds(Profile,
              st.just("bump"),
              k=st.integers(1, 6),
              radius=st.floats(0.2, 1.0),
              amp=st.floats(0.001, 2.0)))


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.5, 3.0), eps=st.floats(0.0, 0.1),
       b00=st.floats(-2.0, 2.0), u0=profile_st, v1=profile_st)
def test_serialize_parse_property(c, eps, b00, u0, v1):
    # the drawn data reach kappa = 1.5, where the largest stable cfl is 0.85
    scn = Scenario(c=c, eps=eps, b00=b00, u0=u0, v1=v1,
                   dr=0.05, r_max=12.0, t_end=10.0, cfl=0.5)
    assert parse_scenario(serialize_scenario(scn)) == scn
