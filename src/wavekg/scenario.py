"""Experiment description and its flat key=value configuration grammar.

A scenario bundles the coupling constants of the system

    Box u           = b00 * (d_t u)(d_t v) + bd * (d_r u)(d_r v),
    Box v + c^2 v   = u * (p00 * d_t^2 v + pd * Delta v),

the Klein-Gordon mass c, the data amplitude eps, four radial profiles
supported in the unit ball, the grid parameters, and monitor settings.

The configuration format is a flat list of ``section.key = value`` lines
with ``#`` comments; sections are couplings, mass, data, grid, monitors.
Errors carry line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .geometry import run_length_problem
from .profiles import Profile, ProfileError

__all__ = ["Scenario", "ScenarioError", "history_bytes", "history_shape",
           "parse_scenario", "serialize_scenario", "stable_cfl", "time_steps"]

# coarsest grid spacing the stages accept: on coarser grids the sampled
# conformal energy's positive decomposition exceeds it by more than the
# quadrature allowance of energies.energy_e1 (at dr = 0.2 the worst
# excess uses about half of that allowance, at dr = 0.25 more than all)
_DR_MAX = 0.2
# the solver stops where |1 - p00 u| falls below this (quasilinear degeneracy)
MIN_DENOM = 0.5
# RK4 is stable on the imaginary axis for |z| <= 2 sqrt(2)
_RK4_IMAG_LIMIT = 2.0 * math.sqrt(2.0)
# spectral radius of solver._RK4.rhs's radial operator times dr^2: the axis row
# 6 (w1 - w0) / dr^2 has e0 as an eigenvector, past the interior's 4
_LAP_RADIUS = 6.0
# share of the RK4 limit a run may use.  Measured, the mid grid's coupled
# run stays bounded up to 1.002 of the limit and blows up past it, short
# or massive runs up to 1.02, and data with eps = 0.3 (kappa 1.86, which
# falls as the data disperse) past 1.3; 0.9 keeps cfl = 1.0 legal for
# every checked-in scenario
_CFL_SAFETY = 0.9
# cells evolve stores past the final cone r = t_end - 1
STORE_MARGIN = 20
# largest nominal history a scenario may ask for (see history_bytes): the
# reference grid asks for 0.76 GiB at cfl 1.0 and 1.53 GiB at cfl 0.5, and
# about 0.62 of the nominal bytes are resident
MAX_HISTORY_BYTES = 2 * 2**30


class ScenarioError(ValueError):
    """Invalid scenario; ``attrs`` names the Scenario fields at fault."""

    def __init__(self, message, attrs=()):
        super().__init__(message)
        self.attrs = attrs


@dataclass(frozen=True)
class Scenario:
    b00: float = 1.0
    bd: float = 1.0
    p00: float = 1.0
    pd: float = 1.0
    c: float = 1.0
    eps: float = 1e-3
    u0: Profile = Profile("bump", k=4)
    u1: Profile = Profile("zero")
    v0: Profile = Profile("bump", k=4)
    v1: Profile = Profile("zero")
    dr: float = 0.01
    r_max: float = 60.0
    t_end: float = 52.0
    cfl: float = 1.0
    delta: float = 0.05
    eta: float = 0.6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = (value,)
            if isinstance(value, Profile):
                numbers = (value.radius, value.amp)
            if not all(math.isfinite(x) for x in numbers):
                raise ScenarioError(f"{f.name} must be finite, got {value!r}",
                                    (f.name,))
        if self.c <= 0:
            raise ScenarioError(f"Klein-Gordon mass must be positive, got c={self.c}",
                                ("c",))
        if not (0 < self.dr <= _DR_MAX):
            raise ScenarioError(
                f"grid spacing must satisfy 0 < dr <= {_DR_MAX}, got dr={self.dr}",
                ("dr",))
        if not self.cfl > 0:
            raise ScenarioError(f"time-step ratio must be positive, got cfl={self.cfl}",
                                ("cfl",))
        if self.t_end <= 2.0:
            raise ScenarioError(
                f"final time must exceed the initial time 2, got t_end={self.t_end}",
                ("t_end",))
        if self.r_max < self.t_end:
            raise ScenarioError(
                f"outer radius r_max={self.r_max} must be >= t_end={self.t_end} "
                "so the support cone never reaches the boundary", ("r_max", "t_end"))
        for name in ("u0", "u1", "v0", "v1"):
            prof = getattr(self, name)
            if prof.radius > 1.0:
                raise ScenarioError(
                    f"profile {name} has support radius {prof.radius} > 1; "
                    "data must be supported in the unit ball", (name,))

    def wave_source(self, ut, vt, ur, vr):
        """Box u, the wave equation's right-hand side, from first derivatives."""
        return self.b00 * ut * vt + self.bd * ur * vr

    def with_grid(self, **kwargs):
        return replace(self, **kwargs)


_SCHEMA = {
    "couplings.b00": ("b00", float),
    "couplings.bd": ("bd", float),
    "couplings.p00": ("p00", float),
    "couplings.pd": ("pd", float),
    "mass.c": ("c", float),
    "data.eps": ("eps", float),
    "data.u0": ("u0", Profile.parse),
    "data.u1": ("u1", Profile.parse),
    "data.v0": ("v0", Profile.parse),
    "data.v1": ("v1", Profile.parse),
    "grid.dr": ("dr", float),
    "grid.r_max": ("r_max", float),
    "grid.t_end": ("t_end", float),
    "grid.cfl": ("cfl", float),
    "monitors.delta": ("delta", float),
    "monitors.eta": ("eta", float),
}


_KEYS = {attr: key for key, (attr, _) in _SCHEMA.items()}


def time_steps(scn):
    """Number and size of the RK4 steps from t = 2 to t_end."""
    n_steps = max(1, int(np.ceil((scn.t_end - 2.0) / (scn.cfl * scn.dr))))
    return n_steps, (scn.t_end - 2.0) / n_steps


def history_shape(scn):
    """(slices, radii) of each field evolve stores: every step, out to the
    radius cap r = t_end - 1 + STORE_MARGIN dr (or r_max)."""
    r_cap = min(scn.r_max, scn.t_end - 1.0 + STORE_MARGIN * scn.dr)
    return time_steps(scn)[0] + 1, int(round(r_cap / scn.dr)) + 1


def history_bytes(scn):
    """Nominal bytes of evolve's history, 4 fields of history_shape
    doubles; plain arithmetic, so the memory rule allocates nothing."""
    slices, radii = history_shape(scn)
    return 4 * slices * radii * 8


def stable_cfl(scn):
    """Largest time-step ratio cfl = dt/dr the RK4 stability rule accepts.

    RK4 is stable while dt times the largest frequency of the linearized
    system stays within 2 sqrt(2) on the imaginary axis; that frequency
    is at most sqrt(6 kappa + (c dr)^2) / dr, where 6/dr^2 is the
    spectral radius of the radial Laplacian (axis row included) and kappa
    the largest factor (1 + pd u) / (1 - p00 u) of the Klein-Gordon
    Laplacian on the data u = eps u0.  The rule keeps _CFL_SAFETY of it:

        cfl sqrt(6 kappa + (c dr)^2) <= _CFL_SAFETY * 2 sqrt(2).

    Raises ScenarioError if the data make |1 - p00 u| < MIN_DENOM, the
    degeneracy at which the solver stops.
    """
    # the solver's grid points out to r = 1, past which the data vanish
    u = scn.eps * scn.u0(scn.dr * np.arange(math.ceil(1.0 / scn.dr) + 1))
    denom = 1.0 - scn.p00 * u
    closest = np.min(np.abs(denom))
    if closest < MIN_DENOM:
        raise ScenarioError(
            f"degenerate data: |1 - p00*eps*u0| falls to {closest:.3g} < {MIN_DENOM} "
            "on the grid, where the solver stops", ("eps", "u0", "p00"))
    kappa = np.max((1.0 + scn.pd * u) / denom)
    return float(_CFL_SAFETY * _RK4_IMAG_LIMIT
                 / math.sqrt(_LAP_RADIUS * kappa + (scn.c * scn.dr) ** 2))


def parse_scenario(text):
    """Parse a configuration document into a Scenario.

    Unknown keys, malformed lines, range violations, runs too short for
    the analysis stages, histories past MAX_HISTORY_BYTES, degenerate
    data and time steps past the RK4 stability rule (see stable_cfl)
    raise ScenarioError with the
    offending line number (none when the offending value is a default);
    an error that involves several keys also lists the line of each.
    """
    kwargs = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        attr, conv = _SCHEMA[key]
        if attr in kwargs:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        try:
            kwargs[attr] = conv(value)
        except (ValueError, OverflowError, ProfileError) as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[attr] = lineno

    def at_line(exc):
        found = [a for a in exc.attrs if a in lines]
        if not found:
            return ScenarioError(str(exc), exc.attrs)
        message = f"line {lines[found[0]]}: {exc}"
        if len(found) > 1:
            message += " (" + ", ".join(f"{_KEYS[a]} on line {lines[a]}"
                                        for a in found) + ")"
        return ScenarioError(message, exc.attrs)

    try:
        scn = Scenario(**kwargs)
        problem = run_length_problem(scn.t_end, scn.dr)
        if problem is not None:
            raise ScenarioError(
                f"t_end={scn.t_end} is too short for the analysis stages: {problem}",
                ("t_end", "dr"))
        try:
            nominal = history_bytes(scn)
        except OverflowError:  # dr so small that the step count overflows
            nominal = math.inf
        if nominal > MAX_HISTORY_BYTES:
            raise ScenarioError(
                f"history too large: {nominal / 2**30:.4g} GiB nominal (4 fields of "
                "(n_steps + 1) x n_store doubles) is past the limit of "
                f"{MAX_HISTORY_BYTES / 2**30:g} GiB", ("dr", "cfl", "t_end"))
        limit = stable_cfl(scn)
        if scn.cfl > limit:
            raise ScenarioError(
                f"unstable time step: grid.cfl = {scn.cfl} at mass.c = {scn.c} is past "
                f"the largest stable cfl {limit:.4g} of the RK4 rule cfl*sqrt(6*kappa "
                f"+ (c*dr)^2) <= {_CFL_SAFETY}*2*sqrt(2), kappa the data's largest "
                "coefficient factor", ("cfl", "c", "dr", "eps", "u0"))
    except ScenarioError as exc:
        raise at_line(exc) from exc
    return scn


def serialize_scenario(scn):
    """Render a Scenario back to the configuration grammar."""
    lines = []
    for key, (attr, _) in _SCHEMA.items():
        value = getattr(scn, attr)
        if isinstance(value, Profile):
            value = value.describe()
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
