"""Numerical laboratory for a coupled wave/Klein-Gordon system.

Radial finite-difference evolution on a hyperboloidal foliation, with
closed-form and spectral oracles, energy functionals, inequality
checkers, the oscillator reduction along rays, and two independent
radiation-field extractions.
"""

__version__ = "0.1.0"

from .geometry import GeometryError, HyperbolaCurve, SpacetimePoint, entry_point
from .oracles import (DalembertField, KGSpectralField, OracleSampler,
                      free_wave_radiation)
from .profiles import Profile, ProfileError
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_scenario
from .sliceio import SliceIOError, slice_dump, slice_load
from .solver import HistorySampler, SliceHistory, SolverError, evolve

__all__ = [
    "__version__",
    "Profile", "ProfileError",
    "Scenario", "ScenarioError", "parse_scenario", "serialize_scenario",
    "GeometryError", "SpacetimePoint", "HyperbolaCurve",
    "entry_point",
    "DalembertField", "KGSpectralField", "OracleSampler",
    "free_wave_radiation",
    "SolverError", "SliceHistory", "HistorySampler", "evolve",
    "SliceIOError", "slice_dump", "slice_load",
]
