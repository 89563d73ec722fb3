import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavekg
from wavekg import oracles
from wavekg.oracles import DalembertField, KGSpectralField, OracleSampler
from wavekg.profiles import Profile
from wavekg.scenario import Scenario
from wavekg.solver import HistorySampler, evolve

EPS = 1e-3

BUMP4 = Profile("bump", k=4, radius=1.0, amp=1.0)
BUMP3 = Profile("bump", k=3, radius=0.9, amp=0.5)
ZERO = Profile("zero")


def make_scenario(**overrides):
    base = dict(b00=1.0, bd=1.0, p00=1.0, pd=1.0, c=1.0, eps=EPS,
                u0=BUMP4, u1=ZERO, v0=BUMP4, v1=ZERO,
                dr=0.05, r_max=14.0, t_end=14.0)
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="session")
def small_scn():
    return make_scenario()


@pytest.fixture(scope="session")
def small_history(small_scn):
    """Coupled run on a coarse grid; shared by the fast integration tests."""
    return evolve(small_scn)


@pytest.fixture(scope="session")
def small_sampler(small_history):
    return HistorySampler(small_history)


@pytest.fixture(scope="session")
def free_wave_scn():
    return make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0,
                         v0=ZERO, v1=ZERO, dr=0.02, r_max=12.0, t_end=12.0)


@pytest.fixture(scope="session")
def free_wave_history(free_wave_scn):
    return evolve(free_wave_scn)


@pytest.fixture(scope="session")
def free_kg_scn():
    return make_scenario(b00=0.0, bd=0.0, p00=0.0, pd=0.0,
                         u0=ZERO, u1=ZERO, dr=0.02, r_max=12.0, t_end=12.0)


@pytest.fixture(scope="session")
def free_kg_history(free_kg_scn):
    return evolve(free_kg_scn)


@pytest.fixture(scope="session")
def wave_oracle():
    return DalembertField(Profile("bump", k=4, radius=1.0, amp=EPS), ZERO)


@pytest.fixture(scope="session")
def kg_oracle():
    return KGSpectralField(Profile("bump", k=4, radius=1.0, amp=EPS), ZERO, 1.0)


def spectral_field(v0, v1, length, n_modes):
    """KGSpectralField(v0, v1, 1) with n_modes sine modes on [0, length]:
    the oracle's module constants, set around its construction only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_LENGTH", length)
        mp.setattr(oracles, "_N_MODES", n_modes)
        return KGSpectralField(v0, v1, 1.0)


@pytest.fixture(scope="session")
def oracle_sampler(wave_oracle, kg_oracle):
    return OracleSampler(wave_oracle, kg_oracle)


# ---- heavy fixtures for the acceptance suite ----------------------------------


@pytest.fixture(scope="session")
def reference_scn():
    return make_scenario(dr=0.01, r_max=60.0, t_end=52.0)


@pytest.fixture(scope="session")
def reference_history(reference_scn):
    """The coupled reference run (about 1 s; 0.76 GiB nominal, about
    0.43 GB resident, since pages past the support cone stay unbacked)."""
    return evolve(reference_scn)


@pytest.fixture(scope="session")
def reference_free_history(reference_scn):
    """Free-wave run at the reference grid, for radiation cross-checks."""
    return evolve(reference_scn.with_grid(b00=0.0, bd=0.0, p00=0.0, pd=0.0,
                                          v0=ZERO, v1=ZERO))


def slope_of(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = y > 0
    return np.polyfit(np.log(x[m]), np.log(y[m]), 1)[0]


def run_python_process(args, threads):
    """`python args` in a fresh process that imports this wavekg and whose
    BLAS/OpenMP pools have the given number of threads; returns the
    CompletedProcess, with stdout and stderr captured as text."""
    env = dict(os.environ)
    src = str(Path(wavekg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)


# wavekg.cli argv[2:] in a process that first pins itself to the first
# argv[1] CPUs it may run on and prints the share count it then sees
_PINNED_CLI = """
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
from wavekg import _shares, cli
print(_shares.worker_count(), flush=True)
sys.exit(cli.main(sys.argv[2:]))
"""


def skip_unless_two_cpus():
    """Skip the calling test unless a child can be pinned to one CPU and
    to two."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing, so no child can be pinned")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this process may run on fewer than 2 CPUs")


def run_cli_process(argv, cpus):
    """`wavekg.cli argv` in a fresh process pinned to `cpus` of this
    process's CPUs, with as many BLAS/OpenMP threads (see
    run_python_process); returns the exit code and the share count
    (_shares.worker_count) the child saw, or None if it printed none."""
    proc = run_python_process(["-c", _PINNED_CLI, str(cpus), *argv], cpus)
    first = proc.stdout.split(maxsplit=1)
    return proc.returncode, int(first[0]) if first else None


def differing_outputs(a, b):
    """Names of the outputs that differ between two run directories: every
    artifact byte for byte, and the manifests' sha256 tables (a manifest
    also carries its run's wall-clock time)."""
    names = sorted(p.name for p in Path(a).iterdir())
    if names != sorted(p.name for p in Path(b).iterdir()):
        return ["<file list>"]
    diff = []
    for name in names:
        if name == "manifest.json":
            ma = json.loads((Path(a) / name).read_text())
            mb = json.loads((Path(b) / name).read_text())
            same = ma["artifacts"] == mb["artifacts"]
        else:
            same = (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes()
        if not same:
            diff.append(name)
    return diff
