"""Spans around the calls into wavekg's public functions, recorded from outside.

A Tracer replaces each listed function by a wrapper on every module attribute
that refers to it: the defining module and every module that imported the
name with ``from ... import`` (wavekg's own and the benchmark's); methods are
replaced on their class.  Each call records a
span (id, parent id, round, name, start, end, counts) in memory; ``write`` dumps
them as JSON lines when the run ends.  ``layer_metrics`` turns the spans into
the per-layer figures, using self time: a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute) for functions, (module, class, method) for methods
TARGETS = (
    ("wavekg.solver", "evolve"),
    ("wavekg.solver", "HistorySampler", "jets"),
    ("wavekg.sliceio", "slice_dump"),
    ("wavekg.sliceio", "slice_load"),
    ("wavekg.energies", "build_sample"),
    ("wavekg.energies", "high_order_energies"),
    ("wavekg.energies", "word_l2_norms"),
    ("wavekg.inequalities", "check_hardy"),
    ("wavekg.inequalities", "check_klainerman_sobolev"),
    ("wavekg.inequalities", "check_conformal_estimate"),
    ("wavekg.inequalities", "check_standard_estimate"),
    ("wavekg.inequalities", "decay_monitors"),
    ("wavekg.inequalities", "bootstrap_monitor"),
    ("wavekg.kg_reduction", "integrate_oscillator"),
    ("wavekg.kg_reduction", "check_ode_lemma"),
    ("wavekg.kg_reduction", "reduction_residual"),
    ("wavekg.kg_reduction", "sharp_decay_check"),
    ("wavekg.radiation", "radiation_null"),
    ("wavekg.radiation", "radiation_hyperbola"),
    ("wavekg.radiation", "transport_check"),
    ("wavekg.radiation", "excessive_decay_check"),
    ("wavekg.radiation", "rigidity_experiment"),
    ("wavekg.oracles", "KGSpectralField", "jet"),
    ("wavekg.oracles", "KGSpectralField", "jets"),
    ("wavekg.oracles", "DalembertField", "jet"),
    ("wavekg.oracles", "DalembertField", "jets"),
    ("wavekg.cli", "run_pipeline"),
)

_MB = 1024.0 * 1024.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _n_points(t, r):
    return int(np.broadcast(np.asarray(t), np.asarray(r)).size)


def _arg_counts(name, args):
    """Work counts of one call taken from its arguments (args[0] is the
    instance for methods)."""
    if name.endswith((".jets", ".jet")) and len(args) >= 3:
        return {"points": _n_points(args[1], args[2])}
    if name == "build_sample":
        sampler, s, r_nodes = args[0], args[1], np.asarray(args[2])
        source = getattr(sampler, "history", sampler)
        return {"key": [id(source), float(s), int(r_nodes.size),
                        float(r_nodes[-1]) if r_nodes.size else 0.0]}
    return {}


def _result_counts(name, args, result, before_rss):
    """Work counts of one successful call taken from its result."""
    if name == "evolve":
        arrays = (result.u, result.ut, result.v, result.vt, result.r)
        return {"rk4_steps": result.n_slices - 1,
                "history_mb": sum(a.nbytes for a in arrays) / _MB}
    if name == "slice_dump":
        return {"archive_mb": len(result) / _MB,
                "rss_rise_mb": _peak_rss_mb() - before_rss}
    if name == "run_pipeline":
        out = Path(args[2])
        return {"artifact_mb": sum((out / a).stat().st_size
                                   for a in result["artifacts"]) / _MB}
    return {}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.round = 0  # the workload's round index, set by its loop
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "round": tracer.round,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    **_arg_counts(name, args)}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            before_rss = _peak_rss_mb() if name == "slice_dump" else 0.0
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
            span["end"] = time.perf_counter()
            span.update(_result_counts(name, args, result, before_rss))
            return result

        return wrapper

    def install(self):
        importlib.import_module("wavekg.cli")  # loads every wavekg module
        wrappers = {}
        for target in TARGETS:
            owner = importlib.import_module(target[0])
            if len(target) == 3:
                cls = getattr(owner, target[1])
                name = f"{target[1]}.{target[2]}"
                self._patch(cls, target[2], self._wrap(name, cls.__dict__[target[2]]))
            else:
                original = getattr(owner, target[1])
                wrappers[id(original)] = self._wrap(target[1], original)
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, n_rounds):
    """Per-layer figures per round from one traced child's spans."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def t(*names):
        return sum(own[s["id"]] for n in names for s in by_name.get(n, ())) / n_rounds

    def n(name):
        return len(by_name.get(name, ())) / n_rounds

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ())) / n_rounds

    def top_points(*names):
        # points are counted once per outermost call, not again in the
        # jet() calls a jets() call makes
        ids = {s["id"] for n_ in names for s in by_name.get(n_, ())}
        return sum(s.get("points", 0) for n_ in names
                   for s in by_name.get(n_, ()) if s["parent"] not in ids) / n_rounds

    def per(us_time, count):
        return 1e6 * us_time / count if count else 0.0

    evolve_s, steps = t("evolve"), total("evolve", "rk4_steps")
    jets_s, jets_points = t("HistorySampler.jets"), total("HistorySampler.jets", "points")
    kg_names = ("KGSpectralField.jet", "KGSpectralField.jets")
    kg_s, kg_points = t(*kg_names), top_points(*kg_names)
    # a key counts once per round: later rounds rebuild the same samples on
    # purpose, and a freed history's id() may be reused by the next round's
    keys = [(s.get("round", 0), *s["key"]) for s in by_name.get("build_sample", ())]
    dumps = by_name.get("slice_dump", ())
    return {
        "solver.evolve_s": (evolve_s, "s"),
        "solver.evolve_calls": (n("evolve"), "count"),
        "solver.rk4_steps": (steps, "count"),
        "solver.step_us": (per(evolve_s, steps), "us"),
        "solver.history_mb": (max((s["history_mb"] for s in by_name.get("evolve", ())),
                                  default=0.0), "MB"),
        "solver.jets_s": (jets_s, "s"),
        "solver.jets_points": (jets_points, "count"),
        "solver.jets_us_per_point": (per(jets_s, jets_points), "us"),
        "sliceio.dump_s": (t("slice_dump"), "s"),
        "sliceio.load_s": (t("slice_load"), "s"),
        "sliceio.archive_mb": (max((s["archive_mb"] for s in dumps), default=0.0), "MB"),
        "sliceio.dump_rss_rise_mb": (max((s["rss_rise_mb"] for s in dumps), default=0.0), "MB"),
        "energies.sample_s": (t("build_sample"), "s"),
        "energies.samples_built": (n("build_sample"), "count"),
        "energies.distinct_sample_share": (len(set(keys)) / len(keys) if keys else 0.0, "ratio"),
        "energies.high_order_s": (t("high_order_energies", "word_l2_norms"), "s"),
        "energies.high_order_calls": (n("high_order_energies") + n("word_l2_norms"), "count"),
        "inequalities.checks_s": (t("check_hardy", "check_klainerman_sobolev",
                                    "check_conformal_estimate", "check_standard_estimate",
                                    "decay_monitors"), "s"),
        "inequalities.bootstrap_s": (t("bootstrap_monitor"), "s"),
        "kg_reduction.oscillators": (n("integrate_oscillator"), "count"),
        "kg_reduction.oscillator_s": (t("integrate_oscillator"), "s"),
        "kg_reduction.lemma_s": (t("check_ode_lemma"), "s"),
        "kg_reduction.rays_s": (t("reduction_residual", "sharp_decay_check"), "s"),
        "radiation.null_s": (t("radiation_null"), "s"),
        "radiation.hyperbola_s": (t("radiation_hyperbola"), "s"),
        "radiation.transport_s": (t("transport_check"), "s"),
        "radiation.excessive_decay_s": (t("excessive_decay_check"), "s"),
        "radiation.rigidity_s": (t("rigidity_experiment"), "s"),
        "oracles.kg_jets_s": (kg_s, "s"),
        "oracles.kg_jet_points": (kg_points, "count"),
        "oracles.kg_us_per_point": (per(kg_s, kg_points), "us"),
        "oracles.wave_jets_s": (t("DalembertField.jet", "DalembertField.jets"), "s"),
        "cli.self_s": (t("run_pipeline"), "s"),
        "cli.artifact_mb": (total("run_pipeline", "artifact_mb"), "MB"),
    }
