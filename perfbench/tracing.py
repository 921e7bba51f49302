"""Spans around the package's public functions, recorded from outside it.

Each layer function is wrapped at the names its callers look up (a module
attribute, or the copy a ``from ... import`` made in the calling module),
so calls between layers are seen as well as calls from the CLI.  Spans
live in flat arrays in memory and are written out once, at the end of a
pass.  Self time is a span's duration minus the durations of its direct
children; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import logging
from array import array
from time import perf_counter

import numpy as np

# span name -> (module, attribute) sites that are wrapped under that name
SITES = {
    "hulthen_analytic.quantization_residual": [
        ("hulthen_analytic", "quantization_residual")],
    "hulthen_analytic.energy_root_solve": [
        ("hulthen_analytic", "energy_root_solve")],
    "hulthen_analytic.energy_closed_form": [
        ("hulthen_analytic", "energy_closed_form")],
    "hulthen_analytic.satisfies_quantization": [
        ("hulthen_analytic", "satisfies_quantization")],
    "hulthen_analytic.wavefunction": [("hulthen_analytic", "wavefunction")],
    "nu_engine.all_candidates": [("hulthen_analytic", "all_candidates"),
                                 ("nu_engine", "all_candidates")],
    "nu_engine.eigen_pair": [("hulthen_analytic", "eigen_pair"),
                             ("nu_engine", "eigen_pair")],
    "specfun.gauss_jacobi_rule": [("hulthen_analytic", "gauss_jacobi_rule"),
                                  ("specfun", "gauss_jacobi_rule")],
    "specfun.endpoint_power_integral": [
        ("hulthen_analytic", "endpoint_power_integral"),
        ("specfun", "endpoint_power_integral")],
    "specfun.jacobi_eval": [("hulthen_analytic", "jacobi_eval"),
                            ("checks", "jacobi_eval"),
                            ("specfun", "jacobi_eval")],
    "oracle.find_bound_states": [("oracle", "find_bound_states")],
    "oracle.approximation_error": [("oracle", "approximation_error")],
    "checks.run_validation": [("checks", "run_validation")],
    "checks.wavefunction_ode_residual": [
        ("checks", "wavefunction_ode_residual")],
}
CLI_SPANS = ("cli.parse_config", "cli.execute", "cli.serialize")
WIDE_SCAN_POINTS = 240      # find_bound_states default: full-window scan
ROOT_SOLVE = "hulthen_analytic.energy_root_solve"
RESIDUAL = "hulthen_analytic.quantization_residual"
WARNING_LOGGER = "kghulthen.hulthen_analytic"   # skipped-scan warnings

# (metric, unit, better) for every per-layer metric, in report order
_TIMED = ["hulthen_analytic.quantization_residual", "nu_engine.all_candidates",
          "nu_engine.eigen_pair", "hulthen_analytic.energy_root_solve",
          "hulthen_analytic.energy_closed_form",
          "hulthen_analytic.satisfies_quantization",
          "hulthen_analytic.wavefunction", "specfun.gauss_jacobi_rule",
          "specfun.endpoint_power_integral", "specfun.jacobi_eval",
          "oracle.find_bound_states.wide", "oracle.find_bound_states.narrow",
          "oracle.approximation_error", "checks.wavefunction_ode_residual"]
METRICS = ([(f"{name}.{kind}", unit, "lower") for name in _TIMED
            for kind, unit in (("calls", "count"), ("self_s", "s"))]
           + [(f"{name}.self_s", "s", "lower")
              for name in ("checks.run_validation",) + CLI_SPANS]
           + [("hulthen_analytic.residual_calls_per_root_solve",
               "calls/solve", "lower"),
              ("hulthen_analytic.skipped_scan_warnings", "count", "lower"),
              ("oracle.states_found", "count", "higher"),
              ("oracle.converged_frac", "ratio", "higher"),
              ("trace.overhead_frac", "ratio", "lower")])


class _CountWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.current_request = -1
        self._stack = []
        self._saved = []
        self.states_found = 0
        self.states_converged = 0
        self.warnings = _CountWarnings()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_find_bound_states(self, fn):
        wide = self._id("oracle.find_bound_states.wide")
        narrow = self._id("oracle.find_bound_states.narrow")

        def traced(*args, **kwargs):
            points = kwargs.get("scan_points", WIDE_SCAN_POINTS)
            idx = self._open(wide if points >= WIDE_SCAN_POINTS else narrow)
            try:
                states = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.states_found += len(states)
            self.states_converged += sum(bool(d.converged) for d in states)
            return states
        return traced

    def install(self):
        for name, sites in SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"kghulthen.{module_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                if name == "oracle.find_bound_states":
                    wrapped = self._wrap_find_bound_states(original)
                else:
                    wrapped = self._wrap(name, original)
                setattr(module, attr, wrapped)
        logging.getLogger(WARNING_LOGGER).addHandler(self.warnings)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        logging.getLogger(WARNING_LOGGER).removeHandler(self.warnings)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.request, dtype=np.int32))

    def metrics(self) -> dict:
        """Per-layer metrics over every span recorded so far
        (``trace.overhead_frac`` is added by the caller)."""
        name, start, end, parent, _ = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.zeros(duration.size)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        calls = np.bincount(name, minlength=len(self.names))
        self_sum = np.bincount(name, weights=self_time,
                               minlength=len(self.names))
        out = {}
        for metric, _, _ in METRICS:
            base, _, kind = metric.rpartition(".")
            nid = self._ids.get(base)
            if kind == "calls":
                out[metric] = int(calls[nid]) if nid is not None else 0
            elif kind == "self_s":
                out[metric] = float(self_sum[nid]) if nid is not None else 0.0
        solves = out[f"{ROOT_SOLVE}.calls"]
        out["hulthen_analytic.residual_calls_per_root_solve"] = (
            self._count_inside(ROOT_SOLVE, RESIDUAL) / solves
            if solves else 0.0)
        out["hulthen_analytic.skipped_scan_warnings"] = self.warnings.count
        out["oracle.states_found"] = self.states_found
        out["oracle.converged_frac"] = (
            self.states_converged / self.states_found
            if self.states_found else 0.0)
        return out

    def _count_inside(self, outer: str, inner: str) -> int:
        """Spans named ``inner`` with an ``outer`` span among their
        ancestors (a parent is always recorded before its children)."""
        if outer not in self._ids or inner not in self._ids:
            return 0
        outer_id, inner_id = self._ids[outer], self._ids[inner]
        inside = bytearray(len(self.name))
        count = 0
        for i, (nid, par) in enumerate(zip(self.name, self.parent)):
            if par >= 0 and (inside[par] or self.name[par] == outer_id):
                inside[i] = 1
                count += nid == inner_id
        return count

    def save(self, path, facts: dict):
        """Write every span, the name table and the machine facts."""
        name, start, end, parent, request = self.arrays()
        np.savez_compressed(path, name=name, start=start, end=end,
                            parent=parent, request=request,
                            names=np.array(self.names),
                            facts=np.array([f"{k}={v}"
                                            for k, v in facts.items()]))
