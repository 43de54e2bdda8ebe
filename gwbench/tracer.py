"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, value): `parent` is the index of the
enclosing span (-1 at the root) and `value` is one number the wrapper
recorded about the call (matrices handled, sites stepped, bytes written,
or the lattice step of a leg).  Wrappers are installed where callers look
the layer functions up, so no file of the package changes.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Attribute that marks a wrapper; the untraced run checks no target has it.
MARK = "_gwbench_span"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    value: float | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, value: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, value))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, value: float | None = None):
        index = self.open(name, value)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a function that records a span around each
        call.  before(*args) or after(result, *args) gives the span's value."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name, before(*args, **kwargs) if before else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                tracer.spans[index].value = after(result, *args, **kwargs)
            return result

        setattr(traced, MARK, name)
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s,value\n")
            for i, s in enumerate(self.spans):
                value = "" if s.value is None else repr(s.value)
                fh.write(f"{i},{s.parent},{s.name},{s.start!r},{s.end!r},{value}\n")


def _matrices(a, tail: int) -> int:
    return math.prod(np.shape(a)[:-tail])


def _bytes_written(result, path, *args, **kwargs) -> int:
    return os.path.getsize(result if result is not None else path)


IO_WRITERS = ("write_state_csv", "write_checkpoint", "write_gauge_field_csv",
              "write_curvature_csv", "write_convergence_csv", "write_trajectory_csv",
              "write_classical_csv", "write_manifest")


def targets(gw) -> list[tuple]:
    """(owner, attribute, span name, before, after) for every wrapped layer
    entry point; `gw` maps module names to the imported gaugewalk modules."""
    lat, un, wk, dr = gw["lattice"], gw["unitary"], gw["walker"], gw["dirac"]
    exp_count = (lambda coords, *a, **k: _matrices(coords, 1))
    defect_count = (lambda m, *a, **k: _matrices(m, 2))
    out = [
        # lattice looks these names up in its own namespace, factorize in unitary's
        (lat, "exp_map", "unitary.exp_map", exp_count, None),
        (lat, "unitarity_defect", "unitary.unitarity_defect", defect_count, None),
        (un, "unitarity_defect", "unitary.unitarity_defect", defect_count, None),
        (lat, "factorize", "unitary.factorize", None, None),
        (lat.GaugeField, "P", "lattice.slice", None, None),
        (lat.GaugeField, "Q", "lattice.slice", None, None),
        (lat.GaugeTransformation, "G", "lattice.slice", None, None),
        (lat, "curvature_slice", "lattice.curvature_slice", None,
         lambda result, *a, **k: result.shape[0]),
        (lat, "discrete_curvature", "lattice.discrete_curvature", None, None),
        (lat, "curvature_factorization_check", "lattice.curvature_factorization_check",
         None, None),
        (wk, "step", "walker.step", lambda state, *a, **k: state.spec.n_sites, None),
        (wk, "evolve", "walker.evolve", lambda state, *a, **k: state.spec.epsilon, None),
        (wk, "gauge_transform_state", "walker.gauge_transform_state", None, None),
        (dr, "solve", "dirac.solve", lambda initial, *a, **k: initial.grid.dx, None),
        (dr, "rk2_step", "dirac.rk2_step", None, None),
        (dr, "spectral_derivative", "dirac.spectral_derivative", None, None),
        (dr.DiracParams, "potential_matrices", "dirac.potential_matrices", None, None),
        (gw["analysis"], "mean_position", "analysis.mean_position", None, None),
        (gw["analysis"], "relative_difference", "analysis.relative_difference", None, None),
        (gw["classical"], "closed_form_trajectory", "classical.closed_form_trajectory",
         None, None),
        (gw["io"], "sha256_file", "io.sha256_file", None, None),
        (gw["io"], "read_checkpoint", "io.read_checkpoint", None, None),
    ]
    out += [(gw["io"], name, "io.write", None, _bytes_written) for name in IO_WRITERS]
    return out


def install(tracer: Tracer, gw) -> None:
    for owner, attr, name, before, after in targets(gw):
        tracer.wrap(owner, attr, name, before, after)


def wrapped_targets(gw) -> list[str]:
    """Names of targets that are not the package's own functions."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in targets(gw) if hasattr(getattr(owner, attr), MARK)]


# experiments (cli.main) has its own metric, experiments.self_s
LAYERS = ("unitary", "lattice", "walker", "dirac", "analysis", "classical", "io")
SWEEP_EPSILONS = (0.4, 0.2, 0.1, 0.05)
SWEEP_OP = "op:convergence"


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _under(spans: list[Span], index: int, ancestor_name: str) -> bool:
    index = spans[index].parent
    while index >= 0:
        if spans[index].name == ancestor_name:
            return True
        index = spans[index].parent
    return False


def sweep_legs(spans: list[Span]) -> dict[str, float]:
    """Traced duration of each walk and reference leg of the convergence
    operation, keyed by the lattice step passed to evolve or solve."""
    legs: dict[str, float] = {}
    for i, s in enumerate(spans):
        kind = {"walker.evolve": "walk_s", "dirac.solve": "ref_s"}.get(s.name)
        if kind and _under(spans, i, SWEEP_OP):
            key = f"sweep.{kind}.eps{s.value:g}"
            legs[key] = legs.get(key, 0.0) + s.end - s.start
    return legs


# span name -> reported fields; "matrices" sums the values the spans recorded
REPORTED = {
    "unitary.exp_map": ("calls", "matrices", "self_s"),
    "unitary.unitarity_defect": ("calls", "matrices", "self_s"),
    "unitary.factorize": ("calls", "self_s"),
    "lattice.slice": ("requests", "self_s"),
    "lattice.curvature_slice": ("calls", "self_s"),
    "lattice.curvature_factorization_check": ("calls", "self_s"),
    "walker.step": ("calls", "self_s"),
    "walker.gauge_transform_state": ("calls", "self_s"),
    "dirac.rk2_step": ("calls", "self_s"),
    "dirac.spectral_derivative": ("calls", "self_s"),
    "dirac.potential_matrices": ("calls", "self_s"),
    "analysis.mean_position": ("calls", "self_s"),
    "analysis.relative_difference": ("self_s",),
    "classical.closed_form_trajectory": ("calls", "self_s"),
    "io.write": ("calls", "self_s"),
    "io.sha256_file": ("self_s",),
    "io.read_checkpoint": ("self_s",),
    "experiments": ("self_s",),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times from one traced run."""
    self_s = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    values: dict[str, float] = {}
    step_self: list[float] = []
    for s, own in zip(spans, self_s):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + own
        if s.value is not None:
            values[s.name] = values.get(s.name, 0.0) + s.value
        if s.name == "walker.step":
            step_self.append(own)

    fields = {"calls": calls, "requests": calls, "self_s": total, "matrices": values}
    out = {f"{name}.{field}": fields[field].get(name, 0) for name, reported in REPORTED.items()
           for field in reported}
    # a slice request built its slice when it validated one itself
    builds = len({s.parent for s in spans if s.name == "unitary.unitarity_defect"
                  and s.parent >= 0 and spans[s.parent].name == "lattice.slice"})
    requests = out["lattice.slice.requests"]
    computed = values.get("lattice.curvature_slice", 0)
    out.update({
        "lattice.slice.builds": builds,
        "lattice.slice.hit_ratio": 1.0 - builds / requests if requests else 0.0,
        "lattice.curvature.sites_used_ratio":
            calls.get("lattice.discrete_curvature", 0) / computed if computed else 0.0,
        "walker.step.self_p50_us": _percentile(step_self, 50) * 1e6,
        "walker.step.self_p99_us": _percentile(step_self, 99) * 1e6,
        "walker.site_steps": values.get("walker.step", 0),
        "io.bytes_written": values.get("io.write", 0),
    })
    for eps in SWEEP_EPSILONS:
        for kind in ("walk_s", "ref_s"):
            out[f"sweep.{kind}.eps{eps:g}"] = 0.0
    out.update(sweep_legs(spans))
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            (t for name, t in total.items() if name.split(".")[0] == layer), 0.0)
    return out


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
