"""Spans at the benchmark's call boundaries into hscyl.

A span records (id, name, layer, parent, start, end) plus the counts the
wrapper read off the call's result.  Spans are kept in memory and written
out once, when the run ends.  Nothing here edits the library: public
functions are wrapped at the call site, and the ``DiscreteRayleigh``
methods the flow uses are swapped on the class for the duration of a
``patched_rayleigh`` block and restored afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, counts=None):
        """``fn`` with a span around every call; ``counts(result, args)``
        returns a dict of exact counts to attach to the span."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record["counts"].update(counts(result, args))
            return result

        return traced

    def section(self, name: str):
        """A benchmark-level span that groups the calls of one check."""
        return self.span(f"bench.{name}", "bench")


@contextlib.contextmanager
def patched_rayleigh(tracer: Tracer, rayleigh_cls):
    """Trace the DiscreteRayleigh methods the flow calls: assembly
    (``__init__``), ``energy``, ``constraint`` and ``project``."""
    names = ("__init__", "energy", "constraint", "project")
    saved = {name: rayleigh_cls.__dict__[name] for name in names}
    try:
        for name, method in saved.items():
            setattr(rayleigh_cls, name, tracer.wrap(method))
        yield
    finally:
        for name, method in saved.items():
            setattr(rayleigh_cls, name, method)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers from one traced round (names as in BENCHMARK.json)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(seq, key=None):
        if key is None:
            return sum(dur(s) for s in seq)
        return sum(s["counts"].get(key, 0) for s in seq)

    m = {}
    for layer in ("quadrature", "closed_forms", "cylgrid", "asymptotics",
                  "minimizer"):
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans
                                   if s["layer"] == layer)

    quad = [s for s in spans if s["layer"] == "quadrature"]
    m["quadrature.calls"] = len(quad)
    m["quadrature.evaluations"] = total(quad, "evaluations")
    m["quadrature.s"] = total(quad)
    m["quadrature.evals_per_s"] = (m["quadrature.evaluations"] / m["quadrature.s"]
                                   if m["quadrature.s"] > 0.0 else 0.0)
    beta = [s for s in named("quadrature.integrate_cylindrical")
            if s["parent"] is not None
            and by_id[s["parent"]]["name"] == "bench.beta_matrix"]
    m["quadrature.beta_full.s"] = total(beta)
    m["quadrature.beta_full.evaluations"] = total(beta, "evaluations")
    newton = named("quadrature.singular_newtonian_integral")
    m["quadrature.newtonian.s"] = total(newton)
    m["quadrature.newtonian.evaluations"] = total(newton, "evaluations")

    closed = [s for s in spans if s["layer"] == "closed_forms"]
    m["closed_forms.s"] = total(closed)
    m["closed_forms.calls"] = len(closed)
    m["closed_forms.sharp_constant.s"] = total(named("closed_forms.sharp_constant_K"))

    grid_names = ("cylgrid.build_grid", "cylgrid.window_grid", "cylgrid.sampled")
    residual_names = ("cylgrid.el_residual", "cylgrid.shifted_quadratic_residual",
                      "cylgrid.cyl_laplacian")
    io_names = ("cylgrid.dump_grid", "cylgrid.load_grid")
    residual = [s for s in spans if s["name"] in residual_names]
    io = [s for s in spans if s["name"] in io_names]
    m["cylgrid.grid_s"] = total(s for s in spans if s["name"] in grid_names)
    m["cylgrid.residual_s"] = total(residual)
    m["cylgrid.residual_calls"] = len(residual)
    m["cylgrid.residual_nodes"] = total(residual, "nodes")
    m["cylgrid.io_s"] = total(io)
    m["cylgrid.io_bytes"] = total(io, "bytes")

    asym = [s for s in spans if s["layer"] == "asymptotics"]
    m["asymptotics.s"] = total(asym)
    m["asymptotics.calls"] = len(asym)

    flows = named("minimizer.minimize_rayleigh")
    m["minimizer.assemble_s"] = total(named("minimizer.__init__"))
    m["minimizer.flow_s"] = total(flows)
    m["minimizer.iterations"] = total(flows, "iterations")
    m["minimizer.accepted_steps"] = total(flows, "accepted")
    m["minimizer.rejected_steps"] = (m["minimizer.iterations"]
                                     - m["minimizer.accepted_steps"])
    # derived: the semi-implicit stepper factorises once, then once per
    # rejected (halved) step
    m["minimizer.factorizations"] = len(flows) + m["minimizer.rejected_steps"]
    for method in ("energy", "constraint", "project"):
        calls = named(f"minimizer.{method}")
        m[f"minimizer.{method}_s"] = total(calls)
        m[f"minimizer.{method}_calls"] = len(calls)
    flow_ids = {s["id"] for s in flows}
    traced_in_flows = total(s for s in spans if s["parent"] in flow_ids)
    # derived: what the traced methods leave of the flow is factorisation,
    # the linear solves and the right-hand sides
    m["minimizer.step_rest_s"] = m["minimizer.flow_s"] - traced_in_flows
    m["minimizer.s_per_iteration"] = (m["minimizer.flow_s"] / m["minimizer.iterations"]
                                      if m["minimizer.iterations"] else 0.0)
    return m
