"""Span tracing of raagham from outside the package.

``patched(tracer)`` swaps the public functions and methods of each raagham
module for wrappers that record a span (name, start, end, parent) around
every call, plus the deterministic counts the benchmark reports.  Leaving
the context restores the originals, so untraced passes run the unmodified
code.  Every count is derived from arguments and returned objects; nothing
inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from raagham import cli, flows, graphs, lift, textio, twist, words

LAYERS = ("graphs", "words", "twist", "lift", "flows", "textio", "cli", "bench")


class Tracer:
    """In-memory spans and counters; spans nest by call order."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(float)
        self.maxima = {}
        self.minima = {}

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        self.counts[name + ".n"] += 1

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, -math.inf), float(value))

    def note_min(self, key, value):
        self.minima[key] = min(self.minima.get(key, math.inf), float(value))

    def self_times(self):
        """Seconds per span name, minus the time covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out


# ------------------------------ count hooks ----------------------------------


_EMULATOR_SIGNATURE = inspect.signature(graphs.find_planar_emulator)


def assignments_tried(g, allow_trivial, result):
    """Voltage assignments the emulator search visited before returning.

    The search runs over Z/k, k ascending, skipping orders whose covers fail
    the edge bound, in lexicographic order; a found cover's count is the
    sizes of the earlier searched orders plus its own lexicographic rank.
    """
    if isinstance(result, graphs.NotFound):
        return result.tried
    nv, ne = len(g.vertices), len(g.edges)
    k = result.voltage.group_order
    tried = 0
    for j in range(1 if allow_trivial else 2, k):
        if not (j * nv >= 3 and j * ne > 3 * j * nv - 6):
            tried += j**ne
    rank = 0
    for v in result.voltage.voltages:
        rank = rank * k + v
    return tried + rank + 1


def _emulator_after(tracer, args, kwargs, result):
    bound = _EMULATOR_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    tracer.counts["graphs.emulator_assignments"] += assignments_tried(
        a["g"], a["allow_trivial"], result
    )


def tangency_residual(config):
    """Worst |d(c_u, c_v) - r_u - r_v| over edges of the packing before inflation."""
    scale = 1.0 + config.provenance["delta"]
    worst = 0.0
    for u, v in config.graph.sorted_edges():
        d = float(np.hypot(*(config.centers[u] - config.centers[v])))
        worst = max(worst, abs(d - (config.radii[u] + config.radii[v]) / scale))
    return worst


def _configuration_after(tracer, args, kwargs, config):
    tracer.note_max("twist.tangency_residual", tangency_residual(config))
    tracer.note_min("twist.inflation_delta", config.provenance["delta"])
    tracer.counts["twist.regions"] += len(config.region_points)


def _letters_after(tracer, args, kwargs, result):
    tracer.counts["words.normal_form_letters"] += len(args[0])


def _pairs_after(tracer, args, kwargs, result):
    n = len(args[0].pieces)
    tracer.counts["lift.overlap_pairs"] += n * (n - 1) // 2


def _points_after(tracer, args, kwargs, result):
    tracer.counts["lift.eval_points"] += len(np.atleast_2d(args[1]))


def _jacobian_after(tracer, args, kwargs, result):
    tracer.note_max("flows.jacobian_max_dev", result["max_deviation"])


def _bytes_after(tracer, args, kwargs, result):
    data = args[1]
    tracer.counts["textio.bytes_written"] += len(
        data.encode() if isinstance(data, str) else data
    )


class CountingField:
    """Field handed to flow_map: counts vector-field evaluations."""

    def __init__(self, field):
        self.field = field
        self.evals = 0

    def vector_field(self, pts):
        self.evals += 1
        return self.field.vector_field(pts)

    def __getattr__(self, name):
        return getattr(self.field, name)


def _traced_flow_map(tracer, original):
    spanned = tracer.wrap("flows.flow", original)

    @functools.wraps(original)
    def flow_map(field, z0, *args, **kwargs):
        counting = CountingField(field)
        result = spanned(counting, z0, *args, **kwargs)
        n = len(np.atleast_2d(np.asarray(z0, float)))
        tracer.counts["flows.point_steps"] += n * result.steps
        tracer.counts["flows.steps"] += result.steps
        tracer.counts["flows.field_evals"] += counting.evals
        tracer.note_max("flows.energy_drift", result.energy_drift)
        return result

    return flow_map


FUNCTIONS = [
    (graphs, "find_planar_emulator", "graphs.emulator", _emulator_after),
    (graphs, "planarity", "graphs.planarity", None),
    (graphs, "check_orbicover", "graphs.orbicover", None),
    (twist, "build_configuration", "twist.configuration", _configuration_after),
    (twist, "build_representation", "twist.representation", None),
    (words, "normal_form", "words.normal_form", _letters_after),
    (words, "oracle_equal", "words.oracle", None),
    (words, "hom_apply", "words.hom_apply", None),
    (words, "hom_pullback", "words.pullback", None),
    (lift, "enumerate_group", "lift.enumerate", None),
    (lift, "lambda_scale", "lift.lambda_quad", None),
    (lift, "analytic_report", "lift.report", None),
    (flows, "jacobian_probe", "flows.jacobian", _jacobian_after),
    (flows, "rep_apply", "flows.rep_apply", None),
    (flows, "verify_relations", "flows.verify", None),
    (textio, "atomic_write", "textio.emit", _bytes_after),
    (textio, "dump_json", "textio.emit", None),
    (textio, "dump_csv", "textio.emit", None),
    (textio, "svg_configuration", "textio.emit", None),
    (textio, "svg_disk_translates", "textio.emit", None),
    (textio, "svg_orbits", "textio.emit", None),
    (cli, "main", "cli.self", None),
]

METHODS = [
    (twist.PlaneMap, "apply", "twist.apply", None),
    (lift.CorrectedHamiltonian, "__init__", "lift.chart_build", None),
    (lift.AssembledHamiltonian, "__init__", "lift.overlap_check", _pairs_after),
    (lift.AssembledHamiltonian, "value", "lift.eval", _points_after),
    (lift.AssembledHamiltonian, "gradient", "lift.eval", _points_after),
    (lift.Mollifier, "value", "lift.mollifier", None),
    (lift.Mollifier, "gradient", "lift.mollifier", None),
]


def _raagham_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "raagham"]


@contextlib.contextmanager
def patched(tracer):
    """Route every public entry point named above through the tracer.

    A function imported by name into another raagham module is replaced
    there too, so internal calls are traced as well as the benchmark's own.
    """
    saved = []
    replacements = [
        (mod, attr, tracer.wrap(span, getattr(mod, attr), after))
        for mod, attr, span, after in FUNCTIONS
    ]
    replacements.append((flows, "flow_map", _traced_flow_map(tracer, flows.flow_map)))
    try:
        for mod, attr, wrapper in replacements:
            original = getattr(mod, attr)
            for m in _raagham_modules():
                if getattr(m, attr, None) is original:
                    saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
        for cls, attr, span, after in METHODS:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics from one traced set-up plus one traced pass."""
    own = tracer.self_times()
    c = tracer.counts
    spans = {span for *_, span, _ in FUNCTIONS + METHODS} | {"flows.flow"}
    out = {f"{name}_s": own.get(name, 0.0) for name in spans}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.split(".")[0] == layer)
    steps = c["flows.steps"]
    out.update(
        {
            "graphs.emulator_assignments": c["graphs.emulator_assignments"],
            "graphs.planarity_calls": c["graphs.planarity.n"],
            "twist.tangency_residual": tracer.maxima.get("twist.tangency_residual", 0.0),
            "twist.inflation_delta": tracer.minima.get("twist.inflation_delta", 0.0),
            "twist.regions": c["twist.regions"],
            "twist.apply_calls": c["twist.apply.n"],
            "words.normal_form_letters": c["words.normal_form_letters"],
            "words.oracle_calls": c["words.oracle.n"],
            "words.oracle_cap_hits": c["words.oracle.raised.ResourceCapExceeded"],
            "lift.pieces": c["lift.chart_build.n"],
            "lift.overlap_pairs": c["lift.overlap_pairs"],
            "lift.eval_calls": c["lift.eval.n"],
            "lift.eval_points": c["lift.eval_points"],
            "flows.flow_calls": c["flows.flow.n"],
            "flows.point_steps": c["flows.point_steps"],
            "flows.field_evals": c["flows.field_evals"],
            "flows.fp_iters_per_step": (c["flows.field_evals"] - steps) / steps if steps else 0.0,
            "flows.energy_drift": tracer.maxima.get("flows.energy_drift", 0.0),
            "flows.jacobian_max_dev": tracer.maxima.get("flows.jacobian_max_dev", 0.0),
            "textio.bytes_written": c["textio.bytes_written"],
            "trace.spans": len(tracer.spans),
        }
    )
    return out
