"""Span tracing of qelab from outside: wraps the public functions of each module.

``install()`` replaces every public function defined in a qelab module with
a timing wrapper, in every qelab namespace that holds it (re-imports such as
``qe.distance_and_geodesic``, the package re-exports, module-level dispatch
tables such as ``cli.COMMANDS``) and in the module it came from, so the local
import ``from .anderson import eigendecompose`` inside ``graphs.exp_check``
is caught too.  Nothing under ``src/`` changes.

Spans nest on a stack (execution is single-threaded).  A span's self time
is its duration minus the durations of its direct children.  Per function
the tracer keeps calls, outermost time (recursive re-entry not counted
twice) and self time.  Spans that cross a layer boundary are also kept in
memory with their parent span, for writing out at the end.  Work and
violation counters are read from the arguments and the returned objects of
the public functions, after each call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

# qelab module -> layer; the private kernel sweeps belong to tree_green
LAYERS = {
    "graphs": "graphs",
    "anderson": "anderson",
    "tree_green": "tree_green",
    "_kernels": "tree_green",
    "qe": "qe",
    "esd": "esd",
    "cli": "cli",
}

ROOT = "root"  # span around the whole workload body; its self time is cli's


class Tracer:
    """Span stack and per-function statistics; ``wrap`` makes traced functions."""

    def __init__(self, groups=None):
        self.group_members = groups or {}
        self.stack = []  # frames: [layer, start, child_time, span_id]
        self.spans = []  # (id, parent_id, name, start, end) at layer boundaries
        self.stats = {}  # name -> [calls, outermost time, self time, open frames]
        self.layers = {}  # name -> layer
        self.groups = {g: [0.0, 0] for g in self.group_members}  # [outermost time, open]
        self.counters = Counter()

    def reset(self):
        """Forget everything recorded so far; wrappers stay installed."""
        self.stack.clear()
        self.spans.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        for group in self.groups.values():
            group[:] = [0.0, 0]
        self.counters.clear()

    def wrap(self, name, layer, fn, counter=None):
        """Timing wrapper of fn; counter(counters, arguments, result) runs after each call."""
        stack, spans, counters = self.stack, self.spans, self.counters
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        self.layers[name] = layer
        groups = [self.groups[g] for g, members in self.group_members.items() if name in members]
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
            frame = [layer, 0.0, 0.0, span_id if span_id >= 0 else parent[3]]
            stack.append(frame)
            stat[3] += 1
            for group in groups:
                group[1] += 1
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                stat[0] += 1
                stat[2] += duration - frame[2]
                stat[3] -= 1
                if stat[3] == 0:
                    stat[1] += duration
                for group in groups:
                    group[1] -= 1
                    if group[1] == 0:
                        group[0] += duration
                if span_id >= 0:
                    spans[span_id] = (span_id, parent[3] if parent else None, name, start, end)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counters, bound.arguments, result)
            return result

        return traced


def _tree_work(q, depth, branches):
    return 1 + branches * ((q**depth - 1) // (q - 1))


def _count_violations(counters, violations):
    sign, cap, floor = (int(v) for v in violations[:3])
    counters["tree_green.sign_violations"] += sign
    counters["tree_green.cap_violations"] += cap
    counters["tree_green.floor_violations"] += floor


def _count_ray(counters, a, result):
    if a["epsilon"] != 0.0:
        counters["tree_green.ray_nodes"] += _tree_work(a["q"], a["depth"], a["q"] + 1) * a["samples"]
    _count_violations(counters, result.violations)


def _count_moments(counters, a, result):
    if a["epsilon"] != 0.0:
        per_point = _tree_work(a["q"], result.depth, a["q"]) * a["samples"]
        counters["tree_green.cavity_nodes"] += per_point * len(result.points)
    _count_violations(counters, result.total_violations())


def _count_lifted(counters, a, result):
    # messages_init plus depth-1 rounds of advance, one update per directed edge
    counters["tree_green.message_updates"] += a["graph"].n * (a["graph"].q + 1) * (a["depth"] - 1)
    _count_violations(counters, result.violations)


def _count_eigh(counters, a, result):
    counters["anderson.eigh_n3"] += result.n ** 3


def _count_injectivity(counters, a, result):
    counters["graphs.injectivity_vertices"] += int(result.radii.size)


def _count_window(counters, a, result):
    counters["qe.window_eigs"] += int(result.window_count)


COUNTERS = {
    "tree_green.mc_expectation_im_green": _count_ray,
    "tree_green.green_condition_moments": _count_moments,
    "tree_green.lifted_green": _count_lifted,
    "anderson.eigendecompose": _count_eigh,
    "graphs.injectivity_radius": _count_injectivity,
    "qe.qe_statistic_kernel": _count_window,
}


def install(tracer: Tracer) -> int:
    """Wrap every public qelab function; returns the number wrapped."""
    modules = {name: importlib.import_module(f"qelab.{name}") for name in LAYERS}
    wrapped = {}
    for modname, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{modname}.{attr}"
            wrapped[obj] = tracer.wrap(name, LAYERS[modname], obj, COUNTERS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "qelab" and not modname.startswith("qelab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
    return len(wrapped)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# time metrics: outermost time of a group of functions (a call nested in
# another call of the same group is not counted twice)
TIME_GROUPS = {
    "tree_green.profile_s": ["tree_green.distance_ratio_profile"],
    "tree_green.moments_s": ["tree_green.green_condition_moments"],
    "tree_green.lifted_s": ["tree_green.lifted_green"],
    "anderson.eigendecompose_s": ["anderson.eigendecompose"],
    "anderson.assemble_s": ["anderson.assemble"],
    "graphs.exp_check_s": ["graphs.exp_check"],
    "graphs.injectivity_s": ["graphs.injectivity_radius"],
    "graphs.generate_s": ["graphs.generate_random_regular"],
    "graphs.geodesic_s": ["graphs.distance_and_geodesic"],
    "qe.statistic_s": ["qe.qe_statistic_diag", "qe.qe_statistic_kernel"],
    "qe.kernel_average_s": ["qe.kernel_average_simple", "qe.kernel_average_general_curve",
                            "qe.kernel_average_general"],
    "esd.km_cdf_s": ["esd.kesten_mckay_cdf"],
    "esd.compare_s": ["esd.esd_compare"],
    "esd.lln_s": ["esd.lln_moment_check"],
    "cli.resolve_s": ["cli.resolve_config"],
    "cli.write_s": ["cli.write_csv"],
}

CALL_COUNTS = {
    "anderson.eigendecompose_calls": "anderson.eigendecompose",
    "graphs.geodesic_calls": "graphs.distance_and_geodesic",
    "esd.km_cdf_calls": "esd.kesten_mckay_cdf",
}

RATES = {
    "tree_green.ray_nodes_per_s": ("tree_green.ray_nodes", ["tree_green.mc_expectation_im_green"]),
    "tree_green.cavity_nodes_per_s": ("tree_green.cavity_nodes", ["tree_green.green_condition_moments"]),
    "tree_green.message_updates_per_s": ("tree_green.message_updates", ["tree_green.lifted_green"]),
}

COUNT_NAMES = [
    "tree_green.ray_nodes", "tree_green.cavity_nodes", "tree_green.message_updates",
    "tree_green.sign_violations", "tree_green.cap_violations", "tree_green.floor_violations",
    "anderson.eigh_n3", "graphs.injectivity_vertices", "qe.window_eigs",
]

LAYER_NAMES = ["graphs", "anderson", "tree_green", "qe", "esd", "cli"]


def _stat(tracer, name):
    return tracer.stats.get(name, [0, 0.0, 0.0, 0])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (name -> value) of one traced execution."""
    out = {metric: tracer.groups[metric][0] for metric in TIME_GROUPS}
    for metric, name in CALL_COUNTS.items():
        out[metric] = _stat(tracer, name)[0]
    for name in COUNT_NAMES:
        out[name] = tracer.counters[name]
    out["tree_green.bound_violations"] = sum(
        tracer.counters[f"tree_green.{k}_violations"] for k in ("sign", "cap", "floor"))
    for metric, (count, names) in RATES.items():
        busy = sum(_stat(tracer, n)[1] for n in names)
        out[metric] = tracer.counters[count] / busy if busy > 0 else 0.0
    out["graphs.exp_check_self_s"] = _stat(tracer, "graphs.exp_check")[2]
    layer_self = Counter()
    for name, stat in tracer.stats.items():
        layer_self[tracer.layers[name]] += stat[2]
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["cli.other_s"] = (layer_self["cli"] - _stat(tracer, "cli.resolve_config")[2]
                          - _stat(tracer, "cli.write_csv")[2])
    return out


def function_table(tracer: Tracer) -> dict:
    """name -> [calls, outermost time, self time] for every function called."""
    return {name: stat[:3] for name, stat in tracer.stats.items() if stat[0]}
