"""Per-layer tracing by wrapping beadproc's public functions from outside.

Each traced function is replaced, at every ``beadproc`` module attribute
that refers to it, by a wrapper that records a span (layer, start, end,
parent) in memory and bumps the layer's counters.  Because the wrappers sit
at module attributes, calls made inside the package (``kernel_eval`` ->
``kernel_matrix``, ``bulk_convergence_probe`` -> ``kernel_eval``) are traced
as well as calls made by the benchmark.  Nothing under ``src/`` changes.

After the traced phase the spans give, per layer:

* ``busy_s``: time inside the layer's outermost spans (nested calls of the
  same layer are not counted twice);
* ``self_s``: each span's duration minus its direct child spans.

A function that a later version of the package no longer has is skipped; its
metrics then read 0.

Which end-to-end metric each layer should move, and where:

* ``sampler.*``: ``items_per_s`` and ``op_*`` on sample-wide, where it is
  nearly all the time; a little on cli-readme; nothing on bulk-probe or
  kernel-lines.
* ``model.*``: cli-readme throughput (configurations built and checked one
  by one); 0 on sample-wide, whose fast path skips the interlacing check.
* ``orthopoly.*``, ``kernel.same.*``, ``kernel.density.*``: kernel-lines
  throughput and ``ok_ops_frac``; a small share of bulk-probe.
* ``kernel.cross.*``: bulk-probe throughput and tail latency.
* ``kernel.context.*``: ``setup_s`` (contexts are built in set-up), and
  bulk-probe and cli-readme, which rebuild them per call.
* ``scaling.*``: bulk-probe, the share left after the kernel.
* ``stats.*``, ``oracle.*``, ``hexagon.*``, ``cli.*``: cli-readme.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER_METRICS = (
    ("sampler.calls", "count"),
    ("sampler.configs", "count"),
    ("sampler.busy_s", "s"),
    ("sampler.self_s", "s"),
    ("model.interlace_checks", "count"),
    ("model.interlace_failures", "count"),
    ("model.configs_built", "count"),
    ("model.busy_s", "s"),
    ("orthopoly.tower_calls", "count"),
    ("orthopoly.tower_values", "count"),
    ("orthopoly.busy_s", "s"),
    ("kernel.same.calls", "count"),
    ("kernel.same.entries", "count"),
    ("kernel.same.busy_s", "s"),
    ("kernel.same.self_s", "s"),
    ("kernel.density.calls", "count"),
    ("kernel.density.points", "count"),
    ("kernel.density.busy_s", "s"),
    ("kernel.cross.calls", "count"),
    ("kernel.cross.entries", "count"),
    ("kernel.cross.busy_s", "s"),
    ("kernel.context.calls", "count"),
    ("kernel.context.busy_s", "s"),
    ("kernel.nonfinite", "count"),
    ("kernel.finite_frac", "ratio"),
    ("scaling.probe.calls", "count"),
    ("scaling.probe.rows", "count"),
    ("scaling.busy_s", "s"),
    ("scaling.self_s", "s"),
    ("scaling.tail.calls", "count"),
    ("scaling.tail.busy_s", "s"),
    ("scaling.bulk_kernel.calls", "count"),
    ("stats.calls", "count"),
    ("stats.samples", "count"),
    ("stats.busy_s", "s"),
    ("oracle.calls", "count"),
    ("oracle.grid_dim_max", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.self_s", "s"),
    ("hexagon.calls", "count"),
    ("hexagon.configs", "count"),
    ("hexagon.busy_s", "s"),
    ("cli.invocations", "count"),
    ("cli.busy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Layers whose time the summary groups, in the order they are printed.
LAYERS = (
    "cli",
    "sampler",
    "model",
    "orthopoly",
    "kernel.same",
    "kernel.density",
    "kernel.cross",
    "kernel.context",
    "scaling",
    "stats",
    "oracle",
    "hexagon",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _finite_counts(tracer, result):
    arr = np.asarray(result, dtype=float)
    bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
    tracer.counts["kernel.nonfinite"] += bad
    tracer.counts["kernel._values"] += arr.size
    return arr.size


def _on_kernel_matrix(tracer, args, kwargs, result):
    layer = _kernel_matrix_layer(args, kwargs)
    tracer.counts[layer + ".calls"] += 1
    tracer.counts[layer + ".entries"] += _finite_counts(tracer, result)


def _kernel_matrix_layer(args, kwargs):
    s, t = _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 3, "t")
    return "kernel.cross" if s < t else "kernel.same"


def _on_line_density(tracer, args, kwargs, result):
    tracer.counts["kernel.density.calls"] += 1
    tracer.counts["kernel.density.points"] += _finite_counts(tracer, result)


def _on_tower(tracer, args, kwargs, result):
    tracer.counts["orthopoly.tower_calls"] += 1
    tracer.counts["orthopoly.tower_values"] += int(np.size(result))


def _on_sampler(tracer, args, kwargs, result):
    tracer.counts["sampler.calls"] += 1
    tracer.counts["sampler.configs"] += int(_arg(args, kwargs, 2, "count"))


def _on_interlace(tracer, args, kwargs, result):
    tracer.counts["model.interlace_checks"] += 1
    tracer.counts["model.interlace_failures"] += 0 if result else 1


def _on_probe(tracer, args, kwargs, result):
    tracer.counts["scaling.probe.calls"] += 1
    tracer.counts["scaling.probe.rows"] += len(result)


def _counter(name):
    def on_result(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return on_result


def _on_stats(tracer, args, kwargs, result):
    tracer.counts["stats.calls"] += 1
    data = args[0]
    tracer.counts["stats.samples"] += len(data) if isinstance(data, (list, tuple)) else int(np.size(data))


def _on_oracle(tracer, args, kwargs, result):
    tracer.counts["oracle.calls"] += 1
    spec, m = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "m")
    dim = spec.n_lines * int(m)
    tracer.counts["oracle.grid_dim_max"] = max(tracer.counts["oracle.grid_dim_max"], dim)


def _on_enumerate(tracer, args, kwargs, result):
    tracer.counts["hexagon.calls"] += 1
    tracer.counts["hexagon.configs"] += len(result)


# (module, function, layer, on_result).  The layer may be a callable of the
# call's arguments.  Functions are wrapped wherever a beadproc module binds
# them.
_FUNCTIONS = (
    ("sampler", "sample_positions", "sampler", _on_sampler),
    ("sampler", "sample_many", "sampler", _on_sampler),
    ("model", "interlace_indicator", "model", _on_interlace),
    ("orthopoly", "jacobi_tower", "orthopoly", _on_tower),
    ("kernel", "kernel_context", "kernel.context", _counter("kernel.context.calls")),
    ("kernel", "kernel_matrix", _kernel_matrix_layer, _on_kernel_matrix),
    ("kernel", "line_density", "kernel.density", _on_line_density),
    ("scaling", "bulk_convergence_probe", "scaling", _on_probe),
    ("scaling", "tail_integral_real", "scaling", _counter("scaling.tail.calls")),
    ("scaling", "bulk_kernel", "scaling", _counter("scaling.bulk_kernel.calls")),
    ("scaling", "boutillier_kernel", "scaling", None),
    ("scaling", "scaling_context", "scaling", None),
    ("scaling", "support_interval", "scaling", None),
    ("scaling", "global_density", "scaling", None),
    ("stats", "ks_statistic", "stats", _on_stats),
    ("stats", "beta_cdf", "stats", _on_stats),
    ("stats", "empirical_line_density", "stats", _on_stats),
    ("stats", "pair_correlation_estimate", "stats", _on_stats),
    ("oracle", "oracle_deviation", "oracle", _on_oracle),
    ("oracle", "discrete_kernel", "oracle", _on_oracle),
    ("hexagon", "enumerate_configurations", "hexagon", _on_enumerate),
    ("hexagon", "left_count", "hexagon", _counter("hexagon.calls")),
    ("hexagon", "left_count_closed_form", "hexagon", _counter("hexagon.calls")),
    ("hexagon", "hahn_marginal_unnormalized", "hexagon", _counter("hexagon.calls")),
    ("hexagon", "bruteforce_marginal", "hexagon", _counter("hexagon.calls")),
    ("hexagon", "lattice_particles_per_line", "hexagon", _counter("hexagon.calls")),
    ("hexagon", "line_sites", "hexagon", _counter("hexagon.calls")),
    ("hexagon", "boundary_positions", "hexagon", _counter("hexagon.calls")),
    ("cli", "run", "cli", _counter("cli.invocations")),
)

# Classes are wrapped only at the one attribute named here: replacing a class
# everywhere would break ``isinstance`` checks inside the package.
_CLASS_SITES = (("sampler", "BeadConfiguration", "model", _counter("model.configs_built")),)


class Tracer:
    """Span recorder; spans are kept in memory until :meth:`metrics`."""

    def __init__(self):
        self.spans = []  # [layer, name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self._restore = []

    def _wrap(self, fn, name, layer, on_result):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_layer = layer(args, kwargs) if callable(layer) else layer
            span = [span_layer, name, 0.0, math.nan, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every traced function at each ``package`` module attribute bound to it."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for mod_name, fn_name, layer, on_result in _FUNCTIONS:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, fn_name, layer, on_result)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))
        for mod_name, cls_name, layer, on_result in _CLASS_SITES:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(module, cls_name, None)
            if original is None:
                continue
            setattr(module, cls_name, self._wrap(original, cls_name, layer, on_result))
            self._restore.append((module, cls_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_times(self):
        """Busy and self time per layer, and the tail integrals' own busy time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        tail = 0.0
        for i, (layer, name, start, end, parent) in enumerate(spans):
            duration = end - start
            own[layer] += duration - child_time[i]
            if name == "tail_integral_real":
                tail += duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                busy[layer] += duration
        return busy, own, tail

    def metrics(self, overhead_frac):
        """Every per-layer metric as ``{name: value}``."""
        busy, own, tail = self.layer_times()
        values = {name: 0 for name, _ in PER_LAYER_METRICS}
        for key, n in self.counts.items():
            if key in values:
                values[key] = n
        for layer in LAYERS:
            for suffix, table in (("busy_s", busy), ("self_s", own)):
                key = f"{layer}.{suffix}"
                if key in values:
                    values[key] = table[layer]
        values["scaling.tail.busy_s"] = tail
        total = self.counts["kernel._values"]
        values["kernel.finite_frac"] = (total - self.counts["kernel.nonfinite"]) / total if total else 1.0
        values["trace.overhead_frac"] = overhead_frac
        return values

    def self_shares(self, op_time):
        """Each layer's self time as a share of ``op_time``, the traced ops' total.

        The rest, under ``outside``, is time in the benchmark's own op code
        and in private functions called from it directly.
        """
        _, own, _ = self.layer_times()
        shares = {layer: own[layer] / op_time for layer in LAYERS if own[layer] > 0}
        shares["outside"] = 1.0 - sum(shares.values())
        return shares
