"""Span tracing of heatbayes from outside the package.

`instrument(tracer)` replaces the public entry points of each layer (one
layer per module) with wrappers that record a span per call: name, layer,
start, end, parent span and job id.  Each wrapper is rebound in every
heatbayes module namespace that holds the original, so calls between
modules (``experiments`` calling its own imported ``substream``, say) are
traced too.  Spans stay in memory; `dump_spans` writes them out once the
benchmark is done.

Counts are taken at the same boundaries, from call arguments, returned
values and written files.  The costlier counts (array scans, file sizes)
run inside spans of the pseudo layer ``trace``, so that their cost stays
out of every real layer's self time.
Numeric helpers (``sinpi``, ``compensated_sum``, ...) are deliberately not
wrapped: their time counts toward the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from checks import shrink_variances

LAYERS = ("rng", "sequence", "priors", "posterior", "credible", "functionals",
          "experiments", "asymptotics", "io", "svg")

# layer -> public module-level functions wrapped as entry points: those the
# workloads reach, directly or through other layers
FUNCTIONS = {
    "rng": ("substream", "normal_matrix"),
    "sequence": ("heat_eigenvalues", "true_signal_coefficients", "basis_matrix",
                 "default_truncation"),
    "priors": ("prior_variances", "check_snr"),
    "posterior": ("posterior_weights", "risk_decomposition", "prior_tail_bound"),
    "credible": ("quadratic_form_quantile", "frequentist_radius"),
    "functionals": ("point_evaluation_curves", "admissible_truncation",
                    "check_admissible"),
    "experiments": ("run_ball_coverage", "run_interval_coverage",
                    "run_risk_curve", "render_panel"),
    "asymptotics": ("standard_lemma_suite", "lemma_series_trace",
                    "lemma_series_value", "lemma_norm_trace", "lemma_norm_sup",
                    "lemma_fixed_sequence_trace", "lemma_csbound_check",
                    "lemma_csbound_value", "integral_bound_check",
                    "crossover_residual", "crossover_index"),
    "io": ("write_dataset",),
    "svg": ("render_static_plot",),
}

# layer -> (class name, method name) entry points that are methods
METHODS = {
    "priors": (("PriorSpec", "log_variances"), ("PriorSpec", "variance_values"),
               ("ScalingRule", "resolve")),
    "functionals": (("LinearFunctional", "point_evaluation"),),
}

_EPS = np.finfo(float).eps


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent, job]
        self.counts = Counter()
        self.job = None
        self.enabled = False
        self._stack = []
        self._open = Counter()  # layer -> spans of that layer now open

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.job])
        self._stack.append(idx)
        self._open[layer] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._open[span[1]] -= 1

    def inside(self, layer: str) -> bool:
        return self._open[layer] > 0

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def self_times(spans: list) -> tuple[dict, float]:
    """(layer -> self seconds, seconds covered by top-level spans).

    Calls are synchronous, so child spans nest inside their parent and never
    overlap: a span's self time is its duration minus the sum of its direct
    children's durations, and the self times add up to the covered time.
    """
    child = [0.0] * len(spans)
    covered = 0.0
    for name, layer, start, end, parent, job in spans:
        if parent is None:
            covered += end - start
        else:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS + ("trace",), 0.0)
    for k, (name, layer, start, end, parent, job) in enumerate(spans):
        out[layer] += end - start - child[k]
    return out, covered


def dump_spans(path: str, passes: list) -> None:
    """Write spans as JSON lines; `passes` holds one span list per pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for pass_idx, spans in enumerate(passes):
            for k, (name, layer, start, end, parent, job) in enumerate(spans):
                fh.write(json.dumps({
                    "pass": pass_idx, "id": k, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "job": job}) + "\n")


class CountingGenerator:
    """Proxy around a numpy Generator that traces `standard_normal`."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        tr = self._tracer
        if not tr.enabled:
            return self._gen.standard_normal(*args, **kwargs)
        idx = tr.open("rng", "rng.standard_normal")
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            tr.close(idx)
        size = int(np.size(out))
        tr.counts["rng.normals"] += size
        if tr.inside("credible"):
            tr.counts["credible.mc_normals"] += size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _size(x) -> int:
    return int(np.size(np.asarray(x)))


# counters whose own cost is worth a `trace` span (O(N) array scans, stat)
_TIMED_COUNTS = ("posterior", "credible", "io", "svg")


def _count(tr: Tracer, layer: str, name: str, result, bind) -> None:
    """Update the counters of one completed call; `bind()` gives its
    arguments by name, defaults applied."""
    c = tr.counts
    c[f"{layer}.calls"] += 1
    if layer == "sequence":
        if name in ("heat_eigenvalues", "true_signal_coefficients"):
            c["sequence.coeffs"] += bind()["truncation_level"]
        elif name == "basis_matrix":
            a = bind()
            c["sequence.coeffs"] += _size(a["x_grid"]) * a["truncation_level"]
    elif layer == "posterior" and name == "posterior_weights":
        c["posterior.coeffs"] += result.gain.size
        c["posterior.active"] += int(np.count_nonzero(result.gain))
    elif layer == "credible" and name in ("quadratic_form_quantile",
                                          "frequentist_radius"):
        a = bind()
        if name == "quadratic_form_quantile":
            w = a["q"].weights.values
        else:
            w = shrink_variances(a["prior"], a["kappa"].values, a["n"])
        c["credible.coords"] += w.size
        if w.size and w.max() > 0:
            c["credible.active"] += int(np.count_nonzero(w >= _EPS * w.max()))
    elif layer == "functionals" and name == "point_evaluation_curves":
        a = bind()
        extra = a["extra_coefficients"]
        cols = 2 + (0 if extra is None else extra.shape[1])
        c["functionals.synth_terms"] += (_size(a["x_grid"])
                                         * a["weights"].lam.size * cols)
    elif layer == "experiments":
        if name.startswith("run_"):
            cfg = bind()["cfg"]
            c["experiments.replications"] += cfg.replications * len(cfg.n_grid)
        elif name == "render_panel":
            c["experiments.panels"] += 1
    elif layer in ("io", "svg"):
        c[f"{layer}.bytes"] += os.path.getsize(bind()["path"])


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    sig = inspect.signature(fn)
    label = f"{layer}.{name}"
    short = name.rsplit(".", 1)[-1]
    timed = layer in _TIMED_COUNTS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(layer, label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)

        def bind():
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if timed:
            cidx = tracer.open("trace", "trace.count")
            _count(tracer, layer, short, result, bind)
            tracer.close(cidx)
        else:
            _count(tracer, layer, short, result, bind)
        if label == "rng.substream":
            return CountingGenerator(result, tracer)
        return result

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Rebind every entry point in FUNCTIONS and METHODS to a wrapper that
    records spans while `tracer.enabled` is set and otherwise calls straight
    through.  Untraced passes run before this, on the unmodified package.
    """
    modules = {layer: sys.modules[f"heatbayes.{layer}"] for layer in LAYERS}
    namespaces = [m for key, m in sys.modules.items()
                  if m is not None and (key == "heatbayes"
                                        or key.startswith("heatbayes."))]
    for layer, names in FUNCTIONS.items():
        for name in names:
            original = getattr(modules[layer], name)
            wrapped = _wrap(tracer, layer, name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
    for layer, pairs in METHODS.items():
        for cls_name, meth in pairs:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = _wrap(tracer, layer, f"{cls_name}.{meth}", fn)
            setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
