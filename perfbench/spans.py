"""Span recording around calls into circkrig's layers, from outside it.

The tracer patches entry points named by dotted path.  A function is replaced
under every name any loaded ``circkrig`` module binds it to (``cli`` and
``verification`` import ``fit_universal``, ``simulate_irf`` and others by
name), and a method is replaced on its class, so calls are intercepted however
they are reached.  A dotted name that does not resolve at the commit under test
is reported as absent; the rest of the trace still runs.

Each span records name, start, end, parent span and op id.  Spans stay in
memory and are written out once, when the run ends.  Work counters beside the
timings are computed from argument and result sizes, not measured.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import logging
import sys
import time
from collections import defaultdict

import numpy as np

# Frequency block size of the seed's chunked series evaluation; the largest
# series temporary is computed from it.
SERIES_CHUNK = 4096


def _args(sig, args, kwargs):
    try:
        return sig.bind(*args, **kwargs).arguments
    except TypeError:
        return None


def _count_gram(tr, a, result):
    entries = result.size
    tr.add("covariance.gram.entries", entries)
    if a.get("y") is None:
        n = result.shape[0]
        tr.add("covariance.gram.unique_entries", n * (n + 1) / 2)
    else:
        tr.add("covariance.gram.unique_entries", entries)
    cov = a["self"]
    if getattr(cov, "closed_form", None) is None:
        n_freq = cov.model.frequencies().size
        tr.add("covariance.series.cos_evals", entries * n_freq)
        tr.peak("covariance.series.temp_bytes_max",
                entries * min(n_freq, SERIES_CHUNK) * 8)


def _count_factor(tr, a, result):
    n = a["matrix"].shape[0]
    tr.add("kriging.factor.flops", n ** 3 / 3.0)


def _count_solve(tr, a, result):
    b = a["b"]
    tr.add("kriging.solve.rhs_cols", 1 if b.ndim == 1 else b.shape[1])


def _count_predict(tr, a, result):
    tr.add("kriging.predict_var.points", np.size(a["t0"]))


def _count_irf(tr, a, result):
    paths, grid = int(a["n_realizations"]), int(a["grid_size"])
    tr.add("simulate.irf.paths", paths)
    tr.add("simulate.irf.points", paths * grid)


def _count_bridge(tr, a, result):
    paths, grid = int(a["n_realizations"]), int(a["grid_size"])
    tr.add("simulate.bridge.paths", paths)
    tr.add("simulate.bridge.points", paths * grid)
    tr.add("simulate.bridge.factor_flops", (grid - 1) ** 3 / 3.0)


def _count_suite(suite):
    def count(tr, a, result):
        results = result.results
        tr.add(f"verification.{suite}.checks", len(results))
        tr.add(f"verification.{suite}.failed",
               sum(1 for r in results if not r.passed))
    return count


_SUITES = (("measure_checks", "measures"), ("spline_checks", "splines"),
           ("kernel_checks", "kernel"), ("primal_dual_checks", "kriging"),
           ("smoothing_limit_checks", "smoothing"),
           ("ordinary_universal_checks", "ordinary"),
           ("bridge_moment_checks", "bridge-moments"),
           ("stationarity_checks", "stationarity"))

# (dotted name, span name, counter).  Only public entry points and the
# bordered solver's factor and solve methods; the span name's first part is
# the layer.
TARGETS = [
    ("circkrig.cli.main", "cli.main", None),
    ("circkrig.covariance.IntrinsicCovariance.gram", "covariance.gram",
     _count_gram),
    ("circkrig.covariance.IntrinsicCovariance.__call__", "covariance.eval",
     None),
    ("circkrig.kriging.UniversalKrigingModel.__init__", "kriging.fit", None),
    ("circkrig.kriging.OrdinaryKrigingModel.__init__", "kriging.fit", None),
    ("circkrig.kriging._SaddleSolver.__init__", "kriging.factor",
     _count_factor),
    ("circkrig.kriging._SaddleSolver.solve", "kriging.solve", _count_solve),
    ("circkrig.kriging.UniversalKrigingModel.predict_with_variance",
     "kriging.predict_var", _count_predict),
    ("circkrig.kriging.OrdinaryKrigingModel.predict_with_variance",
     "kriging.predict_var", _count_predict),
    ("circkrig.kriging.UniversalKrigingModel.predict", "kriging.predict",
     None),
    ("circkrig.kriging.OrdinaryKrigingModel.predict", "kriging.predict", None),
    ("circkrig.kriging.UniversalKrigingModel.weights", "kriging.weights",
     None),
    ("circkrig.kriging.OrdinaryKrigingModel.weights", "kriging.weights", None),
    ("circkrig.kriging.trig_regression", "kriging.trig_regression", None),
    ("circkrig.simulate.simulate_irf", "simulate.irf", _count_irf),
    ("circkrig.simulate.simulate_brownian_bridge", "simulate.bridge",
     _count_bridge),
    ("circkrig.simulate.check_coefficient_coupling", "simulate.coupling",
     None),
    ("circkrig.simulate.check_translation_stationarity",
     "simulate.stationarity", None),
    ("circkrig.simulate.empirical_coefficients", "simulate.coefficients",
     None),
    ("circkrig.verification.run_verification", "verification.run", None),
    *((f"circkrig.verification.{func}", f"verification.{suite}",
       _count_suite(suite)) for func, suite in _SUITES),
    ("circkrig.rkhs.RkhsKernel.__init__", "rkhs.kernel", None),
    ("circkrig.rkhs.RkhsKernel.__call__", "rkhs.eval", None),
    ("circkrig.rkhs.RkhsKernel.gram", "rkhs.gram", None),
    ("circkrig.rkhs.RkhsKernel.section", "rkhs.section", None),
    ("circkrig.rkhs.full_inner_product", "rkhs.inner", None),
    ("circkrig.rkhs.semi_inner_product", "rkhs.inner", None),
    ("circkrig.circle.DiscreteMeasure.is_allowable", "circle.is_allowable",
     None),
    ("circkrig.circle.DiscreteMeasure.moments", "circle.moments", None),
    ("circkrig.circle.NilSpaceBasis.design_matrix", "circle.design_matrix",
     None),
    ("circkrig.circle.CardinalBasis.design_matrix", "circle.design_matrix",
     None),
]

LAYERS = ("cli", "covariance", "kriging", "simulate", "verification", "rkhs",
          "circle")


def _resolve(dotted):
    """Return (owner, attribute, original) for a dotted name, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if inspect.isclass(owner):
            original = owner.__dict__.get(parts[-1])
        else:
            original = getattr(owner, parts[-1], None)
        if not inspect.isfunction(original):
            return None
        return owner, parts[-1], original
    return None


class _WarningCounter(logging.Handler):
    def __init__(self, tracer, key):
        super().__init__(logging.WARNING)
        self._tracer = tracer
        self._key = key

    def emit(self, record):
        self._tracer.add(self._key, 1)


class Tracer:
    """Records spans and computed counters while installed."""

    def __init__(self):
        # Each span: [name, start, end, parent index, op id, error type].
        self.spans = []
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)
        self.absent = []
        self.counter_errors = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._patches = []
        self._handler = _WarningCounter(self, "simulate.bridge.jitter_retries")

    def add(self, key, value):
        self.counters[key] += value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(rec, type(exc))
            raise
        self._close(rec, None)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec, exc_type):
        rec[2] = time.perf_counter()
        self._stack.pop()
        if exc_type is not None:
            rec[5] = exc_type.__name__

    def _wrap(self, name, fn, counter):
        tracer = self
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec, type(exc))
                raise
            tracer._close(rec, None)
            if counter is not None:
                bound = _args(sig, args, kwargs)
                try:
                    counter(tracer, bound, result)
                except (TypeError, KeyError, AttributeError, ValueError):
                    tracer.counter_errors[name] += 1
            return result

        return wrapper

    def install(self):
        """Patch every resolvable target; remember the absent ones."""
        self.absent = []
        for dotted, name, counter in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, counter)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "circkrig" and \
                        not mod_name.startswith("circkrig."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        logging.getLogger("circkrig.simulate").addHandler(self._handler)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        logging.getLogger("circkrig.simulate").removeHandler(self._handler)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "op",
                             "error"])
            for i, rec in enumerate(self.spans):
                writer.writerow([i, *rec[:5], rec[5] or ""])

    def summary(self, n_ops):
        """Per-op means of span times and counters, plus layer self times.

        A span's self time is its duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        errored_parent = set()
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
                if rec[5]:
                    errored_parent.add(rec[3])
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        layer_self = defaultdict(float)
        conditioning_errors = 0
        for i, rec in enumerate(self.spans):
            name = rec[0]
            dur = rec[2] - rec[1]
            own = dur - child[i]
            calls[name] += 1
            total[name] += dur
            self_time[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if rec[5] == "ConditioningError" and \
                    name.startswith("kriging.") and i not in errored_parent:
                conditioning_errors += 1

        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] * per_op
            out[f"{name}.s"] = total[name] * per_op
            out[f"{name}.self_s"] = self_time[name] * per_op
        for layer in set(layer_self) | set(LAYERS):
            out[f"{layer}.self_s"] = layer_self[layer] * per_op
        for key, value in self.counters.items():
            out[key] = value * per_op
        out.update(self.peaks)
        entries = self.counters.get("covariance.gram.entries", 0.0)
        out["covariance.gram.unique_share"] = (
            self.counters.get("covariance.gram.unique_entries", 0.0) / entries
            if entries else 0.0)
        out["kriging.conditioning_errors"] = conditioning_errors * per_op
        return out
