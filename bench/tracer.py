"""Span tracer that wraps mflq's public functions from outside the package.

``Tracer.install`` replaces every public function of every ``mflq`` module
with a recording wrapper, at every module that holds a reference to it
(``integrate_gre`` is bound in ``riccati``, ``synthesis``, ``verify``, ``cli``
and the package itself).  Calls into ``numpy.linalg`` factorizations are
counted, together with the number of matrices they factor.  Nothing inside
``src/`` changes; ``uninstall`` restores every original binding.

Spans are only recorded while an operation is open (``begin_op`` ...
``end_op``), so set-up, references and calibration stay out of the trace.
Each span is (name, start, end, parent, operation), kept in flat arrays and
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import pkgutil
import time
from array import array
from collections import defaultdict

import numpy as np

# numpy.linalg entry points that factor a matrix (or a stack of them).
FACTOR_FUNCS = ("svd", "eigh", "eigvalsh", "cholesky", "solve", "lstsq")

OP_SPAN = "bench.op"
TABULATION_FUNCS = ("problem.nodes_and_midpoints", "problem.sample_path")


def _path_steps(args, kwargs, bind):
    ba = bind(*args, **kwargs).arguments
    return int(ba["n_paths"]) * int(ba["n_steps"])


def _moment_steps(args, kwargs, bind):
    ba = bind(*args, **kwargs).arguments
    p = ba["p"]
    steps = ba.get("n_steps") or p.horizon.n_steps
    batch = np.shape(ba["feedbacks"])[0] if "feedbacks" in ba else 1
    return int(batch) * int(steps)


# Counters taken from call arguments: layer name -> (counter, extractor).
ARG_COUNTERS = {
    "sim.simulate": ("sim.path_steps", _path_steps),
    "moments.propagate_moments": ("moments.batch_steps", _moment_steps),
    "moments.batch_cost": ("moments.batch_steps", _moment_steps),
}


def package_modules(package):
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(package):
    """{layer name: function} for every public function defined in the package."""
    found = {}
    for mod in package_modules(package)[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Records spans and counters for the calls made inside operations."""

    def __init__(self, package):
        self.package = package
        self.names = []           # layer name per name id
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_factor_calls = array("q")
        self.span_factor_matrices = array("q")
        self.arg_counts = defaultdict(lambda: defaultdict(int))  # op -> counter -> n
        self._stack = []
        self._op = None
        self._originals = {}      # layer name -> original function
        self._wrappers = {}       # id(original) -> wrapper
        self._rebound = []        # (module, attribute, original)
        self._factor_originals = {}

    # -- installation -------------------------------------------------------

    def install(self):
        self._originals = public_functions(self.package)
        for key, fn in self._originals.items():
            self._wrappers[id(fn)] = self._wrap(key, fn)
        for mod in package_modules(self.package):
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None and inspect.isfunction(val):
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, val))
        for name in FACTOR_FUNCS:
            orig = getattr(np.linalg, name)
            self._factor_originals[name] = orig
            setattr(np.linalg, name, self._wrap_factor(orig))

    def uninstall(self):
        for mod, attr, val in reversed(self._rebound):
            setattr(mod, attr, val)
        self._rebound.clear()
        for name, orig in self._factor_originals.items():
            setattr(np.linalg, name, orig)
        self._factor_originals.clear()

    def unwrapped_bindings(self):
        """Public functions, and module attributes, that bypass the tracer.

        Empty after ``install``.  A public function added later, or imported
        into one more module after installation, would call past the tracer
        and its spans and counts would go missing without notice.
        """
        originals = {id(fn): key for key, fn in self._originals.items()}
        missing = [
            f"{key} is not wrapped"
            for key, fn in public_functions(self.package).items()
            if not getattr(fn, "__bench_traced__", False)
        ]
        for mod in package_modules(self.package):
            for attr, val in vars(mod).items():
                if id(val) in originals:
                    missing.append(
                        f"{mod.__name__}.{attr} still binds {originals[id(val)]}")
        for name in FACTOR_FUNCS:
            if not getattr(getattr(np.linalg, name), "__bench_traced__", False):
                missing.append(f"numpy.linalg.{name} is not counted")
        return missing

    def _intern(self, key):
        if key not in self._name_id:
            self._name_id[key] = len(self.names)
            self.names.append(key)
        return self._name_id[key]

    def _wrap(self, key, fn):
        tracer = self
        name_id = self._intern(key)
        counter = ARG_COUNTERS.get(key)
        bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.arg_counts[tracer._op][counter[0]] += counter[1](
                    args, kwargs, bind
                )
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__bench_traced__ = True
        return wrapper

    def _wrap_factor(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._op is not None:
                idx = tracer._stack[-1]
                tracer.span_factor_calls[idx] += 1
                tracer.span_factor_matrices[idx] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        wrapper.__bench_traced__ = True
        return wrapper

    # -- recording ----------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_factor_calls.append(0)
        self.span_factor_matrices.append(0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op):
        self._op = op
        self._op_span = self._open(self._intern(OP_SPAN))

    def end_op(self):
        self._close(self._op_span)
        self._op = None

    # -- summaries ----------------------------------------------------------

    def op_summaries(self):
        """Per operation: self seconds and calls per layer, and counters.

        Self time is a span's duration minus the time its child spans cover.
        The program is single-threaded and has no queues, so no layer ever
        waits: waiting time is zero for every layer.
        """
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        tab_ids = {self._name_id[k] for k in TABULATION_FUNCS if k in self._name_id}
        nm_id = self._name_id.get("problem.nodes_and_midpoints", -1)
        synth_id = self._name_id.get("synthesis.synthesize", -1)
        # inclusive counters of each synthesize span, for per-synthesis counts
        synth_of = [-1] * n
        ops = {}
        for i in range(n):
            op = self.span_op[i]
            s = ops.setdefault(op, {
                "self_s": defaultdict(float), "calls": defaultdict(int),
                "counters": defaultdict(int), "synth": defaultdict(int),
            })
            name_id = self.span_name[i]
            key = self.names[name_id]
            s["self_s"][key] += self.span_end[i] - self.span_start[i] - child[i]
            s["calls"][key] += 1
            p = self.span_parent[i]
            synth_of[i] = i if name_id == synth_id else (synth_of[p] if p >= 0 else -1)
            fc, fm = self.span_factor_calls[i], self.span_factor_matrices[i]
            s["counters"]["linalg.factor_calls"] += fc
            s["counters"]["linalg.factor_matrices"] += fm
            # a sample_path called by nodes_and_midpoints is the same tabulation
            tab = name_id in tab_ids and not (p >= 0 and self.span_name[p] == nm_id)
            s["counters"]["problem.tabulations"] += tab
            if synth_of[i] >= 0:
                s["synth"]["synthesize"] += name_id == synth_id
                s["synth"]["pinv"] += key == "linalg.pinv"
                s["synth"]["factor_calls"] += fc
                s["synth"]["tabulations"] += tab
        for op, counts in self.arg_counts.items():
            ops[op]["counters"].update(counts)
        return ops

    def write_spans(self, path, labels):
        """Write every span as CSV (gzip): name,start,end,parent,op,label."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op,op_label\n")
            for i in range(len(self.span_name)):
                op = self.span_op[i]
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f},"
                    f"{self.span_parent[i]},{op},{labels.get(op, '')}\n"
                )


# Layers reported as per-layer metrics; the trace file holds every public
# function.
LAYERS = (
    "riccati.integrate_gre", "riccati.assess_regularity", "riccati.dense_midpoints",
    "affine.solve_adjoint", "affine.solve_adjoint_mean", "affine.compute_corrections",
    "synthesis.synthesize", "synthesis.value",
    "linalg.pinv", "linalg.is_psd", "linalg.range_residual",
    "problem.nodes_and_midpoints", "problem.sample_path",
    "sim.simulate", "sim.mean_ode",
    "moments.stationarity_residual", "moments.batch_cost",
    "moments.propagate_moments", "moments.homogeneous_cost",
    "verify.qp_oracle", "verify.completion_check",
    "verify.lower_bound_battery", "verify.classical_degeneration",
    "docio.load_problem", "cli.main", OP_SPAN,
)
COUNTERS = (
    "linalg.factor_calls", "linalg.factor_matrices", "problem.tabulations",
    "sim.path_steps", "moments.batch_steps",
)


def _count_vector(summary):
    return {**summary["calls"], **summary["counters"]}


def layer_metrics(ops, samples):
    """{metric: (value, unit)} for one traced run.

    ``<layer>.self_cal`` is the layer's self time in one pass over the entry
    list (sum over entries of the median per operation), in calibration
    units.  Counts are totals over the first pass, which every run
    completes, so they repeat exactly from run to run.
    """
    first = [op for op, s in enumerate(samples) if s.pass_index == 0]
    out = {}
    for key in LAYERS:
        per_entry = defaultdict(list)
        for op, s in enumerate(samples):
            per_entry[s.entry].append(ops[op]["self_s"].get(key, 0.0) / s.cal_seconds)
        out[f"{key}.self_cal"] = (
            sum(float(np.median(v)) for v in per_entry.values()), "cal")
        out[f"{key}.calls"] = (sum(ops[op]["calls"].get(key, 0) for op in first),
                               "count")
    for key in COUNTERS:
        out[key] = (sum(ops[op]["counters"].get(key, 0) for op in first), "count")
    calls, mats = out["linalg.factor_calls"][0], out["linalg.factor_matrices"][0]
    out["linalg.matrices_per_call"] = (mats / calls if calls else 0.0, "ratio")
    synth = defaultdict(int)
    for op in first:
        for k, v in ops[op]["synth"].items():
            synth[k] += v
    n = synth["synthesize"]
    for k in ("pinv", "factor_calls", "tabulations"):
        out[f"per_synthesis.{k}"] = (synth[k] / n if n else 0.0, "count")
    return out


def count_mismatches(ops, samples, entries):
    """Entries whose repeated runs in this run made different counts."""
    first = {}
    bad = []
    for op, s in enumerate(samples):
        vec = _count_vector(ops[op])
        if s.entry not in first:
            first[s.entry] = vec
        elif vec != first[s.entry]:
            keys = sorted(k for k in set(vec) | set(first[s.entry])
                          if vec.get(k) != first[s.entry].get(k))
            bad.append(f"{entries[s.entry].label}: counts differ between runs: {keys}")
    return bad
