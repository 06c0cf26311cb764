"""Traced run: wrap favlab's public functions from outside and record spans.

Every public function of a layer module, and every public method of a
public class defined there, is replaced by a wrapper.  The wrapper is bound
in the defining module (or class) and in every favlab module that imported
the function by name, so calls made inside the library are seen too.
Spans (label, parent span, start, end) are kept in memory; self time is a
span's duration minus the durations of its child spans.

A few wrappers also carry a probe that counts the work a call was asked to
do (squares, endpoints, table cells, ...) and how much of it repeats work
already done in the same operation.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("ifs", "geometry", "_kernels", "projections", "visibility",
          "set_analysis", "transforms", "cli")


def _public_callables(module):
    """(label, owner, attribute, function, kind) for every public function
    defined in `module` and every public method of its public classes."""
    # metric names must start with a letter: favlab._kernels is "kernels"
    layer = module.__name__.rsplit(".", 1)[1].lstrip("_")
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{name}", module, name, obj, "function"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    kind = "classmethod"
                elif isinstance(raw, staticmethod):
                    kind = "staticmethod"
                elif inspect.isfunction(raw):
                    kind = "function"
                else:               # properties, constants, nested classes
                    continue
                fn = raw.__func__ if kind != "function" else raw
                yield f"{layer}.{name}.{meth}", obj, meth, fn, kind


class Tracer:
    """Collects spans and probe counts while installed."""

    def __init__(self):
        self.modules = [importlib.import_module(f"favlab.{layer}")
                        for layer in LAYERS]
        #: every wrapped label, to tell a renamed function from an idle one
        self.labels = {label for module in self.modules
                       for label, *_ in _public_callables(module)}
        self.spans: list[list] = []       # [label, parent, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.probe_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}       # id(original function) -> {attribute: wrapper}
        for module in self.modules:
            for label, owner, attr, fn, kind in _public_callables(module):
                wrapped = self._wrap(label, fn)
                wrappers.setdefault(id(fn), {})[attr] = wrapped
                if kind == "classmethod":
                    bound = classmethod(wrapped)
                elif kind == "staticmethod":
                    bound = staticmethod(wrapped)
                else:
                    bound = wrapped
                self._rebind(owner, attr, bound)
        # rebind names imported from another favlab module
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                by_attr = wrappers.get(id(obj))
                if by_attr is None or obj.__module__ == module.__name__:
                    continue
                self._rebind(module, name,
                             by_attr.get(name, next(iter(by_attr.values()))))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, label: str, fn):
        probe = PROBES.get(label)
        sig = inspect.signature(fn) if probe else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if probe is not None:
                bound = self._bind(label, sig, args, kwargs)
                if bound is not None:
                    args, kwargs = self._pre(label, bound)
            sid = len(spans)
            rec = [label, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if bound is not None:
                self._post(label, probe, bound, result)
            return result

        return wrapper

    # -- probes -------------------------------------------------------------

    def _bind(self, label: str, sig, args, kwargs):
        """The call's arguments by name, or None (and a probe error) if
        they no longer fit the signature the probe was written for."""
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError as exc:
            self.probe_errors.setdefault(label, repr(exc))
            return None
        bound.apply_defaults()
        return bound

    def _pre(self, label: str, bound):
        """Probes that must see an argument before the call consumes it."""
        if label == "geometry.CircularIntervalSet.from_arcs":
            try:
                arcs = bound.arguments["arcs"]
                if hasattr(arcs, "__len__"):
                    self.counts[f"{label}.arcs_in"] += len(arcs)
                else:   # a one-shot iterable: count items as they are used
                    bound.arguments["arcs"] = self._counted(
                        f"{label}.arcs_in", iter(arcs))
            except Exception as exc:
                self.probe_errors.setdefault(label, repr(exc))
        return bound.args, bound.kwargs

    def _counted(self, key: str, iterator):
        counts = self.counts
        for item in iterator:
            counts[key] += 1
            yield item

    def _post(self, label, probe, bound, result) -> None:
        try:
            probe(self, label, bound.arguments, result)
        except Exception as exc:    # the library changed under the probe
            self.probe_errors.setdefault(label, repr(exc))

    def begin_op(self) -> None:
        """Repeat counts are per operation: forget what was built before."""
        self._seen.clear()

    def repeat(self, label: str, key) -> bool:
        seen = self._seen[label]
        if key in seen:
            return True
        seen.add(key)
        return False

    # -- results ------------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None):
        """Per-label (self seconds, calls) over spans[first:last]; every
        parent of those spans must lie in the same range."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        selfs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for label, parent, start, end in spans:
            if parent >= first:
                child[parent - first] += end - start
        for i, (label, parent, start, end) in enumerate(spans):
            selfs[label] += (end - start) - child[i]
            calls[label] += 1
        return selfs, calls


def _digest(arr) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(),
                           digest_size=16).hexdigest()


def _generate_generation(tr, label, a, result):
    squares = len(result)
    tr.counts[f"{label}.squares"] += squares
    if tr.repeat(label, (repr(a["sys"]), a["n"])):
        tr.counts[f"{label}.repeat_squares"] += squares


def _projection_measures(tr, label, a, result):
    tr.counts[f"{label}.endpoints"] += a["x0"].size * a["thetas"].size


def _merge_intervals(tr, label, a, result):
    tr.counts[f"{label}.intervals_in"] += a["lo"].size
    tr.counts[f"{label}.intervals_out"] += result[0].size


def _line_counts_table(tr, label, a, result):
    cells = a["n_dir"] * (a["k2max"] - a["k2min"] + 1)
    tr.counts[f"{label}.cells"] += cells
    tr.counts[f"{label}.bytes"] += cells * result.itemsize


def _f_delta_stats(tr, label, a, result):
    tr.counts[f"{label}.point_dirs"] += (
        a["px"].size * int(np.count_nonzero(a["dir_mask"])))


def _riesz_energy_sum(tr, label, a, result):
    m = a["px"].size
    tr.counts[f"{label}.pairs"] += m * (m - 1)


def _counts_table(tr, label, a, result):
    fam = a["fam"]
    key = (_digest(a["A"].points), fam.delta, fam.d, a["c"])
    tr.counts[f"{label}.builds"] += 1
    if tr.repeat(label, key):
        tr.counts[f"{label}.repeats"] += 1


def _scan_line(tr, label, a, result):
    fam, ell0 = a["fam"], a["ell0"]
    step = fam.delta / 2 if a["sample_step"] is None else a["sample_step"]
    if abs(ell0.offset) < fam.d:
        half = math.sqrt(fam.d ** 2 - ell0.offset ** 2)
        tr.counts[f"{label}.vantages"] += max(1, math.floor(2 * half / step))


PROBES = {
    "ifs.generate_generation": _generate_generation,
    "kernels.projection_measures": _projection_measures,
    "kernels.merge_intervals": _merge_intervals,
    "kernels.line_counts_table": _line_counts_table,
    "kernels.f_delta_stats": _f_delta_stats,
    "kernels.riesz_energy_sum": _riesz_energy_sum,
    "visibility.counts_table": _counts_table,
    "visibility.scan_line_low_visibility": _scan_line,
    # counted before the call, in Tracer._pre
    "geometry.CircularIntervalSet.from_arcs": lambda *args: None,
}


def derived_counts(counts: dict, passes: int) -> dict:
    """Per-pass work counts plus the ratios named in BENCHMARK.json."""
    per = {k: v / passes for k, v in counts.items()}
    out = dict(per)

    def ratio(num, den):
        d = per.get(den, 0.0)
        return per.get(num, 0.0) / d if d else 0.0

    g = "ifs.generate_generation"
    out[f"{g}.repeat_frac"] = ratio(f"{g}.repeat_squares", f"{g}.squares")
    m = "kernels.merge_intervals"
    out[f"{m}.merge_ratio"] = ratio(f"{m}.intervals_out", f"{m}.intervals_in")
    c = "visibility.counts_table"
    out[f"{c}.repeat_frac"] = ratio(f"{c}.repeats", f"{c}.builds")
    return out


def instrument_errors(tracer: Tracer, metric_names) -> list[str]:
    """Ways the tracer no longer fits favlab: a probe that failed, or a
    probed or named function that is gone.  Either would make its metric
    read 0, which looks like a gain."""
    errs = [f"{label}: probe failed: {err}"
            for label, err in sorted(tracer.probe_errors.items())]
    named = set(PROBES) | {name.rsplit(".", 1)[0] for name in metric_names
                           if name.endswith((".self_s", ".calls"))}
    errs += [f"{label}: no such public function in favlab"
             for label in sorted(named - tracer.labels)]
    return errs
