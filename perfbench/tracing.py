"""Per-layer tracing of freeconv, installed from outside the program.

A Tracer wraps freeconv's public functions and a few class attributes while
a traced job runs, and removes the wrappers again before the job's output
is checked.  A function is patched in every freeconv module that binds it,
because ``transforms`` and ``freeprob`` import ``compose_at``, ``mul_at``
and the rest by name.  The layers are freeconv's modules.

* Coarse calls record a span: name, start, end, self time, the enclosing
  span and the job id.  Spans stay in memory until the run writes them out.
* Hot, fine-grained calls record only their count and summed self time.
* ``Fraction`` arithmetic (``+ - * /`` and the reflected forms) is only
  counted; its time stays with whichever traced call performed it.

Self time is a call's length minus the time covered by the traced calls
made inside it.
"""

import fractions
import functools
import sys
import time
from contextlib import contextmanager

SPAN, HOT = "span", "hot"

# (layer, class name or None, attribute, kind, reported name)
TARGETS = (
    ("algebra", "AlgebraElement", "__mul__", HOT, "AlgebraElement.__mul__"),
    ("algebra", "AlgebraElement", "__add__", HOT, "AlgebraElement.__add__"),
    ("algebra", "AlgebraElement", "__sub__", HOT, "AlgebraElement.__sub__"),
    ("algebra", None, "mat_inverse", HOT, "mat_inverse"),
    ("algebra", None, "linmap_inverse", HOT, "linmap_inverse"),
    ("multiseries", "MultiMap", "__call__", HOT, "MultiMap.__call__"),
    ("multiseries", None, "alt_tree_eval", HOT, "alt_tree_eval"),
    ("multiseries", None, "tree_eval", SPAN, "tree_eval"),
    ("multiseries", None, "operad_eval", SPAN, "operad_eval"),
    ("multiseries", None, "is_gi", SPAN, "is_gi"),
    ("multiseries", None, "is_ginv", SPAN, "is_ginv"),
    ("multiseries", None, "is_gdif", SPAN, "is_gdif"),
    ("multiseries", None, "compose_at", SPAN, "compose_at"),
    ("multiseries", None, "comp_inverse", SPAN, "comp_inverse"),
    ("multiseries", None, "mul_at", SPAN, "mul_at"),
    ("multiseries", None, "mult_inverse", SPAN, "mult_inverse"),
    ("multiseries", None, "random_series", SPAN, "random_series"),
    ("transforms", None, "boxconv", SPAN, "boxconv"),
    ("transforms", None, "s_transform", SPAN, "s_transform"),
    ("transforms", None, "u_transform", SPAN, "u_transform"),
    ("transforms", None, "s_prime", SPAN, "s_prime"),
    ("freeprob", None, "moments_from_cumulants", SPAN, "moments_from_cumulants"),
    ("freeprob", None, "cumulants_from_moments", SPAN, "cumulants_from_moments"),
    ("freeprob", "CumulantSpec", "__init__", SPAN, "spec_init"),
    ("freeprob", "MomentSpec", "__init__", SPAN, "spec_init"),
    ("trees", None, "enumerate_trees", HOT, "enumerate_trees"),
    ("trees", None, "rmap", HOT, "rmap"),
    ("trees", None, "comb_decompose", HOT, "comb_decompose"),
    ("verify", None, "run_suite", SPAN, "run_suite"),
    ("cli", None, "main", SPAN, "main"),
)

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

# The per-layer metrics a traced run reports, each per traced job.
CALLS = (
    "algebra.fraction_ops", "algebra.AlgebraElement.__mul__",
    "algebra.AlgebraElement.__add__", "algebra.mat_inverse",
    "multiseries.MultiMap.__call__", "multiseries.alt_tree_eval",
    "multiseries.is_gi", "multiseries.is_ginv", "multiseries.is_gdif",
    "multiseries.compose_at", "multiseries.comp_inverse",
    "multiseries.mul_at", "multiseries.mult_inverse",
    "multiseries.operad_eval", "multiseries.tree_eval",
    "multiseries.random_series",
    "transforms.boxconv", "transforms.s_transform",
    "transforms.u_transform", "transforms.s_prime",
    "freeprob.moments_from_cumulants", "freeprob.cumulants_from_moments",
    "freeprob.spec_init",
    "trees.enumerate_trees", "trees.rmap", "trees.comb_decompose",
    "verify.run_suite", "cli.main",
)
SELF_TIMES = (
    "multiseries.MultiMap.__call__", "multiseries.alt_tree_eval",
    "multiseries.is_gi",
    "multiseries.compose_at", "multiseries.comp_inverse",
    "multiseries.mul_at", "multiseries.mult_inverse",
    "multiseries.operad_eval", "multiseries.tree_eval",
    "multiseries.random_series",
    "transforms.boxconv", "transforms.s_transform",
    "transforms.u_transform", "transforms.s_prime",
    "freeprob.moments_from_cumulants", "freeprob.cumulants_from_moments",
)
LAYERS = ("algebra", "multiseries", "transforms", "freeprob", "trees",
          "verify", "cli")


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = [(f"{name}.calls", "1", "lower") for name in CALLS]
    specs += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMES]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [("trace.untraced_job_s", "s", "lower"),
              ("trace.traced_job_s", "s", "lower"),
              ("trace.overhead", "1", "lower")]
    return specs


class Tracer:
    """Counts, self times and spans for the freeconv calls of traced jobs."""

    def __init__(self, package):
        """`package` is the imported freeconv package; it and every loaded
        submodule are searched for names to patch."""
        prefix = package.__name__ + "."
        modules = {name[len(prefix):]: mod for name, mod in sys.modules.items()
                   if name.startswith(prefix)}
        self.calls = {}
        self.self_s = {}
        self.layer_self_s = {layer: 0.0 for layer in LAYERS}
        self.spans = []
        self._stack = []
        self._open = []
        self._job = None
        self._patches = []
        namespaces = [package, *modules.values()]
        for layer, owner, attr, kind, name in TARGETS:
            key = f"{layer}.{name}"
            if owner is None:
                original = getattr(modules[layer], attr)
                wrapper = self._wrap(key, layer, original, kind == SPAN)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, bound, original, wrapper))
            else:
                cls = getattr(modules[layer], owner)
                original = cls.__dict__[attr]
                self._patches.append(
                    (cls, attr, original, self._wrap(key, layer, original, kind == SPAN)))
        count = self.calls.setdefault("algebra.fraction_ops", [0])
        for op in FRACTION_OPS:
            original = fractions.Fraction.__dict__[op]
            self._patches.append((fractions.Fraction, op, original,
                                  _counted(original, count)))

    def _wrap(self, key, layer, fn, span):
        cell = self.calls.setdefault(key, [0])
        own = self.self_s.setdefault(key, [0.0])
        layer_self, stack, open_spans, spans = (
            self.layer_self_s, self._stack, self._open, self.spans)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if span:
                rec = [key, 0.0, 0.0, 0.0, open_spans[-1] if open_spans else None,
                       self._job]
                spans.append(rec)
                open_spans.append(len(spans) - 1)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                mine = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                cell[0] += 1
                own[0] += mine
                layer_self[layer] += mine
                if span:
                    rec[1], rec[2], rec[3] = t0, t1, mine
                    open_spans.pop()

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def job(self, job_id):
        """Trace the calls made inside the block as one job, under a root span.

        Yields a one-element list that holds the root span's length once the
        block has ended.
        """
        if self._stack:
            raise RuntimeError("traced jobs do not nest")
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        self._job = job_id
        rec = ["job", 0.0, 0.0, 0.0, None, job_id]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        self._stack.append(0.0)
        length = [0.0]
        t0 = time.perf_counter()
        try:
            yield length
        finally:
            t1 = time.perf_counter()
            rec[1], rec[2], rec[3] = t0, t1, (t1 - t0) - self._stack.pop()
            self._open.pop()
            length[0] = t1 - t0
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)
            self._job = None

    def metrics(self, jobs):
        """Every per-layer metric as {name: (value, unit)}, divided by `jobs`."""
        totals = {f"{name}.calls": self.calls[name][0] for name in CALLS}
        totals.update({f"{name}.self_s": self.self_s[name][0] for name in SELF_TIMES})
        totals.update({f"{layer}.self_s": self.layer_self_s[layer] for layer in LAYERS})
        return {name: (totals[name] / jobs, unit)
                for name, unit, _ in metric_specs() if name in totals}

    def span_records(self, origin):
        """Spans as dicts, times in seconds from `origin`."""
        return [{"id": i, "name": name, "start": start - origin,
                 "end": end - origin, "self": mine, "parent": parent, "job": job}
                for i, (name, start, end, mine, parent, job) in enumerate(self.spans)]


def _counted(fn, cell):
    def wrapper(a, b):
        cell[0] += 1
        return fn(a, b)
    return functools.wraps(fn)(wrapper)
