"""Spans and counters recorded around mcagg's public functions.

The benchmark never edits the program. It replaces the module-level names
that mcagg's own callers look up (``mcagg.pipeline.anneal``,
``mcagg.cli.run_pipeline`` and so on) with thin wrappers, and puts the
originals back afterwards. Modules are reached with
``importlib.import_module`` because the package attribute ``mcagg.anneal``
is the re-exported function, not the module.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and op id, and keeps the
  call's arguments and return value for the benchmark's output checks;
* a *count* only counts calls (and, for the fixed-point step, the
  computed flops), because it runs thousands of times per op and a span
  there would cost more than the work it times.

Spans stay in memory until ``Tracer.dump`` writes them out at the end.
"""
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name). Each entry is wrapped in traced runs.
SPANS = [
    ("mcagg.cli", "run_pipeline", "pipeline.run"),
    ("mcagg.cli", "parse_matrix", "io.parse_matrix"),
    ("mcagg.cli", "stationary_distribution", "core.stationary"),
    ("mcagg.cli", "write_report", "io.write_report"),
    ("mcagg.cli", "write_partitions", "io.write_partitions"),
    ("mcagg.cli", "select_k", "selection.select_k"),
    ("mcagg.pipeline", "anneal", "anneal.anneal"),
    ("mcagg.pipeline", "refine_per_k", "pipeline.refine_per_k"),
    ("mcagg.pipeline", "aggregate_fixed_k", "pipeline.aggregate_fixed_k"),
    ("mcagg.pipeline", "build_model", "pipeline.build_model"),
    ("mcagg.pipeline", "select_k", "selection.select_k"),
]

# (module, attribute, counter name). Calls are counted, not timed.
COUNTS = [
    ("mcagg.anneal", "posterior_and_centroids", "fp_step"),
    ("mcagg.pipeline", "hard_centroids", "candidate_scored"),
    ("mcagg.selection", "covariance_matrix", "superstate_scored"),
]

# Spans whose return value the output checks need even in untimed-trace
# runs: the CLI hides the in-memory result behind an exit code.
CAPTURES = [
    ("mcagg.cli", "run_pipeline", "pipeline.run"),
    ("mcagg.cli", "select_k", "selection.select_k"),
]


class Tracer:
    """Installs wrappers, records spans and counts, and restores the
    original attributes on ``uninstall``.

    With ``timed=False`` only the CAPTURES wrappers are installed, and they
    keep the last call of each name without recording a span.
    """

    def __init__(self, timed):
        self.timed = timed
        self.spans = []          # [id, parent, op, name, start, end]
        self.stack = []          # ids of the open spans
        self.counts = defaultdict(int)   # (op, span name of caller, counter)
        self.flops = defaultdict(float)  # (op, span name of caller)
        self.last = {}           # name -> (args, kwargs, result)
        self.op = None
        self._saved = []

    # -- installation -------------------------------------------------
    def install(self):
        if self.timed:
            for mod, attr, name in SPANS:
                self._patch(mod, attr, self._span_wrapper(name))
            for mod, attr, name in COUNTS:
                self._patch(mod, attr, self._count_wrapper(name))
        else:
            for mod, attr, name in CAPTURES:
                self._patch(mod, attr, self._capture_wrapper(name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _patch(self, mod, attr, make):
        module = importlib.import_module(mod)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- wrappers -----------------------------------------------------
    def _capture_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.last[name] = (args, kwargs, result)
                return result
            return wrapper
        return make

    def _span_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                self.last[name] = (args, kwargs, result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                caller = self.spans[self.stack[-1]][3] if self.stack else None
                self.counts[(self.op, caller, name)] += 1
                if name == "fp_step":
                    n, k = args[1].shape   # p: n states x k centroids
                    self.flops[(self.op, caller)] += 4.0 * n * n * k
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- spans --------------------------------------------------------
    def begin_op(self, op):
        self.op = op
        self.last = {}

    def span(self, name):
        return _Span(self, name)

    def self_times(self):
        """Span name -> summed self time in seconds: each span's duration
        minus the time its direct children cover."""
        child = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def dump(self, path):
        obj = {
            "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"),
                               s)) for s in self.spans],
            "counts": [{"op": op, "caller": caller, "name": name, "n": n}
                       for (op, caller, name), n in self.counts.items()],
        }
        with open(path, "w") as fh:
            json.dump(obj, fh)
            fh.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        parent = t.stack[-1] if t.stack else None
        t.spans.append([self.sid, parent, t.op, self.name,
                        time.perf_counter(), None])
        t.stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.sid][5] = time.perf_counter()
        t.stack.pop()
        return False
