"""Span recording for the traced benchmark run.

Each layer's public functions are wrapped under every name a module of
the package bound them to, so calls between layers are seen at the
boundary the caller used.  A span records its name, start, end, parent
span and job id; spans stay in memory until the run ends.  Self time is
a span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

# layer -> public functions wrapped in traced runs
LAYER_FUNCTIONS = {
    "cli": ("main", "load_arrangement"),
    "complex": ("enumerate_types", "is_type", "cell_of", "act_on_type"),
    "permanent": ("tropical_permanent", "optimal_bijections",
                  "is_permanent_attaining"),
    "tropical": ("type_of_point", "is_realized_type", "realize_type",
                 "witness", "is_satisfiable"),
    "facemonoid": ("act_matrix", "partitions"),
    "render": ("render_svg",),
}
LAYERS = tuple(LAYER_FUNCTIONS)

JOB_SPAN = "bench.job"
SETUP_SPAN = "bench.setup"
FILL_SPAN = "permanent.structure_fill"
SETUP_JOB = 0  # job id of the traced session set-up; jobs count from 1


class SpanRecorder:
    """In-memory span store.  Spans nest through a stack, which is exact
    for this single-threaded benchmark."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("q")
        self.job_id = SETUP_JOB
        self.counters = defaultdict(float)
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def add(self, name, start, end, parent, job):
        """Append a finished span (used to build span trees by hand)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.jobs.append(job)
        return len(self.names) - 1

    def self_times(self) -> list:
        """Per span: duration minus the union of its children's intervals,
        clipped to the span itself."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx in range(len(self.names)):
            s, e = self.starts[idx], self.ends[idx]
            covered = 0.0
            cur_s = cur_e = None
            for cs, ce in sorted((max(self.starts[c], s), min(self.ends[c], e))
                                 for c in children.get(idx, ())):
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                elif ce > cur_e:
                    cur_e = ce
            if cur_e is not None:
                covered += cur_e - cur_s
            out.append((e - s) - covered)
        return out

    def write_tsv(self, path):
        """One line per span: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for row in zip(self.names, self.starts, self.ends,
                           self.parents, self.jobs):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % row)


def _observers(rec: SpanRecorder) -> dict:
    c = rec.counters

    def cells(result):
        c["complex.cells"] += len(result)

    def is_type(result):
        c["complex.is_type.true"] += bool(result)

    def witness(result):
        c["tropical.witness.sat"] += result is not None

    def argmax(result):
        c["permanent.argmax_total"] += len(result)

    def svg(result):
        c["render.svg_bytes"] += len(result.encode("utf-8"))

    def fill(result):
        attaining, total = result
        c["permanent.attaining"] += attaining
        c["permanent.partial_bijections"] += total

    return {FILL_SPAN: fill,
            "complex.enumerate_types": cells, "complex.is_type": is_type,
            "tropical.witness": witness,
            "permanent.optimal_bijections": argmax,
            "render.render_svg": svg}


def _wrap(rec: SpanRecorder, name: str, fn, observe=None):
    if inspect.isgeneratorfunction(fn):
        def traced_gen(*args, **kwargs):
            idx = rec.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return traced_gen

    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            observe(result)
        return result
    return traced


class Patches:
    """Replace every binding of the layer functions in the package's
    modules (and in ``extra_modules``) by traced wrappers; ``restore``
    puts the originals back."""

    def __init__(self, rec: SpanRecorder, package: str, structure_fill,
                 extra_modules=()):
        self.rec = rec
        self.package = package
        self.structure_fill = structure_fill
        self.extra_modules = extra_modules
        self._saved = []

    def _modules(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]
        return mods + list(self.extra_modules)

    def _rebind(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def apply(self):
        rec = self.rec
        observers = _observers(rec)
        fill = self.structure_fill
        traced_fill = _wrap(rec, FILL_SPAN, fill, observers[FILL_SPAN])
        for layer, names in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"{self.package}.{layer}"]
            for fname in names:
                span = f"{layer}.{fname}"
                original = getattr(mod, fname)
                wrapper = _wrap(rec, span, original, observers.get(span))
                if span == "complex.enumerate_types":
                    # drain the permanent structure first, so block
                    # permanents show as their own span, not as search time
                    def wrapper(arr, *args, _traced=wrapper, **kwargs):
                        traced_fill(arr)
                        return _traced(arr, *args, **kwargs)
                self._rebind(original, wrapper)
        self._rebind(fill, traced_fill)

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYER_FUNCTIONS else "bench"


def layer_metrics(rec: SpanRecorder, untraced_jobs_per_s: float,
                  traced_jobs_per_s: float, bench_counters: dict) -> dict:
    """Per-layer metrics from a traced run.  ``*.self_s`` and ``*.calls``
    are per job; set-up metrics are per traced session set-up."""
    selfs = rec.self_times()
    job_self = defaultdict(float)
    job_calls = defaultdict(int)
    setup_self = defaultdict(float)
    layer_self = defaultdict(float)
    job_ids = set()
    job_time = 0.0
    for idx, name in enumerate(rec.names):
        job = rec.jobs[idx]
        if job == SETUP_JOB:
            setup_self[name] += selfs[idx]
            continue
        job_ids.add(job)
        job_self[name] += selfs[idx]
        job_calls[name] += 1
        layer_self[layer_of(name)] += selfs[idx]
        if name == JOB_SPAN:
            job_time += rec.ends[idx] - rec.starts[idx]
    jobs = max(len(job_ids), 1)
    c = rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("cli.main", "cli.load_arrangement",
                 "complex.enumerate_types", "complex.is_type",
                 "complex.act_on_type", FILL_SPAN,
                 "permanent.tropical_permanent",
                 "permanent.optimal_bijections",
                 "permanent.is_permanent_attaining",
                 "tropical.is_realized_type", "tropical.type_of_point",
                 "tropical.witness", "tropical.is_satisfiable",
                 "tropical.realize_type", "facemonoid.act_matrix",
                 "render.render_svg"):
        m[f"{name}.self_s"] = (job_self[name] / jobs, "s")
    for name in ("complex.is_type", "tropical.is_realized_type",
                 "tropical.type_of_point", "facemonoid.act_matrix"):
        m[f"{name}.calls"] = (job_calls[name] / jobs, "count")
    m["facemonoid.partitions.self_s"] = (setup_self["facemonoid.partitions"], "s")
    m["cli.out_bytes"] = (bench_counters.get("out_bytes", 0) / jobs, "bytes")
    m["complex.cells"] = (c["complex.cells"] / jobs, "count")
    m["complex.is_type.true_ratio"] = (
        ratio(c["complex.is_type.true"], job_calls["complex.is_type"]), "ratio")
    m["tropical.witness.sat_ratio"] = (
        ratio(c["tropical.witness.sat"], job_calls["tropical.witness"]), "ratio")
    m["permanent.attaining_ratio"] = (
        ratio(c["permanent.attaining"], c["permanent.partial_bijections"]),
        "ratio")
    m["permanent.argmax_size"] = (
        ratio(c["permanent.argmax_total"],
              job_calls["permanent.optimal_bijections"]), "count")
    m["render.svg_bytes"] = (c["render.svg_bytes"] / jobs, "bytes")
    for layer in LAYERS + ("bench",):
        m[f"layer.{layer}.share"] = (ratio(layer_self[layer], job_time), "ratio")
    m["trace.overhead"] = (ratio(traced_jobs_per_s, untraced_jobs_per_s), "ratio")
    return m
