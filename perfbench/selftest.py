"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import speed
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        rec = tracing.SpanRecorder()
        a = rec.add("a", 0.0, 10.0, -1, 1)
        b = rec.add("b", 1.0, 4.0, a, 1)
        rec.add("c", 3.0, 6.0, a, 1)      # overlaps b: the union counts once
        rec.add("d", 8.0, 12.0, a, 1)     # runs past a: clipped to a's end
        rec.add("e", 2.0, 3.0, b, 1)
        rec.add("f", 20.0, 21.0, -1, 2)   # a second root, no children
        self.assertEqual(rec.self_times(), [3.0, 2.0, 3.0, 4.0, 1.0, 1.0])

    def test_recorded_nesting(self):
        ticks = itertools.count()
        rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
        outer = rec.open("outer")          # t=0
        inner = rec.open("inner")          # t=1
        rec.close(inner)                   # t=2
        rec.close(outer)                   # t=3
        self.assertEqual(list(rec.parents), [-1, outer])
        self.assertEqual(rec.self_times(), [2.0, 1.0])

    def test_layer_metrics_per_job(self):
        rec = tracing.SpanRecorder()
        for job, start in ((1, 0.0), (2, 10.0)):
            root = rec.add(tracing.JOB_SPAN, start, start + 4.0, -1, job)
            rec.add("complex.is_type", start + 1.0, start + 3.0, root, job)
        rec.counters["complex.is_type.true"] = 1
        m = tracing.layer_metrics(rec, 2.0, 1.0, {})
        self.assertEqual(m["complex.is_type.self_s"], (2.0, "s"))
        self.assertEqual(m["complex.is_type.calls"], (1.0, "count"))
        self.assertEqual(m["complex.is_type.true_ratio"], (0.5, "ratio"))
        self.assertEqual(m["layer.complex.share"], (0.5, "ratio"))
        self.assertEqual(m["layer.bench.share"], (0.5, "ratio"))
        self.assertEqual(m["trace.overhead"], (0.5, "ratio"))


class Tracing(unittest.TestCase):
    def test_patches_are_restored_and_spans_nest(self):
        tp = run.import_package()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(workloads.PACKAGE)] + [workloads]
        before = [dict(vars(m)) for m in modules]
        rec = tracing.SpanRecorder()
        patches = tracing.Patches(rec, workloads.PACKAGE,
                                  workloads.structure_fill, [workloads])
        patches.apply()
        try:
            self.assertIsNot(tp.complex.is_type, before[0].get("is_type"))
            arr = tp.tropical.Arrangement([[0, 1, 2], [2, 0, 1], [0, 0, 0]])
            t = tp.tropical.type_of_point(arr, (0, 0, 0))
            tp.complex.cell_of(arr, t)
            list(tp.facemonoid.partitions(3))
        finally:
            patches.restore()
        after = [dict(vars(m)) for m in modules]
        for b, a in zip(before, after):
            self.assertEqual(b.keys(), a.keys())
            for key in b:
                self.assertIs(a[key], b[key], key)
        names = rec.names
        self.assertEqual(names[:3], ["tropical.type_of_point", "complex.cell_of",
                                     "complex.is_type"])
        self.assertEqual(rec.parents[2], 1)   # is_type ran inside cell_of
        self.assertIn("facemonoid.partitions", names)


class Failures(unittest.TestCase):
    def test_wrong_output_and_crash_count_as_failures(self):
        def wrong(_):
            raise workloads.Mismatch("wrong output")

        def crash():
            raise ValueError("boom")

        jobs = [workloads.Job("ok", lambda: 1, lambda out: {"cells": out}),
                workloads.Job("wrong", lambda: 2, wrong),
                workloads.Job("crash", crash, lambda out: {})]
        m = run.run_rounds(lambda r: jobs, 0, speed.Calibrator())
        self.assertEqual((m.attempted, m.failed, m.rounds), (3, 2, 1))
        self.assertEqual(m.cells, 1)
        self.assertEqual(len(m.latencies), 3)

    def test_runs_end_on_a_pass_boundary(self):
        job = workloads.Job("ok", lambda: 1, lambda out: {})
        m = run.run_rounds(lambda r: [job], 0, speed.Calibrator(), 3)
        self.assertEqual((m.rounds, m.attempted), (3, 3))

    def test_reference_and_self_check_catch_a_wrong_permanent(self):
        tp = run.import_package()
        refs = {"permanent_square": {}}
        wl = workloads.PermanentSquare(0, None, refs)
        key = "6t/0"
        raw = wl.runner(tp, key)()
        refs["permanent_square"][key] = wl.summary(key, raw)[0]
        wl.references = refs["permanent_square"]
        self.assertEqual(wl.check(key, raw), {"cells": 0, "out_bytes": 0})
        value, argmax, attaining, filled = raw
        with self.assertRaises(workloads.Mismatch):   # self-check
            wl.check(key, (value + 1, argmax, attaining, filled))
        with self.assertRaises(workloads.Mismatch):   # reference
            wl.check(key, (value, argmax, attaining, filled + 1))
        wl.references = {}
        with self.assertRaises(workloads.Mismatch):   # no reference
            wl.check(key, raw)

    def test_recorded_references_match(self):
        refs = run.json.loads(run.REFERENCES.read_text(encoding="utf-8"))
        tp = run.import_package()
        with tempfile.TemporaryDirectory(dir=_work()) as tmp:
            wl = workloads.RenderThreeRow(5, Path(tmp), refs)
            for job in wl.round(wl.open_session(tp), 0):
                job.verify(job.run())


class Declared(unittest.TestCase):
    def test_benchmark_json_names_what_the_run_reports(self):
        spec = run.json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = tracing.layer_metrics(tracing.SpanRecorder(), 1.0, 1.0, {})
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(per_layer))
        for m in spec["per_layer"]:
            self.assertEqual(per_layer[m["name"]][1], m["unit"], m["name"])
        measured = run.Measurement()
        measured.starts.append(0.0)
        measured.ends.append(1.0)
        measured.attempted = 1
        cal = speed.Calibrator()
        cal.sample()
        e2e = run.end_to_end(measured, [(0.0, 1.0)], cal)
        for m in spec["end_to_end"]:
            self.assertEqual(e2e[m["name"]][1], m["unit"], m["name"])


class Seeds(unittest.TestCase):
    def _inputs(self, cls, seed):
        with tempfile.TemporaryDirectory(dir=_work()) as tmp:
            return cls(seed, Path(tmp), {}).inputs(3)

    def test_seed_determines_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(cls.name):
                self.assertEqual(self._inputs(cls, 7), self._inputs(cls, 7))
                self.assertNotEqual(self._inputs(cls, 7), self._inputs(cls, 8))


def _work():
    run.WORK.mkdir(exist_ok=True)
    return run.WORK


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            shutil.rmtree(run.WORK)
