"""Benchmark for tropface.  Run from the repository root:

    python3 perfbench/run.py --workload enumerate_tall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with one client: each job starts
when the previous one has been checked.  Set-up (import plus one-off
session work) is repeated and its median reported; then whole passes of
jobs run until ``--seconds`` have passed.  Every job's output is checked.
Times are reported at nominal machine speed (see ``speed.py``), with the
wall-clock values beside them.  ``--trace 1`` spends half the time
untraced and half with every layer's public functions wrapped in spans,
and reports per-layer metrics.  See README.md for the workloads and
metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record, with the environment, goes to ``perfbench/results/``.
The exit code is 0 only when every job's output was correct.
"""

from __future__ import annotations

import argparse
from array import array
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"

import speed  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
P90_MIN_JOBS = 100  # p90 has at least ten samples beyond it
MODULES = ("boolmat", "facemonoid", "tropical", "permanent", "complex",
           "render", "cli")


def import_package():
    """A fresh import of the package: modules already loaded are dropped."""
    pkg = workloads.PACKAGE
    for name in [m for m in sys.modules
                 if m == pkg or m.startswith(pkg + ".")]:
        del sys.modules[name]
    importlib.import_module(pkg)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"{pkg}.{m}") for m in MODULES})


class Measurement:
    def __init__(self):
        self.starts = array("d")  # start and end of every timed job
        self.ends = array("d")
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cells = 0
        self.out_bytes = 0
        self.peak_rss_mb = 0.0

    @property
    def latencies(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def normalized(self, cal: speed.Calibrator):
        return [(e - s) / cal.factor(s, e)
                for s, e in zip(self.starts, self.ends)]



def run_rounds(make_round, seconds: float, cal: speed.Calibrator,
               pass_rounds: int = 1, first_round: int = 0,
               rec=None) -> Measurement:
    """Run whole passes of ``pass_rounds`` rounds until ``seconds`` have
    passed (at least one).  Only the call into the program is timed; its
    check is not."""
    clock = cal.clock
    m = Measurement()
    start = clock()
    r = first_round
    while True:
        for job in make_round(r):
            cal.catch_up()
            m.attempted += 1
            if rec is not None:
                rec.job_id += 1
                span = rec.open(tracing.JOB_SPAN)
            t0 = clock()
            try:
                out = job.run()
                error = None
            except Exception as exc:  # a crashing job is a failed job
                error = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if rec is not None:
                rec.close(span)
            if error is None:
                try:
                    counters = job.verify(out)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    m.cells += counters.get("cells", 0)
                    m.out_bytes += counters.get("out_bytes", 0)
            if error is not None:
                m.failed += 1
                if len(m.failures) < 10:
                    m.failures.append(f"round {r} {job.stratum}: {error}")
            m.starts.append(t0)
            m.ends.append(t1)
        m.rounds += 1
        r += 1
        if (r - first_round) % pass_rounds == 0 and clock() - start >= seconds:
            # before the harness's own post-processing allocates
            m.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            cal.catch_up()
            return m


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: Measurement, setups, cal: speed.Calibrator) -> dict:
    """name -> (value, unit, samples).  Times are at nominal machine speed
    unless the name starts with ``wall_``."""
    wall = m.latencies
    norm = m.normalized(cal)
    jobs = len(wall)
    out = {
        "setup_s": (statistics.median((e - s) / cal.factor(s, e)
                                      for s, e in setups), "s", len(setups)),
        "jobs_per_s": (jobs / sum(norm), "1/s", jobs),
        "job_p50_ms": (statistics.median(norm) * 1000, "ms", jobs),
        "peak_rss_mb": (m.peak_rss_mb, "MB", 1),
        "error_rate": (m.failed / m.attempted, "ratio", m.attempted),
    }
    if jobs >= P90_MIN_JOBS:
        out["job_p90_ms"] = (percentile(norm, 90) * 1000, "ms", jobs)
    if m.cells:
        out["cells_per_s"] = (m.cells / sum(norm), "1/s", jobs)
    out.update({
        "wall_setup_s": (statistics.median(e - s for s, e in setups), "s",
                         len(setups)),
        "wall_jobs_per_s": (jobs / sum(wall), "1/s", jobs),
        "wall_job_p50_ms": (statistics.median(wall) * 1000, "ms", jobs),
        "machine_slowdown": (cal.slowdown(), "ratio", len(cal.durations)),
    })
    return out


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    files = sorted((SRC / workloads.PACKAGE).glob("*.py"))
    return workloads.sha256(b"".join(
        f.name.encode() + b"\0" + f.read_bytes() for f in files))


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[name](seed, workdir, references)
        cal = speed.Calibrator()
        setups = []  # (start, end)
        for _ in range(SETUP_REPS):
            cal.sample(3)
            t0 = cal.clock()
            tp = import_package()
            session = wl.open_session(tp)
            setups.append((t0, cal.clock()))
        budget = seconds / 2 if trace else seconds
        base = run_rounds(lambda r: wl.round(session, r), budget, cal,
                          wl.pass_rounds)
        result = {"end_to_end": end_to_end(base, setups, cal),
                  "attempted": base.attempted, "failed": base.failed,
                  "failures": list(base.failures)}
        if trace:
            rec = tracing.SpanRecorder()
            patches = tracing.Patches(rec, workloads.PACKAGE,
                                      workloads.structure_fill, [workloads])
            patches.apply()
            try:
                span = rec.open(tracing.SETUP_SPAN)
                session = wl.open_session(tp)
                rec.close(span)
                rec.counters.clear()
                traced = run_rounds(lambda r: wl.round(session, r), budget,
                                    cal, wl.pass_rounds,
                                    first_round=base.rounds, rec=rec)
            finally:
                patches.restore()
            result["per_layer"] = tracing.layer_metrics(
                rec, base.attempted / sum(base.normalized(cal)),
                traced.attempted / sum(traced.normalized(cal)),
                {"out_bytes": traced.out_bytes})
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["failures"] += traced.failures
            result["spans"] = rec
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main_one(args) -> int:
    trace = bool(args.trace)
    res = run_workload(args.workload, args.seed, args.seconds, trace)
    correct = res["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("end-to-end" + (" (untraced half)" if trace else "") + ":")
    for name, (value, unit, n) in res["end_to_end"].items():
        print(f"  {name:<14} {value:>14.6g} {unit:<6} n={n}")
    if trace:
        print("per-layer (self_s, calls and bytes per job):")
        for name, (value, unit) in sorted(res["per_layer"].items()):
            print(f"  {name:<40} {value:>12.6g} {unit}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": trace,
        "environment": environment(args.seed), "correct": correct,
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in res["end_to_end"].items()},
    }
    if trace:
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in res["per_layer"].items()}
        spans_path = RESULTS / f"{stem}.spans.tsv"
        res["spans"].write_tsv(spans_path)
        record["spans_file"] = spans_path.name
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    print(f"result file: {(RESULTS / (stem + '.json')).relative_to(ROOT)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        value, unit = res[kind][m["name"]][:2]
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main_all(args) -> int:
    """Every workload in turn, each in its own process so that its peak
    memory and import are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            last = {}
        if proc.returncode != 0 or not last.get("correct"):
            summary["correct"] = False
        summary["attempted"] += last.get("attempted", 0)
        summary["failed"] += last.get("failed", 0)
        for metric, value in last.get("metrics", {}).items():
            summary["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"no {workloads.PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
