"""The benchmark's workloads: seeded inputs, one-off session set-up, jobs
and the checks on every job's output.

Three workloads draw their inputs from a fixed corpus.  A corpus entry is
generated from its key alone (``<stratum>/<index>``), and its expected
output is recorded in ``references.json`` by ``make_references.py``.  The
workload seed picks the order in which each stratum's entries are used
and a symmetry applied to each entry: integer row and column shifts of an
arrangement, which change no type, no report byte and no SVG byte, or
row and column permutations of a permanent's matrix, which keep its
value and permute its argmax set.  So two seeds give different inputs,
one seed always the same, and the references hold for every seed.  Because a
run covers the whole corpus, the spread between runs reflects the program
and the machine, not which entries a seed happened to draw.  ``cell_queries`` generates everything from the
seed and checks its jobs against the library's own second route instead.

A round runs one job per stratum, and a pass runs every corpus entry
once.  Runs end on a pass boundary, so every run does the same work.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from math import comb, factorial

PACKAGE = "tropface"
SPAN = 50           # numerators p of generic entries p/q satisfy |p| <= SPAN
DENOMINATORS = (1, 2, 3)
SHIFT = 20          # seeded row and column shifts lie in [-SHIFT, SHIFT]


class Mismatch(Exception):
    """A job's output differs from its reference or fails a self-check."""


class Job:
    """One timed call into the program, and the untimed check of its output.

    ``verify(output)`` raises Mismatch on a wrong output and otherwise
    returns counters: ``cells`` listed and ``out_bytes`` written."""

    __slots__ = ("stratum", "run", "verify")

    def __init__(self, stratum, run, verify):
        self.stratum = stratum
        self.run = run
        self.verify = verify


def generic_entries(rng, n, d):
    return [[Fraction(rng.randint(-SPAN, SPAN), rng.choice(DENOMINATORS))
             for _ in range(d)] for _ in range(n)]


def tie_entries(rng, n, d):
    return [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def structure_fill(arr, k_max=None):
    """Drain ``permanent_structure(arr, k_max).bijections()``, which fills
    every block permanent and argmax set up to k_max.  Returns (attaining
    non-empty bijections, all non-empty partial bijections up to k_max)."""
    permanent = sys.modules[PACKAGE + ".permanent"]
    structure = permanent.permanent_structure(arr, k_max)
    attaining = sum(1 for _ in structure.bijections()) - 1
    n, d = arr.n, arr.d
    total = sum(comb(n, k) * comb(d, k) * factorial(k)
                for k in range(1, structure.k_max + 1))
    return attaining, total


def _compare(summary: dict, reference) -> None:
    if reference is None:
        raise Mismatch("no reference recorded for this input")
    diff = sorted(k for k in set(summary) | set(reference)
                  if summary.get(k) != reference.get(k))
    if diff:
        raise Mismatch("differs from reference in " + ", ".join(diff))


class Workload:
    name = ""
    why = ""
    strata = ()
    pass_rounds = 1  # runs end only after a multiple of this many rounds

    def inputs(self, rounds: int) -> list:
        """A plain description of the first ``rounds`` rounds' inputs."""
        raise NotImplementedError

    def open_session(self, tp):
        """One-off session work after import; counts toward setup_s."""
        return tp

    def round(self, session, r: int) -> list:
        """The jobs of round ``r``, one per stratum."""
        raise NotImplementedError


class CorpusWorkload(Workload):
    """Inputs from the corpus; each job's output is checked against the
    reference recorded for its key."""

    pool = 0  # corpus entries per stratum

    def __init__(self, seed, workdir, references: dict):
        """``seed`` None gives the corpus itself, in order, untransformed."""
        self.pass_rounds = self.pool
        self.seed = seed
        rng = random.Random(seed)
        self.orders = [list(range(self.pool)) if seed is None
                       else rng.sample(range(self.pool), self.pool)
                       for _ in self.strata]
        self.workdir = workdir
        self.references = references.get(self.name, {})
        self._entries = {}

    def _symmetry_rng(self, key):
        if self.seed is None:
            return None
        return random.Random(f"{self.seed}/{self.name}/{key}")

    def keys(self):
        return [f"{s}/{i}" for s in self.strata for i in range(self.pool)]

    def round_keys(self, r: int) -> list:
        return [f"{s}/{order[r % self.pool]}"
                for s, order in zip(self.strata, self.orders)]

    def corpus_entries(self, key: str) -> list:
        raise NotImplementedError

    def transform(self, key: str, entries: list) -> list:
        """The seeded symmetry of a corpus entry."""
        raise NotImplementedError

    def entries(self, key: str) -> list:
        got = self._entries.get(key)
        if got is None:
            got = self.corpus_entries(key)
            if self.seed is not None:
                got = self.transform(key, got)
            self._entries[key] = got
        return got

    def inputs(self, rounds: int) -> list:
        return [[(key, self.entries(key)) for key in self.round_keys(r)]
                for r in range(rounds)]

    def round(self, session, r: int) -> list:
        return [self.job(session, key) for key in self.round_keys(r)]

    def job(self, session, key: str) -> Job:
        return Job(key.split("/")[0], self.runner(session, key),
                   lambda raw: self.check(key, raw))

    def runner(self, session, key: str):
        """The timed call for ``key``."""
        raise NotImplementedError

    def collect(self, key: str, raw):
        """(output, bytes written) from what the timed call returned."""
        return raw, 0

    def self_check(self, key: str, output) -> None:
        """Checks that need no reference."""

    def summarize(self, key: str, output) -> dict:
        """The reference form of an output."""
        raise NotImplementedError

    def summary(self, key: str, raw):
        """(reference form, bytes written) of a checked output."""
        output, out_bytes = self.collect(key, raw)
        self.self_check(key, output)
        return self.summarize(key, output), out_bytes

    def check(self, key: str, raw) -> dict:
        summary, out_bytes = self.summary(key, raw)
        _compare(summary, self.references.get(key))
        return {"cells": summary.get("cells", 0), "out_bytes": out_bytes}


def _shape(stratum: str):
    n, d = stratum.split("x")
    return int(n), int(d)


def _report_summary(data: bytes) -> dict:
    report = json.loads(data)
    return {"report_sha256": sha256(data), "cells": len(report["cells"]),
            "f_vector": report["summary"]}


class CliWorkload(CorpusWorkload):
    """Runs ``tropface.cli.main`` on matrix files written before timing."""

    def __init__(self, seed, workdir, references):
        super().__init__(seed, workdir, references)
        self.files = {}
        for key in self.keys():
            n, d = _shape(key.split("/")[0])
            doc = {"rows": n, "cols": d,
                   "entries": [[str(v) for v in row]
                               for row in self.entries(key)]}
            path = self._path(key, ".json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.files[key] = path

    def corpus_entries(self, key):
        n, d = _shape(key.split("/")[0])
        return generic_entries(random.Random(f"{self.name}/{key}"), n, d)

    def transform(self, key, entries):
        rng = self._symmetry_rng(key)
        rows = [rng.randint(-SHIFT, SHIFT) for _ in entries]
        cols = [rng.randint(-SHIFT, SHIFT) for _ in entries[0]]
        return [[v + r + c for v, c in zip(row, cols)]
                for row, r in zip(entries, rows)]

    def _path(self, key, suffix):
        return self.workdir / (key.replace("/", "-") + suffix)

    def _read(self, key, suffix) -> bytes:
        path = self._path(key, suffix)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise Mismatch(f"no output file: {exc}") from exc
        path.unlink()
        return data


class EnumerateTall(CliWorkload):
    name = "enumerate_tall"
    why = ("CLI enumerate --check-geometric on tall 6x4, 7x3 and 8x3 "
           "arrangements: the cell search dominates")
    strata = ("6x4", "7x3", "8x3")
    pool = 3

    def runner(self, session, key):
        cli = session.cli
        argv = ["enumerate", str(self.files[key]), "--check-geometric",
                "--out", str(self._path(key, ".report.json"))]
        return lambda: cli.main(argv)

    def collect(self, key, rc):
        if rc != 0:
            raise Mismatch(f"exit code {rc}")
        data = self._read(key, ".report.json")
        return data, len(data)

    def summarize(self, key, output):
        return _report_summary(output)


class RenderThreeRow(CliWorkload):
    name = "render_3row"
    why = ("CLI render and enumerate on small 3xd arrangements: fixed "
           "per-job costs dominate and only this workload renders")
    strata = ("3x4", "3x5", "3x6", "3x7", "3x8")
    pool = 24

    def runner(self, session, key):
        cli = session.cli
        matrix = str(self.files[key])
        render_argv = ["render", matrix, "--out", str(self._path(key, ".svg"))]
        enum_argv = ["enumerate", matrix,
                     "--out", str(self._path(key, ".report.json"))]
        return lambda: (cli.main(render_argv), cli.main(enum_argv))

    def collect(self, key, rcs):
        if rcs != (0, 0):
            raise Mismatch(f"exit codes {rcs}")
        out = (self._read(key, ".svg"), self._read(key, ".report.json"))
        return out, len(out[0]) + len(out[1])

    def summarize(self, key, output):
        svg, report = output
        return dict(_report_summary(report), svg_sha256=sha256(svg))


ATTAINING_CHECKS = 3  # argmax bijections passed to is_permanent_attaining
FILL_K_MAX = 4


class PermanentSquare(CorpusWorkload):
    name = "permanent_square"
    why = ("library permanents of 6x6 to 8x8 blocks, generic and tie-heavy: "
           "the permanent layer does nearly all the work")
    # k x k, generic ("g", |p| <= 50) or tie-heavy ("t", integers in [-1, 1])
    strata = ("6g", "6t", "7g", "7t", "8g", "8t")
    pool = 3

    def corpus_entries(self, key):
        stratum = key.split("/")[0]
        k = int(stratum[:-1])
        make = tie_entries if stratum.endswith("t") else generic_entries
        return make(random.Random(f"{self.name}/{key}"), k, k)

    def _permutations(self, key, k):
        rng = self._symmetry_rng(key)
        if rng is None:
            return list(range(k)), list(range(k))
        return rng.sample(range(k), k), rng.sample(range(k), k)

    def transform(self, key, entries):
        # entry (i, j) of the result is entry (rows[i], cols[j]) of the corpus
        rows, cols = self._permutations(key, len(entries))
        return [[entries[ri][cj] for cj in cols] for ri in rows]

    def runner(self, session, key):
        permanent, Arrangement = session.permanent, session.tropical.Arrangement
        entries = self.entries(key)
        k = len(entries)

        def run():
            arr = Arrangement(entries)
            value = permanent.tropical_permanent(entries)
            argmax = sorted(permanent.optimal_bijections(
                arr, range(k), range(k)), key=lambda b: b.pairs)
            attaining = [permanent.is_permanent_attaining(arr, sigma)
                         for sigma in argmax[:ATTAINING_CHECKS]]
            filled, _ = structure_fill(arr, FILL_K_MAX)
            return value, argmax, attaining, filled
        return run

    def self_check(self, key, output):
        value, argmax, attaining, _ = output
        if not all(attaining):
            raise Mismatch("an argmax bijection is reported non-attaining")
        entries = self.entries(key)
        for sigma in argmax:
            # recomputed from the entries, independently of the library
            if sum(Fraction(entries[i][j]) for i, j in sigma.pairs) != value:
                raise Mismatch(f"argmax {sigma} does not sum to {value}")

    def summarize(self, key, output):
        value, argmax, _, filled = output
        rows, cols = self._permutations(key, len(self.entries(key)))
        # the argmax set in the corpus entry's own indices
        corpus_argmax = sorted(sorted((rows[i], cols[j]) for i, j in b.pairs)
                               for b in argmax)
        pairs = json.dumps([list(map(list, b)) for b in corpus_argmax])
        return {"permanent": str(value), "argmax_size": len(argmax),
                "argmax_sha256": sha256(pairs.encode("ascii")),
                "attaining_k4": filled}


EXTRA_ONE = 1  # query kind; kind 0 takes a random sub-matrix of the type


class CellQueries(Workload):
    name = "cell_queries"
    why = ("warm library session of point, cell, action and satisfiability "
           "queries: tropical arithmetic dominates, no enumeration")
    strata = ("4x6", "5x4", "6x3", "3x8")
    POINT_SPAN = 60

    def __init__(self, seed, workdir=None, references=None):
        rng = random.Random(seed)
        self.matrices = [generic_entries(rng, *_shape(s)) for s in self.strata]
        self.query_seed = rng.getrandbits(64)

    def _round_params(self, r: int) -> list:
        """Per job of round r: a point, two uniform draws (partition and
        extra 1) and a bit mask (sub-matrix)."""
        rng = random.Random(f"{self.query_seed}/{r}")
        params = []
        for stratum in self.strata:
            n, d = _shape(stratum)
            point = tuple(Fraction(rng.randint(-self.POINT_SPAN, self.POINT_SPAN),
                                   rng.choice(DENOMINATORS)) for _ in range(n))
            params.append((point, rng.random(), rng.getrandbits(n * d),
                           rng.random()))
        return params

    def inputs(self, rounds):
        return [self.matrices, [self._round_params(r) for r in range(rounds)]]

    def open_session(self, tp):
        arrs = [tp.tropical.Arrangement(m) for m in self.matrices]
        parts = {arr.n: list(tp.facemonoid.partitions(arr.n)) for arr in arrs}
        for arr in arrs:
            # builds the permanent structure and the type tables
            tp.complex.is_type(arr, tp.tropical.type_of_point(arr, [0] * arr.n))
        return tp, arrs, parts

    def round(self, session, r):
        tp, arrs, parts = session
        return [self.job(tp, arr, parts[arr.n], params, (r + s) % 2, stratum)
                for s, (arr, params, stratum) in enumerate(
                    zip(arrs, self._round_params(r), self.strata))]

    @staticmethod
    def job(tp, arr, parts, params, kind, stratum):
        point, part_u, mask, extra_u = params
        partition = parts[int(part_u * len(parts))]
        trop, cx, BoolMatrix = tp.tropical, tp.complex, tp.boolmat.BoolMatrix
        n, d = arr.n, arr.d

        def run():
            t = trop.type_of_point(arr, point)
            cell = cx.cell_of(arr, t)
            image = cx.act_on_type(arr, cell, partition)
            y = trop.realize_type(arr, image.type)
            y_type = None if y is None else trop.type_of_point(arr, y)
            zeros = [b for b in range(n * d) if not (t.bits >> b) & 1]
            if kind == EXTRA_ONE and zeros:
                s = BoolMatrix(n, d, t.bits | 1 << zeros[int(extra_u * len(zeros))])
            else:
                s = BoolMatrix(n, d, t.bits & mask)
            w = trop.witness(arr, s)
            w_type = None if w is None else trop.type_of_point(arr, w)
            sat = trop.is_satisfiable(arr, s)
            return t, cell, image, y_type, s, w, w_type, sat

        def verify(output):
            t, cell, image, y_type, s, w, w_type, sat = output
            if cell.type != t:
                raise Mismatch("cell_of changed the type")
            if y_type != image.type:
                raise Mismatch("realize_type does not round-trip the image")
            if (w is not None) != sat:
                raise Mismatch("witness and is_satisfiable disagree")
            if w is not None and not s <= w_type:
                raise Mismatch("witness does not satisfy the query")
            if s <= t and not sat:
                raise Mismatch("a sub-matrix of a type is unsatisfiable")
            return {}

        return Job(stratum, run, verify)


WORKLOADS = {w.name: w for w in (EnumerateTall, PermanentSquare,
                                 CellQueries, RenderThreeRow)}
