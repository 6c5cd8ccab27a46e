"""End-to-end acceptance suite.

One test per numbered acceptance check; each prints a single PASS/FAIL
line (run pytest with -s to see them all).  Every comparison is exact:
the library computes over the rationals, so no tolerances appear, and the
stated runtime budgets are asserted with a timer.
"""

import contextlib
import json
import random
import time
from itertools import product as iproduct

from tropface import (Arrangement, BoolMatrix, OrderedSetPartition,
                      act_on_type, act_subset, cell_of,
                      column_space_projection, contained_partial_bijections,
                      enumerate_types, face_relation, is_chamber,
                      is_permanent_attaining, is_realized_type,
                      is_satisfiable, is_type, partitions,
                      permanent_structure, type_of_point)
from tropface.cli import main as cli_main

from demo_data import (DEMO_ROWS, S_SAT_NOT_TYPE, S_UNSAT, T_BND2, T_EDGE,
                       T_UNB2, T_VERT, rand_arrangement)
from oracle_helpers import column_space_witness


@contextlib.contextmanager
def check(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_01_demo_complex_counts():
    with check("1 demo 3x4 complex: 37 cells, 12/18/7 by dimension, <1s"):
        arr = Arrangement(DEMO_ROWS)  # fresh: no caches to lean on
        t0 = time.perf_counter()
        cells = enumerate_types(arr)
        elapsed = time.perf_counter() - t0
        assert len(cells) == 37
        by_dim = {}
        for c in cells:
            by_dim[c.dimension] = by_dim.get(c.dimension, 0) + 1
        assert by_dim == {2: 12, 1: 18, 0: 7}
        assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"


def test_02_named_cells(demo):
    with check("2 named cells present with exact dimension/boundedness/faces"):
        cells = {c.type: c for c in enumerate_types(demo)}
        e, f = cells[T_UNB2], cells[T_BND2]
        g, h = cells[T_EDGE], cells[T_VERT]
        assert (e.dimension, e.bounded) == (2, False)
        assert (f.dimension, f.bounded) == (2, True)
        assert (g.dimension, g.bounded) == (1, True)
        assert (h.dimension, h.bounded) == (0, True)
        assert face_relation(e, g) and face_relation(f, g)
        assert face_relation(e, h) and face_relation(f, h)
        assert face_relation(g, h)


def test_03_action_example(demo):
    with check("3 vertex cell * ({3}|{2}|{1}) = unbounded 2-cell, exactly"):
        flip = OrderedSetPartition.from_sets(3, [[2], [1], [0]])
        moved = act_on_type(demo, cell_of(demo, T_VERT), flip)
        assert moved.type == T_UNB2


def test_04_satisfiability_fixtures(demo):
    with check("4 satisfiability fixtures: unsat / sat-but-not-a-type"):
        assert not is_satisfiable(demo, S_UNSAT)
        assert is_satisfiable(demo, S_SAT_NOT_TYPE)
        assert not is_type(demo, S_SAT_NOT_TYPE)
        assert not is_realized_type(demo, S_SAT_NOT_TYPE)


def test_05_oracle_equivalences_exhaustive():
    label = ("5 two independent routes agree on all 2^(n*d) matrices of "
             "200 random arrangements, <60s")
    with check(label):
        shapes = [(n, d) for n in range(1, 13) for d in range(1, 13)
                  if n * d <= 12]
        rng = random.Random(20260810)
        t0 = time.perf_counter()
        matrices = 0
        candidates = 0
        while matrices < 200:
            n, d = shapes[rng.randrange(len(shapes))]
            arr = rand_arrangement(rng, n, d)
            structure = permanent_structure(arr)
            full = BoolMatrix(n, d, (1 << (n * d)) - 1)
            bij = [(b.as_matrix(n, d).bits, structure.is_attaining(b))
                   for b in contained_partial_bijections(full) if b.pairs]
            for bits in range(1 << (n * d)):
                s = BoolMatrix(n, d, bits)
                every_contained_attains = all(
                    att for mask, att in bij if mask & bits == mask)
                assert is_satisfiable(arr, s) == every_contained_attains, \
                    (arr.entries, s)
                assert is_type(arr, s) == is_realized_type(arr, s), \
                    (arr.entries, s)
                candidates += 1
            matrices += 1
        elapsed = time.perf_counter() - t0
        assert matrices == 200 and candidates >= 200
        assert elapsed < 60.0, f"scan took {elapsed:.1f}s"


def test_06_attaining_satisfiable_column_space():
    label = ("6 permanent-attaining == satisfiable == column-space witness, "
             "500 random bijections up to 4x4")
    with check(label):
        rng = random.Random(977)
        done = 0
        while done < 500:
            n, d = rng.randint(1, 4), rng.randint(1, 4)
            arr = rand_arrangement(rng, n, d, span=4)
            k = rng.randint(1, min(n, d))
            rows = sorted(rng.sample(range(n), k))
            cols = sorted(rng.sample(range(d), k))
            image = list(rows)
            rng.shuffle(image)
            from tropface import PartialBijection
            sigma = PartialBijection(list(zip(image, cols)))
            mat = sigma.as_matrix(n, d)

            attains = is_permanent_attaining(arr, sigma)
            satisfiable = is_satisfiable(arr, mat)
            y = column_space_witness(arr, sigma)
            witnessed = (y is not None
                         and column_space_projection(arr, y) == y
                         and mat <= type_of_point(arr, y))
            assert attains == satisfiable == witnessed, (arr.entries, sigma)
            done += 1


def test_07_monoid_suite():
    with check("7 monoid laws exhaustive over all of P_3 and P_4, <10s"):
        t0 = time.perf_counter()
        for n in (3, 4):
            parts = list(partitions(n))
            assert len(parts) == {3: 13, 4: 75}[n]
            index = {p: i for i, p in enumerate(parts)}
            table = [[index[a * b] for b in parts] for a in parts]
            size = len(parts)
            for i in range(size):
                assert table[i][i] == i  # idempotent
                for j in range(size):
                    assert table[table[i][j]][i] == table[i][j]  # x*y*x = x*y
                    for k in range(size):
                        assert table[table[i][j]][k] == table[i][table[j][k]]
            ident = index[OrderedSetPartition.identity(n)]
            for i in range(size):
                assert table[ident][i] == i and table[i][ident] == i
            for i, p in enumerate(parts):
                if is_chamber(p):
                    assert all(table[i][j] == i for j in range(size))
            for subset in range(1 << n):
                for i, f in enumerate(parts):
                    through_f = act_subset(subset, f)
                    for j, g in enumerate(parts):
                        assert act_subset(subset, parts[table[i][j]]) == \
                            act_subset(through_f, g)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"monoid suite took {elapsed:.1f}s"


def test_08_action_closure_and_fixed_points(demo):
    with check("8 all 37x13 action images are cells; 2-cells all fixed"):
        cells = enumerate_types(demo)
        labels = {c.type for c in cells}
        parts = list(partitions(3))
        assert len(cells) == 37 and len(parts) == 13
        for cell in cells:
            for p in parts:
                moved = act_on_type(demo, cell, p)
                assert moved.type in labels
                if cell.dimension == 2:
                    assert moved == cell


def test_09_deterministic_outputs(tmp_path):
    with check("9 byte-identical SVG and byte-stable enumeration report"):
        matrix = tmp_path / "demo.json"
        matrix.write_text(json.dumps({
            "rows": 3, "cols": 4,
            "entries": [[str(v) for v in row] for row in DEMO_ROWS]}))
        svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert cli_main(["render", str(matrix), "--out", str(svg_a)]) == 0
        assert cli_main(["render", str(matrix), "--out", str(svg_b)]) == 0
        assert svg_a.read_bytes() == svg_b.read_bytes()

        rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["enumerate", str(matrix), "--out", str(rep_a)]) == 0
        assert cli_main(["enumerate", str(matrix), "--check-geometric",
                         "--out", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()
        doc = json.loads(rep_a.read_text())
        assert doc["summary"] == {"2": 12, "1": 18, "0": 7}
