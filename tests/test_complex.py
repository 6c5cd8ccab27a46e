import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from tropface import (Arrangement, BoolMatrix, CapExceeded,
                      OrderedSetPartition, PermanentStructure, act_on_type,
                      cell_dimension, cell_of, column_space_projection,
                      enumerate_types, face_relation, is_bounded,
                      is_realized_type, is_type, partitions,
                      permanent_structure, realize_type, type_of_point,
                      witness)
import tropface.complex as complex_module
from tropface.boolmat import _col_masks
from tropface.complex import _column_constraints, _ties
from tropface.permanent import _argmax

from demo_data import (S_SAT_NOT_TYPE, T_BND2, T_EDGE, T_UNB2, T_VERT,
                       rand_arrangement, rand_boolmatrix, rand_point)
from oracle_helpers import tie_system_dimension


def test_is_type_fixtures(demo):
    assert is_type(demo, T_VERT)
    assert not is_type(demo, S_SAT_NOT_TYPE)
    empty_col = BoolMatrix.from_columns(3, [set(), {0}, {0}, {0}])
    assert not is_type(demo, empty_col)
    with pytest.raises(ValueError):
        is_type(demo, BoolMatrix.zero(4, 3))


def test_enumerate_demo_complex(demo):
    cells = enumerate_types(demo)
    assert len(cells) == 37
    by_dim = Counter(c.dimension for c in cells)
    assert by_dim == {2: 12, 1: 18, 0: 7}
    labels = {c.type: c for c in cells}
    assert labels[T_UNB2].dimension == 2 and not labels[T_UNB2].bounded
    assert labels[T_BND2].dimension == 2 and labels[T_BND2].bounded
    assert labels[T_EDGE].dimension == 1 and labels[T_EDGE].bounded
    assert labels[T_VERT].dimension == 0 and labels[T_VERT].bounded


def test_enumerate_single_row():
    arr = Arrangement([[4, -1, 0]])
    cells = enumerate_types(arr)
    assert len(cells) == 1
    only = cells[0]
    assert only.type == BoolMatrix.from_rows([[1, 1, 1]])
    assert only.dimension == 0 and only.bounded


def test_enumerate_single_hyperplane_two_rows():
    arr = Arrangement([[0], [0]])
    cells = enumerate_types(arr)
    got = {c.type.columns() for c in cells}
    assert got == {((0,),), ((1,),), ((0, 1),)}
    dims = {c.type.columns(): c.dimension for c in cells}
    assert dims[((0, 1),)] == 0
    assert dims[((0,),)] == 1 and dims[((1,),)] == 1


def test_enumerate_matches_is_type_filter(demo):
    cells = {c.type for c in enumerate_types(demo)}
    want = {BoolMatrix(3, 4, bits) for bits in range(1 << 12)
            if is_type(demo, BoolMatrix(3, 4, bits))}
    assert cells == want


def _generic_arrangement(rng, n, d):
    return Arrangement(
        [[Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 7, 11)))
          for _ in range(d)] for _ in range(n)])


def _tie_heavy_arrangement(rng, n, d):
    return Arrangement([[rng.randint(-1, 1) for _ in range(d)]
                        for _ in range(n)])


def test_enumerate_matches_is_type_filter_with_ties():
    # ties give argmax sets of several bijections, so a prefix can forbid
    # rows through a missing argmax union and impose row implications
    rng = random.Random(50)
    for n, d in [(2, 5), (3, 4), (4, 3), (6, 2)]:
        for make in (_generic_arrangement, _tie_heavy_arrangement):
            arr = make(rng, n, d)
            cells = enumerate_types(arr)
            bits = [c.type.bits for c in cells]
            assert bits == sorted(bits)
            want = {BoolMatrix(n, d, b) for b in range(1 << (n * d))
                    if is_type(arr, BoolMatrix(n, d, b))}
            assert {c.type for c in cells} == want


def test_generic_counts_match_closed_forms_beyond_exhaustive_scan():
    # a generic arrangement's cells are dual to a triangulation of
    # Delta_{n-1} x Delta_{d-1} (Develin and Sturmfels 2004), so its face
    # counts depend only on (n, d)
    for n, d in [(10, 2), (12, 2), (8, 3)]:
        f_vectors = set()
        for seed in (1, 2):
            arr = _generic_arrangement(random.Random(seed), n, d)
            structure = permanent_structure(arr)
            for k in range(1, min(n, d) + 1):
                for rows in combinations(range(n), k):
                    for cols in combinations(range(d), k):
                        assert len(structure.optimal(rows, cols)) == 1
            cells = enumerate_types(arr)
            full = Counter(c.dimension for c in cells)
            bounded = Counter(c.dimension for c in cells if c.bounded)
            assert full[0] == comb(n + d - 2, n - 1)
            assert full[n - 1] == comb(n + d - 1, n - 1)
            f_vectors.add((tuple(sorted(full.items())),
                           tuple(sorted(bounded.items()))))
            if d == 2:
                assert len(cells) == (n - 1) * 2**n + 1
        assert len(f_vectors) == 1


def test_cell_queries_take_no_structure():
    # the cell test reads the arrangement's own block memo; a structure
    # passed in is refused, by position or by name
    arr = Arrangement([[0, 1], [1, 0]])
    own = PermanentStructure(arr, 2)
    swap = OrderedSetPartition.from_sets(2, [[1], [0]])
    cells = enumerate_types(arr)
    assert len(cells) == 5
    for cell in cells:
        t = cell.type
        for call in (lambda: is_type(arr, t, own),
                     lambda: is_type(arr, t, structure=own),
                     lambda: cell_of(arr, t, own),
                     lambda: cell_of(arr, t, structure=own),
                     lambda: cell_dimension(arr, t, own),
                     lambda: cell_dimension(arr, t, structure=own),
                     lambda: act_on_type(arr, cell, swap, own),
                     lambda: act_on_type(arr, cell, swap, structure=own)):
            with pytest.raises(TypeError):
                call()
        assert is_type(arr, t) and cell_of(arr, t) == cell
        assert act_on_type(arr, cell, swap).type in {c.type for c in cells}


def test_enumerate_cap():
    arr = Arrangement([[0] * 5 for _ in range(5)])
    with pytest.raises(CapExceeded):
        enumerate_types(arr)
    assert enumerate_types(arr, cap=25)  # explicit knob overrides


def test_cell_dimension_fixtures(demo):
    assert cell_dimension(demo, T_UNB2) == 2
    assert cell_dimension(demo, T_EDGE) == 1
    assert cell_dimension(demo, T_VERT) == 0
    with pytest.raises(ValueError):
        cell_dimension(demo, S_SAT_NOT_TYPE)


def test_cell_dimension_matches_rank_oracle():
    rng = random.Random(40)
    ties = random.Random(41)  # its own stream keeps rng's draws as before
    shapes = [(2, 2), (3, 3), (3, 4), (4, 2)]
    for _ in range(25):
        n, d = rng.choice(shapes)
        for arr in (rand_arrangement(rng, n, d),
                    _tie_heavy_arrangement(ties, n, d)):
            for cell in enumerate_types(arr):
                assert cell.dimension == tie_system_dimension(arr, cell.type)
                assert cell.bounded == is_bounded(cell.type)


def test_is_bounded(demo):
    assert is_bounded(T_BND2)
    assert not is_bounded(T_UNB2)  # last row empty
    assert is_bounded(BoolMatrix.from_rows([[1, 1], [1, 1]]))


def test_bounded_cells_sit_in_the_column_space(demo):
    for cell in enumerate_types(demo):
        x = realize_type(demo, cell.type)
        projected = column_space_projection(demo, x)
        assert (projected == x) == cell.bounded


def test_face_relation_fixtures(demo):
    cells = {c.type: c for c in enumerate_types(demo)}
    e, f = cells[T_UNB2], cells[T_BND2]
    g, h = cells[T_EDGE], cells[T_VERT]
    assert face_relation(e, g) and face_relation(f, g)
    assert face_relation(e, h) and face_relation(f, h)
    assert face_relation(g, h)
    assert not face_relation(e, f) and not face_relation(f, e)


def test_act_on_type_fixtures(demo):
    cells = {c.type: c for c in enumerate_types(demo)}
    ident = OrderedSetPartition.identity(3)
    flip = OrderedSetPartition.from_sets(3, [[2], [1], [0]])
    assert act_on_type(demo, cells[T_VERT], ident) == cells[T_VERT]
    assert act_on_type(demo, cells[T_VERT], flip) == cells[T_UNB2]
    for cell in cells.values():
        if cell.dimension == 2:
            for p in partitions(3):
                assert act_on_type(demo, cell, p) == cell


def test_action_closure_and_compatibility(demo):
    cells = enumerate_types(demo)
    labels = {c.type for c in cells}
    parts = list(partitions(3))
    for cell in cells:
        for p in parts:
            moved = act_on_type(demo, cell, p)
            assert moved.type in labels
            assert moved.type <= cell.type  # the source is a face of its image
            assert face_relation(moved, cell)
    rng = random.Random(42)
    for _ in range(200):
        cell = rng.choice(cells)
        p1, p2 = rng.choice(parts), rng.choice(parts)
        assert act_on_type(demo, act_on_type(demo, cell, p1), p2) == \
            act_on_type(demo, cell, p1 * p2)


def test_combinatorial_and_geometric_type_tests_agree_small():
    rng = random.Random(44)
    ties = random.Random(45)  # its own stream keeps rng's draws as before
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    for _ in range(12):
        n, d = rng.choice(shapes)
        for arr in (rand_arrangement(rng, n, d),
                    _tie_heavy_arrangement(ties, n, d)):
            for bits in range(1 << (n * d)):
                s = BoolMatrix(n, d, bits)
                assert is_type(arr, s) == is_realized_type(arr, s)


def test_is_type_large_grid_fallback_path():
    # a 5x6 grid, past the exhaustive scans, walked by rows (d > n)
    rng = random.Random(46)
    arr = rand_arrangement(rng, 5, 6, span=3)
    for _ in range(40):
        x = rand_point(rng, 5)
        t = type_of_point(arr, x)
        assert is_type(arr, t)
    for _ in range(40):
        s = rand_boolmatrix(rng, 5, 6)
        assert is_type(arr, s) == is_realized_type(arr, s)


def test_queries_build_no_type_tables(monkeypatch):
    # the cell test walks maximal bijections; only the search builds the
    # column constraints
    def refuse(arr):
        raise AssertionError("a cell query built the search's constraints")

    monkeypatch.setattr(complex_module, "_column_constraints", refuse)
    rng = random.Random(47)
    for arr in (_tie_heavy_arrangement(rng, 3, 8),
                _generic_arrangement(rng, 6, 4)):
        n = arr.n
        t = type_of_point(arr, [rng.randint(-2, 2) for _ in range(n)])
        assert is_type(arr, t)
        cell = cell_of(arr, t)
        shift = OrderedSetPartition.from_sets(n, [[0], list(range(1, n))])
        assert is_type(arr, act_on_type(arr, cell, shift).type)
    with pytest.raises(AssertionError):
        enumerate_types(arr)  # the patch is where the search looks


def test_is_type_past_the_scan_cap_is_a_cap_error():
    # a 9x9 with a heavy diagonal: the diagonal type's one maximal
    # bijection spans all 9 rows, past permanent.DEFAULT_SCAN_CAP
    rng = random.Random(9)
    arr = Arrangement([[200 if i == j else rng.randint(-50, 50)
                        for j in range(9)] for i in range(9)])
    diagonal = BoolMatrix.from_columns(9, [{j} for j in range(9)])
    t = type_of_point(arr, witness(arr, diagonal))
    assert t == diagonal
    for call in (lambda: is_type(arr, t), lambda: cell_of(arr, t)):
        with pytest.raises(CapExceeded, match="scan cap 8"):
            call()
    assert issubclass(CapExceeded, ValueError)
    # a query whose blocks stay within the cap is answered: with one row
    # taking every column, each maximal bijection is a single entry
    assert is_type(arr, BoolMatrix.from_columns(9, [{0}] * 9))


def test_is_type_matches_geometry_beyond_exhaustive_scan():
    # the exhaustive scans stop at n*d <= 12; here the queries are the
    # types of seeded points, their random sub-matrices and the types with
    # one extra 1, on wide, tall and square shapes, generic and tie-heavy
    rng = random.Random(49)
    answers = Counter()
    for n, d in [(3, 8), (8, 3), (4, 6), (6, 4), (5, 5), (2, 12), (12, 2),
                 (3, 7)]:
        for make, span in ((_generic_arrangement, 10**6),
                           (_tie_heavy_arrangement, 2)):
            arr = make(rng, n, d)
            for _ in range(100):
                t = type_of_point(arr, [Fraction(rng.randint(-span, span),
                                                 rng.choice((1, 2)))
                                        for _ in range(n)])
                keep = rng.getrandbits(n * d) | rng.getrandbits(n * d)
                queries = [t, BoolMatrix(n, d, t.bits & keep)]
                zeros = [b for b in range(n * d) if not t.bits >> b & 1]
                if zeros:
                    queries.append(
                        BoolMatrix(n, d, t.bits | 1 << rng.choice(zeros)))
                for s in queries:
                    got = is_type(arr, s)
                    assert got == is_realized_type(arr, s), (n, d, s)
                    answers[got] += 1
    assert answers[True] and answers[False]


def test_enumeration_soundness_and_completeness():
    rng = random.Random(48)
    for _ in range(10):
        n, d = rng.choice([(2, 3), (3, 2), (3, 3), (3, 4)])
        arr = rand_arrangement(rng, n, d)
        cells = enumerate_types(arr)
        labels = {c.type for c in cells}
        for cell in cells:
            x = realize_type(arr, cell.type)
            assert x is not None
            assert type_of_point(arr, x) == cell.type
        for _ in range(100):
            assert type_of_point(arr, rand_point(rng, n)) in labels


def test_cell_of_validates(demo):
    cell = cell_of(demo, T_EDGE)
    assert cell.dimension == 1 and cell.bounded
    with pytest.raises(ValueError):
        cell_of(demo, S_SAT_NOT_TYPE)


def _signed_count(cells) -> int:
    return sum((-1) ** c.dimension for c in cells)


def test_euler_relations_beyond_exhaustive_scan():
    # The cells are relatively open polyhedra partitioning R^n / R1, whose
    # compactly supported Euler characteristic is (-1)^(n-1); the bounded
    # ones make up the tropical polytope of the columns, which is
    # contractible (Develin and Sturmfels 2004).  Losing or inventing any
    # one cell moves the first sum by one.
    for seed, (n, d) in enumerate([(10, 3), (6, 5), (14, 2)], start=61):
        arr = _tie_heavy_arrangement(random.Random(seed), n, d)
        cells = enumerate_types(arr, cap=n * d)
        assert len(cells) > 1000
        assert _signed_count(cells) == (-1) ** (n - 1)
        assert _signed_count(c for c in cells if c.bounded) == 1


def test_local_euler_relation():
    # the closure of a cell c is the union of its faces, and its Euler
    # characteristic is 1 for a polytope and 0 for an unbounded pointed
    # polyhedron
    for seed in (71, 72):
        arr = _tie_heavy_arrangement(random.Random(seed), 5, 3)
        cells = enumerate_types(arr)
        for c in cells:
            faces = [f for f in cells if face_relation(c, f)]
            assert _signed_count(faces) == int(c.bounded)


def test_enumerated_cells_carry_their_column_masks():
    # the search hands each cell the row sets it chose; they must be the
    # cell's own columns, in column order
    rng = random.Random(81)
    for n, d in [(8, 3), (3, 8), (1, 5), (5, 1)]:
        for arr in (_generic_arrangement(rng, n, d),
                    _tie_heavy_arrangement(rng, n, d)):
            for c in enumerate_types(arr):
                assert c.type.col_masks() == _col_masks(c.type.bits, d)


def test_enumerated_cells_decorate_like_ties():
    # the search merges one column per level and decorates each leaf; that
    # must agree with _ties over all of a fresh matrix's columns, and with
    # cell_of, on shapes past the rank oracle's reach
    rng = random.Random(91)
    for n, d in [(8, 3), (6, 4), (3, 8), (1, 5), (5, 1), (12, 2)]:
        for arr in (_generic_arrangement(rng, n, d),
                    _tie_heavy_arrangement(rng, n, d)):
            for cell in enumerate_types(arr, cap=24):
                fresh = BoolMatrix(n, d, cell.type.bits)
                assert (cell.dimension, cell.bounded) == _ties(fresh)
                assert cell_of(arr, fresh) == cell


def test_dropped_constraint_entries_always_hold():
    # the search drops an attaining entry whose argmax set takes only its
    # own row r in column j: its argmax union below column j must then lie
    # inside the argmax set of the parent's own block, which the search
    # has already put into every prefix that holds the parent
    rng = random.Random(7)
    dropped = wider = kept = 0
    for n, d in [(6, 4), (8, 3), (4, 6), (3, 8), (10, 2), (5, 5)]:
        for _ in range(3):
            arr = _tie_heavy_arrangement(rng, n, d)
            for groups in _column_constraints(arr):
                for b, _, att in groups:
                    rows = cols = 0
                    for bit in range(n * d):
                        if b >> bit & 1:
                            rows |= 1 << bit // d
                            cols |= 1 << bit % d
                    parent = 0
                    for a in _argmax(arr, rows, cols):
                        parent |= a
                    for r, cl, need in att:
                        if need != r:
                            kept += 1
                            continue
                        assert cl & parent == cl, (n, d, b, r)
                        dropped += 1
                        wider += cl != b
    assert dropped and kept and wider
