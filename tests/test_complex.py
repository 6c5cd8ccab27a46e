import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from tropface import (Arrangement, BoolMatrix, CapExceeded,
                      OrderedSetPartition, PartialBijection,
                      PermanentStructure, act_matrix, act_on_type, act_subset,
                      as_point, cell_dimension, cell_of,
                      column_space_projection, combine_satisfiers,
                      contained_partial_bijections, dominates,
                      enumerate_types, face_relation, is_bounded, is_chamber,
                      is_partial_bijection, is_permanent_attaining,
                      is_realized_type, is_satisfiable, is_type,
                      optimal_bijections, partitions, permanent_structure,
                      realize_type, tropical_permanent, type_of_point,
                      witness)
import tropface.complex as complex_module
from tropface.boolmat import _col_masks, _walk
from tropface.cli import _report
from tropface.complex import TypeCell, _rule, _search, _ties
from tropface.permanent import _argmax, _masks
from tropface.render import render_svg

from demo_data import (S_SAT_NOT_TYPE, T_BND2, T_EDGE, T_UNB2, T_VERT,
                       rand_arrangement, rand_boolmatrix, rand_point)
from oracle_helpers import (comparability_defects, elimination_defects,
                            edge_pairs, set_search, tie_system_dimension,
                            tom_defects, triangulation_defects)
from test_tropical import point_query_cases


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


def test_arrangement_and_cell_reprs_are_pinned(demo):
    assert repr(demo) == "Arrangement(3x4)"
    assert repr(enumerate_types(demo)[0]) == (
        "TypeCell(type=BoolMatrix[1111|0000|0000], dimension=2, "
        "bounded=False)")


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


def _quarter_tie_arrangement(rng, n, d):
    return Arrangement([[rng.choice((0, 1, Fraction(1, 2), -2))
                         for _ in range(d)] for _ in range(n)])


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


def test_generic_vertices_triangulate_the_product_of_simplices():
    # the shapes and seeds of the closed-form test above: the vertex types
    # are C(n+d-2, n-1) spanning trees of K_{n,d}, pairwise compatible
    for n, d in [(10, 2), (12, 2), (8, 3)]:
        for seed in (1, 2):
            arr = _generic_arrangement(random.Random(seed), n, d)
            vertices = [c.type for c in enumerate_types(arr)
                        if c.dimension == 0]
            assert triangulation_defects(n, d, vertices) == []


@pytest.mark.parametrize("n, d", [(3, 4), (4, 4), (5, 4), (6, 3), (6, 4),
                                  (4, 6), (3, 8)])
@pytest.mark.parametrize("make", [_generic_arrangement,
                                  _tie_heavy_arrangement],
                         ids=["generic", "ties"])
def test_cells_satisfy_boundary_and_surrounding(make, n, d):
    # Ardila and Develin's first two tropical oriented matroid axioms, in
    # full: every all-{r} type is a cell, and the cells are closed under
    # refinement by every two-block ordered partition, which is the face
    # monoid's action (n * d <= 24, so enumeration is exhaustive)
    arr = make(random.Random(n * 100 + d), n, d)
    assert tom_defects(n, d, [c.type for c in enumerate_types(arr)]) == []


@pytest.mark.parametrize("n, d", [(3, 4), (4, 4), (5, 4), (6, 3), (6, 4),
                                  (4, 6), (3, 8)])
@pytest.mark.parametrize("make", [_generic_arrangement,
                                  _tie_heavy_arrangement],
                         ids=["generic", "ties"])
def test_cells_satisfy_comparability(make, n, d):
    # Ardila and Develin's comparability axiom on the arrangements of the
    # test above: every pair of cells up to 200 cells, and 5,000 seeded
    # pairs past that
    arr = make(random.Random(n * 100 + d), n, d)
    cells = [c.type for c in enumerate_types(arr)]
    if len(cells) <= 200:
        pairs = combinations(cells, 2)
    else:
        rng = random.Random(n * 10 + d)
        pairs = [rng.sample(cells, 2) for _ in range(5000)]
    assert comparability_defects(n, d, pairs) == []


@pytest.mark.parametrize("n, d", [(3, 4), (4, 4), (5, 4), (6, 3), (6, 4),
                                  (4, 6), (3, 8)])
@pytest.mark.parametrize("make", [_generic_arrangement,
                                  _tie_heavy_arrangement],
                         ids=["generic", "ties"])
def test_cells_satisfy_elimination(make, n, d):
    # Ardila and Develin's elimination axiom, the last of the tropical
    # oriented matroid axioms, on the arrangements of the tests above:
    # every pair of cells up to 100 cells, and past that 3,000 seeded
    # pairs and the pairs of 1-cells that are faces of one 2-cell or lie
    # one entry below one matrix, whose eliminations include the vertices
    # they share
    arr = make(random.Random(n * 100 + d), n, d)
    found = enumerate_types(arr)
    cells = [c.type for c in found]
    if len(cells) <= 100:
        pairs = combinations(cells, 2)
    else:
        rng = random.Random(n * 10 + d)
        pairs = [rng.sample(cells, 2) for _ in range(3000)]
        pairs += edge_pairs(found)
    assert elimination_defects(n, d, cells, pairs) == []


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


_ROWS = [[0, 1], [2, 0]]
_ARR = Arrangement(_ROWS)
_M = BoolMatrix(2, 2, 0b1001)
_SIGMA = PartialBijection([(0, 0)])


_NOT_INTS = {
    "column-bool": lambda: _ARR.column(True),
    "column-float": lambda: _ARR.column(1.0),
    "dominates-bool": lambda: dominates(_ARR, True, (0, 0), False),
    "dominates-float": lambda: dominates(_ARR, 0, (0, 0), 1.0),
    "entry": lambda: _M.entry(True, 0),
    "row_mask": lambda: _M.row_mask(True),
    "col_mask": lambda: _M.col_mask(True),
    "from_pairs": lambda: BoolMatrix.from_pairs(2, 2, [(True, 0)]),
    "from_columns": lambda: BoolMatrix.from_columns(2, [{0}, {1.0}]),
    "optimal_bijections-row": lambda: optimal_bijections(
        _ARR, [True, 0], [0, 1]),
    "optimal_bijections-cap": lambda: optimal_bijections(
        _ARR, [1, 0], [0, 1], cap=2.0),
    "structure-optimal": lambda: permanent_structure(_ARR).optimal(
        [True, 0], [0, 1]),
    "permanent_structure-k_max": lambda: permanent_structure(_ARR, 1.0),
    "PermanentStructure-k_max": lambda: PermanentStructure(_ARR, True),
    "partitions-cap": lambda: list(partitions(1, cap=True)),
    "enumerate_types-cap": lambda: enumerate_types(_ARR, cap=24.5),
    "tropical_permanent-cap": lambda: tropical_permanent(
        [[0, 1], [2, 0]], cap=1.5),
    "is_permanent_attaining-cap": lambda: is_permanent_attaining(
        _ARR, _SIGMA, cap=True),
    "is_permanent_attaining-empty": lambda: is_permanent_attaining(
        _ARR, PartialBijection(), cap="8"),
    "type_of_point-str": lambda: type_of_point(_ARR, "12"),
    "type_of_point-bytearray": lambda: type_of_point(_ARR, bytearray(b"12")),
    "as_point-bytes": lambda: as_point(b"12"),
    "as_point-str": lambda: as_point("12"),
    "as_point-bytearray": lambda: as_point(bytearray(b"12")),
    "as_point-memoryview": lambda: as_point(memoryview(b"12")),
    "is_type-list": lambda: is_type(_ARR, [[1, 0], [0, 1]]),
    "cell_of-list": lambda: cell_of(_ARR, [[1, 0], [0, 1]]),
    "is_satisfiable-list": lambda: is_satisfiable(_ARR, [[1, 0], [0, 1]]),
    "witness-list": lambda: witness(_ARR, [[1, 0], [0, 1]]),
    "is_realized_type-list": lambda: is_realized_type(
        _ARR, [[1, 0], [0, 1]]),
    "realize_type-list": lambda: realize_type(_ARR, [[1, 0], [0, 1]]),
    "act_matrix-list": lambda: act_matrix(
        [[1, 0], [0, 1]], OrderedSetPartition.from_sets(2, [[0, 1]])),
    "act_matrix-partition-list": lambda: act_matrix(_M, [[0, 1]]),
    "is_permanent_attaining-list": lambda: is_permanent_attaining(
        _ARR, [(0, 0)]),
    "structure-is_attaining-list": lambda: permanent_structure(
        _ARR).is_attaining([(0, 0)]),
    "act_subset-list": lambda: act_subset(1, [[0, 1]]),
    "is_chamber-list": lambda: is_chamber([[0, 1]]),
    "act_on_type-list": lambda: act_on_type(
        _ARR, [[1, 0], [0, 1]], OrderedSetPartition.identity(2)),
    "face_relation-first-list": lambda: face_relation(
        [[1]], enumerate_types(_ARR)[0]),
    "face_relation-second-list": lambda: face_relation(
        enumerate_types(_ARR)[0], [[1]]),
    "is_bounded-list": lambda: is_bounded([[1]]),
    "contained_partial_bijections-list": lambda: list(
        contained_partial_bijections([[1]])),
    "contained_partial_bijections-call": lambda:
        contained_partial_bijections([[1]]),
    "is_partial_bijection-list": lambda: is_partial_bijection([[1]]),
    # a list where an Arrangement belongs
    "is_permanent_attaining-arrangement-list": lambda: is_permanent_attaining(
        _ROWS, _SIGMA),
    "optimal_bijections-arrangement-list": lambda: optimal_bijections(
        _ROWS, [0], [0]),
    "PermanentStructure-arrangement-list": lambda: PermanentStructure(
        _ROWS, 1),
    "permanent_structure-arrangement-list": lambda: permanent_structure(
        _ROWS),
    "type_of_point-arrangement-list": lambda: type_of_point(_ROWS, (0, 0)),
    "dominates-arrangement-list": lambda: dominates(_ROWS, 0, (0, 0), 0),
    "column_space_projection-arrangement-list": lambda:
        column_space_projection(_ROWS, (0, 0)),
    "combine_satisfiers-arrangement-list": lambda: combine_satisfiers(
        _ROWS, (0, 0), (0, 0)),
    "is_type-arrangement-list": lambda: is_type(_ROWS, _M),
    "is_satisfiable-arrangement-list": lambda: is_satisfiable(_ROWS, _M),
    "act_on_type-arrangement-list": lambda: act_on_type(
        _ROWS, enumerate_types(_ARR)[0], OrderedSetPartition.identity(2)),
    "enumerate_types-arrangement-list": lambda: enumerate_types(_ROWS),
    "render_svg-arrangement-list": lambda: render_svg(_ROWS),
}


@pytest.mark.parametrize("call", _NOT_INTS.values(), ids=_NOT_INTS.keys())
def test_positions_and_caps_must_be_ints(call):
    # a bool, a float or a string is refused, not rounded or read as 0/1;
    # a string, bytes, bytearray or memoryview point is not read one
    # character or byte at a time; and a list is not taken for a matrix or
    # a bijection
    with pytest.raises(TypeError):
        call()


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


def test_act_on_type_tells_a_foreign_cell_from_a_bug(demo, monkeypatch):
    other = Arrangement([[0, 0, 0, 0], [1, 2, 3, 4], [5, 1, 0, 2]])
    ident = OrderedSetPartition.identity(3)
    foreign = [c for c in enumerate_types(demo) if not is_type(other, c.type)]
    assert foreign
    for cell in foreign:
        with pytest.raises(ValueError, match="not a cell of this arrangement"):
            act_on_type(other, cell, ident)
    # the label is checked only when the image is not a type
    cell = cell_of(demo, T_VERT)
    calls = []
    is_type_once = complex_module.is_type
    monkeypatch.setattr(complex_module, "is_type",
                        lambda arr, s: calls.append(s) or is_type_once(arr, s))
    assert act_on_type(demo, cell, ident) == cell and calls == [T_VERT]
    # a true cell carried outside the type set is a broken invariant
    monkeypatch.setattr(complex_module, "act_matrix",
                        lambda t, p: BoolMatrix(3, 4, 0))
    with pytest.raises(RuntimeError, match="indicates a bug"):
        act_on_type(demo, cell, ident)


def test_type_cell_refuses_malformed_fields():
    t = BoolMatrix(2, 2, 0b1001)
    for args, error in ((([1], "x", None), TypeError),
                        ((t.bits, 0, True), TypeError),
                        ((t, "x", True), TypeError),
                        ((t, 1.0, True), TypeError),
                        ((t, True, True), TypeError),
                        ((t, -1, True), ValueError),
                        ((t, 2, True), ValueError),
                        ((t, 0, None), TypeError),
                        ((t, 0, 1), TypeError)):
        with pytest.raises(error):
            TypeCell(*args)
    assert TypeCell(t, 1, False).dimension == 1


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
    # a 5x6 grid, past the exhaustive scans, walked column by column
    rng = random.Random(46)
    arr = rand_arrangement(rng, 5, 6, span=3)
    for _ in range(40):
        x = rand_point(rng, 5)
        t = type_of_point(arr, x)
        assert is_type(arr, t)
    for _ in range(40):
        s = rand_boolmatrix(rng, 5, 6)
        assert is_type(arr, s) == is_realized_type(arr, s)


def test_is_type_on_dense_types():
    # every block of the all-zero k x k has every bijection in its argmax
    # set, so its types are exactly the matrices whose columns all equal
    # one non-empty row set; the all-ones type has k! maximal bijections
    for k in (1, 2, 3):
        arr = Arrangement([[0] * k for _ in range(k)])
        for bits in range(1 << (k * k)):
            s = BoolMatrix(k, k, bits)
            closed = len(set(s.col_masks())) == 1 and bits != 0
            assert is_type(arr, s) == closed == is_realized_type(arr, s)
    rng = random.Random(18)
    for k in range(4, 9):
        arr = Arrangement([[0] * k for _ in range(k)])
        row_sets = [set(range(k))] + [
            set(rng.sample(range(k), rng.randint(1, k - 1))) for _ in range(2)]
        for rows in row_sets:
            t = BoolMatrix.from_columns(k, [rows] * k)
            assert is_type(arr, t), (k, rows)
            for i in range(k):  # one entry added or dropped in one column
                j = rng.randrange(k)
                flipped = BoolMatrix(k, k, t.bits ^ 1 << (i * k + j))
                assert not is_type(arr, flipped), (k, rows, i, j)


def test_queries_build_no_type_tables(monkeypatch):
    # the cell test walks the blocks inside the query; only the search
    # reads the column constraints
    def refuse(arr, key, j):
        raise AssertionError("a cell query read the search's constraints")

    monkeypatch.setattr(complex_module, "_rule", refuse)
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


# SHA-256 of repr of the (bits, dimension, bounded) list of every cell of
# enumerate_types, in its order, on seeded tie-heavy arrangements past the
# exhaustive scan (the first three are those of the Euler test above),
# recorded from the search that carried partial bijections down the prefix
# before it carried their blocks
PINNED_CELLS = {
    (61, 10, 3):
        "69090d45c94b8b519c72e0ca3aecf520b8f85011769c77f6fe2a95bfeb40bb36",
    (62, 6, 5):
        "5a0fd8158e58202a6cab8283e31038d5df9760a4c90d3af042f7c5ced523e120",
    (63, 14, 2):
        "eb1af537fd5fc993083d7cfc0eca0422fa1c75ef0676be05c6246bd3a32f3a4b",
    (64, 4, 6):
        "561de8b93f5129e55a45f99377059b699013f06d6f096ffaf908db9848ef6361",
    (65, 3, 8):
        "47b6f16aa347428ec6c40c1fea2911d7df7366fcd0f0886cc334b08683700e03",
}


@pytest.mark.parametrize("seed, n, d", sorted(PINNED_CELLS))
def test_enumeration_is_pinned_beyond_exhaustive_scan(seed, n, d):
    arr = _tie_heavy_arrangement(random.Random(seed), n, d)
    cells = [(c.type.bits, c.dimension, c.bounded)
             for c in enumerate_types(arr, cap=n * d)]
    digest = hashlib.sha256(repr(cells).encode()).hexdigest()
    assert digest == PINNED_CELLS[seed, n, d]


@pytest.mark.parametrize("kind, seed, n, d", [
    ("generic", 81, 8, 3), ("generic", 82, 3, 7)] + [
    ("tie_heavy", seed, n, d) for seed, n, d in sorted(PINNED_CELLS)])
def test_the_report_and_enumerate_types_read_one_search(kind, seed, n, d):
    # the two callers of _search: the CLI report, which reads the leaves
    # itself, and enumerate_types, which makes them into cells
    make = (_generic_arrangement if kind == "generic"
            else _tie_heavy_arrangement)
    arr = make(random.Random(seed), n, d)
    doc = json.loads(_report(arr, n * d, False))
    got = Counter((tuple(tuple(i - 1 for i in col) for col in cell["type"]),
                   cell["dimension"], cell["bounded"])
                  for cell in doc["cells"])
    want = Counter((c.type.columns(), c.dimension, c.bounded)
                   for c in enumerate_types(arr, cap=n * d))
    assert got == want


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


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _argmax_masks(arr, rows, cols) -> tuple:
    """The block's argmax set as sorted grid masks, joined from the
    memo."""
    _argmax(arr, rows, cols)
    return _masks(arr, rows, cols, {0: (0,)})


def test_dropped_constraint_entries_always_hold():
    # _rule drops an attaining growth of a block by row i in column j when
    # the grown block's argmax set takes only row i in column j: its
    # argmax union below column j must then lie inside the argmax set of
    # the block itself, which the search has already put into every
    # prefix that holds the block's bijections
    rng = random.Random(7)
    dropped = wider = kept = 0
    for n, d in [(6, 4), (8, 3), (4, 6), (3, 8), (10, 2), (5, 5)]:
        blocks = [(sum(1 << i for i in r), sum(1 << j for j in c))
                  for k in range(min(n, d))
                  for r in combinations(range(n), k)
                  for c in combinations(range(d), k)]
        for _ in range(3):
            arr = _tie_heavy_arrangement(rng, n, d)
            for rows, cols in blocks:
                parent = _union(_argmax_masks(arr, rows, cols))
                for j in range(cols.bit_length(), d):
                    forbid, att = _rule(arr, cols << n | rows, j)
                    kept += len(att)
                    taken = rows | forbid | sum(r for r, _, _ in att)
                    for i in range(n):
                        if taken >> i & 1:
                            continue
                        entry = 1 << (i * d + j)
                        masks = _argmax_masks(arr, rows | 1 << i,
                                              cols | 1 << j)
                        assert all(a & entry for a in masks), (n, d, i, j)
                        assert _union(masks) & ~entry & ~parent == 0
                        dropped += 1
                        wider += len(masks) > 1
    assert dropped and kept and wider


@settings(max_examples=300, derandomize=True, deadline=None)
@given(point_query_cases())
def test_is_type_matches_geometry_on_degenerate_arrangements(case):
    # on the degenerate arrangements of the point-query test, the type of
    # a point and each type one entry away from it: the combinatorial
    # test agrees with the strict solve, a realized type comes back from
    # its point, and a witness's type contains its query; and the point's
    # type moved by the drawn partition is a type by both tests
    arr, x, _, part = case
    t = type_of_point(arr, x)
    moved = act_matrix(t, part)
    assert is_type(arr, moved) and is_realized_type(arr, moved), (arr, t)
    for flip in range(-1, arr.n * arr.d):
        s = t if flip < 0 else BoolMatrix(arr.n, arr.d, t.bits ^ 1 << flip)
        realized = is_realized_type(arr, s)
        assert is_type(arr, s) == realized, (arr, s)
        assert realized or flip >= 0
        point = realize_type(arr, s)
        assert (point is not None) == realized
        if realized:
            assert type_of_point(arr, point) == s
        w = witness(arr, s)
        assert (w is not None) == is_satisfiable(arr, s)
        if w is not None:
            assert s <= type_of_point(arr, w)


@pytest.mark.parametrize("n, d, count", [
    (1, 6, 3), (1, 24, 1), (6, 1, 3), (12, 1, 1), (2, 12, 1), (12, 2, 1),
    (3, 8, 1), (8, 3, 1), (4, 6, 1), (6, 4, 6), (5, 4, 6), (5, 5, 6),
    (3, 3, 3), (10, 2, 1), (2, 7, 1), (2, 40, 1), (4, 10, 1)])
def test_search_matches_the_set_based_search(n, d, count):
    # the bit-set search against the search that carries its blocks as a
    # Python set: the same leaves in the same order, on count arrangements
    # of each kind.  6 x 4, 5 x 4 and 5 x 5 grow blocks of two columns,
    # whose bits sit after those of one column, and a block they miss
    # shows in few arrangements; 5 x 5, 2 x 40 and 4 x 10 run with the
    # cap raised to n * d
    rng = random.Random(1000 * n + d)
    for make in (_generic_arrangement, _tie_heavy_arrangement,
                 _quarter_tie_arrangement):
        for _ in range(count):
            arr = make(rng, n, d)
            assert _search(arr, n * d) == set_search(arr), (make, arr.entries)


def _row_tuple(c):
    return tuple(i + 1 for i in range(c.bit_length()) if c >> i & 1)


def test_walk_orders_row_sets_by_their_row_tuples():
    # the order the enumerate report lists each column in, a proper
    # prefix first, for every set of rows
    for n in range(9):
        for rows in range(1 << n):
            subsets = [c for c in range(1, 1 << n) if not c & ~rows]
            assert list(_walk(rows)) == sorted(subsets, key=_row_tuple)


def test_search_emits_leaves_by_their_row_tuples():
    # the report joins each dimension's cells in search order, so the
    # leaves must come by their columns' 1-based row tuples
    rng = random.Random(36)
    for n, d in [(1, 5), (5, 1), (3, 3), (8, 3), (6, 4), (3, 8), (12, 2),
                 (2, 12)]:
        for make in (_generic_arrangement, _tie_heavy_arrangement,
                     _quarter_tie_arrangement):
            keys = [tuple(map(_row_tuple, cols))
                    for _, cols, _, _ in _search(make(rng, n, d), n * d)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (n, d, make)


def test_the_search_reads_every_rule_once(monkeypatch):
    # every unfull block on the first d - 1 columns lies inside some
    # prefix the search reaches, so the table of rules it reads is the
    # whole table: one read per (block, column right of its columns),
    # which is a closed form in n and d
    reads = Counter()

    def recorded(arr, key, j):
        reads[key, j] += 1
        return _rule(arr, key, j)

    monkeypatch.setattr(complex_module, "_rule", recorded)
    rng = random.Random(34)
    for n, d in [(1, 5), (5, 1), (3, 3), (8, 3), (6, 4), (3, 8), (5, 5),
                 (12, 2), (2, 40)]:
        want = sum(comb(n, k) * sum(comb(c, k - 1) * (d - 1 - c)
                                    for c in range(k - 1, d - 1))
                   for k in range(1, min(n, d)))
        for make in (_generic_arrangement, _tie_heavy_arrangement,
                     _quarter_tie_arrangement):
            reads.clear()
            _search(make(rng, n, d), n * d)
            assert set(reads.values()) <= {1}, (n, d, make)
            assert len(reads) == want, (n, d, make)
            for key, j in reads:
                rows, cols = key & (1 << n) - 1, key >> n
                assert rows.bit_count() == cols.bit_count() < n
                assert cols.bit_length() <= j < d


@pytest.mark.parametrize("make, n, d", [(_generic_arrangement, 9, 9),
                                        (_tie_heavy_arrangement, 9, 9),
                                        (_generic_arrangement, 9, 12)])
def test_enumeration_past_the_scan_cap_solves_no_block(make, n, d):
    # with the enumeration cap raised, a 9-row block is past the scan cap;
    # the search reads the largest blocks' rules first, so it is refused
    # before any block is solved
    arr = make(random.Random(9), n, d)
    with pytest.raises(CapExceeded, match="scan cap 8"):
        enumerate_types(arr, cap=n * d)
    assert arr._memo == {}


@pytest.mark.parametrize("n, d, kb", [(1, 24, 256), (2, 12, 256),
                                      (2, 40, 1024)])
def test_wide_searches_hold_small_bit_sets(n, d, kb):
    # one bit per key cols << n | rows would take 2^(n+d) bits: 2 MB at
    # 1 x 24, and 2^42 bits at 2 x 40 with the cap raised, where the
    # search's dense numbering takes 156 bits; bounded by traced memory,
    # not time
    rng = random.Random(24)
    for make in (_generic_arrangement, _tie_heavy_arrangement):
        arr = make(rng, n, d)
        tracemalloc.start()
        try:
            _search(arr, n * d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kb * 1024, peak
