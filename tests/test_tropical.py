import hashlib
import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropface import (Arrangement, BoolMatrix, OrderedSetPartition,
                      act_matrix, act_subset, as_point,
                      column_space_projection, combine_satisfiers, dominates,
                      is_realized_type, is_satisfiable, project_to_plane,
                      realize_type, residuation, tropical_permanent,
                      type_of_point, witness)
from tropface.boolmat import _col_masks
from tropface.complex import DEFAULT_ENUM_CAP, _search
from tropface.tropical import _bellman, _decider, _solve

from demo_data import (S_SAT_NOT_TYPE, S_UNSAT, T_VERT, rand_arrangement,
                       rand_boolmatrix, rand_point, rand_scalar)
from oracle_helpers import (ref_column_space_projection,
                            ref_combine_satisfiers, ref_dominates,
                            ref_type_of_point)

F = Fraction


def test_arrangement_rejects_floats_and_bad_shapes():
    with pytest.raises(TypeError):
        Arrangement([[0.5]])
    with pytest.raises(TypeError):
        Arrangement([[True, 0]])
    # a Decimal is refused as a float is, before Fraction reads it: an
    # infinite one raised OverflowError, a huge one built its integer
    start = time.perf_counter()
    for v in (Decimal("1.5"), Decimal("Infinity"), Decimal("1e4000000")):
        with pytest.raises(TypeError, match="Decimal is not an exact"):
            as_point([v])
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        Arrangement([])
    with pytest.raises(ValueError):
        Arrangement([[1, 2], [3]])
    # a string row is not read character by character
    for rows in (["12"], ["1", "2"], [b"12"], "12", [bytearray(b"12")],
                 [memoryview(b"12")]):
        with pytest.raises(TypeError):
            Arrangement(rows)
    with pytest.raises(ValueError, match="at least one coordinate"):
        residuation([], [])
    arr = Arrangement([["1/2", 3], [-1, "7/3"]])
    assert arr.column(1) == (F(3), F(7, 3))


@pytest.mark.parametrize("j", [2, -1], ids=["past-d", "negative"])
def test_arrangement_column_out_of_range(j):
    with pytest.raises(IndexError, match=f"column {j} out of range"):
        Arrangement([[0, 1], [1, 0]]).column(j)


_A = Arrangement([[0, 1], [1, 0]])


@pytest.mark.parametrize("call, error, match", [
    (lambda: Arrangement([[]]), ValueError, "dimensions"),
    (lambda: _A.column(True), TypeError, None),
    (lambda: dominates(_A, True, (0, 0), 0), TypeError, None),
    (lambda: dominates(_A, 0, (0, 0), True), TypeError, None),
    (lambda: dominates(_A, -1, (0, 0), 0), IndexError, "out of range"),
    (lambda: dominates(_A, 0, (0, 0), -1), IndexError, "out of range"),
    # the point is checked before the indices
    (lambda: dominates(_A, 5, (0, 0, 0), 5), ValueError, "coordinates"),
], ids=["arrangement-empty-row", "column-bool", "dominates-bool-column",
        "dominates-bool-row", "dominates-negative-column",
        "dominates-negative-row", "dominates-point-first"])
def test_tropical_edge_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_library_scalars_follow_one_rule():
    # the CLI's rule: an integer, p/q or a decimal, in ASCII digits
    start = time.perf_counter()
    for call in (lambda: Arrangement([["1e3"]]),
                 lambda: as_point(["1_0"]),
                 lambda: tropical_permanent([["1e2"]]),
                 lambda: Arrangement([["1e999999999"]])):
        with pytest.raises(ValueError):
            call()
    assert time.perf_counter() - start < 5
    arr = Arrangement([["1/2", " -7/3 "], ["0.25", 4]])
    assert arr.entries == ((F(1, 2), F(-7, 3)), (F(1, 4), F(4)))
    assert as_point(["7/3", F(1, 5), -2]) == (F(7, 3), F(1, 5), F(-2))


def test_scalar_digit_runs_meet_the_int_digit_limit_one_at_a_time():
    # a decimal's whole and fractional digits are read as two ints, as
    # Fraction reads them: 4,301 digits in all pass, one run of 5,000 not
    assert as_point(["1." + "0" * 4300]) == (F(1),)
    with pytest.raises(ValueError):
        as_point(["1" * 5000])


def test_fractions_are_taken_as_they_are():
    q = F(10**12 + 39, 2**61 - 1)
    assert as_point([q])[0] is q

    class Sub(F):
        pass

    v = as_point([Sub(3, 4)])[0]
    assert type(v) is F and v == F(3, 4)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError):
        Arrangement([["1/0"]])
    arr = Arrangement([[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        type_of_point(arr, ["0", "1/0"])


def test_residuation_examples():
    x = (F(2), F(-1), F(5))
    assert residuation(x, x) == 0
    c = F(7, 2)
    assert residuation(x, tuple(v + c for v in x)) == c
    assert residuation((0, 0, 0), (3, 1, 2)) == 1
    with pytest.raises(ValueError):
        residuation((0, 0), (0, 0, 0))


def test_residuation_adjunction():
    rng = random.Random(2)
    for _ in range(200):
        x = rand_point(rng, 3)
        y = rand_point(rng, 3)
        r = residuation(x, y)
        assert all(r + xk <= yk for xk, yk in zip(x, y))
        eps = F(1, 7)
        assert not all(r + eps + xk <= yk for xk, yk in zip(x, y))


def test_dominates_examples(demo):
    # the apex of a column lies in every sector of its own hyperplane
    for j in range(4):
        apex = demo.column(j)
        for i in range(3):
            assert dominates(demo, j, apex, i)
    origin = (0, 0, 0)
    assert [dominates(demo, 0, origin, i) for i in range(3)] == \
        [False, True, False]
    with pytest.raises(IndexError):
        dominates(demo, 4, origin, 0)
    with pytest.raises(IndexError):
        dominates(demo, 0, origin, 3)


def test_dominates_scale_invariance(demo):
    rng = random.Random(4)
    for _ in range(100):
        y = rand_point(rng, 3)
        c = rand_scalar(rng)
        shifted = tuple(v + c for v in y)
        for j in range(4):
            for i in range(3):
                assert dominates(demo, j, y, i) == dominates(demo, j, shifted, i)


def test_type_of_point_fixtures(demo):
    assert type_of_point(demo, (0, 0, 0)) == T_VERT
    far = type_of_point(demo, (-100, 0, 0))
    assert far.columns() == ((0,), (0,), (0,), (0,))
    for j in range(4):
        t = type_of_point(demo, demo.column(j))
        assert t.col_mask(j) == 0b111
    with pytest.raises(ValueError):
        type_of_point(demo, (0, 0))


def test_type_scale_invariance(demo):
    rng = random.Random(6)
    for _ in range(100):
        x = rand_point(rng, 3)
        c = rand_scalar(rng)
        assert type_of_point(demo, x) == \
            type_of_point(demo, tuple(v + c for v in x))


def test_types_have_nonempty_columns_random():
    rng = random.Random(8)
    for _ in range(50):
        arr = rand_arrangement(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = rand_point(rng, arr.n)
        t = type_of_point(arr, x)
        assert all(t.col_mask(j) for j in range(arr.d))


def test_is_satisfiable_fixtures(demo):
    assert is_satisfiable(demo, BoolMatrix.zero(3, 4))
    assert not is_satisfiable(demo, S_UNSAT)
    assert is_satisfiable(demo, S_SAT_NOT_TYPE)
    with pytest.raises(ValueError):
        is_satisfiable(demo, BoolMatrix.zero(4, 3))


def test_witness_fixtures(demo):
    assert witness(demo, BoolMatrix.zero(3, 4)) is not None
    assert witness(demo, S_UNSAT) is None
    w = witness(demo, T_VERT)
    # the vertex pins all three coordinates together
    assert w[0] == w[1] == w[2]
    assert type_of_point(demo, w) == T_VERT


def test_witness_soundness_random():
    rng = random.Random(10)
    cases = []  # (arrangement, matrix, known to be satisfiable)
    for _ in range(150):
        arr = rand_arrangement(rng, rng.randint(2, 4), rng.randint(1, 4))
        cases.append((arr, rand_boolmatrix(rng, arr.n, arr.d), False))
    # {-1, 0, 1} entries, one-row and one-column shapes, and parts of
    # types that leave columns empty and rows in no column
    for k in range(300):
        n, d = ((1, rng.randint(1, 5)), (rng.randint(2, 5), 1),
                (rng.randint(2, 4), rng.randint(2, 4)))[k % 3]
        if k % 2:
            arr = Arrangement(
                [[rng.choice((-1, 0, 1)) for _ in range(d)] for _ in range(n)])
            x = [rng.randint(-1, 1) for _ in range(n)]
        else:
            arr, x = rand_arrangement(rng, n, d), rand_point(rng, n)
        cases.append((arr, rand_boolmatrix(rng, n, d), False))
        rows, cols = rng.randrange(1 << n), rng.randrange(1 << d)
        keep = sum(1 << (i * d + j) for i in range(n) for j in range(d)
                   if rows >> i & cols >> j & 1)
        t = type_of_point(arr, x).bits
        for bits in (t & keep, t & rng.randrange(1 << (n * d))):
            cases.append((arr, BoolMatrix(n, d, bits), True))
    for arr, s, known in cases:
        w = witness(arr, s)
        assert (w is None) == (not is_satisfiable(arr, s))
        assert w is not None or not known
        if w is not None:
            assert s <= type_of_point(arr, w)


def test_satisfiability_downward_closed():
    rng = random.Random(12)
    for _ in range(150):
        arr = rand_arrangement(rng, 3, 3)
        t = rand_boolmatrix(rng, 3, 3)
        # drop random entries of t to get s <= t
        s = BoolMatrix(3, 3, t.bits & rng.randrange(1 << 9))
        if is_satisfiable(arr, t):
            assert is_satisfiable(arr, s)


def test_row_splitting_equivalence():
    # satisfiable iff every sub-matrix with at most one 1 per row is
    rng = random.Random(14)
    for _ in range(60):
        arr = rand_arrangement(rng, 3, 3)
        s = rand_boolmatrix(rng, 3, 3)
        rows = [s.row_mask(i) for i in range(3)]
        choices = []
        for m in rows:
            opts = [0] + [1 << b for b in range(3) if (m >> b) & 1]
            choices.append(opts)
        all_single_rows_sat = True
        for r0 in choices[0]:
            for r1 in choices[1]:
                for r2 in choices[2]:
                    a = BoolMatrix.from_rows([
                        [(r0 >> b) & 1 for b in range(3)],
                        [(r1 >> b) & 1 for b in range(3)],
                        [(r2 >> b) & 1 for b in range(3)]])
                    if not is_satisfiable(arr, a):
                        all_single_rows_sat = False
        assert is_satisfiable(arr, s) == all_single_rows_sat


def test_is_realized_type_fixtures(demo):
    assert is_realized_type(demo, T_VERT)
    assert not is_realized_type(demo, S_SAT_NOT_TYPE)
    empty_col = BoolMatrix.from_columns(3, [set(), {0}, {0}, {0}])
    assert not is_realized_type(demo, empty_col)
    rng = random.Random(16)
    for _ in range(50):
        x = rand_point(rng, 3)
        assert is_realized_type(demo, type_of_point(demo, x))


def test_realized_implies_satisfiable():
    rng = random.Random(18)
    for _ in range(80):
        arr = rand_arrangement(rng, 3, 2)
        t = rand_boolmatrix(rng, 3, 2)
        if is_realized_type(arr, t):
            assert is_satisfiable(arr, t)


def test_realize_type_round_trip():
    rng = random.Random(20)
    for _ in range(80):
        arr = rand_arrangement(rng, rng.randint(2, 3), rng.randint(1, 3))
        t = rand_boolmatrix(rng, arr.n, arr.d)
        x = realize_type(arr, t)
        assert (x is None) == (not is_realized_type(arr, t))
        if x is not None:
            assert type_of_point(arr, x) == t


# the number of realized types and a SHA-256 of realize_type over every
# matrix of the arrangements below; the points are Bellman-Ford
# potentials, so a change to the contraction, the strict edges or the
# scaling moves them
REALIZE_PIN = (
    1042, "d781547a1a4e06560e5f6b5610b3821b66aa06a6d0b9df70fed5ff152c73ae2c")


def test_realize_type_outputs_are_pinned():
    h = hashlib.sha256()
    rng = random.Random(606)
    vals = (-1, 0, 1, F(1, 2), F(-2, 3))  # tie-heavy, two denominators
    realized = 0
    for n, d in ((3, 4), (4, 3), (2, 6), (6, 2), (3, 3), (1, 5), (5, 1)):
        for _ in range(2):
            arr = Arrangement(
                [[rng.choice(vals) for _ in range(d)] for _ in range(n)])
            for bits in range(1 << (n * d)):
                x = realize_type(arr, BoolMatrix(n, d, bits))
                h.update(repr(x).encode() + b"\n")
                realized += x is not None
    assert (realized, h.hexdigest()) == REALIZE_PIN


# the number of satisfiable matrices and a SHA-256 of witness over every
# matrix of the same arrangements; the weak system skips empty columns and
# places the rows in no column, so a change there moves these points
WITNESS_PIN = (
    3792, "1dd5bbe009763d60b73b6985a87740e515f33db1c9e23cedc0b182cfa64e6321")


def test_witness_outputs_are_pinned():
    h = hashlib.sha256()
    rng = random.Random(606)
    vals = (-1, 0, 1, F(1, 2), F(-2, 3))  # tie-heavy, two denominators
    satisfiable = 0
    for n, d in ((3, 4), (4, 3), (2, 6), (6, 2), (3, 3), (1, 5), (5, 1)):
        for _ in range(2):
            arr = Arrangement(
                [[rng.choice(vals) for _ in range(d)] for _ in range(n)])
            for bits in range(1 << (n * d)):
                x = witness(arr, BoolMatrix(n, d, bits))
                h.update(repr(x).encode() + b"\n")
                satisfiable += x is not None
    assert (satisfiable, h.hexdigest()) == WITNESS_PIN


def test_bellman_needs_num_nodes_passes():
    # an edge (u, v, w) lowers v to u's potential plus w; every node starts
    # at 0, the virtual source's edge
    for n in range(2, 8):
        # the chain 0 -> 1 -> ... -> n-1 of weight -1 per edge, listed
        # against the path order: pass k lowers only the nodes past k - 1,
        # so node n - 1 reaches -(n - 1) in pass n - 1, and pass n is the
        # first to change nothing
        chain = [(v - 1, v, -1) for v in range(n - 1, 0, -1)]
        assert _bellman(n, chain) == [-v for v in range(n)]
        # closing the chain with n - 1 -> 0 of weight -1: a negative cycle
        # through every node
        assert _bellman(n, chain + [(n - 1, 0, -1)]) is None
        # closing it with weight n - 1: a zero-weight cycle, which is
        # feasible, its potentials meeting every edge
        cycle = chain + [(n - 1, 0, n - 1)]
        dist = _bellman(n, cycle)
        assert dist is not None
        assert all(dist[v] <= dist[u] + w for u, v, w in cycle)


def test_bellman_takes_parallel_edges():
    # the decider hands _bellman every chunk's edges, so a pair of nodes
    # may carry several; only the lightest of them can bind
    for n in range(2, 8):
        # the -1 chain of the test above, each edge listed after a heavier
        # copy of itself
        chain = []
        for v in range(n - 1, 0, -1):
            chain += [(v - 1, v, 1), (v - 1, v, -1)]
        assert _bellman(n, chain) == [-v for v in range(n)]
        # a negative cycle through the lightest copies
        assert _bellman(n, chain + [(n - 1, 0, n), (n - 1, 0, -1)]) is None


def _shortest_paths(n, edges) -> list:
    """Floyd-Warshall over ``edges``: the n x n shortest path weights, inf
    where no path leads, and a negative diagonal entry on a node of a
    negative cycle."""
    sp = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v, w in edges:
        sp[u][v] = min(sp[u][v], w)
    for k in range(n):
        for u in range(n):
            for v in range(n):
                sp[u][v] = min(sp[u][v], sp[u][k] + sp[k][v])
    return sp


def test_bellman_starts():
    # random graphs of 1 to 6 nodes, with and without negative cycles:
    # from zeros, the virtual source's edges, it finds a negative cycle
    # exactly when Floyd-Warshall does
    rng = random.Random(38)
    cyclic = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randint(-3, 6))
                 for _ in range(rng.randint(0, 3 * n))]
        edges = [(u, v, w) for u, v, w in edges if u != v]
        sp = _shortest_paths(n, edges)
        negative = any(sp[v][v] < 0 for v in range(n))
        cyclic += negative
        assert (_bellman(n, edges) is None) is negative
    assert 50 < cyclic < 550


def _decider_agrees(arr, matrices) -> int:
    """Decide every packed matrix of ``matrices`` with one decider and with
    ``_solve``'s strict system, assert they agree, and count the types."""
    decide = _decider(arr)
    types = 0
    for bits in matrices:
        cols = BoolMatrix(arr.n, arr.d, bits).col_masks()
        got = decide(bits, cols)
        assert got is (_solve(arr, cols, 1) is not None), (arr.entries, bits)
        types += got
    return types


def test_decider_matches_the_strict_solve():
    # every matrix of the arrangements of REALIZE_PIN, wide and tall
    # alike: 2x6 and 6x2, 3x4 and 4x3, 1x5 and 5x1
    rng = random.Random(606)
    vals = (-1, 0, 1, F(1, 2), F(-2, 3))
    types = 0
    for n, d in ((3, 4), (4, 3), (2, 6), (6, 2), (3, 3), (1, 5), (5, 1)):
        for _ in range(2):
            arr = Arrangement(
                [[rng.choice(vals) for _ in range(d)] for _ in range(n)])
            types += _decider_agrees(arr, range(1 << (n * d)))
    assert types == REALIZE_PIN[0]
    # tie-heavy 5x5 and 4x6, more than one chunk of lines each: the types
    # of seeded points, each with one entry flipped, and random matrices
    rng = random.Random(32)
    for n, d in ((5, 5), (4, 6)):
        for _ in range(4):
            arr = Arrangement(
                [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n)])
            matrices = []
            for _ in range(40):
                bits = type_of_point(
                    arr, [rng.randint(-2, 2) for _ in range(n)]).bits
                matrices += [bits, bits ^ 1 << rng.randrange(n * d),
                             rng.getrandbits(n * d)]
            assert _decider_agrees(arr, matrices) >= 40


def _point_types(rng, arr, count, span) -> list:
    """The types of ``count`` seeded points with coordinates in
    [-span, span], each followed by a copy with one entry flipped and by
    a random matrix."""
    n, d = arr.n, arr.d
    matrices = []
    for _ in range(count):
        bits = type_of_point(
            arr, [rng.randint(-span, span) for _ in range(n)]).bits
        matrices += [bits, bits ^ 1 << rng.randrange(n * d),
                     rng.getrandbits(n * d)]
    return matrices


def test_decider_matches_the_strict_solve_on_the_benchmark_shapes():
    # the tall shapes of enumerate_tall and two wide ones; generic entries
    # as the benchmark draws them, and tie-heavy ones in {-1, 0, 1}
    rng = random.Random(35)

    def generic():
        return F(rng.randint(-50, 50), rng.choice((1, 2, 3)))

    for n, d in ((6, 4), (7, 3), (8, 3), (3, 8), (2, 12)):
        for entry in (generic, lambda: rng.randint(-1, 1)):
            arr = Arrangement([[entry() for _ in range(d)] for _ in range(n)])
            assert _decider_agrees(arr, _point_types(rng, arr, 30, 60)) >= 30
    # every cell the search finds on a generic 8x3 is a type
    arr = Arrangement([[generic() for _ in range(3)] for _ in range(8)])
    decide = _decider(arr)
    leaves = _search(arr, DEFAULT_ENUM_CAP)
    assert len(leaves) > 1000
    assert all(decide(bits, cols) for bits, cols, _, _ in leaves)
    # 8x3 is cut into two chunks of four rows; rows far below the others
    # lie in no column at the points drawn, so their chunk has no edges
    for low in (range(4), range(4, 8)):
        arr = Arrangement([[rng.randint(-1, 1) - 100 * (i in low)
                            for _ in range(3)] for i in range(8)])
        matrices = _point_types(rng, arr, 30, 2)
        assert all(BoolMatrix(8, 3, bits).row_mask(i) == 0
                   for bits in matrices[::3] for i in low)
        assert _decider_agrees(arr, matrices) >= 30


def test_decider_matches_the_strict_solve_on_wide_shapes():
    # 1x24, the widest shape under the default cap, and 2x40 past it: 24
    # and 40 column potentials, each row its own chunk; generic and
    # tie-heavy entries, and every cell the search finds
    rng = random.Random(37)

    def generic():
        return F(rng.randint(-50, 50), rng.choice((1, 2, 3)))

    for n, d in ((1, 24), (2, 40)):
        for entry in (generic, lambda: rng.randint(-1, 1)):
            arr = Arrangement([[entry() for _ in range(d)] for _ in range(n)])
            assert _decider_agrees(arr, _point_types(rng, arr, 30, 60)) >= 30
            decide = _decider(arr)
            leaves = _search(arr, n * d)
            assert all(decide(bits, cols) for bits, cols, _, _ in leaves)


def test_decider_matches_the_strict_solve_exhaustively():
    # every matrix of every shape of up to 16 entries with at most 4
    # columns, so top halves of 1 to 4 rows and bottom halves of 0 to 4;
    # generic entries and {-1, 0, 1}
    rng = random.Random(38)

    def generic():
        return F(rng.randint(-50, 50), rng.choice((1, 2, 3)))

    types = 0
    for d in range(1, 5):
        for n in range(1, min(8, 16 // d) + 1):
            for entry in (generic, lambda: rng.randint(-1, 1)):
                arr = Arrangement(
                    [[entry() for _ in range(d)] for _ in range(n)])
                types += _decider_agrees(arr, range(1 << (n * d)))
    assert types > 5000


def _half_closure(arr, bits, half) -> list:
    """The shortest paths between the column potentials of one half's
    strict bounds, rows ``half`` of the type ``bits``, by
    ``_shortest_paths``, or None on a negative cycle; the bounds as
    ``_decider`` poses them, scaled by K = d + 1."""
    d, big = arr.d, arr.d + 1
    edges = []
    for k in half:
        e = [col[k] for col in arr._icols]
        s = [j for j in range(d) if bits >> (k * d + j) & 1]
        for b in range(d):
            if s and b != s[0]:
                x = (e[s[0]] - e[b]) * big
                edges.append((s[0], b, x - (b not in s)))
                if b in s:
                    edges.append((b, s[0], -x))
    sp = _shortest_paths(d, edges)
    return None if any(sp[a][a] < 0 for a in range(d)) else sp


def test_decider_refuses_glued_halves():
    # the top rows of one point's type over the bottom rows of another's:
    # each half is feasible alone, as part of a type, but often not both
    # together, the case that the halves' closures decide
    rng = random.Random(3838)
    glued = refused = 0
    for n, d in ((5, 4), (6, 4), (7, 4), (8, 4), (8, 3)):
        low = (1 << (n + 1) // 2 * d) - 1
        for entry in (lambda: F(rng.randint(-50, 50), rng.choice((1, 2, 3))),
                      lambda: rng.randint(-1, 1)):
            for _ in range(3):
                arr = Arrangement(
                    [[entry() for _ in range(d)] for _ in range(n)])
                matrices = []
                for _ in range(120):
                    x, y = ([rng.randint(-60, 60) for _ in range(n)]
                            for _ in range(2))
                    matrices.append(type_of_point(arr, x).bits & low
                                    | type_of_point(arr, y).bits & ~low)
                glued += len(matrices)
                refused += len(matrices) - _decider_agrees(arr, matrices)
    assert 0.2 * glued < refused < 0.8 * glued
    # a 5x4 type whose halves, rows 1-3 and 4-5, meet every 2-cycle
    # bound: only the 4-cycle through all four potentials refuses it
    arr = Arrangement([[9, -4, F(11, 3), 17], [-17, F(16, 3), 9, -5],
                       [-1, F(-19, 3), -2, 2], [-10, -1, 15, 2],
                       [F(2, 3), 17, 4, 5]])
    t = BoolMatrix.from_columns(5, [[0], [1, 4], [1, 3], [0, 3]])
    assert _decider_agrees(arr, [t.bits]) == 0
    top, bottom = (_half_closure(arr, t.bits, half)
                   for half in (range(3), range(3, 5)))
    assert all(top[a][b] + bottom[b][a] >= 0
               for a in range(4) for b in range(4))
    assert min(top[v0][v1] + bottom[v1][v2] + top[v2][v3] + bottom[v3][v0]
               for v0, v1, v2, v3 in itertools.permutations(range(4))) < 0


def test_combine_satisfiers_collapses_on_equal_points(demo):
    rng = random.Random(22)
    for _ in range(50):
        x = rand_point(rng, 3)
        u = combine_satisfiers(demo, x, x)
        tx, tu = type_of_point(demo, x), type_of_point(demo, u)
        assert tx <= tu
        assert all(uv <= xv for uv, xv in zip(u, x))
        for i in range(3):
            for j in range(4):
                if tx.entry(i, j):
                    assert u[i] == x[i]
                    break


def test_combine_satisfiers_worked_example(demo):
    sx = BoolMatrix.from_columns(3, [{1}, {0}, {0}, {0, 2}])
    sy = BoolMatrix.from_columns(3, [{1}, {0, 1}, {0}, {0}])
    x, y = witness(demo, sx), witness(demo, sy)
    meet = BoolMatrix(3, 4, sx.bits & sy.bits)
    u = combine_satisfiers(demo, x, y)
    assert meet <= type_of_point(demo, u)


def test_combine_satisfiers_shared_dominations_random():
    rng = random.Random(24)
    for _ in range(100):
        arr = rand_arrangement(rng, 3, 3)
        x, y = rand_point(rng, 3), rand_point(rng, 3)
        u = combine_satisfiers(arr, x, y)
        assert all(uv <= xv for uv, xv in zip(u, x))
        assert all(uv <= yv for uv, yv in zip(u, y))
        shared = BoolMatrix(3, 3,
                            type_of_point(arr, x).bits
                            & type_of_point(arr, y).bits)
        assert shared <= type_of_point(arr, u)


def test_column_space_projection(demo):
    for j in range(4):
        col = demo.column(j)
        assert column_space_projection(demo, col) == col
    # a max-plus combination of columns is fixed
    combo = tuple(max(demo.entries[i][0] + 2, demo.entries[i][2] - 1)
                  for i in range(3))
    assert column_space_projection(demo, combo) == combo
    y = (F(-100), F(0), F(0))
    ystar = column_space_projection(demo, y)
    assert ystar != y
    assert all(a <= b for a, b in zip(ystar, y))
    assert column_space_projection(demo, ystar) == ystar


def test_project_to_plane():
    assert project_to_plane((0, 0, 0)) == (0, 0)
    assert project_to_plane((3, 1, 2)) == (1, -1)
    rng = random.Random(26)
    for _ in range(50):
        x = rand_point(rng, 4)
        c = rand_scalar(rng)
        assert project_to_plane(x) == \
            project_to_plane(tuple(v + c for v in x))
    with pytest.raises(ValueError):
        project_to_plane((1,))


def test_single_row_arrangement_degenerate_case():
    arr = Arrangement([[0, 5, -3]])
    x = (F(7),)
    assert type_of_point(arr, x).columns() == ((0,), (0,), (0,))
    for bits in range(8):
        s = BoolMatrix(1, 3, bits)
        assert is_satisfiable(arr, s)
        assert is_realized_type(arr, s) == all(
            s.col_mask(j) for j in range(3))


# Denominators for the point-query comparison: small ones for ties, and
# two large coprime primes, so that the point and the matrix rarely share
# a common denominator.
BIG_DENOMS = (1, 2, 4, 3, 10**12 + 39, 2**61 - 1)


def _mixed(draw, q):
    """q as an int, a p/q or decimal string, or a Fraction."""
    form = draw(st.sampled_from(("int", "str", "frac", "frac")))
    if form == "int" and q.denominator == 1:
        return int(q)
    if form == "str":
        if q.denominator in (2, 4):
            whole, rest = divmod(abs(q), 1)
            return ("-" if q < 0 else "") + f"{whole}.{int(rest * 100):02d}"
        return str(q)
    return q


@st.composite
def point_query_cases(draw):
    """A degenerate arrangement (1xd or nx1 shapes, repeated columns, equal
    rows, large coprime denominators), two points with mixed coordinate
    types that often sit on an apex, and an ordered set partition."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    scalar = st.builds(F, st.integers(-6, 6), st.sampled_from(BIG_DENOMS))
    rows = [[draw(scalar) for _ in range(d)] for _ in range(n)]
    if d > 1 and draw(st.booleans()):  # a repeated column
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        for row in rows:
            row[b] = row[a]
    if n > 1 and draw(st.booleans()):  # two equal rows
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[b] = list(rows[a])
    arr = Arrangement(rows)

    def point():
        if draw(st.booleans()):  # an apex, shifted: every row ties there
            c, j = draw(scalar), draw(st.integers(0, d - 1))
            x = [arr.entries[i][j] + c for i in range(n)]
            if draw(st.booleans()):  # break one tie
                x[draw(st.integers(0, n - 1))] += draw(scalar)
        else:
            x = [draw(scalar) for _ in range(n)]
        return [_mixed(draw, q) for q in x]

    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    blocks, cur = [], [order[0]]
    for e, cut in zip(order[1:], cuts):
        if cut:
            blocks.append(cur)
            cur = []
        cur.append(e)
    part = OrderedSetPartition.from_sets(n, blocks + [cur])
    return arr, point(), point(), part


@settings(max_examples=400, derandomize=True, deadline=None)
@given(point_query_cases())
def test_integer_point_queries_match_fraction_reference(case):
    arr, x, y, part = case
    t = type_of_point(arr, x)
    assert t == ref_type_of_point(arr, x)
    assert t.col_masks() == _col_masks(t.bits, t.d)
    for j in range(arr.d):
        for i in range(arr.n):
            assert dominates(arr, j, x, i) == ref_dominates(arr, j, x, i)
    for got, want in ((combine_satisfiers(arr, x, y),
                       ref_combine_satisfiers(arr, x, y)),
                      (column_space_projection(arr, y),
                       ref_column_space_projection(arr, y))):
        assert got == want
        assert all(type(v) is F for v in got)
    moved = act_matrix(t, part)
    assert moved == BoolMatrix.from_columns(
        arr.n, ([i for i in range(arr.n) if act_subset(m, part) >> i & 1]
                for m in t.col_masks()))
    assert moved.col_masks() == _col_masks(moved.bits, moved.d)
