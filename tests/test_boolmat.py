import copy
import pickle
import random
import weakref
from itertools import product

import pytest

from tropface import (Arrangement, BoolMatrix, OrderedSetPartition,
                      PartialBijection, TypeCell, contained_partial_bijections,
                      enumerate_types, is_partial_bijection)
from tropface.boolmat import _mask, _mask_elems

from demo_data import T_EDGE, T_UNB2, T_VERT, rand_boolmatrix
from oracle_helpers import brute_contained_bijections


def test_construction_and_views():
    m = BoolMatrix.from_rows([[0, 1, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0]])
    assert m == T_UNB2
    assert m.rows() == ((1, 2, 3), (0,), ())
    assert m.columns() == ((1,), (0,), (0,), (0,))
    assert m.entry(0, 1) == 1 and m.entry(2, 3) == 0
    assert m.row_mask(0) == 0b1110
    assert m.col_mask(0) == 0b010
    # col_masks walks the set bits; entry reads each position off bits
    rng = random.Random(13)
    for n, d in [(1, 1), (1, 5), (5, 1), (3, 4), (6, 6)]:
        for _ in range(20):
            m = rand_boolmatrix(rng, n, d)
            assert m.col_masks() == tuple(
                sum(m.entry(i, j) << i for i in range(n)) for j in range(d))
    # sizes and bits are ints: a bool, a float or a string is refused
    for args in ((True, 1), (1, True), (1, 1, True), (2.0, 1), (1, 1, "1")):
        with pytest.raises(TypeError):
            BoolMatrix(*args)


def test_mask_elems_and_mask():
    rng = random.Random(14)
    for _ in range(300):
        w = rng.randint(0, 300)
        mask = rng.getrandbits(w) if w else 0
        want = tuple(i for i in range(w) if mask >> i & 1)
        for _ in range(2):  # the second split reads the cached answer
            assert _mask_elems(mask) == want
        assert _mask(want) == mask


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        BoolMatrix(0, 3)
    with pytest.raises(ValueError):
        BoolMatrix(2, 2, 1 << 4)
    with pytest.raises(ValueError):
        BoolMatrix.from_rows([[0, 2]])
    # entries read as indices: 1.0 and True are not silently taken as 1
    for rows in ([[1.0, True], [0, False]], [[1.0]], [[0, True]], [[0.0]]):
        with pytest.raises(TypeError):
            BoolMatrix.from_rows(rows)
    with pytest.raises(ValueError):
        BoolMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(ValueError):
        BoolMatrix.from_columns(2, [{0}, {2}])


def test_leq_zero_is_minimum():
    zero = BoolMatrix.zero(2, 2)
    for bits in range(16):
        assert zero <= BoolMatrix(2, 2, bits)


def test_leq_reflexive_and_demo_cells():
    assert T_UNB2 <= T_UNB2
    # the edge cell extends the unbounded 2-cell by one entry at (2, 3)
    assert T_UNB2 <= T_EDGE
    assert not T_EDGE <= T_UNB2
    assert T_UNB2 <= T_VERT


def test_leq_dimension_mismatch():
    with pytest.raises(ValueError):
        BoolMatrix.zero(2, 2) <= BoolMatrix.zero(2, 3)


def test_partial_order_axioms_exhaustive_2x2():
    mats = [BoolMatrix(2, 2, b) for b in range(16)]
    for a in mats:
        assert a <= a
    for a, b in product(mats, repeat=2):
        if a <= b and b <= a:
            assert a == b
    for a, b, c in product(mats, repeat=3):
        if a <= b and b <= c:
            assert a <= c


def test_partial_order_transitive_sampled_3x3():
    rng = random.Random(7)
    for _ in range(3000):
        a, b, c = (rand_boolmatrix(rng, 3, 3) for _ in range(3))
        if a <= b and b <= c:
            assert a <= c


def test_transpose_examples():
    sym = BoolMatrix.from_rows([[1, 0], [0, 1]])
    assert sym.transpose() == sym
    row = BoolMatrix.from_rows([[1, 0, 1]])
    assert row.transpose() == BoolMatrix.from_rows([[1], [0], [1]])
    t = T_UNB2.transpose()
    assert t.n == 4 and t.d == 3
    # row j of the transpose is column j of the original
    assert t.rows() == T_UNB2.columns()


def test_transpose_involution_and_order_isomorphism():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_boolmatrix(rng, 3, 4)
        b = rand_boolmatrix(rng, 3, 4)
        assert a.transpose().transpose() == a
        assert (a <= b) == (a.transpose() <= b.transpose())


def test_is_partial_bijection():
    assert is_partial_bijection(BoolMatrix.zero(3, 3))
    assert not is_partial_bijection(BoolMatrix.from_rows([[1, 1], [1, 1]]))
    assert not is_partial_bijection(T_VERT)  # row 0 holds columns 1, 2, 3
    assert is_partial_bijection(BoolMatrix.from_rows([[0, 1], [1, 0]]))


def test_partial_bijection_type():
    s = PartialBijection([(1, 0), (0, 2)])
    assert len(s) == 2
    assert s.domain == (0, 2) and s.image == (0, 1)
    assert s.mapping == {0: 1, 2: 0}
    assert s.as_matrix(2, 3) == BoolMatrix.from_rows([[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError):
        PartialBijection([(0, 0), (0, 1)])  # row used twice
    with pytest.raises(ValueError):
        PartialBijection([(0, 0), (1, 0)])  # column used twice
    assert PartialBijection.empty() == PartialBijection([])


def test_partial_bijection_mapping_is_read_only():
    # the mapping is a view: writing through it raises, and pairs and
    # mapping keep telling the same bijection, for both constructors
    for s in (PartialBijection([(1, 0), (0, 2)]),
              PartialBijection._from_mask(0b001100, 3)):
        m = s.mapping
        with pytest.raises(TypeError):
            m[0] = 7
        with pytest.raises(TypeError):
            del m[0]
        assert s.mapping == {0: 1, 2: 0} == {j: i for i, j in s.pairs}
        assert s.pairs == ((0, 2), (1, 0))


# each value type: its public fields and the hash it had as a hand-rolled
# class or dataclass, which keeps the iteration order of every set of them
MATRIX = ("n", "d", "bits"), lambda m: hash((m.n, m.d, m.bits))
BIJECTION = ("pairs", "image", "domain", "mapping"), lambda s: hash(s.pairs)
PARTITION = ("n", "blocks"), lambda f: hash((f.n, f.blocks))
CELL = (("type", "dimension", "bounded"),
        lambda c: hash((c.type, c.dimension, c.bounded)))
VALUES = {  # one entry per constructor
    "BoolMatrix": (lambda: BoolMatrix(2, 2, 0b1001), MATRIX),
    "BoolMatrix._from_cols": (
        lambda: BoolMatrix._from_cols(2, 2, 0b1001, (1, 2)), MATRIX),
    "PartialBijection": (lambda: PartialBijection([(1, 0), (0, 2)]),
                         BIJECTION),
    "PartialBijection._from_mask": (
        lambda: PartialBijection._from_mask(0b001100, 3), BIJECTION),
    "OrderedSetPartition": (lambda: OrderedSetPartition(3, (4, 3)),
                            PARTITION),
    "OrderedSetPartition._raw": (
        lambda: OrderedSetPartition._raw(3, (1, 6)), PARTITION),
    "OrderedSetPartition-product": (
        lambda: (OrderedSetPartition(3, (4, 3))
                 * OrderedSetPartition(3, (1, 6))), PARTITION),
    "TypeCell": (lambda: TypeCell(BoolMatrix(2, 2, 0b1001), 0, True), CELL),
    "TypeCell-enumerate_types": (
        lambda: enumerate_types(Arrangement([[0, 1], [1, 0]]))[-1], CELL),
}


@pytest.mark.parametrize("make, kind", VALUES.values(), ids=list(VALUES))
def test_value_types_are_read_only_hashable_and_picklable(make, kind):
    fields, parent_hash = kind
    v = make()
    values, h = [getattr(v, f) for f in fields], hash(v)
    assert h == parent_hash(v)
    for f in fields:
        with pytest.raises(AttributeError, match=f):
            setattr(v, f, 3)
        with pytest.raises(AttributeError, match=f):
            delattr(v, f)
    assert [getattr(v, f) for f in fields] == values and hash(v) == h
    for t in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert type(t) is type(v) and t == v and hash(t) == h
        assert [getattr(t, f) for f in fields] == values
    assert weakref.ref(v)() is v
    assert v != tuple(values) and v != values[0]


def test_partial_bijection_rejects_non_integer_indices():
    for pairs in ([(1.9, 0)], [("3", 0)], [(True, 2)]):
        with pytest.raises(TypeError):
            PartialBijection(pairs)
    # negative indices are integers: a bounds check rejects them later
    assert PartialBijection([(-1, 0)]).pairs == ((-1, 0),)


def test_contained_bijections_zero_matrix():
    got = list(contained_partial_bijections(BoolMatrix.zero(2, 3)))
    assert got == [PartialBijection.empty()]


def test_contained_bijections_all_ones_2x2_golden_stream():
    m = BoolMatrix.from_rows([[1, 1], [1, 1]])
    got = [s.pairs for s in contained_partial_bijections(m)]
    assert got == [
        (),
        ((0, 0),),
        ((0, 0), (1, 1)),
        ((1, 0),),
        ((0, 1), (1, 0)),
        ((0, 1),),
        ((1, 1),),
    ]


def test_contained_bijections_unbounded_cell():
    got = {s.pairs for s in contained_partial_bijections(T_UNB2)}
    assert got == {
        (),
        ((1, 0),),
        ((0, 1), (1, 0)),
        ((0, 2), (1, 0)),
        ((0, 3), (1, 0)),
        ((0, 1),),
        ((0, 2),),
        ((0, 3),),
    }


def test_contained_bijections_against_subset_oracle():
    rng = random.Random(13)
    cases = [rand_boolmatrix(rng, n, d)
             for n, d in ((2, 2), (3, 3), (4, 4), (3, 4), (4, 2))
             for _ in range(6)]
    for m in cases:
        stream = list(contained_partial_bijections(m))
        assert len(stream) == len(set(stream)), "duplicates in stream"
        for s in stream:
            assert is_partial_bijection(s.as_matrix(m.n, m.d))
            assert s.as_matrix(m.n, m.d) <= m
        assert {frozenset(s.pairs) for s in stream} == \
            brute_contained_bijections(m)


_M = BoolMatrix(2, 2, 0b1001)


@pytest.mark.parametrize("call, error, match", [
    (lambda: BoolMatrix.from_rows([]), ValueError, "dimensions"),
    (lambda: BoolMatrix.from_columns(2, []), ValueError, "dimensions"),
    (lambda: BoolMatrix.from_pairs(2, 2, [(2, 0)]), ValueError,
     "out of range"),
    (lambda: BoolMatrix.from_pairs(2, 2, [(0, -1)]), ValueError,
     "out of range"),
    (lambda: _M.entry(2, 0), IndexError, "out of range"),
    (lambda: _M.entry(0, -1), IndexError, "out of range"),
    (lambda: _M.row_mask(2), IndexError, "row 2 out of range"),
    (lambda: _M.col_mask(-1), IndexError, "column -1 out of range"),
    (lambda: BoolMatrix.from_rows([[]]), ValueError, "dimensions"),
    (lambda: BoolMatrix.from_columns(2, [[-1]]), ValueError, "out of range"),
    (lambda: BoolMatrix.from_columns(2, [[True]]), TypeError, None),
    (lambda: BoolMatrix.from_columns(2, [[0.0]]), TypeError, None),
    (lambda: _M.col_mask(True), TypeError, None),
    (lambda: _M.entry(0, 1.0), TypeError, None),
    # both indices are typed before either is ranged
    (lambda: _M.entry(2, True), TypeError, None),
], ids=["from_rows-empty", "from_columns-empty", "from_pairs-row",
        "from_pairs-column", "entry-row", "entry-column", "row_mask",
        "col_mask", "from_rows-empty-row", "from_columns-negative",
        "from_columns-bool", "from_columns-float", "col_mask-bool",
        "entry-float", "entry-bad-row-bool-column"])
def test_empty_and_out_of_range_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_repr_and_foreign_comparison_are_pinned():
    assert repr(BoolMatrix.from_rows([[1, 0, 1], [0, 1, 0]])) == \
        "BoolMatrix[101|010]"
    # __le__ returns NotImplemented for a non-matrix, so Python refuses it
    with pytest.raises(TypeError):
        BoolMatrix.from_rows([[1, 0, 1], [0, 1, 0]]) <= 3
