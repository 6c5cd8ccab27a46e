import hashlib
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from tropface import (Arrangement, BoolMatrix, CapExceeded,
                      OrderedSetPartition, act_matrix, act_subset, is_chamber,
                      partitions, type_of_point)

from demo_data import T_UNB2, T_VERT
from oracle_helpers import brute_ordered_set_partitions

ORDERED_BELL = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


def osp(n, *sets):
    return OrderedSetPartition.from_sets(n, sets)


def test_construction_validation():
    with pytest.raises(ValueError):
        osp(3, [0, 1])          # does not cover 2
    with pytest.raises(ValueError):
        osp(3, [0, 1], [1, 2])  # overlap
    with pytest.raises(ValueError):
        OrderedSetPartition(3, (0, 7))  # empty block
    # a block is an int bit mask: no rounding, parsing or bools
    for bad in (1.9, "1", True):
        with pytest.raises(TypeError):
            OrderedSetPartition(3, (bad, 6))
    with pytest.raises(TypeError):
        osp(3, [True], [0, 2])
    with pytest.raises(TypeError):
        osp(3, [1.0], [0, 2])
    for n in (0, -1):  # an empty ground set is refused, as identity(0) is
        with pytest.raises(ValueError):
            OrderedSetPartition(n, ())
    with pytest.raises(ValueError):
        OrderedSetPartition.identity(0)
    # so is a ground-set size that is not an int
    for bad in (True, 3.0):
        with pytest.raises(TypeError):
            OrderedSetPartition(bad, (1,))
        with pytest.raises(TypeError):
            list(partitions(bad))
    assert osp(3, [2], [0, 1]).block_sets() == ((2,), (0, 1))


def test_identity_law():
    rng = random.Random(3)
    parts = list(partitions(4))
    e = OrderedSetPartition.identity(4)
    for p in rng.sample(parts, 20):
        assert e * p == p
        assert p * e == p


def test_chambers_are_left_zeros():
    chamber = osp(3, [0], [1], [2])
    assert is_chamber(chamber)
    for g in partitions(3):
        assert chamber * g == chamber


def test_product_worked_example():
    f = osp(4, [0, 2, 3], [1])
    g = osp(4, [1, 3], [0, 2])
    assert (f * g).block_sets() == ((3,), (0, 2), (1,))


def test_product_mismatched_ground_sets():
    with pytest.raises(ValueError):
        osp(3, [0, 1, 2]) * osp(4, [0, 1, 2, 3])


def test_is_chamber():
    assert is_chamber(osp(3, [0], [1], [2]))
    assert not is_chamber(OrderedSetPartition.identity(2))
    assert not is_chamber(osp(7, [0, 2, 3], [5], [1, 6], [4]))


def test_act_subset_examples():
    f = osp(3, [2], [1], [0])
    for g in partitions(3):
        assert act_subset(0, g) == 0
    ident = OrderedSetPartition.identity(4)
    for subset in range(16):
        assert act_subset(subset, ident) == subset
    # rightmost block meeting {0, 2} is {0}
    assert act_subset(0b101, f) == 0b001
    # a subset with bits outside {0, 1, 2} is refused, not trimmed
    for subset in (0b1001, 0b1000, -1):
        with pytest.raises(ValueError):
            act_subset(subset, f)
    # and a subset that is not an int is refused, not read as one
    for subset in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            act_subset(subset, OrderedSetPartition.identity(2))


def test_act_subset_shrinks_and_caveat():
    parts = list(partitions(4))
    for f in parts:
        for subset in range(16):
            img = act_subset(subset, f)
            assert img & ~subset == 0
    # containment does not push through the action, but disjointness saves it
    rng = random.Random(5)
    for _ in range(500):
        f = rng.choice(parts)
        small = rng.randrange(16)
        big = small | rng.randrange(16)
        a, b = act_subset(small, f), act_subset(big, f)
        assert (a & ~b == 0) or (a & b == 0)


def test_action_compatible_with_product_exhaustive_n3():
    parts = list(partitions(3))
    for f, g in iproduct(parts, repeat=2):
        fg = f * g
        for subset in range(8):
            assert act_subset(subset, fg) == act_subset(act_subset(subset, f), g)


def test_left_regular_band_laws_n4():
    parts = list(partitions(4))
    for f in parts:
        assert f * f == f
    for f, g in iproduct(parts, repeat=2):
        fg = f * g
        assert fg * f == fg


def test_associativity_exhaustive_n3():
    parts = list(partitions(3))
    for f, g, h in iproduct(parts, repeat=3):
        assert (f * g) * h == f * (g * h)


def test_act_matrix_examples(demo):
    ident = OrderedSetPartition.identity(3)
    assert act_matrix(T_VERT, ident) == T_VERT
    zero = BoolMatrix.zero(3, 4)
    for f in partitions(3):
        assert act_matrix(zero, f) == zero
        assert act_matrix(T_VERT, f) <= T_VERT
    assert act_matrix(T_VERT, osp(3, [2], [1], [0])) == T_UNB2


def test_act_matrix_row_count_mismatch():
    with pytest.raises(ValueError):
        act_matrix(BoolMatrix.zero(2, 2), OrderedSetPartition.identity(3))


def test_enumeration_small_and_counts():
    assert [p.block_sets() for p in partitions(1)] == [((0,),)]
    assert [p.block_sets() for p in partitions(2)] == [
        ((0, 1),), ((0,), (1,)), ((1,), (0,))]
    for n, count in ORDERED_BELL.items():
        got = list(partitions(n))
        assert len(got) == count
        assert len(set(got)) == count


def test_enumeration_matches_composition_oracle():
    for n in (2, 3, 4):
        want = brute_ordered_set_partitions(n)
        got = {tuple(frozenset(b) for b in p.block_sets())
               for p in partitions(n)}
        assert got == want


def test_enumeration_cap():
    with pytest.raises(CapExceeded, match="enumeration cap 6"):
        list(partitions(7))
    assert len(list(partitions(7, cap=7))) == 47293


@pytest.mark.parametrize("args, error", [
    ((0,), ValueError), ((7,), CapExceeded), ((True,), TypeError),
    ((3, 2.0), TypeError),
], ids=["zero", "past-cap", "bool", "float-cap"])
def test_partitions_checks_its_arguments_at_the_call(args, error):
    """The refusal comes from the call itself, with nothing iterated."""
    with pytest.raises(error):
        partitions(*args)


def test_emission_order_is_the_documented_one():
    """Fewer blocks first, then lexicographic on the blocks as tuples of
    sorted elements: the oracle's partitions sorted on that key."""
    for n in range(1, 7):
        ordered = sorted(brute_ordered_set_partitions(n), key=lambda p: (
            len(p), tuple(tuple(sorted(b)) for b in p)))
        want = [tuple(sum(1 << i for i in b) for b in p) for p in ordered]
        assert [p.blocks for p in partitions(n)] == want, n


# SHA-256 of repr([p.blocks for p in partitions(7, cap=7)]): the whole
# n = 7 sequence, block masks in emission order
PARTITIONS_7_SHA256 = (
    "3df893398b56ff94bb5073e68ec2710c47c9828200ef0a8d7ae3fd1f650feace")


def test_emission_order_is_pinned_at_n_7():
    blocks = [p.blocks for p in partitions(7, cap=7)]
    assert len(blocks) == 47293
    digest = hashlib.sha256(repr(blocks).encode("ascii")).hexdigest()
    assert digest == PARTITIONS_7_SHA256


def _perturbation_partition(u):
    """F(u): the rows in blocks of equal u_i, the largest u first."""
    return OrderedSetPartition.from_sets(
        len(u), [[i for i, v in enumerate(u) if v == w]
                 for w in sorted(set(u), reverse=True)])


def test_action_is_perturbation():
    """The refinement action read as geometry: moving x a little along u
    keeps, in each column, the tied rows whose u is least, which is the
    rightmost block of F(u) that the column meets.  Entries and x are
    integers, so two differences that are not tied are at least 1 apart,
    and eps = 1/100 moves a difference by at most 4 * eps."""
    rng = random.Random(20)
    eps = Fraction(1, 100)
    for _ in range(3000):
        n, d = rng.randint(1, 6), rng.randint(1, 4)
        arr = Arrangement([[rng.randint(-2, 2) for _ in range(d)]
                           for _ in range(n)])
        x = [rng.randint(-3, 3) for _ in range(n)]
        u = [rng.randint(-2, 2) for _ in range(n)]
        moved = [a + eps * b for a, b in zip(x, u)]
        assert type_of_point(arr, moved) == act_matrix(
            type_of_point(arr, x), _perturbation_partition(u))


@pytest.mark.parametrize("call, match", [
    (lambda: osp(2, [0], [2]), "element 2 out of range"),
    (lambda: osp(2, [-1], [0, 1]), "out of range"),
    (lambda: list(partitions(0)), "n must be positive"),
], ids=["from_sets-past-n", "from_sets-negative", "partitions-0"])
def test_out_of_range_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_from_sets_sets_a_repeated_element_once():
    assert OrderedSetPartition.from_sets(2, [[0, 0], [1]]) == \
        OrderedSetPartition(2, (1, 2))


def test_repr_and_foreign_product_are_pinned():
    f = osp(3, [2], [0, 1])
    assert repr(f) == "OrderedSetPartition({2}|{0,1})"
    # __mul__ returns NotImplemented for a non-partition, so Python refuses it
    with pytest.raises(TypeError):
        f * 3
