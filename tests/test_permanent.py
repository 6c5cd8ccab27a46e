import random
from fractions import Fraction
from itertools import permutations

import pytest

from tropface import (Arrangement, BoolMatrix, PartialBijection,
                      column_space_projection, contained_partial_bijections,
                      is_permanent_attaining, is_satisfiable,
                      optimal_bijections, permanent_structure,
                      tropical_permanent, type_of_point)

from demo_data import rand_arrangement, rand_boolmatrix, rand_scalar
from oracle_helpers import brute_assignment_optimum, column_space_witness

F = Fraction


def test_tropical_permanent_examples(demo):
    assert tropical_permanent([[F(5, 2)]]) == F(5, 2)
    assert tropical_permanent([[0] * 4 for _ in range(4)]) == 0
    sub = [[demo.entries[i][j] for j in (0, 1)] for i in (0, 1)]
    assert tropical_permanent(sub) == 20
    with pytest.raises(ValueError):
        tropical_permanent([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        tropical_permanent([[0] * 9 for _ in range(9)])
    assert tropical_permanent([[0] * 9 for _ in range(9)], cap=9) == 0


def test_tropical_permanent_against_oracle():
    rng = random.Random(30)
    for _ in range(40):
        k = rng.randint(1, 4)
        rows = [[rand_scalar(rng) for _ in range(k)] for _ in range(k)]
        assert tropical_permanent(rows) == brute_assignment_optimum(rows)


def test_is_attaining_fixtures(demo):
    assert is_permanent_attaining(demo, PartialBijection.empty())
    for i in range(3):
        for j in range(4):
            assert is_permanent_attaining(demo, PartialBijection([(i, j)]))
    stay = PartialBijection([(0, 0), (1, 1)])
    swap = PartialBijection([(1, 0), (0, 1)])
    assert not is_permanent_attaining(demo, stay)
    assert is_permanent_attaining(demo, swap)
    with pytest.raises(ValueError):
        is_permanent_attaining(demo, PartialBijection([(5, 0)]))
    with pytest.raises(ValueError):
        is_permanent_attaining(demo, PartialBijection([(-1, 0)]))


def test_optimal_bijections_examples(demo):
    flat = Arrangement([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    got = optimal_bijections(flat, [0, 1, 2], [0, 1, 2])
    assert len(got) == 6  # total tie: every permutation
    assert optimal_bijections(demo, [0, 1], [0, 1]) == \
        frozenset({PartialBijection([(1, 0), (0, 1)])})
    assert optimal_bijections(demo, [2], [3]) == \
        frozenset({PartialBijection([(2, 3)])})
    with pytest.raises(ValueError):
        optimal_bijections(demo, [0, 1], [0])
    with pytest.raises(ValueError):
        optimal_bijections(demo, [-1], [0])


def test_optimal_values_equal_permanent():
    rng = random.Random(32)
    for trial in range(60):
        if trial % 2:
            # entries in {-1, 0, 1}: many tied optima per block
            arr = Arrangement([[rng.randint(-1, 1) for _ in range(6)]
                               for _ in range(6)])
        else:
            arr = rand_arrangement(rng, 6, 6)
        k = rng.randint(1, 6)
        rows = tuple(sorted(rng.sample(range(6), k)))
        cols = tuple(sorted(rng.sample(range(6), k)))
        sub = [[arr.entries[i][j] for j in cols] for i in rows]
        perm = tropical_permanent(sub)
        assert perm == brute_assignment_optimum(sub)
        got = optimal_bijections(arr, rows, cols)
        assert got
        for sigma in got:
            assert sigma.image == rows and sigma.domain == cols
            assert sum(arr.entries[i][j] for i, j in sigma.pairs) == perm
        # nothing outside the argmax set reaches the permanent
        for p in permutations(rows):
            sigma = PartialBijection(list(zip(p, cols)))
            reaches = sum(arr.entries[i][j] for i, j in sigma.pairs) == perm
            assert reaches == (sigma in got)


def test_structure_trivial_cases(demo):
    flat = Arrangement([[0, 0], [0, 0]])
    s1 = permanent_structure(flat, k_max=1)
    singles = [b for b in s1.bijections() if len(b) == 1]
    assert len(singles) == 4  # every singleton attains
    s2 = permanent_structure(flat)
    assert sum(1 for _ in s2.bijections()) == 7  # total tie: everything
    demo_k1 = permanent_structure(demo, k_max=1)
    got = list(demo_k1.bijections())
    assert len(got) == 1 + 3 * 4  # empty plus every singleton
    with pytest.raises(ValueError):
        permanent_structure(demo, k_max=5)
    with pytest.raises(ValueError):
        s1.is_attaining(PartialBijection([(0, 0), (1, 1)]))


def test_structure_caching_and_consistency(demo):
    s = permanent_structure(demo)
    assert permanent_structure(demo) is s
    for sigma in s.bijections():
        assert s.is_attaining(sigma)
        assert is_permanent_attaining(demo, sigma)
        if sigma.pairs:
            assert sigma in s.optimal(sigma.image, sigma.domain)
    assert s.optimal([0, 1], [0, 1]) == optimal_bijections(demo, [0, 1], [0, 1])


def test_downward_closure_of_attaining():
    rng = random.Random(34)
    for _ in range(12):
        n = rng.randint(2, 5)
        d = rng.randint(2, 5)
        arr = rand_arrangement(rng, n, d, span=3)
        full = BoolMatrix(n, d, (1 << (n * d)) - 1)
        for sigma in contained_partial_bijections(full):
            if len(sigma) < 2 or not is_permanent_attaining(arr, sigma):
                continue
            for drop in sigma.pairs:
                sub = PartialBijection(
                    [p for p in sigma.pairs if p != drop])
                assert is_permanent_attaining(arr, sub)


def test_attaining_satisfiable_column_space_equivalence():
    rng = random.Random(36)
    checked = 0
    for _ in range(150):
        n, d = rng.randint(1, 4), rng.randint(1, 4)
        arr = rand_arrangement(rng, n, d, span=4)
        k = rng.randint(1, min(n, d))
        rows = tuple(sorted(rng.sample(range(n), k)))
        cols = tuple(sorted(rng.sample(range(d), k)))
        image = list(rows)
        rng.shuffle(image)
        sigma = PartialBijection(list(zip(image, cols)))
        mat = sigma.as_matrix(n, d)

        attains = is_permanent_attaining(arr, sigma)
        satisfiable = is_satisfiable(arr, mat)
        y = column_space_witness(arr, sigma)
        in_space = (y is not None
                    and column_space_projection(arr, y) == y
                    and mat <= type_of_point(arr, y))
        assert attains == satisfiable == in_space
        checked += 1
    assert checked == 150


def test_satisfiable_iff_all_contained_attaining_small():
    rng = random.Random(38)
    for _ in range(40):
        arr = rand_arrangement(rng, 3, rng.randint(2, 4), span=4)
        s = rand_boolmatrix(rng, arr.n, arr.d)
        every = all(is_permanent_attaining(arr, b)
                    for b in contained_partial_bijections(s))
        assert is_satisfiable(arr, s) == every
