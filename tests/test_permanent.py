import gc
import hashlib
import random
import weakref
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tropface import (Arrangement, BoolMatrix, CapExceeded,
                      PartialBijection, PermanentStructure,
                      column_space_projection, contained_partial_bijections,
                      is_permanent_attaining, is_satisfiable, is_type,
                      optimal_bijections, permanent_structure,
                      tropical_permanent, type_of_point)

from tropface.boolmat import _mask
from tropface.complex import _rule
from tropface.permanent import _argmax

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


def test_tropical_permanent_is_exact_on_mixed_scalars():
    # ints, p/q over large prime-like denominators and decimal strings in
    # one matrix: the permanent is solved on the integer rescaling and
    # scaled back, so it must come out as the exact Fraction
    rng = random.Random(31)
    denominators = (10**12 + 39, 2**61 - 1)

    def scalar():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-50, 50)
        if kind == 1:
            return f"{rng.randint(-10**15, 10**15)}/{rng.choice(denominators)}"
        return f"{rng.randint(-50, 50)}.{rng.randint(0, 10**6):06d}"

    for _ in range(40):
        k = rng.randint(1, 5)
        rows = [[scalar() for _ in range(k)] for _ in range(k)]
        got = tropical_permanent(rows)
        assert type(got) is Fraction
        assert got == brute_assignment_optimum(
            [[Fraction(v) for v in row] for row in rows])


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


def test_structure_constructor_checks_k_max():
    arr = Arrangement([[0, 1], [1, 0]])
    for k_max in (0, 3, 12):
        with pytest.raises(ValueError):
            PermanentStructure(arr, k_max)
        with pytest.raises(ValueError):
            permanent_structure(arr, k_max)
    # structures take no scan cap of their own: every block size is
    # capped at DEFAULT_SCAN_CAP
    with pytest.raises(TypeError):
        permanent_structure(arr, cap=2)
    with pytest.raises(TypeError):
        PermanentStructure(arr, 2, cap=2)


def test_structure_caching_and_consistency(demo):
    s = permanent_structure(demo)
    for sigma in s.bijections():
        assert s.is_attaining(sigma)
        assert is_permanent_attaining(demo, sigma)
        if sigma.pairs:
            assert sigma in s.optimal(sigma.image, sigma.domain)
    assert s.optimal([0, 1], [0, 1]) == optimal_bijections(demo, [0, 1], [0, 1])


def _blocks(n, d, k_max):
    for k in range(1, k_max + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(d), k):
                yield rows, cols


def test_structure_blocks_match_brute_oracles():
    rng = random.Random(40)
    for n, d in ((5, 5), (6, 4)):
        generic = Arrangement(
            [[Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 7, 11)))
              for _ in range(d)] for _ in range(n)])
        ties = Arrangement([[rng.randint(-1, 1) for _ in range(d)]
                            for _ in range(n)])
        for arr in (generic, ties):
            k_max = min(n, d)
            # two fill orders through the shared memo: one largest block
            # first and then a full drain, and the reverse
            first = (tuple(range(n - k_max, n)), tuple(range(k_max)))
            early = PermanentStructure(arr, k_max)
            early_first = early.optimal(*first)
            early_all = list(early.bijections())
            late = PermanentStructure(arr, k_max)
            late_all = list(late.bijections())
            assert late.optimal(*first) == early_first
            assert late_all == early_all
            sizes = set()
            for rows, cols in _blocks(n, d, k_max):
                sub = [[arr.entries[i][j] for j in cols] for i in rows]
                best = brute_assignment_optimum(sub)
                reaching = set()
                for p in permutations(rows):
                    sigma = PartialBijection(list(zip(p, cols)))
                    if sum(arr.entries[i][j] for i, j in sigma.pairs) == best:
                        reaching.add(sigma)
                    assert early.is_attaining(sigma) == (sigma in reaching)
                got = early.optimal(rows, cols)
                assert got == late.optimal(rows, cols) == reaching
                sizes.add(len(got))
            if arr is generic:
                assert sizes == {1}
            else:
                assert max(sizes) > 1
            assert sorted(early_all, key=lambda b: (len(b), b.image,
                                                    b.domain)) == early_all


def _same_as_validated(sigma, n, d):
    plain = PartialBijection(sigma.pairs)
    assert sigma == plain and hash(sigma) == hash(plain)
    # both kinds derive image, domain and mapping in one place, so they
    # are checked against values built here from the pairs
    pairs = sigma.pairs
    want = (tuple(sorted(i for i, _ in pairs)),
            tuple(sorted(j for _, j in pairs)), {j: i for i, j in pairs})
    for b in (sigma, plain):
        assert (b.pairs, b.image, b.domain, dict(b.mapping)) == (pairs, *want)
    assert sigma.as_matrix(n, d) == plain.as_matrix(n, d)
    assert repr(sigma) == repr(plain)


def _brute_column_constraints(arr):
    """(per column j, parent mask -> (forbid, sorted attaining entries),
    the sorted grid masks of the attaining bijections), rebuilt from the
    stream of contained bijections of the full grid, with attainment and
    argmax sets by permutation scan.  Each bijection is filed under its
    part left of its last column j, its parent: at its row bit in
    ``forbid`` if it misses its block's permanent, else as (row bit,
    argmax union below column j, rows the argmax set takes in column j)."""
    n, d = arr.n, arr.d
    groups = [{} for _ in range(d)]  # parent mask -> [forbid, attaining]
    attaining = []
    blocks = {}  # (rows, cols) -> (best, argmax union below the last
    # column, the rows the argmax set takes in the last column)
    full = BoolMatrix(n, d, (1 << (n * d)) - 1)
    for sigma in contained_partial_bijections(full):
        if not sigma.pairs:
            continue
        rows, cols = sigma.image, sigma.domain
        j = cols[-1]
        if (rows, cols) not in blocks:
            best = brute_assignment_optimum(
                [[arr.entries[i][c] for c in cols] for i in rows])
            below = need = 0
            for p in permutations(rows):
                if sum(arr.entries[i][c] for i, c in zip(p, cols)) == best:
                    below |= PartialBijection(
                        zip(p[:-1], cols[:-1])).as_matrix(n, d).bits
                    need |= 1 << p[-1]
            blocks[rows, cols] = best, below, need
        best, below, need = blocks[rows, cols]
        parent = PartialBijection(
            [(i, c) for i, c in sigma.pairs if c < j]).as_matrix(n, d).bits
        row = 1 << sigma.mapping[j]
        group = groups[j].setdefault(parent, [0, []])
        if sum(arr.entries[i][c] for i, c in sigma.pairs) == best:
            group[1].append((row, below, need))
            attaining.append(sigma.as_matrix(n, d).bits)
        else:
            group[0] |= row
    return ([{b: (forbid, sorted(att)) for b, (forbid, att) in g.items()}
             for g in groups], sorted(attaining))


def _brute_union(arr, key):
    """The union of the grid masks of the optimal bijections of the block
    with key cols << n | rows, by permutation scan."""
    n, d = arr.n, arr.d
    rows = [i for i in range(n) if key >> i & 1]
    cols = [j for j in range(d) if key >> (n + j) & 1]
    if not rows:
        return 0
    best = brute_assignment_optimum(
        [[arr.entries[i][c] for c in cols] for i in rows])
    union = 0
    for p in permutations(rows):
        if sum(arr.entries[i][c] for i, c in zip(p, cols)) == best:
            union |= PartialBijection(zip(p, cols)).as_matrix(n, d).bits
    return union


def _check_rules(arr, brute, attaining):
    """``_rule`` on the block of every attaining parent b and every column
    j right of b's columns is b's brute group there, without the entries
    whose argmax set takes only their own row in column j: the same
    forbidden rows, and per kept entry the same row and rows in column j,
    and sub-blocks whose argmax sets, with the parent block's, make up
    the entry's argmax union below column j.  A parent that uses every
    row has no group and no rule."""
    n, d = arr.n, arr.d
    for b in [0] + attaining:
        rows = cols = 0
        for bit in range(n * d):
            if b >> bit & 1:
                rows |= 1 << bit // d
                cols |= 1 << bit % d
        key = cols << n | rows
        for j in range(cols.bit_length(), d):
            forbid, att = brute[j].get(b, (0, []))
            want = [(r, cl, need) for r, cl, need in att if need != r]
            got_forbid, kept = _rule(arr, key, j)
            assert got_forbid == forbid, (b, j)
            assert [(r, need) for r, need, _ in kept] == \
                [(r, need) for r, _, need in want], (b, j)
            for (_, _, keys), (_, below, _) in zip(kept, want):
                union = _brute_union(arr, key)
                for sub in keys:
                    union |= _brute_union(arr, sub)
                assert union == below, (b, j)


def test_mask_built_bijections_match_validated_ones():
    rng = random.Random(50)
    for n, d in ((5, 5), (6, 4), (3, 7)):
        generic = rand_arrangement(rng, n, d, span=10**6)
        ties = Arrangement([[rng.randint(-1, 1) for _ in range(d)]
                            for _ in range(n)])
        for arr in (generic, ties):
            brute, attaining = _brute_column_constraints(arr)
            s = PermanentStructure(arr, min(n, d))
            drained = list(s.bijections())
            for sigma in drained:
                _same_as_validated(sigma, n, d)
            # exactly the attaining bijections, each once
            assert sorted(sigma.as_matrix(n, d).bits
                          for sigma in drained[1:]) == attaining
            for rows, cols in _blocks(n, d, min(n, d)):
                if rng.random() < 0.2:
                    got = s.optimal(rows, cols)
                    assert got == optimal_bijections(arr, rows, cols)
                    for sigma in got:
                        _same_as_validated(sigma, n, d)
                        assert (sigma.image, sigma.domain) == (rows, cols)
                    for sigma in optimal_bijections(arr, rows, cols):
                        _same_as_validated(sigma, n, d)
            _check_rules(arr, brute, attaining)


def test_structure_frees_its_arrangement_by_reference_counting():
    rng = random.Random(42)
    was_enabled = gc.isenabled()
    gc.disable()  # only reference counting can free the arrangement
    try:
        arr = Arrangement([[rng.randint(-1, 1) for _ in range(4)]
                           for _ in range(4)])
        kept = permanent_structure(arr)
        drained = list(kept.bijections())
        ref = weakref.ref(arr)
        whole = tuple(range(4))
        best = kept.optimal(whole, whole)
        del arr
        # a structure the caller still holds keeps answering
        assert all(kept.is_attaining(sigma) for sigma in drained)
        assert kept.optimal(whole, whole) == best
        assert kept.optimal([0, 2], [1, 3])
        # it refers to its arrangement, but through no cycle: once both
        # names are dropped, reference counting alone frees the arrangement
        del kept
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def _memo_snapshot(arr) -> dict:
    """A copy of the block memo down to its entries: a copy of the outer
    dict alone would share the row-set slabs it is meant to freeze."""
    return {cols: dict(slab) for cols, slab in arr._memo.items()}


def _memo_entry(arr, rows, cols):
    return arr._memo[_mask(cols)][_mask(rows)]


def test_one_block_memo_per_arrangement():
    rng = random.Random(44)
    ties = Arrangement([[rng.randint(-1, 1) for _ in range(6)]
                        for _ in range(6)])
    blocks = list(_blocks(6, 6, 4))
    for arr in (ties, rand_arrangement(rng, 6, 6, span=10**6)):
        whole = range(6)
        argmax = optimal_bijections(arr, whole, whole)
        filled = _memo_snapshot(arr)
        # the full block's answer is in the memo: checking its argmax
        # bijections solves nothing again
        assert all(is_permanent_attaining(arr, sigma) for sigma in argmax)
        assert _memo_snapshot(arr) == filled
        # a k_max = 4 drain leaves every block of size <= 4 in the memo,
        # so asking for any of them adds nothing
        list(PermanentStructure(arr, 4).bijections())
        assert all(_memo_entry(arr, rows, cols) for rows, cols in blocks)
        filled = _memo_snapshot(arr)
        structure = permanent_structure(arr)
        for rows, cols in blocks:
            assert structure.optimal(rows, cols)
        assert _memo_snapshot(arr) == filled
        assert permanent_structure(arr, 2)._arr is arr
        assert permanent_structure(arr)._arr is arr
        assert PermanentStructure(arr, 3)._arr is arr


def test_the_scan_cap_bounds_only_what_is_solved():
    # a 9 x 9 with a heavy diagonal: the diagonal is its block's one
    # optimal bijection, and the diagonal type is a cell
    rng = random.Random(9)
    rows = [[200 if i == j else rng.randint(-50, 50) for j in range(9)]
            for i in range(9)]
    whole = range(9)
    diagonal = PartialBijection([(i, i) for i in whole])
    t = diagonal.as_matrix(9, 9)
    queries = (lambda arr: optimal_bijections(arr, whole, whole),
               lambda arr: is_permanent_attaining(arr, diagonal),
               lambda arr: is_type(arr, t))
    for query in queries:  # each on a cold arrangement
        with pytest.raises(CapExceeded, match="scan cap 8"):
            query(Arrangement(rows))
    arr = Arrangement(rows)
    assert optimal_bijections(arr, whole, whole, cap=9) == {diagonal}
    # the 9 x 9 block is in the memo with its argmax set: read back at the
    # default cap by every query
    assert [query(arr) for query in queries] == [{diagonal}, True, True]


def test_argmax_sets_past_the_scan_cap_are_bounded_by_their_size():
    # a value solve at cap 9 puts the all-zero 9 x 9 block in the memo;
    # its argmax set holds 9! bijections, past the 8! the default cap
    # allows, so it is refused before any is joined
    arr = Arrangement([[0] * 9 for _ in range(9)])
    whole = range(9)
    diagonal = PartialBijection([(i, i) for i in whole])
    assert is_permanent_attaining(arr, diagonal, cap=9)
    with pytest.raises(CapExceeded, match="exceeds 8! bijections"):
        optimal_bijections(arr, whole, whole)
    with pytest.raises(CapExceeded, match="exceeds 8! bijections"):
        permanent_structure(arr).optimal(whole, whole)
    # a block within the cap is joined in full
    assert len(optimal_bijections(arr, range(8), range(8))) == 40320


@pytest.mark.parametrize("rows, cols, match", [
    ([], [], "block size must be between 1 and 3"),
    ([0, 0], [0, 1], "repeated indices"),
    ([0, 1], [2, 2], "repeated indices"),
], ids=["empty", "repeated-row", "repeated-column"])
def test_optimal_bijections_refuses_bad_blocks(demo, rows, cols, match):
    with pytest.raises(ValueError, match=match):
        optimal_bijections(demo, rows, cols)


# SHA-256 of repr of the bijections() pair sequence with k_max = 4 on the
# arrangements that _pinned_arrangement builds, recorded from the top-down
# drain that the level-order fill replaced
PINNED_DRAINS = {
    ("ties", 6, 6):
        "f03fd2ca353e030f7b8f2ec66d39567f9280bd39d6878829a2f36b8086dabd6a",
    ("ties", 7, 5):
        "ed8f258f20dcbb91027ce5f6ab1763d40d9a0926f94043dc6945d5876b8cd798",
    ("ties", 5, 8):
        "3e8acd32aaaba4818a6fcd3a0928ff0ff6435573cfd8fbfbd426898f4b540200",
    ("ties", 8, 8):
        "08c7a2544eb71b4266945617271f04674aced4dcd15f62e6fc5423a226bedb76",
    ("generic", 6, 6):
        "02bd40352363b456a33a0de35490670a669fc30a1fe403d7f17ab05d8b32c87e",
    ("generic", 7, 5):
        "2fc92b8f324c6a6796d0b4ddc08f098e3b19631c3ea5c718f264af31535e494b",
    ("generic", 5, 8):
        "2b729b2fa297b1981620c5031ba090b062535c706c595406f6671f28f98fb401",
    ("generic", 8, 8):
        "74f9778e09ab6401a14a15b58b50bac8af6e7d57166fedbfb30ae2359ad17751",
}


def _pinned_arrangement(kind, n, d):
    rng = random.Random(f"{kind}/{n}x{d}/1")
    span = 1 if kind == "ties" else 10**6
    return Arrangement([[rng.randint(-span, span) for _ in range(d)]
                        for _ in range(n)])


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("kind, n, d", sorted(PINNED_DRAINS))
def test_drain_order_and_type_tables_are_pinned(kind, n, d):
    arr = _pinned_arrangement(kind, n, d)
    drain = [sigma.pairs for sigma in PermanentStructure(arr, 4).bijections()]
    assert _sha(drain) == PINNED_DRAINS[kind, n, d]


@pytest.mark.parametrize("kind", ["ties", "generic"])
def test_memo_holds_only_permanents_and_tight_rows(kind):
    arr = _pinned_arrangement(kind, 6, 6)
    # a value query on the full block leaves blocks of size <= 4 in the
    # memo, which the drain then reads instead of filling them
    diagonal = PartialBijection([(i, i) for i in range(6)])
    is_permanent_attaining(arr, diagonal)
    assert any(_mask(cols) in arr._memo
               and _mask(rows) in arr._memo[_mask(cols)]
               for rows, cols in _blocks(6, 6, 4))
    drain = [sigma.pairs for sigma in PermanentStructure(arr, 4).bijections()]
    assert _sha(drain) == PINNED_DRAINS[kind, 6, 6]
    assert optimal_bijections(arr, range(6), range(6))
    assert is_type(arr, type_of_point(arr, [0] * 6))
    # every bijection of the all-zero 8 x 8 attains and the all-ones
    # matrix is its type: the cell test reads all 12,870 of its blocks,
    # and the memo keeps none of their k! optimal bijections each
    zeros = Arrangement([[0] * 8 for _ in range(8)])
    assert is_type(zeros, BoolMatrix(8, 8, (1 << 64) - 1))
    assert permanent_structure(zeros).is_attaining(
        PartialBijection([(i, 7 - i) for i in range(8)]))
    for a in (arr, zeros):
        entries = [e for slab in a._memo.values() for e in slab.values()]
        assert entries
        assert all(type(e) is tuple and len(e) == 2
                   and type(e[0]) is int and type(e[1]) is int
                   for e in entries)
    assert len(zeros._memo) == 256 and _argmax(zeros, 255, 255) == (0, 255)


def test_tight_rows_are_the_last_column_rows_of_the_argmax_set():
    rng = random.Random(61)
    for n, d in ((5, 5), (5, 3), (3, 5), (4, 4), (2, 5)):
        ties = Arrangement([[rng.randint(-1, 1) for _ in range(d)]
                            for _ in range(n)])
        for arr in (rand_arrangement(rng, n, d, span=10**6), ties):
            for rows, cols in _blocks(n, d, min(n, d)):
                sub = [[arr.entries[i][c] for c in cols] for i in rows]
                best = brute_assignment_optimum(sub)
                last = set()
                for p in permutations(rows):
                    if sum(arr.entries[i][c]
                           for i, c in zip(p, cols)) == best:
                        last.add(p[-1])
                tight = _argmax(arr, _mask(rows), _mask(cols))[1]
                assert tight == _mask(last), (n, d, rows, cols)


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
