"""Max-plus permanents of square submatrices and the bookkeeping of which
partial bijections attain them.

The permanent of a k x k block is the maximum over permutations of the
sum of selected entries; a partial bijection attains it when its own sum
equals that maximum on the block it selects.  Both questions are the
assignment problem, solved exactly by one recurrence on (row set, column
set), ``_recur``: the last column goes to some row, and what is left is
the block without both.  That sub-problem is a block too, so each
arrangement keeps one memo of block answers, shared by all its structures
and queries, and solves each block once; the argmax set is gathered from
the rows whose sub-problem ties the optimum.

The memo has two levels, column set first: memo[cols] is that column
set's *slab*, a dict from row set to (permanent, argmax masks).  The k
sub-blocks of a k x k block all lie in one slab, memo[cols without its
last column], and are read by their row masks alone.  Every question
about one block, its permanent, whether a bijection attains it, its
argmax set, goes through one reader, ``_argmax``: the module functions,
the structures' queries and the cell test and cell search in ``complex``
all ask it.  It reads the memo first and runs the recurrence top-down
(``_solve``) only for what the memo lacks; only such a solve is refused
above the scan cap, so a block in the memo is read back at any size.
A structure's drain fills its blocks level by level and, within a
level, one column set at a time, writing each answer straight into that
column set's slab.  Both make a new slab with ``memo.setdefault(cols, {})``, so
fills that race never drop one.  Entries are integers: the arrangement's
matrix rescaled to a common denominator.  This module answers block
questions only; the cell test and the cell search live in ``complex``.

Everything inside works on bit masks: a block is a (row mask, column
mask) pair and a bijection is its grid mask, bit i*d + j for the pair
(i, j).  ``PartialBijection`` objects are made only where a public
function returns them, by the trusted ``PartialBijection._from_mask``,
which derives the pairs from the mask when they are first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .boolmat import PartialBijection, _expect, _index, _mask, _mask_elems
from .tropical import Arrangement

DEFAULT_SCAN_CAP = 8


class CapExceeded(ValueError):
    """A size cap refused the input: a block of more rows than the scan
    cap that a call would have to solve, a cell search whose candidate
    space 2^(n*d) is past the enumeration cap, or more ordered set
    partitions than the partition cap allows.  The scan cap bounds only
    what is solved: a block already in the arrangement's memo with what
    a call asks of it is read back at any size."""


@lru_cache(maxsize=4096)
def _drops(rows: int) -> tuple:
    """(a, rows without a) for each row a in the bit mask ``rows``,
    ascending; remembered for the row sets met most, since the top-down
    ``_solve`` asks for them once per block."""
    return tuple([(a, rows ^ (1 << a)) for a in _mask_elems(rows)])


def _recur(icols, d: int, drops, c: int, rest: int, memo: dict, sub: dict,
           argmax: bool):
    """(best, masks) of the block with the rows that ``drops`` lists (see
    ``_drops``) and column mask ``rest`` plus its last column c, where
    icols[j][i] is entry (i, j).  best is the max over rows a of the
    sub-block (rows without a, ``rest``) plus entry (a, c).  With
    ``argmax``, masks are the sorted grid masks of the block's optimal
    bijections: each tight entry (a, c) joined to every argmax mask of its
    sub-block; otherwise masks is None.

    The sub-blocks are read by row mask from ``sub``, the slab
    memo[rest], which must hold every one of them; a tight one without its
    argmax set is completed by ``_solve``.  With one tight row the
    sub-block's order stands."""
    col = icols[c]
    best = None
    for t in drops:
        v = sub[t[1]][0] + col[t[0]]
        if best is None or v > best:
            best, top, ties = v, t, False
        elif v == best:
            ties = True
    if not argmax:
        return best, None
    if not ties:
        a, r = top
        bit = 1 << (a * d + c)
        masks = sub[r][1] or _solve(icols, d, r, rest, memo, True)[1]
        if len(masks) == 1:  # the common case, without a comprehension
            return best, (masks[0] | bit,)
        return best, tuple([m | bit for m in masks])
    joined = []
    for a, r in drops:
        if sub[r][0] + col[a] == best:
            bit = 1 << (a * d + c)
            masks = sub[r][1] or _solve(icols, d, r, rest, memo, True)[1]
            joined += [m | bit for m in masks]
    joined.sort()
    return best, tuple(joined)


def _solve(icols, d: int, rows: int, cols: int, memo: dict, argmax: bool):
    """(optimum, masks) of assigning the columns in bit mask ``cols`` onto
    the rows in bit mask ``rows``, top-down: the block's sub-blocks are
    solved value-only into their slab first, then ``_recur`` answers it.
    With ``argmax``, masks are the sorted grid masks of every optimal
    bijection, gathered from the tight rows only; otherwise masks may be
    None.

    memo[cols][rows] holds each block's answer, the empty block's among
    them.  A missing slab is made by ``memo.setdefault(cols, {})``, and an
    entry without masks is only ever completed, never replaced by one
    with less.
    """
    slab = memo.get(cols) or memo.setdefault(cols, {})
    got = slab.get(rows)
    if got is not None and (got[1] is not None or not argmax):
        return got
    if not cols:  # the empty block: one bijection, the empty one
        got = slab[rows] = (0, (0,))
        return got
    c = cols.bit_length() - 1
    rest = cols ^ (1 << c)
    drops = _drops(rows)
    sub = memo.get(rest) or memo.setdefault(rest, {})
    for _, r in drops:
        if r not in sub:
            _solve(icols, d, r, rest, memo, False)
    got = _recur(icols, d, drops, c, rest, memo, sub, argmax)
    if not argmax:
        return slab.setdefault(rows, got)
    slab[rows] = got
    return got


def _argmax(arr: Arrangement, rows: int, cols: int,
            cap: int = DEFAULT_SCAN_CAP, argmax: bool = True) -> tuple:
    """The memo entry (permanent, sorted argmax grid masks) of the block
    (row mask, column mask); without ``argmax`` the masks may be None.
    This is the one reader of a single block: the module functions, the
    structures' queries and the cell layer in ``complex`` all ask through
    it.  The arrangement's memo is read first, and only what it lacks, the
    whole entry or the argmax set that was asked for, is solved into it
    by ``_solve``; only that solve is refused above ``cap`` rows."""
    try:
        got = arr._memo[cols][rows]
    except KeyError:
        got = None
    if got is None or (argmax and got[1] is None):
        _check_cap(rows.bit_count(), cap)
        got = _solve(arr._icols, arr.d, rows, cols, arr._memo, argmax)
    return got


def _check_cap(k: int, cap: int):
    """Refuse blocks of more than ``cap`` rows: the argmax set of a k x k
    block can hold k! bijections."""
    if k > cap:
        raise CapExceeded(f"size {k} exceeds the scan cap {cap}")


def tropical_permanent(x, cap: int = DEFAULT_SCAN_CAP) -> Fraction:
    """Max over permutations p of sum_b x[p(b)][b], for a square matrix.
    Solved on the matrix rescaled to integers, then scaled back."""
    arr = Arrangement(x)
    if arr.n != arr.d:
        raise ValueError("input must be a non-empty square matrix")
    full = (1 << arr.n) - 1
    best = _argmax(arr, full, full, _index(cap), argmax=False)[0]
    return Fraction(best, arr._scale)


def _check_bijection(arr: Arrangement, sigma: PartialBijection):
    _expect(arr, Arrangement)
    _expect(sigma, PartialBijection)
    if sigma.pairs and (sigma.image[-1] >= arr.n or sigma.domain[-1] >= arr.d
                        or sigma.image[0] < 0 or sigma.domain[0] < 0):
        raise ValueError("bijection uses rows or columns outside the matrix")


def _argmax_set(arr: Arrangement, rows, cols, k_max, cap: int) -> frozenset:
    """The argmax set, as bijections, of the block of the given rows and
    columns, checked to be a valid block of size 1..k_max (1..min(n, d)
    for None)."""
    _expect(arr, Arrangement)
    k_max = min(arr.n, arr.d) if k_max is None else k_max
    rows = tuple(sorted(map(_index, rows)))
    cols = tuple(sorted(map(_index, cols)))
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    if not 1 <= len(rows) <= k_max:
        raise ValueError(f"block size must be between 1 and {k_max}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("repeated indices")
    if rows[0] < 0 or cols[0] < 0 or rows[-1] >= arr.n or cols[-1] >= arr.d:
        raise ValueError("indices outside the matrix")
    masks = _argmax(arr, _mask(rows), _mask(cols), cap)[1]
    return frozenset(PartialBijection._from_mask(m, arr.d) for m in masks)


def is_permanent_attaining(arr: Arrangement, sigma: PartialBijection,
                           cap: int = DEFAULT_SCAN_CAP) -> bool:
    """True iff sigma's entry sum ties the optimum over all bijections with
    the same domain and image.  The empty bijection attains vacuously."""
    cap = _index(cap)
    _check_bijection(arr, sigma)
    if not sigma.pairs:
        return True
    best = _argmax(arr, _mask(sigma.image), _mask(sigma.domain), cap,
                   argmax=False)[0]
    icols = arr._icols
    return sum(icols[j][i] for i, j in sigma.pairs) == best


def optimal_bijections(arr: Arrangement, rows, cols,
                       cap: int = DEFAULT_SCAN_CAP) -> frozenset:
    """The full argmax set of bijections from ``cols`` onto ``rows``:
    exactly those whose entry sum equals the block's permanent."""
    return _argmax_set(arr, rows, cols, None, _index(cap))


class PermanentStructure:
    """All permanent-attaining partial bijections of an arrangement of
    sizes 1..k_max, held as lazily computed argmax sets indexed by (image
    rows, domain columns), each block size capped at ``DEFAULT_SCAN_CAP``
    rows.  It keeps a reference to its arrangement and answers from the
    arrangement's one block memo, slab by column set and then entry by
    row set, which every structure of the arrangement, the module
    functions and the cell test in ``complex`` share: ``is_attaining``
    and ``optimal`` check k_max and then answer as
    ``is_permanent_attaining`` and ``optimal_bijections`` do, through
    ``_argmax``.

    Queries are pure; the memo only holds deterministic recomputation.  A
    new slab is made with ``memo.setdefault(cols, {})``, so racing fills
    never drop a slab, and no memo entry is replaced by one without its
    argmax set, so racing fills store equal answers and concurrent use is
    safe.  The bijections handed out derive their fields lazily, where a
    race also stores equal values.
    """

    def __init__(self, arr: Arrangement, k_max: int):
        _expect(arr, Arrangement)
        limit = min(arr.n, arr.d)
        k_max = _index(k_max)
        if not 1 <= k_max <= limit:
            raise ValueError(f"k_max must be between 1 and {limit}")
        self._arr = arr
        self.n, self.d, self.k_max = arr.n, arr.d, k_max

    def is_attaining(self, sigma: PartialBijection) -> bool:
        _check_bijection(self._arr, sigma)
        if len(sigma) > self.k_max:
            raise ValueError(
                f"bijection size {len(sigma)} exceeds k_max={self.k_max}")
        return is_permanent_attaining(self._arr, sigma)

    def optimal(self, rows, cols) -> frozenset:
        """The full argmax set of bijections from the given columns onto the
        given rows; always non-empty."""
        return _argmax_set(self._arr, rows, cols, self.k_max,
                           DEFAULT_SCAN_CAP)

    def bijections(self):
        """Yield the empty bijection plus every attaining one of size up to
        k_max, grouped by (size, rows, cols), deterministically.

        The blocks are filled level by level, and within a level one
        column set at a time: every block of size k - 1 is in the memo
        with its argmax set before the first of size k, so ``_recur`` reads
        a block's k sub-blocks by row mask from the one slab
        memo[cols without its last column], and its answer goes straight
        into the slab memo[cols].  An entry that value-only queries left
        without its argmax set is completed.  A level is filled whole
        before it is yielded, rows then cols."""
        yield PartialBijection.empty()
        n, d, arr = self.n, self.d, self._arr
        icols, memo = arr._icols, arr._memo
        from_mask = PartialBijection._from_mask
        _solve(icols, d, 0, 0, memo, True)  # the empty block, under level 1
        for k in range(1, self.k_max + 1):
            _check_cap(k, DEFAULT_SCAN_CAP)
            row_sets = [(rows, _drops(rows))
                        for rows in map(_mask, combinations(range(n), k))]
            slabs = []
            for c in combinations(range(d), k):
                cols = _mask(c)
                rest = cols ^ (1 << c[-1])
                sub = memo[rest]  # made by the level below
                slab = memo.get(cols) or memo.setdefault(cols, {})
                for rows, drops in row_sets:
                    got = slab.get(rows)
                    if got is None or got[1] is None:
                        slab[rows] = _recur(icols, d, drops, c[-1], rest,
                                            memo, sub, True)
                slabs.append(slab)
            for rows, _ in row_sets:
                for slab in slabs:
                    for m in slab[rows][1]:
                        yield from_mask(m, d)


def permanent_structure(arr: Arrangement, k_max=None) -> PermanentStructure:
    """The permanent structure of the arrangement covering sizes 1..k_max;
    k_max defaults to min(n, d).  Nothing is cached here: every structure
    answers from the arrangement's one block memo."""
    _expect(arr, Arrangement)
    return PermanentStructure(
        arr, min(arr.n, arr.d) if k_max is None else k_max)
