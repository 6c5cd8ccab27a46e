"""Max-plus permanents of square submatrices and the bookkeeping of which
partial bijections attain them.

The permanent of a k x k block is the maximum over permutations of the
sum of selected entries; a partial bijection attains it when its own sum
equals that maximum on the block it selects.  Both questions are the
assignment problem, solved exactly by one recurrence on (row set, column
set): the last column goes to some row, and what is left is the block
without both.  That sub-problem is a block too, so each arrangement keeps
one memo of block answers, shared by all its structures and queries, and
solves each block once; the argmax set is gathered from the rows whose
sub-problem ties the optimum.  Single queries run the recurrence top-down;
a structure's drain fills its blocks level by level, reading each block's
sub-blocks straight from the memo.  Entries are integers: the
arrangement's matrix rescaled to a common denominator.  This module
answers block questions only; the cell test and the cell search, which
ask them through ``_argmax``, live in ``complex``.

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

from .boolmat import PartialBijection, _mask_elems
from .tropical import Arrangement

DEFAULT_SCAN_CAP = 8


class CapExceeded(ValueError):
    """A size cap refused the input: a block of more rows than the scan
    cap, a cell search whose candidate space 2^(n*d) is past the
    enumeration cap, or more ordered set partitions than the partition
    cap allows."""


@lru_cache(maxsize=4096)
def _drops(rows: int) -> tuple:
    """(a, rows without a) for each row a in the bit mask ``rows``,
    ascending; remembered for the row sets met most, since the top-down
    ``_solve`` asks for them once per block."""
    return tuple([(a, rows ^ (1 << a)) for a in _mask_elems(rows)])


def _recur(icols, d: int, drops, c: int, rest: int, memo: dict):
    """(best, tight) of the block with the rows that ``drops`` lists (see
    ``_drops``) and column mask ``rest`` plus its last column c, where
    icols[j][i] is entry (i, j): best is the max over rows a of the
    sub-problem (rows without a, ``rest``) plus entry (a, c), and tight
    lists the (a, sub-problem rows) that reach it.  Sub-problems missing
    from the memo are solved value-only."""
    col = icols[c]
    best, tight = None, []
    for a, sub in drops:
        v = (memo.get((sub, rest))
             or _solve(icols, d, sub, rest, memo, False))[0] + col[a]
        if best is None or v > best:
            best, tight = v, [(a, sub)]
        elif v == best:
            tight.append((a, sub))
    return best, tight


def _join(tight, d: int, c: int, rest: int, memo: dict) -> tuple:
    """The sorted grid masks (bit i*d + j for entry (i, j)) of a block's
    optimal bijections: each tight entry (a, c) joined to every argmax
    mask of its sub-problem, which the memo must hold.  With one tight
    row the sub-problem's order stands."""
    if len(tight) == 1:
        a, sub = tight[0]
        bit = 1 << (a * d + c)
        return tuple([m | bit for m in memo[(sub, rest)][1]])
    return tuple(sorted([m | 1 << (a * d + c) for a, sub in tight
                         for m in memo[(sub, rest)][1]]))


def _solve(icols, d: int, rows: int, cols: int, memo: dict, argmax: bool):
    """(optimum, masks) of assigning the columns in bit mask ``cols`` onto
    the rows in bit mask ``rows``, top-down through ``_recur``.  With
    ``argmax``, masks are the sorted grid masks of every optimal
    bijection, gathered from the tight rows only; otherwise masks may be
    None.  memo[(rows, cols)] holds each sub-problem's answer, the empty
    block's among them; an entry without masks is only ever completed,
    never replaced by one with less.
    """
    got = memo.get((rows, cols))
    if got is not None and (got[1] is not None or not argmax):
        return got
    if not cols:  # the empty block: one bijection, the empty one
        got = memo[(0, 0)] = (0, (0,))
        return got
    c = cols.bit_length() - 1
    rest = cols ^ (1 << c)
    best, tight = _recur(icols, d, _drops(rows), c, rest, memo)
    if not argmax:
        return memo.setdefault((rows, cols), (best, None))
    for _, sub in tight:
        _solve(icols, d, sub, rest, memo, True)
    got = memo[(rows, cols)] = (best, _join(tight, d, c, rest, memo))
    return got


def _block(icols, d: int, rows: int, cols: int, cap: int, memo: dict,
           argmax: bool = False):
    """_solve on one block, refused above ``cap`` rows."""
    _check_cap(rows.bit_count(), cap)
    return _solve(icols, d, rows, cols, memo, argmax)


def _argmax(arr: Arrangement, rows: int, cols: int) -> tuple:
    """The sorted argmax grid masks of the block (row mask, column mask):
    read from the arrangement's memo, or else solved into it, refused
    above ``DEFAULT_SCAN_CAP`` rows."""
    got = arr._memo.get((rows, cols))
    if got is None or got[1] is None:
        got = _block(arr._icols, arr.d, rows, cols, DEFAULT_SCAN_CAP,
                     arr._memo, argmax=True)
    return got[1]


def _check_cap(k: int, cap: int):
    """Refuse blocks of more than ``cap`` rows: the argmax set of a k x k
    block can hold k! bijections."""
    if k > cap:
        raise CapExceeded(f"size {k} exceeds the scan cap {cap}")


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def tropical_permanent(x, cap: int = DEFAULT_SCAN_CAP) -> Fraction:
    """Max over permutations p of sum_b x[p(b)][b], for a square matrix.
    Solved on the matrix rescaled to integers, then scaled back."""
    arr = Arrangement(x)
    if arr.n != arr.d:
        raise ValueError("input must be a non-empty square matrix")
    full = (1 << arr.n) - 1
    best, _ = _block(arr._icols, arr.d, full, full, cap, arr._memo)
    return Fraction(best, arr._scale)


def _check_bijection(n: int, d: int, sigma: PartialBijection):
    if sigma.pairs and (sigma.image[-1] >= n or sigma.domain[-1] >= d
                        or sigma.image[0] < 0 or sigma.domain[0] < 0):
        raise ValueError("bijection uses rows or columns outside the matrix")


def _check_block(n: int, d: int, rows, cols, k_max: int):
    """(row mask, column mask) of a valid block of size 1..k_max."""
    rows, cols = tuple(sorted(rows)), tuple(sorted(cols))
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    if not 1 <= len(rows) <= k_max:
        raise ValueError(f"block size must be between 1 and {k_max}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("repeated indices")
    if rows[0] < 0 or cols[0] < 0 or rows[-1] >= n or cols[-1] >= d:
        raise ValueError("indices outside the matrix")
    return _mask(rows), _mask(cols)


def _attains(icols, sigma: PartialBijection, best) -> bool:
    return sum(icols[j][i] for i, j in sigma.pairs) == best


def is_permanent_attaining(arr: Arrangement, sigma: PartialBijection,
                           cap: int = DEFAULT_SCAN_CAP) -> bool:
    """True iff sigma's entry sum ties the optimum over all bijections with
    the same domain and image.  The empty bijection attains vacuously."""
    _check_bijection(arr.n, arr.d, sigma)
    if not sigma.pairs:
        return True
    best, _ = _block(arr._icols, arr.d, _mask(sigma.image),
                     _mask(sigma.domain), cap, arr._memo)
    return _attains(arr._icols, sigma, best)


def optimal_bijections(arr: Arrangement, rows, cols,
                       cap: int = DEFAULT_SCAN_CAP) -> frozenset:
    """The full argmax set of bijections from ``cols`` onto ``rows``:
    exactly those whose entry sum equals the block's permanent."""
    rows, cols = _check_block(arr.n, arr.d, rows, cols, min(arr.n, arr.d))
    _, masks = _block(arr._icols, arr.d, rows, cols, cap, arr._memo,
                      argmax=True)
    return frozenset(PartialBijection._from_mask(m, arr.d) for m in masks)


class PermanentStructure:
    """All permanent-attaining partial bijections of an arrangement of
    sizes 1..k_max, held as lazily computed argmax sets indexed by (image
    rows, domain columns), each block size capped at ``DEFAULT_SCAN_CAP``
    rows.  Its blocks are answered from the arrangement's one block memo,
    which every structure of the arrangement, ``optimal_bijections``,
    ``is_permanent_attaining`` and the cell test in ``complex`` share.  It
    keeps the arrangement's shape, integer columns and memo, not a
    reference to the arrangement.

    Queries are pure; the memo only holds deterministic recomputation,
    and no memo entry is replaced by one without its argmax set, so racing
    fills store equal answers and concurrent use is safe.  The bijections
    handed out derive their fields lazily, where a race also stores equal
    values.
    """

    def __init__(self, arr: Arrangement, k_max: int):
        limit = min(arr.n, arr.d)
        if not 1 <= k_max <= limit:
            raise ValueError(f"k_max must be between 1 and {limit}")
        self.n, self.d, self._icols = arr.n, arr.d, arr._icols
        self._memo = arr._memo
        self.k_max = k_max

    def _optimal(self, rows: int, cols: int):
        return _block(self._icols, self.d, rows, cols, DEFAULT_SCAN_CAP,
                      self._memo, argmax=True)

    def is_attaining(self, sigma: PartialBijection) -> bool:
        _check_bijection(self.n, self.d, sigma)
        k = len(sigma)
        if k == 0:
            return True
        if k > self.k_max:
            raise ValueError(f"bijection size {k} exceeds k_max={self.k_max}")
        best, _ = self._optimal(_mask(sigma.image), _mask(sigma.domain))
        return _attains(self._icols, sigma, best)

    def optimal(self, rows, cols) -> frozenset:
        """The full argmax set of bijections from the given columns onto the
        given rows; always non-empty."""
        rows, cols = _check_block(self.n, self.d, rows, cols, self.k_max)
        _, masks = self._optimal(rows, cols)
        return frozenset(PartialBijection._from_mask(m, self.d) for m in masks)

    def bijections(self):
        """Yield the empty bijection plus every attaining one of size up to
        k_max, grouped by (size, rows, cols), deterministically.

        The blocks are filled level by level: every block of size k - 1
        is in the memo with its argmax set before the first of size k, so
        ``_recur`` and ``_join`` read a block's k sub-blocks straight from
        the memo."""
        yield PartialBijection.empty()
        n, d, icols, memo = self.n, self.d, self._icols, self._memo
        from_mask = PartialBijection._from_mask
        for k in range(1, self.k_max + 1):
            _check_cap(k, DEFAULT_SCAN_CAP)
            row_sets = [(rows, _drops(rows))
                        for rows in map(_mask, combinations(range(n), k))]
            col_sets = []  # (column mask, last column, the others)
            for c in combinations(range(d), k):
                cols = _mask(c)
                col_sets.append((cols, c[-1], cols ^ (1 << c[-1])))
            for rows, drops in row_sets:
                for cols, c, rest in col_sets:
                    got = memo.get((rows, cols))
                    if got is None or got[1] is None:
                        best, tight = _recur(icols, d, drops, c, rest, memo)
                        got = memo[(rows, cols)] = (
                            best, _join(tight, d, c, rest, memo))
                    for m in got[1]:
                        yield from_mask(m, d)


def permanent_structure(arr: Arrangement, k_max=None) -> PermanentStructure:
    """The permanent structure of the arrangement covering sizes 1..k_max;
    k_max defaults to min(n, d).  Nothing is cached here: every structure
    answers from the arrangement's one block memo."""
    return PermanentStructure(
        arr, min(arr.n, arr.d) if k_max is None else k_max)
