"""Max-plus permanents of square submatrices and the bookkeeping of which
partial bijections attain them.

The permanent of a k x k block is the maximum over permutations of the
sum of selected entries; a partial bijection attains it when its own sum
equals that maximum on the block it selects.  Both questions are the
assignment problem, solved exactly by one recurrence on (row set, column
set), ``_recur``: the last column c goes to some row a, and what is left
is the block without both.  That sub-problem is a block too, so each
arrangement keeps one memo of block answers, shared by all its structures
and queries, and solves each block once.  An answer is the block's
permanent and its *tight rows*: the row mask of the rows a whose
sub-block's permanent plus entry (a, c) reaches it.

The memo has two levels, column set first: memo[cols] is that column
set's *slab*, a dict from row set to answer.  The k sub-blocks of a k x k
block all lie in one slab, memo[cols without c], and are read by their
row masks alone.  One reader, ``_argmax``, answers every question about
one block, from the module functions, the structures and the cell layer
in ``complex``.  It reads the memo first and solves top-down (``_solve``)
only a block the memo lacks; only such a solve is refused above the scan
cap.  A structure's drain fills its blocks level by level, one column set
at a time.  Both make a new slab with ``memo.setdefault(cols, {})``, so
fills that race never drop one.  Entries are integers: the arrangement's
matrix rescaled to a common denominator.

A block's argmax set, the set of its optimal bijections, is each tight
row a's entry (a, c) joined to every optimal bijection of a's sub-block.
It is never stored: one join, ``_join_slab``, makes it for the blocks of
one slab from the sets of the slab below, called by the drain once per
column set and, through the top-down ``_masks``, by
``optimal_bijections``.  Everything inside works on bit masks: a block is
a (row mask, column mask) pair and a bijection is its grid mask, bit
i*d + j for the pair (i, j).  ``PartialBijection`` objects are made only
where a public function returns them, by the trusted
``PartialBijection._from_mask``, which derives the pairs from the mask
when they are first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .boolmat import PartialBijection, _expect, _index, _mask, _mask_elems
from .tropical import Arrangement

DEFAULT_SCAN_CAP = 8


class CapExceeded(ValueError):
    """A size cap refused the input: a block of more rows than the scan
    cap that a call would have to solve, a cell search whose candidate
    space 2^(n*d) is past the enumeration cap, or more ordered set
    partitions than the partition cap allows.  The scan cap bounds only
    what is solved: a block already in the arrangement's memo is read
    back at any size, and its argmax set is joined from the memo, unless
    the block has more rows than the cap and the set, counted from the
    memo first, more than cap! bijections."""


@lru_cache(maxsize=4096)
def _drops(rows: int) -> tuple:
    """(a, rows without a) for each row a in the bit mask ``rows``,
    ascending; remembered for the row sets met most."""
    return tuple([(a, rows ^ (1 << a)) for a in _mask_elems(rows)])


def _recur(col, drops, sub: dict) -> tuple:
    """(permanent, tight rows) of the block of the rows that ``drops``
    lists and last column c, where col[i] is entry (i, c): the max over
    rows a of the sub-block without a plus entry (a, c), and the mask of
    the rows that reach it.  ``sub``, the slab of the columns without c,
    must hold every sub-block."""
    best = None
    for a, r in drops:
        v = sub[r][0] + col[a]
        if best is None or v > best:
            best, tight = v, 1 << a
        elif v == best:
            tight |= 1 << a
    return best, tight


def _solve(icols, rows: int, cols: int, memo: dict) -> tuple:
    """The memo entry (permanent, tight rows) of the block (row mask,
    column mask), where icols[j][i] is entry (i, j), solved top-down: the
    missing sub-blocks are solved into their slab first, then ``_recur``
    answers the block.  The empty block's entry is (0, 0)."""
    slab = memo.get(cols) or memo.setdefault(cols, {})
    got = slab.get(rows)
    if got is not None:
        return got
    if not cols:
        return slab.setdefault(rows, (0, 0))
    c = cols.bit_length() - 1
    rest = cols ^ (1 << c)
    drops = _drops(rows)
    sub = memo.get(rest) or memo.setdefault(rest, {})
    for _, r in drops:
        if r not in sub:
            _solve(icols, r, rest, memo)
    return slab.setdefault(rows, _recur(icols[c], drops, sub))


def _argmax(arr: Arrangement, rows: int, cols: int,
            cap: int = DEFAULT_SCAN_CAP) -> tuple:
    """The memo entry (permanent, tight rows) of the block (row mask,
    column mask), the one reader of a single block.  Only a block the
    arrangement's memo lacks is solved into it, by ``_solve``, and only
    that solve is refused above ``cap`` rows."""
    try:
        return arr._memo[cols][rows]
    except KeyError:
        _check_cap(rows.bit_count(), cap)
        return _solve(arr._icols, rows, cols, arr._memo)


def _join_slab(d: int, c: int, slab: dict, row_sets, below: dict,
               out: dict):
    """Set out[rows], for each row mask in ``row_sets``, to the sorted grid
    masks of the argmax set of that block of ``slab``, a memo slab whose
    last column is c: each tight row a's entry (a, c) joined to every
    mask of its sub-block, which ``below`` holds by row mask.  With one
    tight row the sub-block's order stands."""
    for rows in row_sets:
        tight = slab[rows][1]
        if tight & (tight - 1):
            joined = []
            for a in _mask_elems(tight):
                bit = 1 << (a * d + c)
                joined += [m | bit for m in below[rows ^ (1 << a)]]
            joined.sort()
            out[rows] = tuple(joined)
        else:
            bit = 1 << ((tight.bit_length() - 1) * d + c)
            masks = below[rows ^ tight]
            if len(masks) == 1:  # the common case, without a comprehension
                out[rows] = (masks[0] | bit,)
            else:
                out[rows] = tuple([m | bit for m in masks])


def _masks(arr: Arrangement, rows: int, cols: int, known: dict) -> tuple:
    """The sorted grid masks of the argmax set of the block (row mask,
    column mask), which ``_argmax`` must have put in the memo, joined
    after its tight rows' sub-blocks.  ``known`` maps the row masks one
    call has joined to their masks, as in ``_count``: a sub-block's
    columns are the lowest of ``cols``, as many as it has rows, so its
    row mask is the whole key.  It starts as {0: (0,)}, the empty block's
    one bijection."""
    if rows not in known:
        c = cols.bit_length() - 1
        rest = cols ^ (1 << c)
        entries = arr._memo[cols]
        for a in _mask_elems(entries[rows][1]):
            _masks(arr, rows ^ (1 << a), rest, known)
        _join_slab(arr.d, c, entries, (rows,), known, known)
    return known[rows]


def _count(arr: Arrangement, rows: int, cols: int, known: dict) -> int:
    """The size of the argmax set of the block (row mask, column mask),
    which ``_argmax`` must have put in the memo: the sum, over its tight
    rows, of the sizes of their sub-blocks' sets.  ``known`` maps the row
    masks counted so far to their sizes: a sub-block's columns are the
    lowest of ``cols``, as many as it has rows, so its row mask is the
    whole key.  It starts as {0: 1}, the empty block's one bijection."""
    got = known.get(rows)
    if got is None:
        rest = cols ^ (1 << (cols.bit_length() - 1))
        got = known[rows] = sum(
            _count(arr, rows ^ (1 << a), rest, known)
            for a in _mask_elems(_argmax(arr, rows, cols)[1]))
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
    best = _argmax(arr, full, full, _index(cap))[0]
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
    rows, cols = _mask(rows), _mask(cols)
    _argmax(arr, rows, cols, cap)
    k = rows.bit_count()
    if k > cap and _count(arr, rows, cols, {0: 1}) > factorial(cap):
        raise CapExceeded(f"size {k} argmax set exceeds {cap}! bijections "
                          f"(scan cap {cap})")
    masks = _masks(arr, rows, cols, {0: (0,)})
    return frozenset(PartialBijection._from_mask(m, arr.d) for m in masks)


def is_permanent_attaining(arr: Arrangement, sigma: PartialBijection,
                           cap: int = DEFAULT_SCAN_CAP) -> bool:
    """True iff sigma's entry sum ties the optimum over all bijections with
    the same domain and image.  The empty bijection attains vacuously."""
    cap = _index(cap)
    _check_bijection(arr, sigma)
    if not sigma.pairs:
        return True
    best = _argmax(arr, _mask(sigma.image), _mask(sigma.domain), cap)[0]
    icols = arr._icols
    return sum(icols[j][i] for i, j in sigma.pairs) == best


def optimal_bijections(arr: Arrangement, rows, cols,
                       cap: int = DEFAULT_SCAN_CAP) -> frozenset:
    """The full argmax set of bijections from ``cols`` onto ``rows``:
    exactly those whose entry sum equals the block's permanent."""
    return _argmax_set(arr, rows, cols, None, _index(cap))


class PermanentStructure:
    """All permanent-attaining partial bijections of an arrangement of
    sizes 1..k_max, indexed by (image rows, domain columns), each block
    size capped at ``DEFAULT_SCAN_CAP`` rows; k_max defaults to min(n, d),
    here only.  It keeps a reference to its arrangement and answers from
    the arrangement's one block memo, which every structure of the
    arrangement, the module functions and the cell layer in ``complex``
    share: ``is_attaining`` and ``optimal`` check k_max and then answer
    as ``is_permanent_attaining`` and ``optimal_bijections`` do.

    Queries are pure; the memo only holds deterministic recomputation.
    Racing fills never drop a slab (``memo.setdefault``) and store equal
    answers, and argmax sets are joined per call, so concurrent use is
    safe.  The bijections handed out derive their fields lazily, where a
    race also stores equal values.
    """

    def __init__(self, arr: Arrangement, k_max=None):
        _expect(arr, Arrangement)
        limit = min(arr.n, arr.d)
        k_max = limit if k_max is None else _index(k_max)
        if not 1 <= k_max <= limit:
            raise ValueError(f"k_max must be between 1 and {limit}")
        self._arr = arr
        self.n, self.d, self.k_max = arr.n, arr.d, k_max

    def is_attaining(self, sigma: PartialBijection) -> bool:
        _expect(sigma, PartialBijection)
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
        before the first of size k, so ``_recur`` reads a block's k
        sub-blocks from the one slab memo[cols without its last column],
        and its answer goes straight into the slab memo[cols].  Then
        ``_join_slab`` joins the column set's argmax sets from those of
        the level below, which the drain keeps for one level only.  A
        level is filled whole before it is yielded, rows then cols."""
        yield PartialBijection.empty()
        n, d, arr = self.n, self.d, self._arr
        icols, memo = arr._icols, arr._memo
        from_mask = PartialBijection._from_mask
        _solve(icols, 0, 0, memo)  # the empty block, under level 1
        below = {0: {0: (0,)}}  # column mask -> row mask -> argmax masks
        for k in range(1, self.k_max + 1):
            _check_cap(k, DEFAULT_SCAN_CAP)
            row_sets = list(map(_mask, combinations(range(n), k)))
            drops = [_drops(rows) for rows in row_sets]
            level = {}
            for c in combinations(range(d), k):
                cols = _mask(c)
                rest = cols ^ (1 << c[-1])
                sub = memo[rest]  # made by the level below
                slab = memo.get(cols) or memo.setdefault(cols, {})
                col = icols[c[-1]]
                for rows, drop in zip(row_sets, drops):
                    if rows not in slab:
                        slab[rows] = _recur(col, drop, sub)
                _join_slab(d, c[-1], slab, row_sets, below[rest],
                           level.setdefault(cols, {}))
            for rows in row_sets:
                for joined in level.values():
                    for m in joined[rows]:
                        yield from_mask(m, d)
            below = level


def permanent_structure(arr: Arrangement, k_max=None) -> PermanentStructure:
    """``PermanentStructure(arr, k_max)``, which checks both arguments and
    owns the default k_max = min(n, d).  Nothing is cached here: every
    structure answers from the arrangement's one block memo."""
    return PermanentStructure(arr, k_max)
