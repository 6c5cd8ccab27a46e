"""Max-plus permanents of square submatrices and the bookkeeping of which
partial bijections attain them.

The permanent of a k x k block is the maximum over permutations of the
sum of selected entries; a partial bijection attains it when its own sum
equals that maximum on the block it selects.  Both questions are the
assignment problem, solved exactly by one dynamic program over the set of
rows used by a prefix of the columns (2^k states, guarded by a size cap).
The full argmax set is read back from the same table by following only
the transitions that achieve each state's optimum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .boolmat import (BoolMatrix, PartialBijection, _mask_elems,
                      contained_partial_bijections)
from .tropical import Arrangement, _rat

DEFAULT_SCAN_CAP = 8


def _assignment(sub, cap: int, cells=None):
    """Max over bijections a of sum_b sub[a(b)][b] for a k x k list ``sub``.

    best[s] is the optimum of assigning the first popcount(s) columns onto
    the row set s.  With ``cells`` (cells[a][b] the grid bit of entry (a, b))
    the result also carries the sorted grid masks of every optimal
    bijection; ``cap`` bounds k, since the table has 2^k entries and the
    argmax set up to k! members.
    """
    k = len(sub)
    if k > cap:
        raise ValueError(f"size {k} exceeds the scan cap {cap}")
    best = [0] * (1 << k)
    for s in range(1, 1 << k):
        b = s.bit_count() - 1
        best[s] = max(best[s ^ (1 << a)] + sub[a][b]
                      for a in range(k) if s >> a & 1)
    full = (1 << k) - 1
    if cells is None:
        return best[full], None
    masks = []

    def walk(s, b, mask):
        # every state on the way back is reached by a tight transition, so
        # each branch ends in an optimal bijection
        if not s:
            masks.append(mask)
            return
        for a in _mask_elems(s):
            t = s ^ (1 << a)
            if best[t] + sub[a][b] == best[s]:
                walk(t, b - 1, mask | cells[a][b])

    walk(full, k - 1, 0)
    masks.sort()
    return best[full], tuple(masks)


def _block(arr: Arrangement, rows: tuple, cols: tuple, cap: int, argmax: bool):
    """The assignment kernel on the rows x cols block of the integer-rescaled
    matrix; with ``argmax`` also the grid masks of its optimal bijections."""
    icols, d = arr._icols, arr.d
    sub = [[icols[j][i] for j in cols] for i in rows]
    cells = [[1 << (i * d + j) for j in cols] for i in rows] if argmax else None
    return _assignment(sub, cap, cells)


def tropical_permanent(x, cap: int = DEFAULT_SCAN_CAP) -> Fraction:
    """Max over permutations p of sum_b x[p(b)][b], for a square matrix."""
    rows = [[_rat(v) for v in row] for row in x]
    k = len(rows)
    if k < 1 or any(len(r) != k for r in rows):
        raise ValueError("input must be a non-empty square matrix")
    return _assignment(rows, cap)[0]


def _check_bijection(arr: Arrangement, sigma: PartialBijection):
    if sigma.pairs and (sigma.image[-1] >= arr.n or sigma.domain[-1] >= arr.d
                        or sigma.image[0] < 0 or sigma.domain[0] < 0):
        raise ValueError("bijection uses rows or columns outside the matrix")


def _check_block(arr: Arrangement, rows, cols, k_max: int):
    """Sorted (rows, cols) of a valid block of size 1..k_max."""
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    if not 1 <= len(rows) <= k_max:
        raise ValueError(f"block size must be between 1 and {k_max}")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("repeated indices")
    if rows[0] < 0 or cols[0] < 0 or rows[-1] >= arr.n or cols[-1] >= arr.d:
        raise ValueError("indices outside the matrix")
    return rows, cols


def _attains(arr: Arrangement, sigma: PartialBijection, best) -> bool:
    icols = arr._icols
    return sum(icols[j][i] for i, j in sigma.pairs) == best


def _bijection(mask: int, d: int) -> PartialBijection:
    return PartialBijection(divmod(p, d) for p in _mask_elems(mask))


def is_permanent_attaining(arr: Arrangement, sigma: PartialBijection,
                           cap: int = DEFAULT_SCAN_CAP) -> bool:
    """True iff sigma's entry sum ties the optimum over all bijections with
    the same domain and image.  The empty bijection attains vacuously."""
    _check_bijection(arr, sigma)
    if not sigma.pairs:
        return True
    best, _ = _block(arr, sigma.image, sigma.domain, cap, argmax=False)
    return _attains(arr, sigma, best)


def optimal_bijections(arr: Arrangement, rows, cols,
                       cap: int = DEFAULT_SCAN_CAP) -> frozenset:
    """The full argmax set of bijections from ``cols`` onto ``rows``:
    exactly those whose entry sum equals the block's permanent."""
    rows, cols = _check_block(arr, rows, cols, min(arr.n, arr.d))
    _, masks = _block(arr, rows, cols, cap, argmax=True)
    return frozenset(_bijection(m, arr.d) for m in masks)


class PermanentStructure:
    """All permanent-attaining partial bijections of an arrangement, held
    as lazily computed argmax sets indexed by (image rows, domain columns),
    plus the type tables derived from them.

    Queries are pure; the caches only memoize deterministic recomputation,
    so racing fills store identical values and concurrent use is safe.
    """

    def __init__(self, arr: Arrangement, k_max: int, cap: int = DEFAULT_SCAN_CAP):
        self.arrangement = arr
        self.k_max = k_max
        self.cap = cap
        self._cache = {}
        self._tables = None

    def _optimal(self, rows: tuple, cols: tuple):
        key = (rows, cols)
        got = self._cache.get(key)
        if got is None:
            got = self._cache.setdefault(
                key, _block(self.arrangement, rows, cols, self.cap, argmax=True))
        return got

    def is_attaining(self, sigma: PartialBijection) -> bool:
        _check_bijection(self.arrangement, sigma)
        k = len(sigma)
        if k == 0:
            return True
        if k > self.k_max:
            raise ValueError(f"bijection size {k} exceeds k_max={self.k_max}")
        best, _ = self._optimal(sigma.image, sigma.domain)
        return _attains(self.arrangement, sigma, best)

    def optimal(self, rows, cols) -> frozenset:
        """The full argmax set of bijections from the given columns onto the
        given rows; always non-empty."""
        rows, cols = _check_block(self.arrangement, rows, cols, self.k_max)
        _, masks = self._optimal(rows, cols)
        d = self.arrangement.d
        return frozenset(_bijection(m, d) for m in masks)

    def bijections(self):
        """Yield the empty bijection plus every attaining one of size up to
        k_max, grouped by (size, rows, cols), deterministically."""
        yield PartialBijection.empty()
        n, d = self.arrangement.n, self.arrangement.d
        for k in range(1, self.k_max + 1):
            for rows in combinations(range(n), k):
                for cols in combinations(range(d), k):
                    _, masks = self._optimal(rows, cols)
                    for m in masks:
                        yield _bijection(m, d)

    def type_tables(self) -> tuple:
        """(non-attaining, attaining) constraint tables of the cell test,
        each indexed by a bijection's largest column: the grid masks of the
        non-empty partial bijections that miss their block's permanent, and
        (mask, union of the block's argmax masks) for those that attain it.
        Built on first use from every partial bijection of the full grid."""
        if self._tables is None:
            n, d = self.arrangement.n, self.arrangement.d
            nonatt = [[] for _ in range(d)]
            att = [[] for _ in range(d)]
            full = BoolMatrix(n, d, (1 << (n * d)) - 1)
            for sigma in contained_partial_bijections(full):
                if not sigma.pairs:
                    continue
                mask = sigma.as_matrix(n, d).bits
                last = sigma.domain[-1]
                if self.is_attaining(sigma):
                    closure = 0
                    for m in self._optimal(sigma.image, sigma.domain)[1]:
                        closure |= m
                    att[last].append((mask, closure))
                else:
                    nonatt[last].append(mask)
            self._tables = (tuple(map(tuple, nonatt)), tuple(map(tuple, att)))
        return self._tables


def permanent_structure(arr: Arrangement, k_max=None,
                        cap: int = DEFAULT_SCAN_CAP) -> PermanentStructure:
    """The (cached) permanent structure of the arrangement covering sizes
    1..k_max; k_max defaults to min(n, d)."""
    limit = min(arr.n, arr.d)
    if k_max is None:
        k_max = limit
    if not 1 <= k_max <= limit:
        raise ValueError(f"k_max must be between 1 and {limit}")
    got = arr._structures.get(k_max)
    if got is None:
        got = arr._structures.setdefault(k_max, PermanentStructure(arr, k_max, cap))
    return got
