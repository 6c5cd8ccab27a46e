"""The face poset of an arrangement: which zero-one matrices label cells,
their dimensions and boundedness, the face order, and the action of
ordered set partitions on them.

A matrix labels a cell iff (a) every column is non-empty, (b) every
partial bijection it contains attains the permanent of its block, and
(c) with any bijection it contains the whole argmax set of that block.
This module owns that test in both of its forms: ``_maximal_attaining``
decides it for one matrix, behind ``is_type``, and ``_column_constraints``
turns it into per-column constraints for the cell search in
``enumerate_types``.  Both read block argmax sets through
``permanent._argmax`` and never consult the geometry; the geometric
decision procedure in ``tropical`` is an independent implementation of
the same set and is used to cross-validate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .boolmat import BoolMatrix, _mask_elems
from .facemonoid import OrderedSetPartition, act_matrix
from .permanent import CapExceeded, _argmax
from .tropical import Arrangement, _check_shape

DEFAULT_ENUM_CAP = 24


@dataclass(frozen=True)
class TypeCell:
    """A cell of the complex: its labelling matrix, its dimension in the
    quotient by the all-ones direction, and whether it is bounded there."""
    type: BoolMatrix
    dimension: int
    bounded: bool


def _merge(comps: list, c: int) -> list:
    """The tie components (row sets) once the non-empty column c joins
    them: every component that meets c is absorbed, with c, into one."""
    merged = c
    rest = []
    for m in comps:
        if m & c:
            merged |= m
        else:
            rest.append(m)
    rest.append(merged)
    return rest


def _ties(t: BoolMatrix) -> tuple:
    """(dimension, bounded) of a type, from its column row sets, which
    ``col_masks()`` derives once per matrix.  Rows that share a column are
    tied; the dimension is the number of tie components, a row in no
    column counting as one, minus one, and the cell is bounded iff the
    columns cover every row.  ``enumerate_types`` reaches the same answer
    column by column through the same ``_merge``; this serves ``cell_of``
    and ``act_on_type``."""
    comps = []
    covered = 0
    for c in t.col_masks():
        if c:
            comps = _merge(comps, c)
            covered |= c
    return (len(comps) + t.n - covered.bit_count() - 1,
            covered == (1 << t.n) - 1)


def is_bounded(t: BoolMatrix) -> bool:
    """A cell is bounded exactly when every row of its label is non-empty."""
    return _ties(t)[1]


def _cell(t: BoolMatrix) -> TypeCell:
    return TypeCell(t, *_ties(t))


def _maximal_attaining(arr: Arrangement, s: BoolMatrix) -> bool:
    """True iff every maximal partial bijection inside s (one that no
    entry of s extends) attains its block's permanent and s holds the
    block's whole argmax set.  Every bijection inside s extends to a
    maximal one, and both properties pass from it down to its
    sub-bijections, so this is conditions (b) and (c) of the cell test.

    The walk takes the lines of the grid's shorter side in turn, so a
    bijection has at most one entry per line: each line either takes an
    entry of s whose cross line is still free, or is skipped, and then
    its free entries are pending: a later line must take each of them,
    or the bijection is not maximal.  A branch whose pending entries
    outnumber the lines left holds no maximal bijection.  At a leaf the
    block's argmax set comes from ``_argmax``."""
    d, bits = arr.d, s.bits
    by_cols = d <= arr.n
    if by_cols:  # line j, cross line i, grid bit i*d + j
        lines, step, cross = s.col_masks(), 1, d
    else:  # line i, cross line j
        lines, step, cross = s.row_masks(), d, 1
    last = len(lines)

    def rec(line, used, taken, mask, pending):
        # used: the cross lines taken; taken: the lines that took one
        if pending.bit_count() > last - line:
            return True
        if line == last:
            masks = (_argmax(arr, used, taken) if by_cols
                     else _argmax(arr, taken, used))
            if mask not in masks:
                return False
            return len(masks) == 1 or all(not a & ~bits for a in masks)
        free = lines[line] & ~used
        if not rec(line + 1, used, taken, mask, pending | free):
            return False
        here, at = 1 << line, line * step
        while free:
            low = free & -free
            free ^= low
            if not rec(line + 1, used | low, taken | here,
                       mask | 1 << (at + (low.bit_length() - 1) * cross),
                       pending & ~low):
                return False
        return True

    return rec(0, 0, 0, 0, 0)


def is_type(arr: Arrangement, s: BoolMatrix) -> bool:
    """Decide from block permanents alone whether s labels a cell: (a)
    every column of s is non-empty, and every maximal partial bijection
    inside s attains its block's permanent with the block's whole argmax
    set inside s, which gives (b) and (c) for every bijection inside s
    (``_maximal_attaining``).  Raises CapExceeded if a block it must
    solve has more rows than ``permanent.DEFAULT_SCAN_CAP``."""
    _check_shape(arr, s)
    if any(m == 0 for m in s.col_masks()):
        return False
    return _maximal_attaining(arr, s)


def cell_of(arr: Arrangement, t: BoolMatrix) -> TypeCell:
    """Decorate a type matrix with dimension and boundedness; raises
    ValueError if the matrix is not a type of this arrangement."""
    if not is_type(arr, t):
        raise ValueError("matrix is not a type of this arrangement")
    return _cell(t)


def cell_dimension(arr: Arrangement, t: BoolMatrix) -> int:
    """Number of tie components minus one: the dimension of the affine
    span of the cell's forced equalities, in the quotient."""
    return cell_of(arr, t).dimension


def face_relation(c1: TypeCell, c2: TypeCell) -> bool:
    """True iff c2 is a face of c1, i.e. c1's label is entrywise below c2's."""
    return c1.type <= c2.type


def act_on_type(arr: Arrangement, cell: TypeCell,
                partition: OrderedSetPartition) -> TypeCell:
    """Apply the block-partition action to a cell's label.  The result is
    again a cell; if it ever were not, the implementation is broken, so
    this aborts rather than returning."""
    moved = act_matrix(cell.type, partition)
    if not is_type(arr, moved):
        raise RuntimeError(
            "action carried a type outside the type set; this contradicts a "
            "proved invariant and indicates a bug")
    return _cell(moved)


def _column_constraints(arr: Arrangement) -> list:
    """The cell test as constraints of the search in ``enumerate_types``:
    per column j, one (parent, forbid, attaining) group for each partial
    bijection ``parent`` of the columns before j that a row can extend
    in column j.  One walk over the partial bijections of the full grid,
    columns ascending, files each extension, at row bit r, under its
    parent: in ``forbid`` if it misses its block's permanent, else in
    ``attaining`` as (r, the block's argmax union below column j, the
    rows the argmax set takes in column j).  Each block is read through
    ``_argmax`` and summarized once."""
    n, d = arr.n, arr.d
    full = (1 << n) - 1
    col0 = sum(1 << (i * d) for i in range(n))  # column 0 of the grid
    split = [[] for _ in range(d)]
    blocks = {}  # (rows, cols) -> (argmax masks, below, rows in column j)

    def rec(start, rows, used, mask):
        if rows == full:
            return
        for j in range(start, d):
            top, c = col0 << j, used | 1 << j
            forbid, att = 0, []
            free = full & ~rows
            while free:
                low = free & -free
                free ^= low
                r = rows | low
                m = mask | 1 << ((low.bit_length() - 1) * d + j)
                got = blocks.get((r, c))
                if got is None:
                    masks = _argmax(arr, r, c)
                    below = need = 0
                    for a in masks:
                        at = a & top
                        below |= a ^ at
                        need |= 1 << ((at.bit_length() - 1) // d)
                    got = blocks[(r, c)] = (frozenset(masks), below, need)
                if m in got[0]:
                    att.append((low, got[1], got[2]))
                else:
                    forbid |= low
                rec(j + 1, r, c, m)
            split[j].append((mask, forbid, att))

    rec(0, 0, 0, 0)
    return split


def enumerate_types(arr: Arrangement, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """All cells of the arrangement, sorted by their packed bit pattern.

    Columns are chosen left to right.  The constraints of column j are
    those groups of ``_column_constraints`` whose parent lies in the
    columns chosen before j (the prefix), read through a per-column index,
    parent -> (forbid, kept entries).  ``forbid`` forbids its rows; a kept
    attaining entry forbids its row r if the prefix misses part of its
    argmax union below column j, and otherwise makes r require the union's
    rows in column j.  Column j then takes every non-empty subset of the
    allowed rows that is closed under those implications.  ``cap`` bounds
    n*d (default 24).

    An attaining entry whose argmax set takes only its own row r in
    column j is dropped from the index, because it holds for every prefix
    the search reaches.  Every optimal bijection of its block is then an
    optimal bijection of the parent's block plus (r, j), so its union
    below column j is the parent's argmax set; and the search put that set
    into the prefix when it took the parent's last entry (by induction
    from the empty parent), so the entry neither forbids r nor requires
    more than r.  On generic arrangements nearly every entry is of this
    kind.

    The search carries ``inside``, the (grid mask, row set) pairs of the
    partial bijections inside the prefix: a child adds each of them
    extended by a free row of the column just chosen, so a node reads
    only the index entries of its own parents.  It also carries the tie
    components of the columns chosen so far (``_merge``, one column per
    level) and the rows they cover.  The last column's loop emits the
    leaves: a cell's dimension, as ``_ties`` would compute it, counts the
    components the last column meets, so no leaf merges.  The cell's
    matrix holds the column row sets the search chose, so ``col_masks()``
    on it, in the geometric cross-check and the CLI report, derives
    nothing again.  The leaves are sorted once, on their packed bits, and
    only then made into cells: building each cell in the search, among
    its short-lived lists, raised the peak RSS of the tall benchmark jobs
    by about 1 MB.
    """
    n, d = arr.n, arr.d
    if n * d > cap:
        raise CapExceeded(f"candidate space 2^{n * d} exceeds cap 2^{cap}")
    index = []  # per column: parent mask -> (forbid, kept attaining entries)
    for groups in _column_constraints(arr):
        by_parent = {}
        for b, forbid, att in groups:
            kept = [(r, cl, need) for r, cl, need in att if need != r]
            if forbid or kept:
                by_parent[b] = (forbid, kept)
        index.append(by_parent)
    full = (1 << n) - 1
    # lift[c]: the row set c placed in column 0 of the grid
    lift = [sum(1 << (i * d) for i in _mask_elems(c)) for c in range(1 << n)]
    found = []  # (bits, column row sets, dimension, bounded) of each cell

    def rec(j, acc, cols, comps, covered, inside):
        # cols: the row sets taken in columns 0..j-1; comps: their tie
        # components; covered: the rows they cover; inside: the (mask,
        # rows) of every partial bijection inside them
        at = index[j]
        forbid = 0
        implies = []  # (row bit, the rows of column j that it requires)
        for b, _ in inside:
            got = at.get(b)
            if got is not None:
                forbid |= got[0]
                for r, cl, need in got[1]:
                    if cl & acc != cl:
                        forbid |= r
                    else:
                        implies.append((r, need))
        allowed = full & ~forbid
        last = j == d - 1
        c = allowed  # walk the non-empty subsets of the allowed rows
        while c:
            if not implies or all(not c & r or rows & c == rows
                                  for r, rows in implies):
                bits = acc | lift[c] << j
                if last:  # c joins the components it meets into one
                    cov = covered | c
                    dim = n - cov.bit_count()
                    for m in comps:
                        if not m & c:
                            dim += 1
                    found.append((bits, cols + (c,), dim, cov == full))
                else:
                    ext = inside[:]
                    for b, rows in inside:
                        free = c & ~rows
                        while free:
                            low = free & -free
                            free ^= low
                            ext.append((b | lift[low] << j, rows | low))
                    rec(j + 1, bits, cols + (c,), _merge(comps, c),
                        covered | c, ext)
            c = (c - 1) & allowed

    rec(0, 0, (), [], 0, [(0, 0)])
    found.sort(key=itemgetter(0))
    return tuple(TypeCell(BoolMatrix._from_cols(n, d, bits, cols), dim, bnd)
                 for bits, cols, dim, bnd in found)
