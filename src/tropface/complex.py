"""The face poset of an arrangement: which zero-one matrices label cells,
their dimensions and boundedness, the face order, and the action of
ordered set partitions on them.

A matrix labels a cell iff (a) every column is non-empty, (b) every
partial bijection it contains attains the permanent of its block, and
(c) with any bijection it contains the whole argmax set of that block.
These checks consult only the permanent structure, never the geometry;
the geometric decision procedure in ``tropical`` is an independent
implementation of the same set and is used to cross-validate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .boolmat import BoolMatrix, _col_masks, _mask_elems
from .facemonoid import OrderedSetPartition, act_matrix
from .permanent import permanent_structure
from .tropical import Arrangement, _check_shape

DEFAULT_ENUM_CAP = 24


class CapExceeded(Exception):
    """The candidate space 2^(n*d) is larger than the configured cap allows."""


@dataclass(frozen=True)
class TypeCell:
    """A cell of the complex: its labelling matrix, its dimension in the
    quotient by the all-ones direction, and whether it is bounded there."""
    type: BoolMatrix
    dimension: int
    bounded: bool


def is_bounded(t: BoolMatrix) -> bool:
    """A cell is bounded exactly when every row of its label is non-empty."""
    return all(t.row_mask(i) for i in range(t.n))


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


def _cell(t: BoolMatrix) -> TypeCell:
    return TypeCell(t, *_ties(t))


def is_type(arr: Arrangement, s: BoolMatrix, structure=None) -> bool:
    """Decide from the permanent structure alone whether s labels a cell:
    (a) every column of s is non-empty, and every maximal partial
    bijection inside s attains its block's permanent with the block's
    whole argmax set inside s, which gives (b) and (c) for every
    bijection inside s (``PermanentStructure._maximal_attaining``).  One
    walk serves every shape and builds no type tables.  A ``structure``
    passed in must be one of this arrangement's, covering every size up
    to min(n, d); any other raises ValueError."""
    _check_shape(arr, s)
    if structure is None:
        structure = permanent_structure(arr)
    elif (structure._memo is not arr._memo
          or structure.k_max != min(arr.n, arr.d)):
        raise ValueError("structure is not this arrangement's full "
                         "permanent structure")
    if any(m == 0 for m in s.col_masks()):
        return False
    return structure._maximal_attaining(s)


def cell_of(arr: Arrangement, t: BoolMatrix, structure=None) -> TypeCell:
    """Decorate a type matrix with dimension and boundedness; raises
    ValueError if the matrix is not a type of this arrangement."""
    if not is_type(arr, t, structure):
        raise ValueError("matrix is not a type of this arrangement")
    return _cell(t)


def cell_dimension(arr: Arrangement, t: BoolMatrix, structure=None) -> int:
    """Number of tie components minus one: the dimension of the affine
    span of the cell's forced equalities, in the quotient."""
    return cell_of(arr, t, structure).dimension


def face_relation(c1: TypeCell, c2: TypeCell) -> bool:
    """True iff c2 is a face of c1, i.e. c1's label is entrywise below c2's."""
    return c1.type <= c2.type


def act_on_type(arr: Arrangement, cell: TypeCell,
                partition: OrderedSetPartition, structure=None) -> TypeCell:
    """Apply the block-partition action to a cell's label.  The result is
    again a cell; if it ever were not, the implementation is broken, so
    this aborts rather than returning."""
    moved = act_matrix(cell.type, partition)
    if not is_type(arr, moved, structure):
        raise RuntimeError(
            "action carried a type outside the type set; this contradicts a "
            "proved invariant and indicates a bug")
    return _cell(moved)


def enumerate_types(arr: Arrangement, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """All cells of the arrangement, sorted by their packed bit pattern.

    Columns are chosen left to right.  A tabulated bijection whose largest
    column is j has exactly one entry in column j, at some row r, so once
    the columns before j (the prefix) are fixed each constraint of column j
    is a fact about r: a non-attaining bijection whose part below column j
    lies in the prefix forbids r; an attaining one forbids r if the prefix
    misses part of its argmax union below column j, and otherwise makes r
    require the union's rows in column j.  Column j then takes every
    non-empty subset of the allowed rows that is closed under those
    implications.  ``cap`` bounds n*d (default 24).

    The search carries the tie components of the columns chosen so far
    (``_merge``, one column per level) and the rows they cover, so a leaf
    knows its cell's dimension and boundedness, as ``_ties`` would compute
    them, without a pass over its columns.  The cell's matrix holds the
    column row sets the search chose, so ``col_masks()`` on it, in the
    geometric cross-check and the CLI report, derives nothing again.
    The leaves are sorted once, on their packed bits, and only then made
    into cells: building each cell in the search, among its short-lived
    lists, raised the peak RSS of the tall benchmark jobs by about 1 MB.
    """
    n, d = arr.n, arr.d
    if n * d > cap:
        raise CapExceeded(f"candidate space 2^{n * d} exceeds cap 2^{cap}")
    nonatt_by_col, att_by_col = permanent_structure(arr).type_tables()
    full = (1 << n) - 1
    # lift[c]: the row set c placed in column 0 of the grid
    lift = [sum(1 << (i * d) for i in _mask_elems(c)) for c in range(1 << n)]

    # column j's table entries grouped by their part below column j, as
    # [rows the non-attaining ones forbid, [(row, argmax union below
    # column j, the union's rows in column j) of each attaining one]]
    split = []
    for j in range(d):
        below = ~(lift[full] << j)
        groups = {}
        for b in nonatt_by_col[j]:
            groups.setdefault(b & below, [0, []])[0] |= _col_masks(b, d)[j]
        for b, cl in att_by_col[j]:
            groups.setdefault(b & below, [0, []])[1].append(
                (_col_masks(b, d)[j], cl & below, _col_masks(cl, d)[j]))
        split.append(list(groups.items()))
    found = []  # (bits, column row sets, dimension, bounded) of each cell

    def rec(j, acc, cols, comps, covered):
        # cols: the row sets taken in columns 0..j-1; comps: their tie
        # components; covered: the rows they cover
        if j == d:
            found.append((acc, cols,
                          len(comps) + n - covered.bit_count() - 1,
                          covered == full))
            return
        forbid = 0
        needs = {}  # row bit -> the rows of column j that it requires
        for b, (forbidden, att) in split[j]:
            if b & acc == b:
                forbid |= forbidden
                for r, cl, need in att:
                    if cl & acc != cl:
                        forbid |= r
                    else:
                        needs[r] = needs.get(r, 0) | need
        allowed = full & ~forbid
        implies = [(r, rows) for r, rows in needs.items() if rows != r]
        c = allowed  # walk the non-empty subsets of the allowed rows
        while c:
            if all(not c & r or rows & c == rows for r, rows in implies):
                rec(j + 1, acc | lift[c] << j, cols + (c,),
                    _merge(comps, c), covered | c)
            c = (c - 1) & allowed

    rec(0, 0, (), [], 0)
    found.sort(key=itemgetter(0))
    return tuple(TypeCell(BoolMatrix._from_cols(n, d, bits, cols), dim, bnd)
                 for bits, cols, dim, bnd in found)
