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

from .boolmat import BoolMatrix, _mask_elems, contained_partial_bijections
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


def _bounded_bits(bits: int, n: int, d: int) -> bool:
    full = (1 << d) - 1
    return all((bits >> (i * d)) & full for i in range(n))


def _dimension_bits(bits: int, n: int, d: int) -> int:
    # rows sharing a column are tied; dimension = (#tie components) - 1
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(d):
        first = -1
        for i in range(n):
            if (bits >> (i * d + j)) & 1:
                if first < 0:
                    first = i
                else:
                    ra, rb = find(first), find(i)
                    if ra != rb:
                        parent[ra] = rb
    return len({find(i) for i in range(n)}) - 1


def _cell(t: BoolMatrix) -> TypeCell:
    return TypeCell(t, _dimension_bits(t.bits, t.n, t.d),
                    _bounded_bits(t.bits, t.n, t.d))


def is_type(arr: Arrangement, s: BoolMatrix, structure=None) -> bool:
    """Decide from the permanent structure alone whether s labels a cell."""
    _check_shape(arr, s)
    if structure is None:
        structure = permanent_structure(arr)
    if any(m == 0 for m in s.col_masks()):
        return False
    if arr.n * arr.d <= DEFAULT_ENUM_CAP:  # small enough to tabulate
        nonatt_by_col, att_by_col = structure.type_tables()
        bits = s.bits
        for per_col in nonatt_by_col:
            for b in per_col:
                if b & bits == b:
                    return False
        for per_col in att_by_col:
            for b, closure in per_col:
                if b & bits == b and closure & bits != closure:
                    return False
        return True
    # large grids: walk the contained bijections of s directly
    for sigma in contained_partial_bijections(s):
        if not sigma.pairs:
            continue
        if not structure.is_attaining(sigma):
            return False
        for tau in structure.optimal(sigma.image, sigma.domain):
            if tau.as_matrix(arr.n, arr.d).bits & ~s.bits:
                return False
    return True


def cell_of(arr: Arrangement, t: BoolMatrix, structure=None) -> TypeCell:
    """Decorate a type matrix with dimension and boundedness; raises
    ValueError if the matrix is not a type of this arrangement."""
    if not is_type(arr, t, structure):
        raise ValueError("matrix is not a type of this arrangement")
    return _cell(t)


def cell_dimension(arr: Arrangement, t: BoolMatrix, structure=None) -> int:
    """Number of tie components minus one: the dimension of the affine
    span of the cell's forced equalities, in the quotient."""
    if not is_type(arr, t, structure):
        raise ValueError("matrix is not a type of this arrangement")
    return _dimension_bits(t.bits, t.n, t.d)


def face_relation(c1: TypeCell, c2: TypeCell) -> bool:
    """True iff c2 is a face of c1, i.e. c1's label is entrywise below c2's."""
    return c1.type <= c2.type


def act_on_type(arr: Arrangement, cell: TypeCell,
                partition: OrderedSetPartition, structure=None) -> TypeCell:
    """Apply the block-partition action to a cell's label.  The result is
    again a cell; if it ever were not, the implementation is broken, so
    this aborts rather than returning."""
    if structure is None:
        structure = permanent_structure(arr)
    moved = act_matrix(cell.type, partition)
    if not is_type(arr, moved, structure):
        raise RuntimeError(
            "action carried a type outside the type set; this contradicts a "
            "proved invariant and indicates a bug")
    return _cell(moved)


def enumerate_types(arr: Arrangement, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """All cells of the arrangement, sorted by their packed bit pattern.

    Candidates are scanned column by column (only non-empty column choices)
    and a branch is abandoned as soon as the partial grid contains a
    non-attaining bijection or misses part of an argmax set, which prunes
    the bulk of the 2^(n*d) space.  ``cap`` bounds n*d (default 24).
    """
    n, d = arr.n, arr.d
    if n * d > cap:
        raise CapExceeded(f"candidate space 2^{n * d} exceeds cap 2^{cap}")
    nonatt_by_col, att_by_col = permanent_structure(arr).type_tables()
    # lift[c]: the row set c placed in column 0 of the grid
    lift = [sum(1 << (i * d) for i in _mask_elems(c)) for c in range(1 << n)]
    found = []

    def rec(j, acc):
        if j == d:
            found.append(acc)
            return
        nonatt = nonatt_by_col[j]
        att = att_by_col[j]
        for c in range(1, 1 << n):
            bits = acc | lift[c] << j
            ok = True
            for b in nonatt:
                if b & bits == b:
                    ok = False
                    break
            if ok:
                for b, closure in att:
                    if b & bits == b and closure & bits != closure:
                        ok = False
                        break
            if ok:
                rec(j + 1, bits)

    rec(0, 0)
    found.sort()
    return tuple(_cell(BoolMatrix(n, d, bits)) for bits in found)
