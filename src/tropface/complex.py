"""The face poset of an arrangement: which zero-one matrices label cells,
their dimensions and boundedness, the face order, and the action of
ordered set partitions on them.

A matrix labels a cell iff (a) every column is non-empty, (b) every
partial bijection it contains attains the permanent of its block, and
(c) with any bijection it contains the whole argmax set of that block.
Once a bijection's prefix attains, (b) and (c) depend only on blocks and
their tight rows (see ``permanent``): the bijection attains iff its row
in the last column is tight in its block, and a block's argmax set is
each tight row's entry joined to the argmax set of that row's sub-block.
This module owns that test in both of its forms, each over blocks,
columns ascending: ``is_type`` walks it for one matrix, and ``_rule``
gives what one block asks of a later column, the constraint that the
cell search ``_search`` reads for each block inside its chosen columns.
Both read tight rows through ``permanent._argmax``, never an argmax set,
and never consult the geometry; the geometric decision procedure in
``tropical`` is an independent implementation of the same set and is
used to cross-validate it.  ``enumerate_types`` sorts the search's
leaves and makes them into cells; the CLI report reads the leaves
directly.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from .boolmat import (BoolMatrix, CapExceeded, _Value, _expect, _index,
                      _mask_elems)
from .facemonoid import OrderedSetPartition, act_matrix
from .permanent import _argmax
from .tropical import Arrangement, _check_shape

DEFAULT_ENUM_CAP = 24


class TypeCell(_Value, fields=("type", "dimension", "bounded")):
    """A cell of the complex: its labelling matrix, its dimension in the
    quotient by the all-ones direction, and whether it is bounded there.
    A ``_Value``: the fields ``type``, ``dimension`` and ``bounded`` are
    read-only, and equality, hashing and pickling read them.  The
    constructor refuses malformed fields: a type that is not a
    ``BoolMatrix`` or a bounded that is not a bool with TypeError, a
    dimension that is not an int with TypeError and one outside 0..n-1
    with ValueError.  It does not decide whether the type is a cell of
    any arrangement; ``cell_of`` does."""

    __slots__ = ("_type", "_dimension", "_bounded")

    def __new__(cls, type: BoolMatrix, dimension: int, bounded: bool):
        _expect(type, BoolMatrix)
        dimension = _index(dimension)
        if not 0 <= dimension < type._n:
            raise ValueError(f"dimension {dimension} out of range for a "
                             f"type with {type._n} rows")
        _expect(bounded, bool)
        return cls._raw(type, dimension, bounded)

    @classmethod
    def _raw(cls, type: BoolMatrix, dimension: int,
             bounded: bool) -> "TypeCell":
        # trusted constructor, the only writer of the slots: the public
        # one calls it after its checks, and the search and _ties give
        # valid fields
        self = object.__new__(cls)
        self._type = type
        self._dimension = dimension
        self._bounded = bounded
        return self

    def __repr__(self) -> str:
        return (f"TypeCell(type={self._type!r}, "
                f"dimension={self._dimension!r}, bounded={self._bounded!r})")


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
    columns cover every row.  ``_search`` reaches the same answer column
    by column through the same ``_merge``; this serves ``cell_of``,
    ``act_on_type`` and the CLI's ``act``."""
    comps = []
    covered = 0
    for c in t.col_masks():
        if c:
            comps = _merge(comps, c)
            covered |= c
    return (len(comps) + t._n - covered.bit_count() - 1,
            covered == (1 << t._n) - 1)


def is_bounded(t: BoolMatrix) -> bool:
    """A cell is bounded exactly when every row of its label is non-empty."""
    _expect(t, BoolMatrix)
    return _ties(t)[1]


def _cell(t: BoolMatrix) -> TypeCell:
    return TypeCell._raw(t, *_ties(t))


def is_type(arr: Arrangement, s: BoolMatrix) -> bool:
    """Decide from block permanents alone whether s labels a cell: (a)
    every column of s is non-empty, (b) every partial bijection inside s
    attains its block's permanent, and (c) the block's whole argmax set
    lies inside s.  Raises CapExceeded if a block it must read has more
    rows than ``permanent.DEFAULT_SCAN_CAP``.

    The walk takes the columns in turn, as the cell search ``_search``
    grows bijections.  It carries the blocks of the bijections inside
    the columns taken so far, as keys cols << n | rows, from the empty
    block, and grows each block by every row of s in the next column j
    that it does not use.  Then (b) is one bit test per
    (block, row), the row being tight in the grown block; by induction
    over the columns, every bijection inside s then attains.  (c) is
    checked once per grown block: its tight rows lie in column j of s,
    and the sub-block of each is among the walk's blocks, which have
    passed (c) already."""
    _check_shape(arr, s)
    lines = s.col_masks()
    if not all(lines):
        return False
    n = arr.n
    full = (1 << n) - 1
    blocks = {0}  # keys cols << n | rows, the empty block first
    for j, c in enumerate(lines):
        here = 1 << (n + j)
        grown = {}  # key -> tight rows
        for key in blocks:
            free = c & ~key
            if not free:
                continue
            for i in _mask_elems(free):
                k = key | here | 1 << i
                tight = grown.get(k)
                if tight is None:
                    tight = grown[k] = _argmax(arr, k & full, k >> n)[1]
                    if tight & ~c:
                        return False
                    if tight & (tight - 1) and any(
                            k ^ here ^ 1 << a not in blocks
                            for a in _mask_elems(tight)):
                        return False
                if not tight >> i & 1:
                    return False
        blocks.update(grown)
    return True


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
    _expect(c1, TypeCell)
    _expect(c2, TypeCell)
    return c1.type <= c2.type


def act_on_type(arr: Arrangement, cell: TypeCell,
                partition: OrderedSetPartition) -> TypeCell:
    """Apply the block-partition action to a cell's label; ``cell`` must
    be a cell of ``arr``.  The result is again a cell.  If it is not, the
    label is checked only then: a cell that is not one of ``arr`` raises
    ValueError, and otherwise the implementation is broken, so this
    raises RuntimeError rather than returning."""
    _expect(cell, TypeCell)
    moved = act_matrix(cell.type, partition)
    if not is_type(arr, moved):
        if not is_type(arr, cell.type):
            raise ValueError("cell is not a cell of this arrangement")
        raise RuntimeError(
            "action carried a type outside the type set; this contradicts a "
            "proved invariant and indicates a bug")
    return _cell(moved)


def _rule(arr: Arrangement, key: int, j: int) -> tuple:
    """(forbid, kept): what the block with key cols << n | rows asks of
    column j of the cell search, for a column j right of its columns.
    Each row i the block does not use grows it by the entry (i, j).  A
    growth in whose tight rows i is missing puts bit i in ``forbid``; an
    attaining one is kept as (bit i, its tight rows, the keys of its other
    tight rows' sub-blocks), unless i is its one tight row."""
    n = arr.n
    full = (1 << n) - 1
    rows, grown = key & full, (key >> n) | 1 << j
    forbid, kept = 0, []
    for i in _mask_elems(full & ~rows):
        low = 1 << i
        tight = _argmax(arr, rows | low, grown)[1]
        if not tight & low:
            forbid |= low
        elif tight != low:
            kept.append((low, tight, tuple(
                key ^ 1 << a | low for a in _mask_elems(tight ^ low))))
    return forbid, kept


def _search(arr: Arrangement, cap: int) -> list:
    """The leaves of the cell search, one per cell, in search order: the
    tuples (bits, column row sets, dimension, bounded), bits being the
    cell's matrix packed as ``BoolMatrix`` packs it.  Raises CapExceeded
    if n*d is past ``cap``.

    Columns are chosen left to right.  The search carries the blocks of
    the partial bijections inside the columns chosen before j (the
    prefix) as one int, a bit set of blocks.  A block with k columns and
    rows ``rows`` has the bit slot << n | rows, its slot being the colex
    rank of its columns among the k-sets of the first d - 1 columns,
    after those of every smaller k.  So the bit sets span 2^n times the
    number of sets of fewer than n of the first d - 1 columns, which is
    polynomial in d for a fixed n, and growing a block by its last
    column j adds C(j, k + 1) to its rank.  Two kinds of block are left
    out.  The empty block is implicit: every growth of it is a 1 x 1
    block, whose one tight row is its own, so its rule is empty.  Blocks
    that use all n rows are dropped: their rule is empty, as they have
    no free row, and no kept entry names one, as the sub-blocks an entry
    names are the size of an unfull block.

    The search reads what each block asks of column j, ``_rule(arr, key,
    j)``, once per call, the first time it meets the block at column j,
    and folds it into bit sets of blocks: one per row, of the blocks
    whose rule forbids that row, and one of the blocks with kept entries,
    each entry holding the bit set of the sub-blocks it names.  So a node's
    forbidden rows take one AND per row, and it visits only the kept
    entries of its own blocks.  A kept attaining growth forbids its row
    r unless every sub-block it names is among the prefix's blocks, and
    otherwise makes r require its tight rows in column j.  Column j then
    takes every non-empty subset of the allowed rows that is closed
    under those implications.

    The constraint is a function of the block because every bijection
    inside a prefix the search reaches attains: its last entry was not
    forbidden when its column was chosen, nor, by induction from the
    empty bijection, were its others, so its entry sum is its block's
    permanent.  A reached prefix is a cell of its columns, so a block is
    among its blocks iff the block's whole argmax set lies inside it; the
    growth's argmax set lies inside the prefix and column j iff its tight
    rows are in column j and its named sub-blocks are in the prefix.
    ``_rule`` drops a growth whose one tight row is its own row r, since
    its argmax set is then the parent block's plus (r, j), and the parent
    is in the prefix.  On generic arrangements nearly every growth is of
    this kind.

    A child adds the unfull 1 x 1 blocks of the column just chosen, and
    the prefix's blocks grown by each of its rows i that they do not use:
    growing the blocks of k columns by (i, j) adds the same number to
    each one's bit, so it is one shift of those bits per (row, k).  The
    search also carries the tie components of the columns chosen so far
    (``_merge``, one column per level) and the rows they cover.  The last
    column's loop emits the leaves: a cell's dimension, as ``_ties``
    would compute it, counts the components the last column meets, so no
    leaf merges.  A leaf holds the column row sets the search chose, so
    neither ``enumerate_types`` nor the CLI report, which reads the
    leaves itself, derives them again.
    """
    _expect(arr, Arrangement)
    n, d, cap = arr.n, arr.d, _index(cap)
    if n * d > cap:
        raise CapExceeded(f"candidate space 2^{n * d} exceeds cap 2^{cap}")
    full = (1 << n) - 1
    # lift[c]: the row set c placed in column 0 of the grid
    lift = [sum(1 << (i * d) for i in _mask_elems(c)) for c in range(1 << n)]
    # slot_cols[slot]: the columns of the blocks in that slot, the
    # k-sets of the first d - 1 columns in colex order, k = 1, 2, ...
    slot_cols, sets = [], [0]
    for k in range(1, min(n, d)):
        sets = [s | 1 << c for c in range(k - 1, d - 1)
                for s in sets[:comb(c, k - 1)]]
        slot_cols += sets
    # per column, bit sets of blocks: those whose rule is folded in, those
    # whose rule forbids row i (forbids[j][i]) and those with kept
    # entries, which kept[j] maps to (row bit, rows required, bit set of
    # the named sub-blocks)
    folded = [0] * d
    forbids = [[0] * n for _ in range(d)]
    kept_keys = [0] * d
    kept = [{} for _ in range(d)]
    # grow[j][i]: (the bit of the 1 x 1 block (i, j), none if n = 1 makes
    # it full; per k, the bit set of the k-column blocks whose rows miss
    # row i and, with it, leave a row free, and the shift that grows them
    # by (i, j)).  Adding the last of k + 1 columns j adds C(j, k + 1) to
    # the colex rank, so the shift moves region k's slots to region
    # k + 1's and adds row i.  without[i]: the row sets that miss row i,
    # as a bit set over the 2^n row sets, built by doubling; multiplying
    # it by region k's slot repunit repeats it in each of the region's
    # slots, with no carry, as each copy fits in its 2^n bits.  It needs
    # no filter by size: a block in region k has k rows.
    without = []
    for i in range(n):
        pat, width = (1 << (1 << i)) - 1, 1 << (i + 1)
        while width < 1 << n:
            pat |= pat << width
            width <<= 1
        without.append(pat)
    moves = [[] for _ in range(n)]
    start = 0  # the first slot of the k-column blocks
    for k in range(1, min(n - 1, d - 1)):
        slots = comb(d - 1, k)
        rep = sum(1 << (s << n) for s in range(start, start + slots))
        for i in range(n):
            moves[i].append((without[i] * rep, k, (slots << n) + (1 << i)))
        start += slots
    grow = [[(1 << (j << n | 1 << i) if n > 1 else 0,
              [(pat, by + (comb(j, k + 1) << n)) for pat, k, by in moves[i]])
             for i in range(n)] for j in range(d - 1)]
    found = []  # (bits, column row sets, dimension, bounded) of each cell

    def rec(j, acc, cols, comps, covered, inside):
        # cols: the row sets taken in columns 0..j-1; comps: their tie
        # components; covered: the rows they cover; inside: the bit set
        # of every unfull non-empty block inside them, numbered as above
        pats = forbids[j]
        seen = inside & folded[j]
        if seen != inside:
            # a walk over a bit set of blocks, from its top bit, which
            # shrinks the int at each step; _mask_elems's cache must not
            # keep such a bit set
            fresh = inside ^ seen
            folded[j] |= fresh
            while fresh:
                b = fresh.bit_length() - 1
                low = 1 << b
                fresh ^= low
                top = b & ~full  # the block's slot, as bits
                no, entries = _rule(arr, slot_cols[b >> n] << n | b & full, j)
                for i in _mask_elems(no):
                    pats[i] |= low
                if entries:
                    kept_keys[j] |= low
                    grouped = []
                    for r, need, keys in entries:
                        # a named sub-block has the block's columns
                        named = 0
                        for k in keys:
                            named |= 1 << (top | k & full)
                        grouped.append((r, need, named))
                    kept[j][b] = grouped
        forbid = 0
        bit = 1
        for pat in pats:
            if inside & pat:
                forbid |= bit
            bit <<= 1
        needs = {}  # row bit -> the rows of column j that it requires
        with_kept = inside & kept_keys[j]
        if with_kept:
            at = kept[j]
            while with_kept:
                b = with_kept.bit_length() - 1
                with_kept ^= 1 << b
                for r, need, named in at[b]:
                    if inside & named == named:
                        needs[r] = needs.get(r, 0) | need
                    else:
                        forbid |= r
        allowed = full & ~forbid
        implies = needs.items()
        last = j == d - 1
        if not last:
            grow_j = grow[j]
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
                    ext = inside
                    for i in _mask_elems(c):
                        single, by_size = grow_j[i]
                        ext |= single
                        for pat, by in by_size:
                            ext |= (inside & pat) << by
                    rec(j + 1, bits, cols + (c,), _merge(comps, c),
                        covered | c, ext)
            c = (c - 1) & allowed

    rec(0, 0, (), [], 0, 0)
    return found


def enumerate_types(arr: Arrangement, cap: int = DEFAULT_ENUM_CAP) -> tuple:
    """All cells of the arrangement, sorted by their packed bit pattern.
    ``cap`` bounds n*d (default 24).  The cells are the leaves of
    ``_search``, sorted once on their bits and only then made into cells:
    building each cell in the search, among its short-lived lists, raised
    the peak RSS of the tall benchmark jobs by about 1 MB.  Each cell's
    matrix holds the column row sets the search chose, so ``col_masks()``
    on it derives nothing again."""
    found = _search(arr, cap)
    found.sort(key=itemgetter(0))
    n, d = arr.n, arr.d
    return tuple(TypeCell._raw(BoolMatrix._from_cols(n, d, bits, cols),
                               dim, bnd)
                 for bits, cols, dim, bnd in found)
