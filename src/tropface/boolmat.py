"""Zero-one matrices as bit-packed grids, their entrywise order, and the
partial bijections (injective partial assignments of columns to rows)
contained in them.

Indexing is 0-based throughout.  An n x d matrix is simultaneously a
d-tuple of row subsets (one per column) and an n-tuple of column subsets
(one per row); both views are derived from one packed integer.
"""

from __future__ import annotations


class BoolMatrix:
    """Immutable n x d zero-one matrix, stored row-major in one integer.

    Entry (i, j) lives at bit i*d + j.  Row i viewed as a subset of column
    indices is ``row_mask(i)``; column j viewed as a subset of row indices
    is ``col_mask(j)``.  Neither view is stored separately.
    """

    __slots__ = ("n", "d", "bits")

    def __init__(self, n: int, d: int, bits: int = 0):
        if n < 1 or d < 1:
            raise ValueError("matrix dimensions must be positive")
        if bits < 0 or bits >> (n * d):
            raise ValueError(f"bit pattern does not fit a {n}x{d} grid")
        self.n = n
        self.d = d
        self.bits = bits

    @classmethod
    def zero(cls, n: int, d: int) -> "BoolMatrix":
        return cls(n, d)

    @classmethod
    def from_rows(cls, rows) -> "BoolMatrix":
        """Build from an iterable of rows of 0/1 entries."""
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0:
            raise ValueError("matrix dimensions must be positive")
        d = len(rows[0])
        if any(len(r) != d for r in rows):
            raise ValueError("ragged rows")
        bits = 0
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                if e not in (0, 1):
                    raise ValueError(f"entry {e!r} is not 0 or 1")
                if e:
                    bits |= 1 << (i * d + j)
        return cls(n, d, bits)

    @classmethod
    def from_columns(cls, n: int, columns) -> "BoolMatrix":
        """Build from an iterable of columns, each a set of row indices."""
        columns = [set(c) for c in columns]
        d = len(columns)
        if d == 0:
            raise ValueError("matrix dimensions must be positive")
        bits = 0
        for j, c in enumerate(columns):
            for i in c:
                if not 0 <= i < n:
                    raise ValueError(f"row index {i} out of range for n={n}")
                bits |= 1 << (i * d + j)
        return cls(n, d, bits)

    @classmethod
    def from_pairs(cls, n: int, d: int, pairs) -> "BoolMatrix":
        """Build from an iterable of (row, column) positions of the ones."""
        bits = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < d):
                raise ValueError(f"position ({i},{j}) out of range")
            bits |= 1 << (i * d + j)
        return cls(n, d, bits)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.d):
            raise IndexError(f"position ({i},{j}) out of range")
        return (self.bits >> (i * self.d + j)) & 1

    def row_mask(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} out of range")
        return (self.bits >> (i * self.d)) & ((1 << self.d) - 1)

    def col_mask(self, j: int) -> int:
        if not 0 <= j < self.d:
            raise IndexError(f"column {j} out of range")
        m = 0
        for i in range(self.n):
            m |= ((self.bits >> (i * self.d + j)) & 1) << i
        return m

    def row_masks(self) -> tuple:
        return tuple(self.row_mask(i) for i in range(self.n))

    def col_masks(self) -> tuple:
        return tuple(self.col_mask(j) for j in range(self.d))

    def columns(self) -> tuple:
        """Columns as tuples of sorted row indices."""
        return tuple(_mask_elems(m) for m in self.col_masks())

    def rows(self) -> tuple:
        """Rows as tuples of sorted column indices."""
        return tuple(_mask_elems(m) for m in self.row_masks())

    def transpose(self) -> "BoolMatrix":
        bits = 0
        for i in range(self.n):
            for j in range(self.d):
                if (self.bits >> (i * self.d + j)) & 1:
                    bits |= 1 << (j * self.n + i)
        return BoolMatrix(self.d, self.n, bits)

    def __le__(self, other: "BoolMatrix") -> bool:
        """Entrywise order: self[i][j] <= other[i][j] for all i, j."""
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("dimension mismatch in matrix comparison")
        return self.bits & ~other.bits == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, BoolMatrix)
                and (self.n, self.d, self.bits) == (other.n, other.d, other.bits))

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.bits))

    def __repr__(self) -> str:
        rows = ["".join(str(self.entry(i, j)) for j in range(self.d))
                for i in range(self.n)]
        return "BoolMatrix[" + "|".join(rows) + "]"


def leq(a: BoolMatrix, b: BoolMatrix) -> bool:
    """Entrywise partial order on equal-shaped matrices."""
    return a <= b


def _mask_elems(mask: int) -> tuple:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask  # one step per set bit, however wide the mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class PartialBijection:
    """An injective partial assignment of columns to rows.

    Stored as (row, column) pairs with at most one pair per row and per
    column; ``domain`` is the set of used columns, ``image`` the set of
    used rows.  As a matrix it has at most a single 1 in each row and
    column.
    """

    __slots__ = ("pairs", "domain", "image", "mapping")

    def __init__(self, pairs=()):
        pairs = tuple(sorted((int(i), int(j)) for i, j in pairs))
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        if len(set(rows)) != len(pairs) or len(set(cols)) != len(pairs):
            raise ValueError("pairs repeat a row or a column")
        self.pairs = pairs
        self.image = tuple(sorted(rows))
        self.domain = tuple(sorted(cols))
        self.mapping = {j: i for i, j in pairs}

    @classmethod
    def empty(cls) -> "PartialBijection":
        return cls()

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialBijection) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        inside = ", ".join(f"{j}->{i}" for i, j in sorted(self.pairs, key=lambda p: p[1]))
        return "PartialBijection{" + inside + "}"

    def as_matrix(self, n: int, d: int) -> BoolMatrix:
        return BoolMatrix.from_pairs(n, d, self.pairs)


def is_partial_bijection(a: BoolMatrix) -> bool:
    """True iff every row and every column of ``a`` has at most one 1."""
    for i in range(a.n):
        m = a.row_mask(i)
        if m & (m - 1):
            return False
    for j in range(a.d):
        m = a.col_mask(j)
        if m & (m - 1):
            return False
    return True


def contained_partial_bijections(a: BoolMatrix):
    """Yield every partial bijection lying entrywise below ``a``.

    Recursive column choice with a used-row mask; emitted in lexicographic
    order of the (column, row) pair sequence, the empty bijection first.
    The order is deterministic so streams can be compared verbatim.
    """
    cols = a.col_masks()
    col_rows = [_mask_elems(m) for m in cols]
    cur = []

    def rec(start_col, used_rows):
        yield PartialBijection(cur)
        for j in range(start_col, a.d):
            for i in col_rows[j]:
                if used_rows & (1 << i):
                    continue
                cur.append((i, j))
                yield from rec(j + 1, used_rows | (1 << i))
                cur.pop()

    yield from rec(0, 0)
