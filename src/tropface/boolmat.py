"""Zero-one matrices as bit-packed grids, their entrywise order, and the
partial bijections (injective partial assignments of columns to rows)
contained in them.

Indexing is 0-based throughout.  An n x d matrix is simultaneously a
d-tuple of row subsets (one per column) and an n-tuple of column subsets
(one per row); both views are derived from one packed integer, and the
column view is memoized on first use.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from types import MappingProxyType


class _Value:
    """Base of the library's value types: ``BoolMatrix``,
    ``PartialBijection``, ``OrderedSetPartition`` and ``TypeCell``.

    A subclass names its public ``fields``, in constructor order, in its
    class statement.  Each lives in a private slot ``_<name>`` that only
    one trusted constructor of the class writes, and is read through a
    property with no setter, so assigning or deleting it raises
    AttributeError.  The public constructor validates its arguments in
    ``__new__``, as ``fractions.Fraction`` does, and hands them to that
    trusted constructor; only ``PartialBijection`` keeps an ``__init__``.
    Equality holds only within one class; it and the hash both read the
    fields' slots through one ``attrgetter``, so the hash is that of the
    field, or of the tuple of fields.  Pickling and ``copy`` rebuild
    through the public constructor.  Instances can be weakly referenced.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, fields):
        for name in fields:
            field = property(operator.attrgetter("_" + name))
            field.__set_name__(cls, name)  # names the field in its errors
            setattr(cls, name, field)
        cls._fields = fields
        cls._key = operator.attrgetter(*["_" + name for name in fields])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class BoolMatrix(_Value, fields=("n", "d", "bits")):
    """Immutable n x d zero-one matrix, stored row-major in one integer.
    A ``_Value``: the fields ``n``, ``d`` and ``bits`` are read-only, and
    equality, hashing and pickling read them.

    Entry (i, j) lives at bit i*d + j.  Row i viewed as a subset of column
    indices is ``row_mask(i)``; column j viewed as a subset of row indices
    is ``col_mask(j)``.  The rows are read off ``bits``; the tuple of
    columns is derived once, on the first ``col_masks()``, and kept, which
    is safe because the matrix never changes.
    """

    __slots__ = ("_n", "_d", "_bits", "_cols")

    def __new__(cls, n: int, d: int, bits: int = 0):
        n, d, bits = _index(n), _index(d), _index(bits)
        if n < 1 or d < 1:
            raise ValueError("matrix dimensions must be positive")
        if bits < 0 or bits >> (n * d):
            raise ValueError(f"bit pattern does not fit a {n}x{d} grid")
        return cls._from_cols(n, d, bits, None)

    @classmethod
    def _from_cols(cls, n: int, d: int, bits: int, cols) -> "BoolMatrix":
        """Trusted constructor, the only writer of the slots: no
        validation, and ``col_masks()`` returns ``cols`` as given, or
        derives them on first use if ``cols`` is None."""
        self = object.__new__(cls)
        self._n = n
        self._d = d
        self._bits = bits
        self._cols = cols
        return self

    @classmethod
    def zero(cls, n: int, d: int) -> "BoolMatrix":
        return cls(n, d)

    @classmethod
    def from_rows(cls, rows) -> "BoolMatrix":
        """Build from an iterable of rows of 0/1 entries.  Entries are read
        through ``_index``, so a bool or a float raises TypeError."""
        rows = [list(r) for r in rows]
        n, d = _shape(rows)
        bits = 0
        for i, r in enumerate(rows):
            for j, e in enumerate(r):
                e = _index(e)
                if e not in (0, 1):
                    raise ValueError(f"entry {e!r} is not 0 or 1")
                if e:
                    bits |= 1 << (i * d + j)
        return cls._from_cols(n, d, bits, None)

    @classmethod
    def from_columns(cls, n: int, columns) -> "BoolMatrix":
        """Build from an iterable of columns, each an iterable of row
        indices, through ``from_pairs``, which checks every index."""
        columns = list(columns)
        return cls.from_pairs(n, len(columns), [
            (i, j) for j, c in enumerate(columns) for i in c])

    @classmethod
    def from_pairs(cls, n: int, d: int, pairs) -> "BoolMatrix":
        """Build from an iterable of (row, column) positions of the ones."""
        bits = 0
        for i, j in pairs:
            i, j = _index(i), _index(j)
            if not (0 <= i < n and 0 <= j < d):
                raise ValueError(f"position ({i},{j}) out of range")
            bits |= 1 << (i * d + j)
        return cls(n, d, bits)

    def entry(self, i: int, j: int) -> int:
        j = _index(j)  # a bool or float is a TypeError whatever i is
        i, j = _position(i, self._n, "row"), _position(j, self._d, "column")
        return (self._bits >> (i * self._d + j)) & 1

    def row_mask(self, i: int) -> int:
        return self.row_masks()[_position(i, self._n, "row")]

    def col_mask(self, j: int) -> int:
        return self.col_masks()[_position(j, self._d, "column")]

    def row_masks(self) -> tuple:
        d, bits = self._d, self._bits
        full = (1 << d) - 1
        return tuple(bits >> (i * d) & full for i in range(self._n))

    def col_masks(self) -> tuple:
        """Every column as a row set; one pass over the set bits, the
        first time only."""
        cols = self._cols
        if cols is None:
            cols = self._cols = _col_masks(self._bits, self._d)
        return cols

    def columns(self) -> tuple:
        """Columns as tuples of sorted row indices."""
        return tuple(_mask_elems(m) for m in self.col_masks())

    def rows(self) -> tuple:
        """Rows as tuples of sorted column indices."""
        return tuple(_mask_elems(m) for m in self.row_masks())

    def transpose(self) -> "BoolMatrix":
        """Row j of the transpose is column j here, so its bits are the
        column masks side by side."""
        bits = 0
        for j, m in enumerate(self.col_masks()):
            bits |= m << (j * self._n)
        return BoolMatrix._from_cols(self._d, self._n, bits, None)

    def __le__(self, other: "BoolMatrix") -> bool:
        """Entrywise order: self[i][j] <= other[i][j] for all i, j."""
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        if (self._n, self._d) != (other._n, other._d):
            raise ValueError("dimension mismatch in matrix comparison")
        return self._bits & ~other._bits == 0

    def __repr__(self) -> str:
        rows = ["".join(str(self.entry(i, j)) for j in range(self._d))
                for i in range(self._n)]
        return "BoolMatrix[" + "|".join(rows) + "]"


def _grid(cols, d: int) -> int:
    """The row-major bits of the grid with d columns whose column j is the
    row set ``cols[j]``; the inverse of ``_col_masks``."""
    bits = 0
    for j, m in enumerate(cols):
        for i in _mask_elems(m):
            bits |= 1 << (i * d + j)
    return bits


def _col_masks(bits: int, d: int) -> tuple:
    """Column j of a row-major grid with d columns as a row set, for every
    j.  One step per set bit, where probing each position takes n*d."""
    full = (1 << d) - 1
    cols = [0] * d
    bit = 1  # the current row as a row set
    while bits:
        for j in _mask_elems(bits & full):
            cols[j] |= bit
        bits >>= d
        bit <<= 1
    return tuple(cols)


@lru_cache(maxsize=4096)
def _mask_elems(mask: int) -> tuple:
    """Indices of the set bits of ``mask``, ascending; the one place a bit
    set is split into its elements.  Remembered for the masks met most:
    row sets, a type's rows and a partition's blocks recur."""
    out = []
    while mask:
        low = mask & -mask  # one step per set bit, however wide the mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _walk(rows: int) -> tuple:
    """The non-empty subsets of the bit set ``rows``, ordered by their
    tuples of sorted elements, a proper prefix first: for rows 1, 2, 3
    that is (1), (1, 2), (1, 2, 3), (1, 3), (2), (2, 3), (3).  The one
    owner of that order: the cell search takes each column's row sets in
    it, and ``facemonoid.partitions`` each next block.  Built from the
    last row down: row e goes before the walk of the rows after it, first
    alone and then joined to each set of that walk."""
    walk = ()
    for e in reversed(_mask_elems(rows)):
        walk = (1 << e,) + tuple([1 << e | c for c in walk]) + walk
    return walk


def _mask(indices) -> int:
    """The bit set of an iterable of indices; the inverse of
    ``_mask_elems``."""
    return sum(1 << i for i in indices)


def _index(v) -> int:
    """An integer index; bools, floats and strings raise TypeError rather
    than being rounded or parsed."""
    if type(v) is int:  # the common case, checked first for speed
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not an index; pass int")
    return operator.index(v)


def _position(v, size: int, what: str) -> int:
    """``v`` as an index below ``size``: bools, floats and strings raise
    TypeError, as in ``_index``, and an int outside 0..size-1 IndexError
    naming the ``what`` it indexes.  The library's one range check."""
    v = _index(v)
    if not 0 <= v < size:
        raise IndexError(f"{what} {v} out of range")
    return v


def _index_set(indices, size: int, what: str) -> int:
    """The bit set of an iterable of indices, each read through ``_index``
    and refused with ValueError, naming the ``what`` it indexes, outside
    0..size-1; a repeated index is set once.  The library's one check of
    an index set."""
    mask = 0
    for v in indices:
        v = _index(v)
        if not 0 <= v < size:
            raise ValueError(f"{what} {v} out of range for size {size}")
        mask |= 1 << v
    return mask


def _shape(rows) -> tuple:
    """(n, d) of a sequence of rows, each a sequence; ValueError unless
    they form a non-empty rectangle.  The one shape check of ``BoolMatrix.from_rows`` and the
    ``Arrangement`` constructor."""
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be positive")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError("ragged rows")
    return len(rows), d


def _expect(value, cls):
    """Refuse ``value`` with TypeError unless it is a ``cls``, before any
    of its attributes is read: a list passed for a library object would
    otherwise fail as an AttributeError from deep inside the call."""
    if not isinstance(value, cls):
        raise TypeError(f"expected {cls.__name__}, not {type(value).__name__}")


class CapExceeded(ValueError):
    """A size cap refused the input: a block of more rows than the scan
    cap that a call would have to solve, a cell search whose candidate
    space 2^(n*d) is past the enumeration cap, or more ordered set
    partitions than the partition cap allows.  The scan cap bounds only
    what is solved: a block already in the arrangement's memo is read
    back at any size, and its argmax set is joined from the memo, unless
    the block has more rows than the cap and the set, counted from the
    memo first, more than cap! bijections.  Defined here, below the face
    monoid and the permanent layer that raise it, so that neither imports
    the other for it; ``permanent.CapExceeded`` and
    ``tropface.CapExceeded`` are this class."""


class PartialBijection(_Value, fields=("pairs",)):
    """An injective partial assignment of columns to rows.  A ``_Value``:
    the field ``pairs`` and the views ``image``, ``domain`` and
    ``mapping`` are read-only, and equality, hashing and pickling read
    ``pairs``.

    Stored as (row, column) pairs with at most one pair per row and per
    column; ``domain`` is the set of used columns, ``image`` the set of
    used rows.  As a matrix it has at most a single 1 in each row and
    column.

    ``PartialBijection(pairs)`` validates the pairs and stores only them.
    ``_from_mask`` trusts a grid mask instead and derives ``pairs`` from
    it on first read.  ``image``, ``domain`` and ``mapping`` are derived
    from ``pairs`` on every read, in one place for both kinds, and are
    not cached.  ``mapping`` (column -> row) is a read-only view.
    Equality, hashing, ``repr`` and pickling agree across both kinds.
    """

    __slots__ = ("_pairs", "_mask", "_d")

    def __init__(self, pairs=()):
        pairs = tuple(sorted((_index(i), _index(j)) for i, j in pairs))
        if (len({i for i, _ in pairs}) != len(pairs)
                or len({j for _, j in pairs}) != len(pairs)):
            raise ValueError("pairs repeat a row or a column")
        self._pairs = pairs

    @classmethod
    def _from_mask(cls, mask: int, d: int) -> "PartialBijection":
        """Trusted constructor for the grid mask (bit i*d + j for pair
        (i, j)) of a partial bijection: no validation, and the fields are
        derived from ``mask`` only when read."""
        self = object.__new__(cls)
        self._mask = mask
        self._d = d
        return self

    def __getattr__(self, name):
        # reached only for the pairs of a mask-built bijection, not read
        # yet: sorted in (row, column) order, as the mask's bits ascend
        if name != "_pairs":
            raise AttributeError(name)
        d = self._d
        self._pairs = pairs = tuple(
            divmod(p, d) for p in _mask_elems(self._mask))
        return pairs

    # the views, derived from the pairs on every read and never kept;
    # the pairs are sorted by row, so the image comes out ascending
    image = property(lambda self: tuple(i for i, _ in self.pairs))
    domain = property(lambda self: tuple(sorted(j for _, j in self.pairs)))
    mapping = property(
        lambda self: MappingProxyType({j: i for i, j in self.pairs}))

    @classmethod
    def empty(cls) -> "PartialBijection":
        return cls()

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        inside = ", ".join(f"{j}->{i}" for i, j in sorted(self.pairs, key=lambda p: p[1]))
        return "PartialBijection{" + inside + "}"

    def as_matrix(self, n: int, d: int) -> BoolMatrix:
        return BoolMatrix.from_pairs(n, d, self.pairs)


def is_partial_bijection(a: BoolMatrix) -> bool:
    """True iff every row and every column of ``a`` has at most one 1."""
    _expect(a, BoolMatrix)
    used = 0  # rows met so far, over the columns in order
    for m in a.col_masks():
        if m & (m - 1) or m & used:
            return False
        used |= m
    return True


def contained_partial_bijections(a: BoolMatrix):
    """Iterate every partial bijection entrywise below ``a`` (checked now).

    Recursive column choice with a used-row mask, carrying the grid mask
    of the pairs chosen; emitted in lexicographic order of the (column,
    row) pair sequence, the empty bijection first.
    The order is deterministic so streams can be compared verbatim.
    """
    _expect(a, BoolMatrix)
    d = a._d
    col_rows = [_mask_elems(m) for m in a.col_masks()]

    def rec(start_col, used_rows, mask):
        yield PartialBijection._from_mask(mask, d)
        for j in range(start_col, d):
            for i in col_rows[j]:
                if not used_rows >> i & 1:
                    yield from rec(j + 1, used_rows | 1 << i,
                                   mask | 1 << (i * d + j))

    return rec(0, 0, 0)
