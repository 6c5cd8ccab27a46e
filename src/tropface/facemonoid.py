"""Ordered set partitions of {0, ..., n-1} with the refinement product,
and their right action on subsets and on zero-one matrices.

The product of F and G interleaves every block of F with every block of G
and drops empty intersections; the one-block partition is the identity and
the all-singleton partitions are left zeros.  Acting on a subset picks the
rightmost block the subset meets.  Subsets are bitmask integers.
"""

from __future__ import annotations

from .boolmat import (BoolMatrix, CapExceeded, _Value, _expect, _grid, _index,
                      _index_set, _mask_elems, _walk)

DEFAULT_PARTITION_CAP = 6


class OrderedSetPartition(_Value, fields=("n", "blocks")):
    """Ordered tuple of disjoint non-empty blocks covering {0, ..., n-1}.
    A ``_Value``: the fields ``n`` and ``blocks`` are read-only, and
    equality, hashing and pickling read them.

    Blocks are bitmask integers; two partitions are equal iff their block
    tuples are equal.
    """

    __slots__ = ("_n", "_blocks")

    def __new__(cls, n: int, blocks):
        n = _index(n)
        if n < 1:
            raise ValueError("n must be positive")
        blocks = tuple(_index(b) for b in blocks)
        seen = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("blocks must be non-empty")
            if b & seen:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if seen != (1 << n) - 1:
            raise ValueError(f"blocks must cover all {n} elements")
        return cls._raw(n, blocks)

    @classmethod
    def _raw(cls, n: int, blocks: tuple) -> "OrderedSetPartition":
        # trusted constructor, the only writer of the slots: the public
        # one calls it after its checks, and f * g and partitions() build
        # valid blocks
        self = object.__new__(cls)
        self._n = n
        self._blocks = blocks
        return self

    @classmethod
    def identity(cls, n: int) -> "OrderedSetPartition":
        return cls(n, ((1 << n) - 1,))

    @classmethod
    def from_sets(cls, n: int, sets) -> "OrderedSetPartition":
        """Build from an iterable of blocks, each an iterable of elements;
        a repeated element is set once."""
        return cls(n, [_index_set(s, n, "element") for s in sets])

    def block_sets(self) -> tuple:
        """Blocks as tuples of sorted elements."""
        return tuple(_mask_elems(b) for b in self.blocks)

    def __mul__(self, other: "OrderedSetPartition") -> "OrderedSetPartition":
        if not isinstance(other, OrderedSetPartition):
            return NotImplemented
        if self._n != other._n:
            raise ValueError("partitions over different ground sets")
        blocks = tuple(f & g for f in self._blocks for g in other._blocks if f & g)
        return OrderedSetPartition._raw(self._n, blocks)

    def __repr__(self) -> str:
        inside = "|".join("{" + ",".join(map(str, blk)) + "}"
                          for blk in self.block_sets())
        return f"OrderedSetPartition({inside})"


def is_chamber(f: OrderedSetPartition) -> bool:
    """True iff every block is a singleton (a left zero of the monoid)."""
    _expect(f, OrderedSetPartition)
    return all(b & (b - 1) == 0 for b in f.blocks)


def _act(subset: int, blocks: tuple) -> int:
    """``act_subset`` on a partition's blocks, without the checks."""
    for b in reversed(blocks):
        m = subset & b
        if m:
            return m
    return 0


def act_subset(subset: int, f: OrderedSetPartition) -> int:
    """Rightmost non-empty intersection of ``subset`` with a block of ``f``.

    The empty subset is fixed.  The result is always contained in ``subset``.
    """
    subset = _index(subset)
    _expect(f, OrderedSetPartition)
    if subset < 0 or subset >> f.n:
        raise ValueError("subset has bits outside the partition's ground set")
    return _act(subset, f.blocks)


def act_matrix(s: BoolMatrix, f: OrderedSetPartition) -> BoolMatrix:
    """Apply the subset action to every column of ``s``."""
    _expect(s, BoolMatrix)
    _expect(f, OrderedSetPartition)
    if s._n != f._n:
        raise ValueError("matrix row count does not match partition ground set")
    cols = tuple(_act(m, f._blocks) for m in s.col_masks())
    return BoolMatrix._from_cols(s._n, s._d, _grid(cols, s._d), cols)


def partitions(n: int, cap: int = DEFAULT_PARTITION_CAP):
    """An iterator over every ordered set partition of {0, ..., n-1},
    each exactly once.

    Emission order: fewer blocks first, then lexicographic on the block
    tuples (blocks read as tuples of sorted elements).  The partitions are
    generated in that order, not sorted.  The count is the n-th ordered
    Bell number, so ``n`` is guarded by ``cap`` (default 6, i.e. at most
    4683 partitions).  The arguments are checked at the call, before any
    partition is made: a larger ``n`` raises CapExceeded there.
    """
    n, cap = _index(n), _index(cap)
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds enumeration cap {cap}")
    # subsets[r]: the non-empty subsets of r, in sorted-element-tuple
    # order, which is the order of the first blocks of r's splits
    subsets = [_walk(r) for r in range(1 << n)]

    def splits(r, k):
        # the splits of r into k blocks, in lexicographic order: each first
        # block that leaves k - 1 elements or more, then the splits of what
        # it leaves
        if k == 1:
            yield (r,)
            return
        room = r.bit_count() - k + 1
        for b in subsets[r]:
            if b.bit_count() > room:
                continue
            if k == 2:  # the rest is one block: no generator for it
                yield b, r ^ b
            else:
                for rest in splits(r ^ b, k - 1):
                    yield (b,) + rest

    return (OrderedSetPartition._raw(n, blocks) for k in range(1, n + 1)
            for blocks in splits((1 << n) - 1, k))

