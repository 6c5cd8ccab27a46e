"""Ordered set partitions of {0, ..., n-1} with the refinement product,
and their right action on subsets and on zero-one matrices.

The product of F and G interleaves every block of F with every block of G
and drops empty intersections; the one-block partition is the identity and
the all-singleton partitions are left zeros.  Acting on a subset picks the
rightmost block the subset meets.  Subsets are bitmask integers.
"""

from __future__ import annotations

from .boolmat import BoolMatrix, _grid, _mask_elems
from .permanent import CapExceeded

DEFAULT_PARTITION_CAP = 6


class OrderedSetPartition:
    """Ordered tuple of disjoint non-empty blocks covering {0, ..., n-1}.

    Blocks are bitmask integers; two partitions are equal iff their block
    tuples are equal.  Instances are immutable.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks):
        blocks = tuple(int(b) for b in blocks)
        seen = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("blocks must be non-empty")
            if b & seen:
                raise ValueError("blocks must be disjoint")
            seen |= b
        if seen != (1 << n) - 1:
            raise ValueError(f"blocks must cover all of 0..{n - 1}")
        self.n = n
        self.blocks = blocks

    @classmethod
    def _raw(cls, n: int, blocks: tuple) -> "OrderedSetPartition":
        # trusted fast path: product() output is valid by construction
        self = object.__new__(cls)
        self.n = n
        self.blocks = blocks
        return self

    @classmethod
    def identity(cls, n: int) -> "OrderedSetPartition":
        return cls(n, ((1 << n) - 1,))

    @classmethod
    def from_sets(cls, n: int, sets) -> "OrderedSetPartition":
        masks = []
        for s in sets:
            m = 0
            for e in s:
                if not 0 <= e < n:
                    raise ValueError(f"element {e} out of range for n={n}")
                m |= 1 << e
            masks.append(m)
        return cls(n, masks)

    def block_sets(self) -> tuple:
        """Blocks as tuples of sorted elements."""
        return tuple(_mask_elems(b) for b in self.blocks)

    def __mul__(self, other: "OrderedSetPartition") -> "OrderedSetPartition":
        if not isinstance(other, OrderedSetPartition):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("partitions over different ground sets")
        blocks = tuple(f & g for f in self.blocks for g in other.blocks if f & g)
        return OrderedSetPartition._raw(self.n, blocks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrderedSetPartition)
                and (self.n, self.blocks) == (other.n, other.blocks))

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        inside = "|".join("{" + ",".join(map(str, blk)) + "}"
                          for blk in self.block_sets())
        return f"OrderedSetPartition({inside})"


def product(f: OrderedSetPartition, g: OrderedSetPartition) -> OrderedSetPartition:
    """Interleave blocks of f with blocks of g, dropping empty intersections."""
    return f * g


def is_chamber(f: OrderedSetPartition) -> bool:
    """True iff every block is a singleton (a left zero of the monoid)."""
    return all(b & (b - 1) == 0 for b in f.blocks)


def act_subset(subset: int, f: OrderedSetPartition) -> int:
    """Rightmost non-empty intersection of ``subset`` with a block of ``f``.

    The empty subset is fixed.  The result is always contained in ``subset``.
    """
    if subset == 0:
        return 0
    for b in reversed(f.blocks):
        m = subset & b
        if m:
            return m
    raise ValueError("subset has bits outside the partition's ground set")


def act_matrix(s: BoolMatrix, f: OrderedSetPartition) -> BoolMatrix:
    """Apply the subset action to every column of ``s``."""
    if s.n != f.n:
        raise ValueError("matrix row count does not match partition ground set")
    cols = tuple(act_subset(m, f) for m in s.col_masks())
    return BoolMatrix._from_cols(s.n, s.d, _grid(cols, s.d), cols)


def partitions(n: int, cap: int = DEFAULT_PARTITION_CAP):
    """Yield every ordered set partition of {0, ..., n-1} exactly once.

    Emission order: fewer blocks first, then lexicographic on the block
    tuples.  The count is the n-th ordered Bell number, so ``n`` is guarded
    by ``cap`` (default 6, i.e. at most 4683 partitions); a larger ``n``
    raises CapExceeded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds enumeration cap {cap}")

    full = (1 << n) - 1

    def splits(remaining):
        if remaining == 0:
            yield ()
            return
        # iterate over non-empty submasks of `remaining` as first block
        b = remaining
        first = []
        while b:
            first.append(b)
            b = (b - 1) & remaining
        for blk in first:
            for rest in splits(remaining & ~blk):
                yield (blk,) + rest

    all_parts = [OrderedSetPartition._raw(n, blocks) for blocks in splits(full)]
    all_parts.sort(key=lambda p: (len(p.blocks), p.block_sets()))
    yield from all_parts

