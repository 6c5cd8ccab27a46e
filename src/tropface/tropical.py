"""Exact min-plus geometry of a hyperplane arrangement given by a rational
n x d matrix whose columns are apexes.

Every predicate is decided in exact rational arithmetic: cell membership
is a matter of exact ties, so no tolerance is ever applied.  Feasibility
questions reduce to difference-constraint systems solved by Bellman-Ford
relaxation with a virtual source.  Internally the matrix is rescaled to
integers (all predicates here are invariant under a common positive
rescaling of the matrix), which keeps the graph algorithms in plain `int`
arithmetic; witnesses are scaled back to exact rationals on the way out.
A point queried against the matrix is rescaled along with it, once per
query, onto one common denominator, so point queries compare `int`s too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .boolmat import BoolMatrix, _mask_elems


# An integer, p/q or a decimal, in ASCII digits, with optional sign and
# surrounding whitespace.  Fraction alone would also read exponents,
# underscores and non-ASCII digits, and computes 10**999999999 for
# "1e999999999".
_SCALAR = re.compile(r"\s*[+-]?(?:\d+/\d+|\d+(?:\.\d*)?|\.\d+)\s*", re.ASCII)


def _rat(v) -> Fraction:
    """An exact rational from an int, a Fraction or a string matching
    ``_SCALAR``; floats and bools raise TypeError, other strings and a
    zero denominator ValueError."""
    if type(v) is Fraction:  # already exact and immutable: no copy
        return v
    if isinstance(v, (float, bool)):
        raise TypeError(f"{type(v).__name__} is not an exact rational; "
                        "pass int, str or Fraction")
    if isinstance(v, str) and not _SCALAR.fullmatch(v):
        raise ValueError(f"cannot read {v!r} as a rational: expected an "
                         "integer, p/q or a decimal without exponent")
    try:
        return Fraction(v)
    except ZeroDivisionError:  # only a string p/q can have q = 0
        raise ValueError(f"{v!r} has a zero denominator") from None


def as_point(values) -> tuple:
    """Coerce an iterable of exact values to a tuple of Fractions."""
    return tuple(_rat(v) for v in values)


class Arrangement:
    """A min-plus hyperplane arrangement: one hyperplane per matrix column,
    apex at that column.  Immutable."""

    def __init__(self, rows):
        entries = tuple(tuple(_rat(v) for v in row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        d = len(entries[0])
        if any(len(r) != d for r in entries):
            raise ValueError("ragged rows")
        self.entries = entries
        self.n = len(entries)
        self.d = d
        scale = lcm(*(v.denominator for row in entries for v in row))
        self._scale = scale
        self._icols = tuple(
            tuple(int(entries[i][j] * scale) for i in range(self.n))
            for j in range(d))
        self._memo = {}  # (row mask, column mask) -> block permanent, argmax
        self._offsets = None  # per-column row offsets, see _offsets

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.d:
            raise IndexError(f"column {j} out of range")
        return tuple(row[j] for row in self.entries)

    def __repr__(self) -> str:
        return f"Arrangement({self.n}x{self.d})"


def _check_point(arr: Arrangement, x) -> tuple:
    x = as_point(x)
    if len(x) != arr.n:
        raise ValueError(f"point has {len(x)} coordinates, expected {arr.n}")
    return x


def _lift(arr: Arrangement, x) -> tuple:
    """(xs, f): x checked and scaled to the ints x_k * big, big = lcm of
    ``arr._scale`` and x's denominators, and f = big // ``arr._scale``."""
    x = _check_point(arr, x)
    big = lcm(arr._scale, *(v.denominator for v in x))
    return [v.numerator * (big // v.denominator) for v in x], big // arr._scale


def residuation(x, y) -> Fraction:
    """Largest c with c + x <= y coordinatewise, i.e. min_k(y_k - x_k)."""
    x, y = as_point(x), as_point(y)
    if len(x) != len(y):
        raise ValueError("points of different lengths")
    return min(yk - xk for xk, yk in zip(x, y))


def dominates(arr: Arrangement, j: int, y, i: int) -> bool:
    """True iff column j's apex reaches its residuation with y at row i,
    i.e. y_i - M_ij = min_k(y_k - M_kj)."""
    if not 0 <= j < arr.d:
        raise IndexError(f"column {j} out of range")
    if not 0 <= i < arr.n:
        raise IndexError(f"row {i} out of range")
    ys, f = _lift(arr, y)
    diffs = [yk - f * ck for yk, ck in zip(ys, arr._icols[j])]
    return diffs[i] == min(diffs)


def type_of_point(arr: Arrangement, x) -> BoolMatrix:
    """The sector-membership record of x: entry (i, j) is 1 iff column j's
    minimum of x_k - M_kj is attained at k = i.  Every column of the
    result is non-empty, and the result holds its column row sets."""
    xs, f = _lift(arr, x)
    cols = []
    bits = 0
    for j, col in enumerate(arr._icols):
        diffs = [xk - f * ck for xk, ck in zip(xs, col)]
        m = min(diffs)
        mask = 0
        for i, v in enumerate(diffs):
            if v == m:
                mask |= 1 << i
                bits |= 1 << (i * arr.d + j)
        cols.append(mask)
    return BoolMatrix._from_cols(arr.n, arr.d, bits, tuple(cols))


def project_to_plane(x) -> tuple:
    """Quotient by the all-ones direction: (v_1,...,v_n) maps to
    (v_1 - v_n, ..., v_{n-1} - v_n)."""
    x = as_point(x)
    if len(x) < 2:
        raise ValueError("need at least 2 coordinates to project")
    return tuple(v - x[-1] for v in x[:-1])


def combine_satisfiers(arr: Arrangement, x, y) -> tuple:
    """Coordinatewise max over columns l of min(<M_l|x>, <M_l|y>) + M_l.

    The result u is below both x and y, and any column that reaches its
    residuation with both x and y at some row does so with u at that row,
    so u inherits every sector constraint the two points share.  As the
    min of the two residuations is the residuation with min(x, y), u is
    the column-space projection of min(x, y).
    """
    return column_space_projection(
        arr, tuple(map(min, _check_point(arr, x), _check_point(arr, y))))


def column_space_projection(arr: Arrangement, y) -> tuple:
    """Best max-plus combination of the columns below y:
    sum_l <M_l|y> + M_l.  Fixed points are exactly the points of the
    max-plus column space."""
    ys, f = _lift(arr, y)
    cols = [[f * v for v in col] for col in arr._icols]
    coeffs = [min(yk - ck for yk, ck in zip(ys, col)) for col in cols]
    return tuple(Fraction(max(c + col[t] for c, col in zip(coeffs, cols)),
                          f * arr._scale) for t in range(arr.n))


# ---------------------------------------------------------------------------
# difference-constraint feasibility
#
# A 1 at (i, j) of S demands x_i - M_ij <= x_k - M_kj for every k, i.e. the
# difference constraints x_i - x_k <= M_ij - M_kj.  An edge (u, v, w) below
# encodes x_u - x_v <= w; the system is feasible iff the edge graph has no
# negative cycle, and x = -dist (Bellman-Ford potentials from a virtual
# source) is then a solution.


def _weak_edges(arr: Arrangement, s: BoolMatrix):
    icols = arr._icols
    n = arr.n
    edges = []
    for i in range(n):
        row = s.row_mask(i)
        if not row:
            continue
        cols = _mask_elems(row)
        for k in range(n):
            if k == i:
                continue
            w = min(icols[j][i] - icols[j][k] for j in cols)
            edges.append((i, k, w))
    return edges


def _bellman(num_nodes: int, edges):
    """Potentials from a virtual source (0 to every node), or None on a
    negative cycle."""
    dist = [0] * num_nodes
    for _ in range(num_nodes + 1):
        changed = False
        for u, v, w in edges:
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                changed = True
        if not changed:
            return dist
    return None


def _check_shape(arr: Arrangement, s: BoolMatrix):
    if (s.n, s.d) != (arr.n, arr.d):
        raise ValueError(
            f"matrix is {s.n}x{s.d}, arrangement is {arr.n}x{arr.d}")


def is_satisfiable(arr: Arrangement, s: BoolMatrix) -> bool:
    """True iff some point lies in every sector demanded by s, i.e. iff
    s is entrywise below the type of some point."""
    _check_shape(arr, s)
    return _bellman(arr.n, _weak_edges(arr, s)) is not None


def witness(arr: Arrangement, s: BoolMatrix):
    """A point whose type contains s, or None if s is unsatisfiable."""
    _check_shape(arr, s)
    dist = _bellman(arr.n, _weak_edges(arr, s))
    if dist is None:
        return None
    return tuple(Fraction(-dv, arr._scale) for dv in dist)


# ---------------------------------------------------------------------------
# exact realizability: is T the type of some point?
#
# Rows sharing a column of T are tied, which fixes their differences; rows
# outside a column must lose strictly.  The tied rows are contracted to
# one node each (checking on the way that the forced offsets agree), the
# strict constraints become strict difference constraints between the
# contracted nodes, and the system is feasible iff the contracted graph
# has no cycle of weight <= 0.  Scaling all weights by K = n + 1 and
# charging -1 per strict edge turns that into ordinary negative-cycle
# detection, since no simple cycle has more than n edges.


def _offsets(arr: Arrangement) -> tuple:
    """``off[j][r][k]`` = K * (M_rj - M_kj) in the integer scaling of
    ``arr._icols``, for every column j and pair of rows: O(d*n^2) ints,
    built on first use and kept on the arrangement."""
    off = arr._offsets
    if off is None:
        big = arr.n + 1
        off = arr._offsets = tuple(
            tuple(tuple((cr - ck) * big for ck in cj) for cr in cj)
            for cj in arr._icols)
    return off


@lru_cache(maxsize=4096)
def _rows(mask: int) -> tuple:
    """``_mask_elems`` of a row set, remembered for the row sets met most."""
    return _mask_elems(mask)


def _strict_solve(arr: Arrangement, t: BoolMatrix):
    """Solve the exact-type system of t: (comp, p, dist, covered rows),
    the first three scaled by K = n + 1, or None if no point has type t.

    Reads only ``arr.n``, the offsets ``_offsets`` derives from
    ``arr._icols``, and the column row sets of t, which ``t.col_masks()``
    derives at most once per matrix.  One pass over the columns contracts
    the tied rows.  Every row r of column j has the same x_r - M_rj, so r
    joins the component of the column's least row r0 at offset p[r] =
    p[r0] + M_rj - M_r0j; a row already there at another offset means two
    columns force incompatible offsets.  A component is named by its least
    row, which sits at offset 0, and ``comp`` maps each row to that name.
    A row k outside column j must lose strictly, and after the contraction
    x_r - x_k < M_rj - M_kj is the same constraint for every r of the
    column, so each (column, losing row) gives one strict edge between two
    names.  A row in no column sends no edge and only has to lose, so it
    never makes the system infeasible; its edges are left to
    ``realize_type``.  ``dist`` holds the Bellman-Ford potentials over all
    n rows of the remaining edges; a row that names no component, or lies
    in no column, has none.
    """
    n = arr.n
    colmasks = t.col_masks()
    if not all(colmasks):
        return None
    offsets = _offsets(arr)
    comp = list(range(n))  # each row's component, named by its least row
    p = [0] * n
    covered = 0
    for off, m in zip(offsets, colmasks):
        covered |= m
        if not m & (m - 1):
            continue  # one row: nothing tied
        r0, *rows = _rows(m)
        o = off[r0]
        for r in rows:
            a, b = comp[r0], comp[r]
            shift = p[r0] - o[r] - p[r]  # moves r to its offset
            if a == b:
                if shift:
                    return None  # two columns force incompatible offsets
                continue
            if b < a:  # keep the least row as the name, at offset 0
                a, b, shift = b, a, -shift
            for v in range(n):
                if comp[v] == b:
                    comp[v] = a
                    p[v] += shift

    edges = []
    for off, m in zip(offsets, colmasks):
        r0 = (m & -m).bit_length() - 1
        u = comp[r0]
        o = off[r0]
        base = p[r0] + 1  # the 1 makes the edge strict
        for k in _rows(covered ^ m):
            v = comp[k]
            w = o[k] - base + p[k]  # need x_r0 - x_k < M_r0j - M_kj
            if u != v:
                edges.append((u, v, w))
            elif w < 0:
                return None
    dist = _bellman(n, edges)
    if dist is None:
        return None
    return comp, p, dist, covered


def is_realized_type(arr: Arrangement, t: BoolMatrix) -> bool:
    """True iff some point's type is exactly t."""
    _check_shape(arr, t)
    return _strict_solve(arr, t) is not None


def realize_type(arr: Arrangement, t: BoolMatrix):
    """A point whose type is exactly t, or None if there is none."""
    _check_shape(arr, t)
    solved = _strict_solve(arr, t)
    if solved is None:
        return None
    comp, p, dist, covered = solved
    free = _rows(((1 << arr.n) - 1) ^ covered)
    if free:
        # a row in no column only receives strict edges, one per column,
        # so its potential is the least of their ends and 0
        for off, m in zip(_offsets(arr), t.col_masks()):
            r0 = (m & -m).bit_length() - 1
            o = off[r0]
            du = dist[comp[r0]] - p[r0] - 1
            for k in free:
                if du + o[k] < dist[k]:
                    dist[k] = du + o[k]
    denom = (arr.n + 1) * arr._scale
    return tuple(Fraction(p[i] - dist[comp[i]], denom) for i in range(arr.n))
