"""Exact min-plus geometry of a hyperplane arrangement given by a rational
n x d matrix whose columns are apexes.

Every predicate is decided in exact rational arithmetic: cell membership
is a matter of exact ties, so no tolerance is ever applied.  Feasibility
questions reduce to difference-constraint systems solved by Bellman-Ford
relaxation with a virtual source.  Internally the matrix is rescaled to
integers (all predicates here are invariant under a common positive
rescaling of the matrix), which keeps the graph algorithms in plain `int`
arithmetic; witnesses are scaled back to exact rationals on the way out.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .boolmat import BoolMatrix, _mask_elems


def _rat(v) -> Fraction:
    if isinstance(v, (float, bool)):
        raise TypeError(f"{type(v).__name__} is not an exact rational; "
                        "pass int, str or Fraction")
    return Fraction(v)


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
        self._structures = {}  # k_max -> PermanentStructure, filled lazily

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
    y = _check_point(arr, y)
    col = arr.column(j)
    diffs = [yk - ck for yk, ck in zip(y, col)]
    return diffs[i] == min(diffs)


def type_of_point(arr: Arrangement, x) -> BoolMatrix:
    """The sector-membership record of x: entry (i, j) is 1 iff column j's
    minimum of x_k - M_kj is attained at k = i.  Every column of the
    result is non-empty."""
    x = _check_point(arr, x)
    bits = 0
    for j in range(arr.d):
        col = arr.column(j)
        diffs = [xk - ck for xk, ck in zip(x, col)]
        m = min(diffs)
        for i in range(arr.n):
            if diffs[i] == m:
                bits |= 1 << (i * arr.d + j)
    return BoolMatrix(arr.n, arr.d, bits)


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
    so u inherits every sector constraint the two points share.
    """
    x = _check_point(arr, x)
    y = _check_point(arr, y)
    coeffs = [min(residuation(arr.column(l), x), residuation(arr.column(l), y))
              for l in range(arr.d)]
    return tuple(
        max(coeffs[l] + arr.entries[t][l] for l in range(arr.d))
        for t in range(arr.n))


def column_space_projection(arr: Arrangement, y) -> tuple:
    """Best max-plus combination of the columns below y:
    sum_l <M_l|y> + M_l.  Fixed points are exactly the points of the
    max-plus column space."""
    y = _check_point(arr, y)
    coeffs = [residuation(arr.column(l), y) for l in range(arr.d)]
    return tuple(
        max(coeffs[l] + arr.entries[t][l] for l in range(arr.d))
        for t in range(arr.n))


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
# one node each (after checking the forced offsets are consistent), the
# strict constraints become strict difference constraints between the
# contracted nodes, and the system is feasible iff the contracted graph
# has no cycle of weight <= 0.  Scaling all weights by K = n + 1 and
# charging -1 per strict edge turns that into ordinary negative-cycle
# detection, since no simple cycle has more than n edges.


def _strict_solve(arr: Arrangement, t: BoolMatrix):
    n = arr.n
    icols = arr._icols
    colmasks = t.col_masks()
    if any(m == 0 for m in colmasks):
        return None
    colrows = [_mask_elems(m) for m in colmasks]

    adj = [[] for _ in range(n)]
    for j, rows in enumerate(colrows):
        cj = icols[j]
        r0 = rows[0]
        for r in rows[1:]:
            delta = cj[r] - cj[r0]  # forced: x_r - x_r0 = delta
            adj[r0].append((r, delta))
            adj[r].append((r0, -delta))

    comp = [-1] * n
    p = [0] * n
    ncomp = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = ncomp
        stack = [start]
        while stack:
            u = stack.pop()
            for v, delta in adj[u]:
                if comp[v] < 0:
                    comp[v] = ncomp
                    p[v] = p[u] + delta
                    stack.append(v)
        ncomp += 1

    for j, rows in enumerate(colrows):
        cj = icols[j]
        r0 = rows[0]
        for r in rows[1:]:
            if p[r] - p[r0] != cj[r] - cj[r0]:
                return None  # two columns force incompatible offsets

    big = n + 1
    best = {}
    for j, rows in enumerate(colrows):
        cj = icols[j]
        inmask = colmasks[j]
        for i in rows:
            for k in range(n):
                if (inmask >> k) & 1:
                    continue
                c = cj[i] - cj[k]  # need x_i - x_k < c
                if comp[i] == comp[k]:
                    if p[i] - p[k] >= c:
                        return None
                else:
                    key = (comp[i], comp[k])
                    w = c - p[i] + p[k]
                    if key not in best or w < best[key]:
                        best[key] = w

    edges = [(u, v, w * big - 1) for (u, v), w in best.items()]
    dist = _bellman(ncomp, edges)
    if dist is None:
        return None
    return comp, p, dist, big


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
    comp, p, dist, big = solved
    return tuple(
        Fraction(-dist[comp[i]] + big * p[i], big * arr._scale)
        for i in range(arr.n))
