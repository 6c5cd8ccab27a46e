"""Exact min-plus geometry of a hyperplane arrangement given by a rational
n x d matrix whose columns are apexes.

Every predicate is decided in exact rational arithmetic: cell membership
is a matter of exact ties, so no tolerance is ever applied.  Both
feasibility questions about one matrix, whether it lies below some
point's type and whether it is exactly one, go to one solver: the rows
each column ties are contracted to one node, and the difference
constraints left between the nodes, strict for an exact type, are solved
by Bellman-Ford relaxation.  A stream of types of one arrangement, as the
enumerate report's cross-check decides them, goes to a decider that poses
each strict system on the d column potentials, one line per row, and
joins its edges from tables it keeps, one per chunk of rows.  Both relax
through one loop, ``_bellman``.
Internally the matrix is rescaled to integers (all predicates here are
invariant under a common positive rescaling of the matrix), which keeps
the graph algorithms in plain `int` arithmetic; witnesses are scaled back
to exact rationals on the way out.  A point queried against the matrix
is rescaled along with it, once per query, onto one common denominator,
so point queries compare `int`s too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from numbers import Rational

from .boolmat import BoolMatrix, _expect, _mask_elems, _position, _shape


# An integer, p/q or a decimal, in ASCII digits, with optional sign and
# surrounding whitespace.  Fraction alone would also read exponents,
# underscores and non-ASCII digits, and computes 10**999999999 for
# "1e999999999".  The groups are the sign, then p and q, or a decimal's
# whole and fractional digits, at least one digit in all (the lookahead).
_SCALAR = re.compile(r"\s*([+-]?)(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?)\s*",
                     re.ASCII)


def _rat(v) -> Fraction:
    """An exact rational from an int, a Fraction, another
    ``numbers.Rational`` or a string matching ``_SCALAR``; any other
    value, a bool, a float or a ``Decimal`` among them, raises TypeError
    before ``Fraction`` reads it, and other strings and a zero denominator
    ValueError.  A string is parsed once, by the match, and a decimal's
    numerator built from its two digit runs as Fraction builds it, each
    run read by one ``int`` call, under its digit limit."""
    if type(v) is Fraction:  # already exact and immutable: no copy
        return v
    if not isinstance(v, str):
        if isinstance(v, bool) or not isinstance(v, Rational):
            raise TypeError(f"{type(v).__name__} is not an exact rational; "
                            "pass int, str or Fraction")
        return Fraction(v)
    m = _SCALAR.fullmatch(v)
    if m is None:
        raise ValueError(f"cannot read {v!r} as a rational: expected an "
                         "integer, p/q or a decimal without exponent")
    sign, p, q, whole, frac = m.groups()
    if q is None:  # a decimal
        q = 10 ** len(frac or "")
        p = int(whole or 0) * q + int(frac or 0)
    try:
        return Fraction(-int(p) if sign == "-" else int(p), int(q))
    except ZeroDivisionError:  # only p/q can have q = 0
        raise ValueError(f"{v!r} has a zero denominator") from None


def as_point(values) -> tuple:
    """Coerce an iterable of exact values to a tuple of Fractions.  A
    str, bytes, bytearray or memoryview is refused with TypeError, not read
    one character or byte at a time."""
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        raise TypeError("expected an iterable of values, not "
                        f"{type(values).__name__}")
    return tuple(_rat(v) for v in values)


class Arrangement:
    """A min-plus hyperplane arrangement: one hyperplane per matrix column,
    apex at that column.  Immutable."""

    def __init__(self, rows):
        entries = tuple(as_point(row) for row in rows)
        self.n, self.d = _shape(entries)
        self.entries = entries
        scale = lcm(*(v.denominator for row in entries for v in row))
        self._scale = scale
        self._icols = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in col)
            for col in zip(*entries))
        self._memo = {}  # column mask -> {row mask -> permanent, tight rows}
        self._offsets = None  # per-column row offsets, see _offsets

    def column(self, j: int) -> tuple:
        j = _position(j, self.d, "column")
        return tuple(row[j] for row in self.entries)

    def __repr__(self) -> str:
        return f"Arrangement({self.n}x{self.d})"


def _check_point(arr: Arrangement, x) -> tuple:
    _expect(arr, Arrangement)
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
    if not x:
        raise ValueError("points must have at least one coordinate")
    return min(yk - xk for xk, yk in zip(x, y))


def dominates(arr: Arrangement, j: int, y, i: int) -> bool:
    """True iff column j's apex reaches its residuation with y at row i,
    i.e. y_i - M_ij = min_k(y_k - M_kj): entry (i, j) of ``type_of_point``
    at y, which owns the column argmin rule.  The point is checked first,
    then the indices by ``BoolMatrix.entry``, the row before the
    column."""
    return type_of_point(arr, y).entry(i, j) == 1


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
# feasibility: is s below some point's type (weak), or exactly one (strict)?
# ``_solve`` answers one matrix on the n row potentials, below; ``_decider``
# answers a stream of types on the d column potentials, with the same
# scaling and the same relaxation loop, ``_bellman``.
#
# A 1 at (i, j) of s demands x_i - M_ij <= x_k - M_kj for every row k.  Two
# rows sharing a column of s get both directions, so they are tied, which
# fixes their difference.  The tied rows are contracted to one node each
# (checking on the way that the forced offsets agree), and each row outside
# a column gives one difference constraint between contracted nodes.  The
# weak system is that and no more.  The strict system also refuses an empty
# column and makes every row outside a column lose strictly: scaling all
# weights by K = n + 1 and charging -1 per strict edge turns a cycle of
# weight <= 0 into a negative one, since no simple cycle has more than n
# edges.  An edge (u, v, w) encodes x_u - x_v <= w; the system is feasible
# iff the edge graph has no negative cycle, and x = -dist (Bellman-Ford
# potentials from a virtual source) is then a solution.  A row in no
# column has no outgoing edge, so its edges decide nothing: the decisions
# leave them out, and a solution builds them in the same walk, which gives
# the row the least of 0 and each column head's end and moves no other
# potential.


def _bellman(num_nodes: int, edges):
    """Potentials from a virtual source (0 to every node), or None on a
    negative cycle; the package's one relaxation loop.  Without a
    negative cycle no shortest path from the source has more than
    ``num_nodes`` - 1 edges besides its first, so the potentials settle
    within that many passes and a further pass changes nothing: a change
    in pass ``num_nodes`` means a negative cycle."""
    dist = [0] * num_nodes
    for _ in range(num_nodes):
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
    _expect(arr, Arrangement)
    _expect(s, BoolMatrix)
    if (s._n, s._d) != (arr.n, arr.d):
        raise ValueError(
            f"matrix is {s._n}x{s._d}, arrangement is {arr.n}x{arr.d}")


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


def _solve(arr: Arrangement, colmasks: tuple, strict: int, place=False):
    """Solve the system of the column row sets ``colmasks``, weak for
    ``strict`` = 0 and strict for 1: (comp, p, dist), scaled by K = n + 1,
    or None if it has no solution.

    One pass over the columns contracts the tied rows.  Every row r of
    column j has the same x_r - M_rj, so r joins the component of the
    column's least row r0 at offset p[r] = p[r0] + M_rj - M_r0j; a row
    already there at another offset means two columns force incompatible
    offsets.  A component is named by its least row, which sits at offset
    0, and ``comp`` maps each row to that name.  After the contraction
    x_r - x_k <= M_rj - M_kj, less ``strict``, is the same constraint for
    every r of the column, so each (column, losing row) gives one edge
    between two names.  A row in no column only receives edges, so it
    never makes the system infeasible, and its edges are built only with
    ``place``: a decision needs none of them, and a solution needs them
    all.  ``dist`` holds the Bellman-Ford potentials over all n rows; a
    row in no column keeps 0 without ``place``.
    """
    if strict and not all(colmasks):
        return None  # every column of a type is non-empty
    n = arr.n
    offsets = _offsets(arr)
    comp = list(range(n))  # each row's component, named by its least row
    p = [0] * n
    losers = (1 << n) - 1 if place else 0  # rows that may lose a column
    for off, m in zip(offsets, colmasks):
        losers |= m
        if not m & (m - 1):
            continue  # at most one row: nothing tied
        r0, *rows = _mask_elems(m)
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
        if not m:
            continue  # demands nothing of a weak system
        r0 = _mask_elems(m)[0]
        u = comp[r0]
        o = off[r0]
        base = p[r0] + strict
        for k in _mask_elems(losers ^ m):
            v = comp[k]
            w = o[k] - base + p[k]  # need x_r0 - x_k <= M_r0j - M_kj
            if u != v:
                edges.append((u, v, w))
            elif w < 0:
                return None
    dist = _bellman(n, edges)
    return None if dist is None else (comp, p, dist)


def _decider(arr: Arrangement):
    """A function of a type's packed ``bits`` and column row sets that is
    True iff some point's type is exactly that type: ``_solve``'s strict
    decision, for a stream of types of one arrangement.

    The system is posed on the d column potentials, where ``_solve``
    takes the n row potentials, by the symmetry of types under
    transposing the matrix, with each row as a line.  Row k
    has a tie set s, its row of the type, and asks that potential plus
    entry be largest exactly on s.  That gives, between s's first column
    a and each other column b, the equality or the strict bound p_b - p_a
    < M_ka - M_kb.  A row with an empty s asks nothing, and every column
    must be non-empty.  Bounds are scaled by K = d + 1, less 1 when
    strict, as in ``_solve``, so a simple cycle, of at most d edges, is
    negative iff it was of weight <= 0 with a strict edge.

    The rows are cut into chunks of c = max(1, 12 // d) consecutive ones,
    so a chunk's tie sets are c * d consecutive bits of ``bits``.  A table
    per chunk maps those bits to a tuple of ready edges (a, b, x), built
    on first use: one per ordered pair of columns that the chunk's rows
    bound, x the tightest of their bounds on p_b - p_a, and none for a
    pair they leave free, so a chunk whose rows all have empty tie sets
    has no edges.  A type costs one lookup per chunk, the concatenation
    of the chunks' edges and ``_bellman`` over them.  A pair bounded in
    several chunks keeps one parallel edge from each, which changes no
    decision: a cycle through a heavier copy is no lighter than the same
    cycle through the lightest, so the negative cycles are those of the
    tightest bounds, and a simple cycle still has at most d edges and a
    shortest path at most d - 1, as the scaling and ``_bellman``'s d
    passes need."""
    d = arr.d
    rows = tuple(zip(*arr._icols))
    big = d + 1
    tie = (1 << d) - 1  # one row's bits
    c = max(1, 12 // d)
    chunks = []  # (rows, shift, mask, table) per chunk
    for lo in range(0, arr.n, c):
        chunk = rows[lo:lo + c]
        chunks.append((chunk, lo * d, (1 << len(chunk) * d) - 1, {}))

    def fold(chunk, key) -> tuple:
        w = {}  # (a, b) -> the tightest bound on p_b - p_a
        for e in chunk:
            s, key = key & tie, key >> d  # this row's tie set, the rest
            if not s:
                continue  # a row in no column
            a = _mask_elems(s)[0]
            for b in range(d):
                if b != a:
                    x = (e[a] - e[b]) * big
                    if s >> b & 1:  # tied: also p_a - p_b <= e_b - e_a
                        w[b, a] = min(w.get((b, a), -x), -x)
                    else:
                        x -= 1
                    w[a, b] = min(w.get((a, b), x), x)
        return tuple((a, b, x) for (a, b), x in w.items())

    def decide(bits, cols) -> bool:
        if not all(cols):
            return False  # every column of a type is non-empty
        edges = ()
        for chunk, shift, mask, table in chunks:
            key = bits >> shift & mask
            t = table.get(key)
            if t is None:
                t = table[key] = fold(chunk, key)
            edges += t
        return _bellman(d, edges) is not None

    return decide


def _realize(arr: Arrangement, colmasks: tuple, strict: int):
    """A solution of ``_solve``'s system, its rows in no column placed, or
    None: the numerators of its coordinates over (n + 1) * ``arr._scale``,
    as a list of ints."""
    solved = _solve(arr, colmasks, strict, True)
    if solved is None:
        return None
    comp, p, dist = solved
    return [p[i] - dist[comp[i]] for i in range(arr.n)]


def _rational(arr: Arrangement, nums):
    """``_realize``'s numerators as a point of exact rationals, or None."""
    if nums is None:
        return None
    denom = (arr.n + 1) * arr._scale
    return tuple(Fraction(v, denom) for v in nums)


def is_satisfiable(arr: Arrangement, s: BoolMatrix) -> bool:
    """True iff some point lies in every sector demanded by s, i.e. iff
    s is entrywise below the type of some point."""
    _check_shape(arr, s)
    return _solve(arr, s.col_masks(), 0) is not None


def witness(arr: Arrangement, s: BoolMatrix):
    """A point whose type contains s, or None if s is unsatisfiable."""
    _check_shape(arr, s)
    return _rational(arr, _realize(arr, s.col_masks(), 0))


def is_realized_type(arr: Arrangement, t: BoolMatrix) -> bool:
    """True iff some point's type is exactly t."""
    _check_shape(arr, t)
    return _solve(arr, t.col_masks(), 1) is not None


def realize_type(arr: Arrangement, t: BoolMatrix):
    """A point whose type is exactly t, or None if there is none."""
    _check_shape(arr, t)
    return _rational(arr, _realize(arr, t.col_masks(), 1))
