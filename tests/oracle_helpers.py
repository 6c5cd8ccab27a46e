"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's own algorithms: bijections are
found by filtering all subsets of the one-entries, dimensions come from
the exact rank of the tie equality system, ordered set partitions are
rebuilt from permutations plus compositions, and the point queries are
computed in Fraction arithmetic on the matrix entries.  The one
exception is ``set_search``, a second form of the cell search kept to
check the library's bit-set form against: it reads the same per-block
rules, ``complex._rule``, and differs only in how it carries them.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from tropface import BoolMatrix
from tropface.boolmat import _mask_elems
from tropface.complex import _merge, _rule
from tropface.tropical import _check_point


def brute_contained_bijections(matrix) -> set:
    """All injective pair-sets below ``matrix``: filter every subset of
    the positions of its ones."""
    ones = [(i, j) for i in range(matrix.n) for j in range(matrix.d)
            if matrix.entry(i, j)]
    found = set()
    for k in range(len(ones) + 1):
        for sub in combinations(ones, k):
            rows = [i for i, _ in sub]
            cols = [j for _, j in sub]
            if len(set(rows)) == len(sub) and len(set(cols)) == len(sub):
                found.add(frozenset(sub))
    return found


def exact_rank(rows) -> int:
    """Rank over Q of a list of rational row vectors, by elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < ncols:
        pivot = next((r for r in range(rank, len(rows))
                      if rows[r][pivot_col] != 0), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        for r in range(len(rows)):
            if r != rank and rows[r][pivot_col] != 0:
                f = rows[r][pivot_col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank


def tie_system_dimension(arr, t) -> int:
    """Affine dimension, in the quotient by the all-ones line, of the
    solution space of the tie equalities of ``t``: n - 1 - rank of the
    difference vectors e_i - e_k over all tied pairs."""
    vecs = []
    for j in range(t.d):
        tied = [i for i in range(t.n) if t.entry(i, j)]
        for a, b in combinations(tied, 2):
            v = [Fraction(0)] * t.n
            v[a], v[b] = Fraction(1), Fraction(-1)
            vecs.append(v)
    if not vecs:
        return t.n - 1
    return t.n - 1 - exact_rank(vecs)


def brute_ordered_set_partitions(n: int) -> set:
    """Ordered set partitions rebuilt from permutations + compositions."""
    found = set()
    for perm in permutations(range(n)):
        for cuts in range(1 << (n - 1)):
            blocks = []
            cur = [perm[0]]
            for pos in range(1, n):
                if (cuts >> (pos - 1)) & 1:
                    blocks.append(frozenset(cur))
                    cur = []
                cur.append(perm[pos])
            blocks.append(frozenset(cur))
            found.add(tuple(blocks))
    return found


def _is_spanning_tree(n: int, d: int, edges) -> bool:
    """True iff the (row, column) edges form a spanning tree of K_{n,d}:
    n + d - 1 of them, none closing a cycle (union-find)."""
    parent = list(range(n + d))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        a, b = root(i), root(n + j)
        if a == b:
            return False
        parent[a] = b
    return len(edges) == n + d - 1


def _has_long_directed_cycle(n: int, t: frozenset, u: frozenset) -> bool:
    """Postnikov's graph U(t, u): t's edges directed rows -> columns, u's
    columns -> rows, rows numbered 0..n-1 and columns from n.  True iff it
    has a directed cycle of length >= 4.  An edge of both trees closes
    only a 2-cycle, and a longer cycle of such edges would be a cycle of
    t, so a cycle of length >= 4 takes an edge of one tree alone, a -> b,
    then a path back from b to a, which is not the missing edge b -> a.
    The graph of (u, t) is that of (t, u) reversed."""
    succ = {}
    for i, j in t:
        succ.setdefault(i, []).append(n + j)
    for i, j in u:
        succ.setdefault(n + j, []).append(i)
    one_way = ([(i, n + j) for i, j in t - u]
               + [(n + j, i) for i, j in u - t])
    for a, b in one_way:
        seen, stack = {b}, [b]
        while stack:
            for y in succ.get(stack.pop(), ()):
                if y == a:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return False


def triangulation_defects(n: int, d: int, vertex_types) -> list:
    """Why the 0-cell types of a generic n x d arrangement are not the
    maximal simplices of a triangulation of Delta_{n-1} x Delta_{d-1}
    (Develin and Sturmfels, "Tropical convexity", 2004); empty when they
    are.  Each type must be a spanning tree of K_{n,d}, there must be
    C(n+d-2, n-1) of them, and every pair must meet in a common face:
    Postnikov's graph of the pair has no directed cycle of length >= 4
    ("Permutohedra, associahedra, and beyond", 2009, Lemma 12.6)."""
    trees = [frozenset((i, j) for i in range(n) for j in range(d)
                       if t.entry(i, j)) for t in vertex_types]
    defects = [f"vertex {sorted(t)} is not a spanning tree" for t in trees
               if not _is_spanning_tree(n, d, t)]
    if len(set(trees)) != comb(n + d - 2, n - 1):
        defects.append(f"{len(set(trees))} distinct vertices, not "
                       f"C({n + d - 2}, {n - 1}) = {comb(n + d - 2, n - 1)}")
    defects += [f"vertices {sorted(t)} and {sorted(u)} overlap"
                for t, u in combinations(trees, 2)
                if _has_long_directed_cycle(n, t, u)]
    return defects


def tom_defects(n: int, d: int, cells) -> list:
    """Why the types ``cells`` (n x d zero-one matrices) break the first
    two tropical oriented matroid axioms of Ardila and Develin ("Tropical
    hyperplane arrangements and oriented matroids", Math. Z. 2009); empty
    when they hold.  A type is read as its column row sets.  Boundary:
    for each row r, the type whose every column is {r} is a cell.
    Surrounding: each cell refined by each two-block ordered partition
    (S | rest) is a cell.  The refinement keeps in each column the rows
    of the last block it meets: those outside S, or all if none is."""
    types = {tuple(frozenset(i for i in range(n) if t.entry(i, j))
                   for j in range(d)) for t in cells}
    defects = [f"no boundary cell of row {r}" for r in range(n)
               if (frozenset((r,)),) * d not in types]
    for k in range(1, n):
        for s in combinations(range(n), k):
            defects += [f"{[sorted(c) for c in t]} refined by {s} | rest"
                        " is not a cell" for t in types
                        if tuple(c.difference(s) or c for c in t)
                        not in types]
    return defects


def _comparable(n: int, a: tuple, b: tuple) -> bool:
    """True iff the comparability graph of the types with column row sets
    ``a`` and ``b`` is acyclic once its undirected components are
    contracted (union-find), by peeling off the components no remaining
    edge enters.  An edge directed within one component is a self-loop,
    which is never peeled, so it counts as a cycle."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    directed = []
    for s, t in zip(a, b):
        both = s & t
        for j in s:
            for k in t:
                if j in both and k in both:
                    parent[root(j)] = root(k)
                else:
                    directed.append((j, k))
    edges = {(root(j), root(k)) for j, k in directed}
    nodes = {root(v) for v in range(n)}
    while edges:
        sources = nodes - {k for _, k in edges}
        if not sources:
            return False
        nodes -= sources
        edges = {(j, k) for j, k in edges if j not in sources}
    return True


def comparability_defects(n: int, d: int, pairs) -> list:
    """Why the pairs of types ``pairs`` (n x d zero-one matrices) break the
    comparability axiom of Ardila and Develin (as above); empty when they
    hold.  For types A and B, each column draws an edge j - k for every
    row j of A's column and k of B's column: undirected when j and k both
    lie in both columns, directed j -> k otherwise.  Contracted to its
    undirected components, the graph must be acyclic.  Points x of A and
    y of B show why: each edge asks (x - y)_j <= (x - y)_k, with equality
    only if it is undirected."""
    def columns(t):
        return tuple(frozenset(i for i in range(n) if t.entry(i, j))
                     for j in range(d))

    return [f"{[sorted(c) for c in a]} and {[sorted(c) for c in b]} are "
            "not comparable" for a, b in (map(columns, p) for p in pairs)
            if not _comparable(n, a, b)]


def elimination_defects(n: int, d: int, cells, pairs) -> list:
    """Why the types ``cells`` (n x d zero-one matrices) break the
    elimination axiom of Ardila and Develin (as above) on the pairs of
    them ``pairs``; empty when it holds.  For types A and B and each
    column j, some cell C must have C_j = A_j | B_j and each other column
    C_k one of A_k, B_k and A_k | B_k.  The cells are indexed by (j, C_j),
    so only those with the right column j are tried."""
    def columns(t):
        return tuple(frozenset(i for i in range(n) if t.entry(i, j))
                     for j in range(d))

    by_column = {}
    for c in map(columns, cells):
        for j in range(d):
            by_column.setdefault((j, c[j]), []).append(c)
    defects = []
    for a, b in (map(columns, p) for p in pairs):
        either = [(x, y, x | y) for x, y in zip(a, b)]
        defects += [f"{[sorted(x) for x in a]} and {[sorted(y) for y in b]}"
                    f" eliminate at column {j} to no cell" for j in range(d)
                    if not any(all(z in e for z, e in zip(c, either))
                               for c in by_column.get((j, either[j][2]), ()))]
    return defects


def edge_pairs(cells) -> set:
    """The pairs of 1-cells of ``cells`` (``TypeCell``s) that are faces of
    one 2-cell of them, or that each lie one entry below one matrix, as
    two edges through a vertex in opposite directions do; found from the
    1-cells and 2-cells alone.  A face's type holds its coface's, so a
    2-cell's first column is a subset of its face's: the 2-cells are
    indexed by their first column, and each 1-cell looks up the subsets
    of its own."""
    above = {}  # first column of a 2-cell -> those 2-cells
    for c in cells:
        if c.dimension == 2:
            above.setdefault(c.type.col_masks()[0], []).append(c.type)
    groups = {}  # a 2-cell, or the bits one entry above a 1-cell -> 1-cells
    for c in cells:
        if c.dimension == 1:
            t = c.type
            first = sub = t.col_masks()[0]
            while sub:
                for f in above.get(sub, ()):
                    if f <= t:
                        groups.setdefault(f, []).append(t)
                sub = (sub - 1) & first
            for p in range(t.n * t.d):
                if not t.bits >> p & 1:
                    groups.setdefault(t.bits | 1 << p, []).append(t)
    return {p for g in groups.values() for p in combinations(g, 2)}


def set_search(arr) -> list:
    """The leaves of the cell search in search order, as
    ``complex._search`` returns them, with the blocks inside the prefix
    carried as a Python set of keys cols << n | rows and each block's
    rule read from a dict, the full-row blocks included; no cap.  Each
    column takes its row sets sorted by their row tuples, a proper
    prefix first, so the leaves come in lexicographic order of their
    columns' row tuples."""
    n, d = arr.n, arr.d
    full = (1 << n) - 1
    lift = [sum(1 << (i * d) for i in _mask_elems(c)) for c in range(1 << n)]
    rules = [{} for _ in range(d)]  # per column: block key -> _rule
    found = []

    def rec(j, acc, cols, comps, covered, inside):
        at = rules[j]
        forbid = 0
        implies = []  # (row bit, the rows of column j that it requires)
        for key in inside:
            got = at.get(key)
            if got is None:
                got = at[key] = _rule(arr, key, j)
            forbid |= got[0]
            for r, need, keys in got[1]:
                if inside.issuperset(keys):
                    implies.append((r, need))
                else:
                    forbid |= r
        allowed = full & ~forbid
        here = 1 << (n + j)
        # the non-empty subsets of the allowed rows, by their row tuples
        subsets, c = [], allowed
        while c:
            subsets.append(c)
            c = (c - 1) & allowed
        subsets.sort(key=lambda c: [i for i in range(n) if c >> i & 1])
        for c in subsets:
            if all(not c & r or rows & c == rows for r, rows in implies):
                bits = acc | lift[c] << j
                if j == d - 1:
                    cov = covered | c
                    dim = n - cov.bit_count() + sum(
                        1 for m in comps if not m & c)
                    found.append((bits, cols + (c,), dim, cov == full))
                else:
                    ext = set(inside)
                    for key in inside:
                        for i in _mask_elems(c & ~key):
                            ext.add(key | here | 1 << i)
                    rec(j + 1, bits, cols + (c,), _merge(comps, c),
                        covered | c, ext)

    rec(0, 0, (), [], 0, {0})
    return found


def brute_assignment_optimum(sub) -> Fraction:
    """Best assignment value of a square matrix by full permutation scan."""
    k = len(sub)
    return max(sum(sub[p[b]][b] for b in range(k))
               for p in permutations(range(k)))


def column_space_witness(arr, sigma):
    """A candidate point of the column space satisfying ``sigma``, or None.

    Assembled from a witness on sigma's own square block: solve there,
    take the residuation coefficients of the block columns, and spread
    them over the full columns.  Used to check that "satisfiable",
    "permanent-attaining" and "satisfied by a column-space point" agree.
    """
    from tropface import (Arrangement, PartialBijection, residuation,
                          witness)
    if not sigma.pairs:
        return arr.column(0)
    rows, cols = sigma.image, sigma.domain
    k = len(rows)
    block = Arrangement([[arr.entries[i][j] for j in cols] for i in rows])
    inner = PartialBijection(
        [(rows.index(i), cols.index(j)) for i, j in sigma.pairs])
    yhat = witness(block, inner.as_matrix(k, k))
    if yhat is None:
        return None
    coeffs = [residuation(block.column(b), yhat) for b in range(k)]
    return tuple(
        max(coeffs[b] + arr.entries[t][cols[b]] for b in range(k))
        for t in range(arr.n))


# The point queries as they were computed before points were rescaled to
# integers: one Fraction per difference, the residuation taken per
# column.  Kept as the reference the integer versions must match exactly.

def ref_residuation(x, y):
    return min(yk - xk for xk, yk in zip(x, y))


def ref_dominates(arr, j, y, i) -> bool:
    y = _check_point(arr, y)
    col = arr.column(j)
    diffs = [yk - ck for yk, ck in zip(y, col)]
    return diffs[i] == min(diffs)


def ref_type_of_point(arr, x):
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


def ref_combine_satisfiers(arr, x, y) -> tuple:
    x = _check_point(arr, x)
    y = _check_point(arr, y)
    coeffs = [min(ref_residuation(arr.column(l), x),
                  ref_residuation(arr.column(l), y))
              for l in range(arr.d)]
    return tuple(
        max(coeffs[l] + arr.entries[t][l] for l in range(arr.d))
        for t in range(arr.n))


def ref_column_space_projection(arr, y) -> tuple:
    y = _check_point(arr, y)
    coeffs = [ref_residuation(arr.column(l), y) for l in range(arr.d)]
    return tuple(
        max(coeffs[l] + arr.entries[t][l] for l in range(arr.d))
        for t in range(arr.n))
