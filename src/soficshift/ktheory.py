"""Exact integer linear algebra: Smith normal form and the K-groups
of the cover's edge algebra.

The K-groups are the cokernel and kernel of M = I - A^T, where A is the
class matrix: the edge matrix in-amalgamated to the classes that some
edge enters, which counts the cover's edges between two classes.
:func:`k_groups` counts A from the edges of a cover or of an edge
matrix, takes a plain 0/1 list matrix B as I - B^T, eliminates the
unit entries of the sparse rows of M, and takes the Smith form of the
small residue only.

Matrices are plain lists of rows of Python integers, so entries never
overflow; naive pivoting blows up intermediate entries even on small
inputs, which rules out fixed-width arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .krieger import EdgeMatrix, KriegerCover, entered_classes

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(cols)] for i in range(len(a))]


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Bezout coefficients: returns (x, y, g) with x*a + y*b == g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def smith_normal_form(
        matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize over the integers: returns (U, D, V) with
    D = U . matrix . V, U and V unimodular, and D diagonal with
    nonnegative entries d1 | d2 | ...

    Each stage moves a minimal-magnitude entry to the pivot and kills
    its column and row with Bezout 2x2 transforms, which reach the gcd
    in one step per entry and keep intermediate growth tame (iterated
    remainder swapping blows entries up even on 6x6 inputs).  The
    pivot is then forced to divide the remaining block, which yields
    the divisibility chain directly.
    """
    a = [list(map(int, row)) for row in matrix]
    if a != [list(row) for row in matrix]:
        raise ValueError("matrix entries must be integers")
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("matrix rows must have equal length")
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def bezout_rows(t, i, p, q):
        # rows (t, i) <- (x*t + y*i, -(q/g)*t + (p/g)*i); determinant 1
        x, y, g = _xgcd(p, q)
        c, d = -(q // g), p // g
        for mat in (a, u):
            rt, ri = mat[t], mat[i]
            mat[t] = [x * s + y * w for s, w in zip(rt, ri)]
            mat[i] = [c * s + d * w for s, w in zip(rt, ri)]

    def bezout_cols(t, j, p, q):
        x, y, g = _xgcd(p, q)
        c, d = -(q // g), p // g
        for mat in (a, v):
            for row in mat:
                row[t], row[j] = (x * row[t] + y * row[j],
                                  c * row[t] + d * row[j])

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(m, n)):
        # move a minimal-magnitude nonzero entry of the block to (t, t)
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                p, q = a[t][t], a[i][t]
                if q % p == 0:
                    add_row(t, i, -(q // p))
                else:
                    bezout_rows(t, i, p, q)
            # clearing the row can dirty the column again; the pivot
            # strictly divides its old value each time that happens,
            # so the loop settles quickly
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                p, q = a[t][t], a[t][j]
                if q % p == 0:
                    add_col(t, j, -(q // p))
                else:
                    bezout_cols(t, j, p, q)
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            # pull any non-multiple of the pivot into row t and reduce
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if a[t][t] < 0:
            negate_row(t)
    return u, a, v


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group as free rank plus invariant
    factors d1 | d2 | ... with every factor at least 2."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x:
                raise ValueError("invariant factors must form a "
                                 "divisibility chain")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " ⊕ ".join(parts) if parts else "0"


def _unit_elimination(rows: list[dict[int, int]]) -> tuple[int, IntMatrix]:
    """Eliminate unit pivots from a sparse integer matrix, in place.

    ``rows[i]`` maps the columns of row i's nonzero entries to their
    values.  Each step picks an entry p = +-1 of least Markowitz cost
    (row nonzeros - 1)(column nonzeros - 1), clears its column with
    row operations and drops its row and column: a Schur complement
    step, which keeps the invariant factors other than the unit p
    (Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001).  The
    unit entries sit in a lazy heap keyed by their cost when pushed:
    each is pushed when it is first seen and whenever an update sets
    it, a popped entry that is no longer a unit is dropped, and one
    whose cost has grown goes back with its new cost.

    Returns the number of pivots and the residue: the dense matrix of
    the rows and columns that still hold a nonzero entry.
    """
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap: list[tuple[int, int, int]] = []

    def push(i: int, units: list[int]) -> None:
        others = len(rows[i]) - 1
        for j in units:
            heappush(heap, (others * (len(cols[j]) - 1), i, j))

    for i, row in enumerate(rows):
        push(i, [j for j, x in row.items() if x == 1 or x == -1])
    pivots = 0
    while heap:
        cost, r, c = heappop(heap)
        pivot_row = rows[r]
        p = pivot_row.get(c)
        if p != 1 and p != -1:
            continue  # stale: the entry changed or its row was dropped
        now = (len(pivot_row) - 1) * (len(cols[c]) - 1)
        if now > cost:
            heappush(heap, (now, r, c))
            continue
        pivots += 1
        del pivot_row[c]
        for j in pivot_row:
            cols[j].discard(r)
        targets = cols.pop(c)
        targets.discard(r)
        for i in targets:
            row = rows[i]
            f = row.pop(c) * p  # row i -= (M[i][c] / p) row r, 1/p = p
            units = []
            for j, x in pivot_row.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                    if y == 1 or y == -1:
                        units.append(j)
                else:
                    del row[j]
                    cols[j].discard(i)
            push(i, units)
        pivot_row.clear()
    live = sorted(j for j, members in cols.items() if members)
    return pivots, [[row.get(j, 0) for j in live] for row in rows if row]


def _rank_and_factors(rows: list[dict[int, int]]
                      ) -> tuple[int, tuple[int, ...]]:
    """The rank and the invariant factors of at least 2 of a sparse
    integer matrix (as :func:`_unit_elimination` takes it): the units
    are eliminated, and only the residue goes to the Smith form."""
    pivots, residue = _unit_elimination(rows)
    if not residue:
        return pivots, ()
    _, d, _ = smith_normal_form(residue)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    return (pivots + sum(1 for x in diag if x),
            tuple(x for x in diag if x >= 2))


def k_groups(b: KriegerCover | EdgeMatrix | IntMatrix
             ) -> tuple[AbelianGroup, AbelianGroup]:
    """K-theory of the Cuntz-Krieger algebra of a square 0/1 matrix B:
    the cokernel and kernel of I - B transposed.

    A cover or an edge matrix is read by its edges: B(e, f) is
    [e.dst == f.src], so the edges into one class have equal rows, and
    merging them in-amalgamates B to the class matrix A, A(c, d) = the
    number of edges from c to d over the classes that some edge enters.
    Two equal rows of B are two equal columns of I - B^T, so the merge
    keeps both groups (Lind & Marcus, *Symbolic Dynamics and Coding*,
    2.4 and 7.4), and M = I - A^T is counted from the edges.  A list
    matrix B, zero rows and columns included, is taken as M = I - B^T
    with no merging.  The unit entries of the sparse rows of M are
    eliminated, and the Smith form of the residue supplies the other
    invariant factors (:func:`_rank_and_factors`).
    Convention: both groups act on column vectors, so K0 is
    Z^n / M Z^n and K1 the free kernel, of rank the nullity.

    Raises
    ------
    CoverInvariantError
        On a cover or edge matrix whose edge matrix has a zero row or
        column.
    ValueError
        On a matrix that is not square or not 0/1.

    Examples
    --------
    >>> k0, k1 = k_groups([[1, 1], [1, 1]])
    >>> k0.render(), k1.render()
    ('0', '0')

    The even shift's edge matrix: edges 1 and 4 end at one class, and
    so do edges 3 and 5, which is why its groups are the class
    matrix's [[1, 1, 1], [1, 0, 0], [0, 0, 1]].

    >>> b = [[1, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
    ...      [1, 1, 1, 0, 0], [0, 0, 0, 0, 1]]
    >>> [g.render() for g in k_groups(b)]
    ['Z', 'Z']

    A cover is read from its edges.  In the chain shift (an a-loop
    feeding a c-loop through one b-edge) class 2's only out-edge is its
    c-loop, so M's column of class 2 is zero: A = [[1, 1], [0, 1]] and
    M = [[0, 0], [-1, 0]], of rank 1.

    >>> from soficshift import build_cover, parse_presentation
    >>> cover = build_cover(parse_presentation(
    ...     "alphabet a b c\\nvertex p\\nvertex q\\n"
    ...     "edge p p a\\nedge p q b\\nedge q q c\\n"))
    >>> [(e.src, e.dst) for e in cover.edges]
    [(0, 0), (0, 1), (1, 1)]
    >>> [g.render() for g in k_groups(cover)]
    ['Z', 'Z']
    """
    if isinstance(b, (KriegerCover, EdgeMatrix)):
        states = {c: i for i, c in enumerate(entered_classes(b.edges))}
        n = len(states)
        pairs = [(states[e.src], states[e.dst]) for e in b.edges]
    else:
        n = len(b)
        if any(len(row) != n for row in b):
            raise ValueError("edge matrix must be square")
        if any(x != 0 and x != 1 for row in b for x in row):
            raise ValueError("edge matrix entries must be 0 or 1")
        pairs = [(i, j) for i, row in enumerate(b)
                for j, x in enumerate(row) if x]
    # M = I - X^T for X = A or B: each pair adds 1 to X(i, j)
    rows = [{i: 1} for i in range(n)]
    for i, j in pairs:
        row = rows[j]
        x = row.get(i, 0) - 1
        if x:
            row[i] = x
        else:
            del row[i]
    rank, factors = _rank_and_factors(rows)
    return AbelianGroup(n - rank, factors), AbelianGroup(n - rank)
