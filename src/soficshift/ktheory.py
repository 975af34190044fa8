"""Exact integer linear algebra: Smith normal form and the K-groups
of the cover's edge algebra.  The K-groups are read off the Smith form
of the class-sized matrix left by merging equal rows of the edge
matrix (in-amalgamation), not of the edge matrix itself.

Matrices are plain lists of rows of Python integers, so entries never
overflow; naive pivoting blows up intermediate entries even on small
inputs, which rules out fixed-width arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .krieger import EdgeMatrix

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


def _in_amalgamate(rows: IntMatrix) -> IntMatrix:
    """Merge every group of equal rows of a square matrix into one
    state, in order of first appearance: the merged state keeps the
    shared row, with the columns of each group summed.

    Two equal rows of B are two equal columns of I - B^T, and
    subtracting one from the other leaves e_i - e_j, so the merge keeps
    the cokernel and the nullity of I - B^T for any square integer
    matrix (in-amalgamation; Lind & Marcus, *Symbolic Dynamics and
    Coding*, 2.4 and 7.4).  Rows of a cover's edge matrix are equal
    exactly when their edges share a range, so it yields the class
    adjacency matrix counted with multiplicity.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(tuple(row), []).append(i)
    members = list(groups.values())
    return [[sum(row[j] for j in cols) for cols in members]
            for row in groups]


def k_groups(b: EdgeMatrix | IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """K-theory of the Cuntz-Krieger algebra of a square 0/1 matrix B:
    the cokernel and kernel of I - B transposed.

    Any square 0/1 matrix is accepted, zero rows and columns included.
    Convention: both groups act on column vectors, so K0 is
    Z^n / (I - B^T) Z^n read off the Smith form's diagonal and K1 is
    the free kernel, of rank the nullity.  Equal rows of B are merged
    first (:func:`_in_amalgamate`), which keeps both groups, so on a
    cover's edge matrix the Smith form runs on the class-sized matrix.

    Examples
    --------
    >>> k0, k1 = k_groups([[1, 1], [1, 1]])
    >>> k0.render(), k1.render()
    ('0', '0')

    The even shift's edge matrix: edges 1 and 4 end at one class, and
    so do edges 3 and 5, so five edges amalgamate to three classes.

    >>> b = [[1, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
    ...      [1, 1, 1, 0, 0], [0, 0, 0, 0, 1]]
    >>> _in_amalgamate(b)
    [[1, 1, 1], [1, 0, 0], [0, 0, 1]]
    >>> [g.render() for g in k_groups(b)]
    ['Z', 'Z']
    """
    rows = b.as_lists() if isinstance(b, EdgeMatrix) else \
        [list(map(int, row)) for row in b]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("edge matrix must be square")
    if any(x not in (0, 1) for row in rows for x in row):
        raise ValueError("edge matrix entries must be 0 or 1")
    a = _in_amalgamate(rows)
    n = len(a)
    m = [[(1 if i == j else 0) - a[j][i] for j in range(n)]
         for i in range(n)]
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(n)]
    rank = sum(1 for x in diag if x)
    k0 = AbelianGroup(n - rank, tuple(x for x in diag if x >= 2))
    k1 = AbelianGroup(n - rank)
    return k0, k1
