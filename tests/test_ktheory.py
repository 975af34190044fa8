import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from soficshift import (AbelianGroup, Alphabet, LabeledGraph, build_cover,
                        determinant, edge_matrix, k_groups,
                        smith_normal_form, trim_essential)
from soficshift.ktheory import (_rank_and_factors, _unit_elimination,
                                identity_matrix, matrix_multiply)
from conftest import make_full
from test_krieger import EVEN_PUBLISHED_MATRIX, random_presentations


def edge_route_k_groups(b):
    """Slow reference: K0 and K1 from the Smith form of the full
    I - B^T, with no amalgamation."""
    n = len(b)
    m = [[(1 if i == j else 0) - b[j][i] for j in range(n)]
         for i in range(n)]
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(n)]
    rank = sum(1 for x in diag if x)
    return (AbelianGroup(n - rank, tuple(x for x in diag if x >= 2)),
            AbelianGroup(n - rank))


def in_amalgamate(rows):
    """Reference in-amalgamation: merge every group of equal rows of a
    square matrix into one state, in order of first appearance; the
    merged state keeps the shared row, with the columns of each group
    summed.  Rows of a cover's edge matrix are equal exactly when their
    edges share a range, so this yields the class matrix."""
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(tuple(row), []).append(i)
    members = list(groups.values())
    return [[sum(row[j] for j in cols) for cols in members]
            for row in groups]


def class_adjacency(cover):
    """A(c, d) = the number of cover edges from class c to class d."""
    n = cover.class_count
    a = [[0] * n for _ in range(n)]
    for e in cover.edges:
        a[e.src][e.dst] += 1
    return a


def check_snf_contract(m):
    """Reconstruction oracle for one matrix."""
    u, d, v = smith_normal_form(m)
    rows = len(m)
    cols = len(m[0]) if m else 0
    assert matrix_multiply(matrix_multiply(u, m), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert sorted(nonzero) == nonzero or all(
        b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    rank = len(nonzero)
    return rank


class TestSmithNormalForm:
    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        assert u == identity_matrix(2)
        assert v == identity_matrix(2)

    def test_coprime_diagonal(self):
        _, d, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [d[0][0], d[1][1]] == [1, 6]
        check_snf_contract([[2, 0], [0, 3]])

    def test_swap_and_negate(self):
        _, d, _ = smith_normal_form([[0, -1], [-1, 0]])
        assert [d[0][0], d[1][1]] == [1, 1]

    def test_rectangular_shapes(self):
        check_snf_contract([[2, 4, 4]])
        check_snf_contract([[2], [4], [4]])
        _, d, _ = smith_normal_form([[2, 4, 4]])
        assert d[0][0] == 2

    def test_divisibility_needs_fixup(self):
        # diag(2, 3) style inputs force the gcd pull-in step
        _, d, _ = smith_normal_form([[2, 0, 0], [0, 6, 0], [0, 0, 9]])
        assert [d[i][i] for i in range(3)] == [1, 6, 18]

    def test_200_random_matrices(self):
        rng = random.Random(501)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)]
            rank = check_snf_contract(m)
            # rank/nullity bookkeeping via the diagonal
            assert 0 <= rank <= min(rows, cols)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    def test_non_integer_entries_rejected(self):
        # int() would truncate these to diag(1, 2)
        with pytest.raises(ValueError, match="integers"):
            smith_normal_form([[1.5, 0], [0, 2.9]])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-30, 30), min_size=cols, max_size=cols),
        min_size=1, max_size=5)))
    def test_contract_property(self, m):
        check_snf_contract(m)


class TestAbelianGroup:
    def test_renderings(self):
        assert AbelianGroup(0).render() == "0"
        assert AbelianGroup(1).render() == "Z"
        assert AbelianGroup(2, (2, 6)).render() == "Z^2 ⊕ Z/2 ⊕ Z/6"
        assert AbelianGroup(0, (5,)).render() == "Z/5"

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            AbelianGroup(-1)


class TestKGroups:
    def test_full_two_shift_trivial(self):
        k0, k1 = k_groups([[1, 1], [1, 1]])
        assert k0.is_trivial() and k1.is_trivial()

    def test_full_shifts_give_cyclic_groups(self):
        # hand Smith reduction of I minus the all-ones matrix gives
        # diag(1, ..., 1, n - 1)
        for n in range(2, 6):
            cover = build_cover(make_full(n))
            k0, k1 = k_groups(edge_matrix(cover))
            if n == 2:
                assert k0.is_trivial()
            else:
                assert k0 == AbelianGroup(0, (n - 1,))
            assert k1.is_trivial()

    def test_even_shift_published_matrix(self):
        k0, k1 = k_groups(EVEN_PUBLISHED_MATRIX)
        assert k0 == AbelianGroup(1)
        assert k1 == AbelianGroup(1)

    def test_even_shift_canonical_matrix(self, even_cover):
        k0, k1 = k_groups(edge_matrix(even_cover))
        assert (k0.render(), k1.render()) == ("Z", "Z")

    def test_invariant_under_simultaneous_permutation(self):
        rng = random.Random(502)
        for _ in range(30):
            n = rng.randint(1, 6)
            b = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            pb = [[b[perm[i]][perm[j]] for j in range(n)]
                  for i in range(n)]
            assert k_groups(b) == k_groups(pb)

    def test_rank_nullity_via_snf(self):
        rng = random.Random(503)
        for _ in range(50):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)]
            _, d, _ = smith_normal_form(m)
            rank = sum(1 for i in range(min(rows, cols)) if d[i][i])
            nullity = cols - rank
            assert rank + nullity == cols

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            k_groups([[1, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError):
            k_groups([[2, 0], [0, 1]])

    def test_float_entries_rejected(self):
        # int() would truncate 1.7 to 1 and return (Z^2, Z^2)
        with pytest.raises(ValueError, match="0 or 1"):
            k_groups([[1.7, 0], [0, 1]])

    def test_string_entries_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            k_groups([["1", "0"], ["0", "1"]])


class TestAmalgamation:
    def test_matches_edge_route_on_random_covers(self, corpus_covers):
        # right-resolving over 2, 3 and 10 letters, and 2-letter inputs
        # that are not right-resolving; a cover and its edge matrix are
        # read by their edges as the class matrix, a list matrix by the
        # unit elimination of the full I - B^T
        covers = [(name, build_cover(g)) for seed in (401, 402)
                  for name, g in random_presentations(seed)]
        for name, cover in covers + corpus_covers:
            b = edge_matrix(cover)
            want = edge_route_k_groups(b.as_lists())
            assert k_groups(cover) == k_groups(b) \
                == k_groups(b.as_lists()) == want, name

    def test_matches_edge_route_with_repeated_and_zero_rows(self):
        rng = random.Random(504)
        for _ in range(300):
            n = rng.randint(1, 9)
            distinct = [[rng.randint(0, 1) for _ in range(n)]
                        for _ in range(rng.randint(1, n))]
            distinct.append([0] * n)
            b = [list(rng.choice(distinct)) for _ in range(n)]
            assert k_groups(b) == edge_route_k_groups(b), b

    def test_edge_matrix_amalgamates_to_class_matrix(self, corpus_covers):
        covers = [build_cover(g) for _, g in random_presentations(403)]
        covers += [cover for _, cover in corpus_covers]
        for cover in covers:
            merged = in_amalgamate(edge_matrix(cover).as_lists())
            # merged states follow the first edge into each class
            order = list(dict.fromkeys(e.dst for e in cover.edges))
            assert sorted(order) == list(range(cover.class_count))
            a = class_adjacency(cover)
            assert merged == [[a[c][d] for d in order] for c in order]


def dense_invariants(m):
    """Rank and invariant factors of at least 2 by the dense Smith
    form."""
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(m), len(m[0])))]
    return sum(1 for x in diag if x), tuple(x for x in diag if x >= 2)


# sparse rectangular matrices: mostly zeros, units and small non-units,
# with whole rows and columns zeroed
SPARSE_MATRICES = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(st.sampled_from(
            [0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 6, -4]),
            min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]),
        st.sets(st.integers(0, shape[0] - 1)),
        st.sets(st.integers(0, shape[1] - 1))))


class TestUnitElimination:
    @settings(max_examples=100, deadline=None)
    @given(SPARSE_MATRICES)
    def test_matches_dense_smith_form(self, drawn):
        m, zero_rows, zero_cols = drawn
        m = [[0 if i in zero_rows or j in zero_cols else x
              for j, x in enumerate(row)] for i, row in enumerate(m)]
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        assert _rank_and_factors(rows) == dense_invariants(m)

    def test_residue_keeps_only_live_rows_and_columns(self):
        # the units eliminate to the 1 x 1 residue [2]; the zero row and
        # the zero column 1 are dropped
        rows = [{0: 1, 2: 1}, {0: 1, 2: 3}, {}]
        assert _unit_elimination(rows) == (1, [[2]])

    def test_edgeless_class_is_not_a_state(self, even_cover):
        # a class no edge enters is no state of the in-amalgamation; a
        # state for it would add a Z to both groups
        extra = dataclasses.replace(
            even_cover, class_count=even_cover.class_count + 1)
        assert extra.class_count == even_cover.class_count + 1
        assert k_groups(extra) == k_groups(edge_matrix(extra)) \
            == k_groups(even_cover)


def rank_mod(m, p):
    """Rank over GF(p) by dense Gauss-Jordan elimination."""
    a = [[x % p for x in row] for row in m]
    rank = 0
    for c in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rank_over_q(m):
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    rank, prev = 0, 1
    for c in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, len(a)):
            a[i] = [(p * x - a[i][c] * y) // prev
                    for x, y in zip(a[i], a[rank])]
        prev = p
        rank += 1
    return rank


def random_right_resolving(seed, n, k=2):
    rng = random.Random(seed)
    edges = [(v, rng.randrange(n), a) for v in range(n) for a in range(k)
             if rng.random() < 0.8]
    return trim_essential(LabeledGraph(
        Alphabet([str(a) for a in range(k)]), [f"v{i}" for i in range(n)],
        edges))


class TestModularRanks:
    def test_ranks_mod_p_match_invariant_factors(self):
        # 96 classes with K0 = Z + Z/2 + Z/30: for each prime p, rank_Q
        # - rank_p counts the invariant factors divisible by p, and
        # 1,000,003 divides none
        cover = build_cover(random_right_resolving(15, 26))
        n = cover.class_count
        a = class_adjacency(cover)
        m = [[(1 if i == j else 0) - a[j][i] for j in range(n)]
             for i in range(n)]
        k0, k1 = k_groups(cover)
        assert (n, k0.render()) == (96, "Z ⊕ Z/2 ⊕ Z/30")
        rank = rank_over_q(m)
        assert k0.free_rank == k1.free_rank == n - rank
        for p in (2, 3, 5, 1_000_003):
            divisible = sum(1 for d in k0.invariant_factors if d % p == 0)
            assert rank - rank_mod(m, p) == divisible, p
