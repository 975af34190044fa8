import random

import pytest
from hypothesis import given, settings, strategies as st

from soficshift import (AbelianGroup, build_cover, determinant,
                        edge_matrix, k_groups, smith_normal_form)
from soficshift.ktheory import (_in_amalgamate, identity_matrix,
                                matrix_multiply)
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


class TestAmalgamation:
    def test_matches_edge_route_on_random_covers(self):
        # right-resolving over 2, 3 and 10 letters, and 2-letter inputs
        # that are not right-resolving
        for seed in (401, 402):
            for name, g in random_presentations(seed):
                b = edge_matrix(build_cover(g)).as_lists()
                assert k_groups(b) == edge_route_k_groups(b), name

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
            merged = _in_amalgamate(edge_matrix(cover).as_lists())
            # merged states follow the first edge into each class
            order = list(dict.fromkeys(e.dst for e in cover.edges))
            assert sorted(order) == list(range(cover.class_count))
            a = class_adjacency(cover)
            assert merged == [[a[c][d] for d in order] for c in order]
