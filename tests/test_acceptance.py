"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
criterion lines.
"""

import itertools
import random
import time

from soficshift import (AbelianGroup, Ray, build_cover, class_projection,
                        corrupt_cover, determinant, edge_matrix,
                        evaluate_projection_formula,
                        express_class_projection, k_groups,
                        make_right_resolving, post_image,
                        realized_survivor_sets,
                        realized_survivor_sets_bruteforce,
                        smith_normal_form, stabilization_level,
                        transition_semigroup, trim_essential, verify_all)
from soficshift.isocheck import FAMILY_ORDER
from soficshift.ktheory import matrix_multiply
from conftest import corpus_graphs, make_even, make_full, random_corpus
from test_krieger import (EVEN_PUBLISHED_MATRIX, permutation_equivalent,
                          pre_word_mask)


def test_criterion_1_even_shift_golden():
    """Cover of the even shift: class count, memberships, edge count,
    and the published edge matrix, in under a second."""
    t0 = time.perf_counter()
    cover = build_cover(make_even())
    matrix = edge_matrix(cover).as_lists()
    elapsed = time.perf_counter() - t0

    assert cover.class_count == 3
    # 1 0^inf lies in the first class, 0 1 0^inf in the second,
    # 0^inf in the third
    assert cover.class_of_ray(Ray((1,), (0,))) == 0
    assert cover.class_of_ray(Ray((0, 1), (0,))) == 1
    assert cover.class_of_ray(Ray((), (0,))) == 2
    assert len(cover.edges) == 5
    assert permutation_equivalent(matrix, EVEN_PUBLISHED_MATRIX)
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: even-shift cover exact "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_projection_formulas():
    """The even shift's class projections factor through the worked
    word formulas, exactly."""
    cover = build_cover(make_even())
    w = cover.alphabet.word
    expected = {
        0: ((w("1"),), (w("10"),)),
        1: ((w("10"),), (w("1"),)),
        2: ((w("1"), w("10")), ()),
    }
    s1 = post_image(cover, w("1"))
    s10 = post_image(cover, w("10"))
    set_level = {
        0: s1.intersect(s10.complement()),
        1: s10.intersect(s1.complement()),
        2: s1.intersect(s10),
    }
    for i in range(3):
        assert express_class_projection(cover, i) == expected[i]
        pos, neg = expected[i]
        assert evaluate_projection_formula(cover, pos, neg) == \
            class_projection(cover, i)
        assert set_level[i] == class_projection(cover, i)
    print("PASS criterion 2: projection word formulas exact")


def test_criterion_3_isomorphism_skeleton():
    """Every check family passes at word length 8 on the corpus and on
    50 seeded random presentations; every family has a corrupted-cover
    negative control that fails.  Under 30 seconds."""
    t0 = time.perf_counter()
    checked = 0
    for name, g in corpus_graphs():
        report = verify_all(build_cover(g), max_len=8)
        assert report.all_passed, (name, report.render())
        checked += 1
    for idx, g in enumerate(random_corpus(50, seed=20260810)):
        report = verify_all(build_cover(g), max_len=8)
        assert report.all_passed, (idx, report.render())
        checked += 1

    even_cover = build_cover(make_even())
    failing: set[str] = set()
    for kind in ("reassign-range", "drop-edge", "duplicate-label",
                 "drop-letter"):
        report = verify_all(corrupt_cover(even_cover, kind), max_len=6)
        failing |= {r.name for r in report.results if not r.passed}
    assert failing == set(FAMILY_ORDER), \
        sorted(set(FAMILY_ORDER) - failing)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 3: {checked} presentations verified, "
          f"{len(FAMILY_ORDER)} families each negatively controlled "
          f"({elapsed:.1f} s)")


def test_criterion_4_oracle_equivalence():
    """Realized survivor sets from the pair graph match brute-force
    ultimately-periodic ray enumeration at bound 10, exactly."""
    for name, g in corpus_graphs():
        g = make_right_resolving(trim_essential(g))
        sets, _ = realized_survivor_sets(g)
        assert sets == realized_survivor_sets_bruteforce(g, 10), name
    print("PASS criterion 4: survivor-set oracle equivalence at bound 10")


def test_criterion_5_k_theory():
    """Full shifts give the hand-reduced cyclic groups, the even shift
    gives Z and Z, and the Smith form contract holds on 200 random
    matrices."""
    for n in range(2, 6):
        k0, k1 = k_groups(edge_matrix(build_cover(make_full(n))))
        assert k0 == (AbelianGroup(0) if n == 2
                      else AbelianGroup(0, (n - 1,))), n
        assert k1 == AbelianGroup(0), n

    k0, k1 = k_groups(edge_matrix(build_cover(make_even())))
    assert k0 == AbelianGroup(1) and k1 == AbelianGroup(1)

    rng = random.Random(20260811)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)]
             for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert matrix_multiply(matrix_multiply(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
    print("PASS criterion 5: K-groups exact, 200 Smith reconstructions")


def test_criterion_6_stabilization():
    """Past-data refinement by one extra letter is the identity on
    every corpus graph, and the even shift stabilizes at level 2,
    confirmed by direct word enumeration at levels 1, 2, 3."""
    for name, g in corpus_graphs():
        cover = build_cover(g)
        sg = transition_semigroup(cover.graph)
        full = frozenset(frozenset(b) for b in cover.class_sets)
        realized = [c for b in cover.class_sets for c in b]
        level = stabilization_level(cover)
        for extra in (level, level + 1):
            idxs = [i for i in range(len(sg.relations))
                    if sg.depth[i] <= extra]
            groups = {}
            for c in realized:
                mask = sum(1 << v for v in c)
                sig = tuple(bool(sg.relations[i].range_mask() & mask)
                            for i in idxs)
                groups.setdefault(sig, set()).add(c)
            assert frozenset(frozenset(s)
                             for s in groups.values()) == full, name

    even_cover = build_cover(make_even())
    assert stabilization_level(even_cover) == 2
    g = even_cover.graph
    realized = [c for b in even_cover.class_sets for c in b]
    full = frozenset(frozenset(b) for b in even_cover.class_sets)

    def brute(level):
        words = [w for k in range(level + 1)
                 for w in itertools.product(range(2), repeat=k)]
        groups = {}
        for c in realized:
            mask = sum(1 << v for v in c)
            sig = tuple(bool(pre_word_mask(g, w, mask)) for w in words)
            groups.setdefault(sig, set()).add(c)
        return frozenset(frozenset(s) for s in groups.values())

    assert brute(1) != full
    assert brute(2) == full
    assert brute(3) == full
    print("PASS criterion 6: stabilization level 2, refinement stable")
