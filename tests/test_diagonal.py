import itertools
import random

import pytest

from soficshift import (ClopenSet, build_cover, class_projection,
                        conj_by_letter, cylinder,
                        evaluate_projection_formula,
                        express_class_projection, full_space, diagonal_generator,
                        post_image, shift_preimage, transition_semigroup,
                        word_classes)
from soficshift.diagonal import empty_set
from conftest import make_full


def cells_of(F):
    return {(F.cover.alphabet.render(w) if w else "", i)
            for w, i in F.refine(max(F.depth, 0)).cells}


class TestRefine:
    def test_even_class_one_splits_along_out_edges(self, even_cover):
        e1 = class_projection(even_cover, 0)
        got = e1.refine(1).cells
        assert got == {((1,), 0), ((0,), 1), ((1,), 2)}

    def test_refine_to_same_depth_is_identity(self, even_cover):
        f = cylinder(even_cover, (1, 0))
        assert f.refine(f.depth).cells == f.cells

    def test_even_zero_class_deep_refinement(self, even_cover):
        e3 = class_projection(even_cover, 2)
        assert e3.refine(2).cells == {((0, 0), 2)}

    def test_cells_with_equal_words_may_coexist(self, even_cover):
        # both E1 and E3 absorb a 1-prefixed part; the cells share the
        # word but not the class marker
        r1 = class_projection(even_cover, 0).refine(1).cells
        r3 = class_projection(even_cover, 2).refine(1).cells
        assert ((1,), 0) in r1 and ((1,), 2) in r1
        assert ((1,), 2) not in r3 and ((0,), 2) in r3

    def test_shallower_refinement_rejected(self, even_cover):
        with pytest.raises(ValueError):
            cylinder(even_cover, (1,)).refine(0)


class TestCanonicalForm:
    def test_full_split_merges_back(self, even_cover):
        refined = full_space(even_cover).refine(3)
        again = ClopenSet(even_cover, 3, refined.cells)
        assert again.depth == 0
        assert again == full_space(even_cover)

    def test_equality_across_depths(self, even_cover):
        e1 = class_projection(even_cover, 0)
        deeper = ClopenSet(even_cover, 1, e1.refine(1).cells)
        assert deeper.depth == 0
        assert deeper == e1

    def test_invalid_cell_rejected(self, even_cover):
        # no path labeled 1 ends at class 2 (paper's E_2)
        with pytest.raises(ValueError):
            ClopenSet(even_cover, 1, [((1,), 1)])

    def test_depth_mismatch_rejected(self, even_cover):
        with pytest.raises(ValueError):
            ClopenSet(even_cover, 2, [((1,), 0)])

    def test_cross_cover_operations_rejected(self, even_cover):
        other = build_cover(make_full(2))
        with pytest.raises(ValueError):
            full_space(even_cover).union(full_space(other))


class TestBooleanAlgebra:
    def test_complement_of_everything_is_empty(self, even_cover):
        assert full_space(even_cover).complement().is_empty()

    def test_class_projections_orthogonal(self, corpus_covers):
        for name, cover in corpus_covers:
            for i in range(cover.class_count):
                for j in range(i + 1, cover.class_count):
                    meet = class_projection(cover, i).intersect(
                        class_projection(cover, j))
                    assert meet.is_empty(), name

    def test_class_projections_cover_everything(self, corpus_covers):
        for name, cover in corpus_covers:
            total = empty_set(cover)
            for i in range(cover.class_count):
                total = total.union(class_projection(cover, i))
            assert total == full_space(cover), name

    def test_de_morgan_spot_check(self, even_cover):
        f = cylinder(even_cover, (1,))
        g = post_image(even_cover, (1, 0))
        lhs = f.union(g).complement()
        rhs = f.complement().intersect(g.complement())
        assert lhs == rhs


class TestCylinders:
    def test_even_letter_one(self, even_cover):
        assert cylinder(even_cover, (1,)).cells == {((1,), 0), ((1,), 2)}

    def test_empty_word_gives_everything(self, even_cover):
        assert cylinder(even_cover, ()) == full_space(even_cover)

    def test_inadmissible_word_gives_empty(self, golden_cover):
        assert cylinder(golden_cover, (1, 1)).is_empty()

    def test_distinct_letters_disjoint(self, corpus_covers):
        for name, cover in corpus_covers:
            for a in cover.alphabet:
                for b in cover.alphabet:
                    if a < b:
                        meet = cylinder(cover, (a,)).intersect(
                            cylinder(cover, (b,)))
                        assert meet.is_empty(), name


class TestPostImage:
    def test_even_letter_one(self, even_cover):
        assert post_image(even_cover, (1,)) == \
            class_projection(even_cover, 0).union(
                class_projection(even_cover, 2))

    def test_even_word_one_zero(self, even_cover):
        # 10 can precede exactly the classes E2 and E3: prepending 10
        # to an E1 ray creates an odd block of zeros between ones
        assert post_image(even_cover, (1, 0)) == \
            class_projection(even_cover, 1).union(
                class_projection(even_cover, 2))

    def test_empty_word(self, even_cover):
        assert post_image(even_cover, ()) == full_space(even_cover)

    def test_matches_semigroup_ranges(self, corpus_covers):
        # the path-walk route against the transition-relation route
        for name, cover in corpus_covers:
            sg = transition_semigroup(cover.graph)
            masks = {i: [sum(1 << v for v in c) for c in block]
                     for i, block in enumerate(cover.class_sets)}
            letters = range(len(cover.alphabet))
            for k in range(1, 6):
                for w in itertools.product(letters, repeat=k):
                    rng = sg.element_of_word(w).range_mask()
                    by_relations = frozenset(
                        i for i in range(cover.class_count)
                        if any(rng & m for m in masks[i]))
                    assert word_classes(cover, w) == by_relations, (name, w)


class TestConjugation:
    def test_even_prepend_one_to_zero_ray_class(self, even_cover):
        got = conj_by_letter(even_cover, 1, class_projection(even_cover, 2))
        assert got.cells == {((1,), 2)}

    def test_prepend_to_everything_is_cylinder(self, corpus_covers):
        for name, cover in corpus_covers:
            for a in cover.alphabet:
                assert conj_by_letter(cover, a, full_space(cover)) == \
                    cylinder(cover, (a,)), name

    def test_golden_forbidden_prepend(self, golden_cover):
        # class 0 carries the rays starting with 1; prepending another
        # 1 is forbidden
        assert golden_cover.class_of_ray(
            golden_cover.representatives[0]) == 0
        got = conj_by_letter(golden_cover, 1,
                             class_projection(golden_cover, 0))
        assert got.is_empty()

    def test_locality_identity(self, even_cover, golden_cover):
        # conjugating by a letter equals cutting the shifted preimage
        # down to the letter's cylinder
        for cover in (even_cover, golden_cover):
            letters = range(len(cover.alphabet))
            for k in range(0, 5):
                for nu in itertools.product(letters, repeat=k):
                    F = post_image(cover, nu)
                    lift = shift_preimage(cover, F)
                    for a in letters:
                        assert conj_by_letter(cover, a, F) == \
                            cylinder(cover, (a,)).intersect(lift)


class TestPhiGenerator:
    def test_empty_mu_reduces_to_post_image(self, even_cover):
        assert diagonal_generator(even_cover, (), (1, 0)) == \
            post_image(even_cover, (1, 0))

    def test_empty_nu_reduces_to_cylinder(self, even_cover):
        assert diagonal_generator(even_cover, (1,), ()) == \
            cylinder(even_cover, (1,))

    def test_even_mixed_words(self, even_cover):
        got = diagonal_generator(even_cover, (1,), (1, 0))
        assert got.cells == {((1,), 2)}


class TestClassProjectionFormulas:
    def test_even_matches_worked_formulas(self, even_cover):
        tok = even_cover.alphabet.word
        assert express_class_projection(even_cover, 0) == \
            ((tok("1"),), (tok("10"),))
        assert express_class_projection(even_cover, 1) == \
            ((tok("10"),), (tok("1"),))
        assert express_class_projection(even_cover, 2) == \
            ((tok("1"), tok("10")), ())

    def test_even_set_level_equalities(self, even_cover):
        s1 = post_image(even_cover, (1,))
        s10 = post_image(even_cover, (1, 0))
        assert class_projection(even_cover, 0) == \
            s1.intersect(s10.complement())
        assert class_projection(even_cover, 1) == \
            s10.intersect(s1.complement())
        assert class_projection(even_cover, 2) == s1.intersect(s10)

    def test_full_shift_trivial_formula(self):
        cover = build_cover(make_full(2))
        pos, neg = express_class_projection(cover, 0)
        assert pos == ((),) and neg == ()
        assert evaluate_projection_formula(cover, pos, neg) == \
            full_space(cover)

    def test_formula_reproduces_projection_everywhere(self, corpus_covers):
        for name, cover in corpus_covers:
            for i in range(cover.class_count):
                pos, neg = express_class_projection(cover, i)
                assert evaluate_projection_formula(cover, pos, neg) == \
                    class_projection(cover, i), (name, i)


class TestClassSplitIdentity:
    def test_projection_splits_along_out_edges(self, corpus_covers):
        for name, cover in corpus_covers:
            for i in range(cover.class_count):
                rhs = empty_set(cover)
                for e in cover.out_edges(i):
                    rhs = rhs.union(conj_by_letter(
                        cover, e.label, class_projection(cover, e.dst)))
                assert class_projection(cover, i) == rhs, (name, i)


class TestRandomizedCanonicalSoundness:
    def random_clopen(self, cover, rng):
        out = empty_set(cover)
        letters = range(len(cover.alphabet))
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(0, 3)
            w = tuple(rng.choice(letters) for _ in range(k))
            out = out.union(cylinder(cover, w))
        if rng.random() < 0.3:
            out = out.complement()
        return out

    def test_refinement_preserves_equality(self, even_cover, golden_cover):
        rng = random.Random(404)
        for cover in (even_cover, golden_cover):
            for _ in range(40):
                f = self.random_clopen(cover, rng)
                g = self.random_clopen(cover, rng)
                d = max(f.depth, g.depth) + rng.randint(0, 2)
                assert (f == g) == (f.refine(d).cells == g.refine(d).cells)

    def test_equivalence_relation_spot_check(self, even_cover):
        rng = random.Random(405)
        pool = [self.random_clopen(even_cover, rng) for _ in range(12)]
        for f in pool:
            assert f == f
        for f, g, h in itertools.combinations(pool, 3):
            if f == g and g == h:
                assert f == h
            if f == g:
                assert g == f


class TestRendering:
    def test_cell_list_format(self, even_cover):
        got = conj_by_letter(even_cover, 1, class_projection(even_cover, 2))
        assert got.render() == "{1·E3}"

    def test_depth_zero_cells_render_bare(self, even_cover):
        assert post_image(even_cover, (1,)).render() == "{E1, E3}"
