import pytest
from hypothesis import given, settings

from soficshift import (Alphabet, build_cover, corrupt_cover, diagonal,
                        isocheck, verify_all, verify_ck_relations,
                        verify_edge_sum_hypotheses, verify_round_trips)
from soficshift.isocheck import CORRUPTION_KINDS, FAMILY_ORDER
from conftest import make_full, random_corpus
from test_krieger import GENERATED_SHAPES, generated_graph
from test_word_scan import with_variants

# for every check family, a corruption that must trip it
NEGATIVE_CONTROLS = {
    "word_path_equivalence": "reassign-range",
    "shifted_cylinder_classes": "drop-edge",
    "word_range_projections": "drop-edge",
    "class_edge_splitting": "reassign-range",
    "conjugation_locality": "duplicate-label",
    "range_projection_orthogonality": "duplicate-label",
    "edge_support_sums": "reassign-range",
    "range_projection_partition": "drop-edge",
    "left_resolving": "duplicate-label",
    "edge_label_cover": "drop-letter",
    "labeled_path_ranges": "drop-edge",
    "path_concatenation": "duplicate-label",
    "letter_roundtrip": "drop-edge",
    "edge_roundtrip": "duplicate-label",
    "projection_word_formulas": "reassign-range",
}


class TestHonestCovers:
    def test_corpus_passes_everything(self, corpus_covers):
        for name, cover in corpus_covers:
            report = verify_all(cover, max_len=8)
            assert report.all_passed, (name, report.render())
            assert len(report.results) == len(FAMILY_ORDER)

    def test_family_order_is_stable(self, even_cover):
        report = verify_all(even_cover, max_len=6)
        assert tuple(r.name for r in report.results) == FAMILY_ORDER

    def test_deterministic_reports(self, even_cover):
        a = verify_all(even_cover, max_len=7).render()
        b = verify_all(even_cover, max_len=7).render()
        assert a == b

    def test_even_ck_counts(self, even_cover):
        results = {r.name: r for r in verify_ck_relations(even_cover)}
        # 5 edges: 10 orthogonality pairs and 5 support sums
        assert results["range_projection_orthogonality"].checked == 10
        assert results["edge_support_sums"].checked == 5
        assert all(r.passed for r in results.values())

    def test_full_two_shift_partition_degenerates(self):
        cover = build_cover(make_full(2))
        results = {r.name: r for r in verify_ck_relations(cover)}
        assert results["range_projection_partition"].passed
        report = verify_all(cover, max_len=8)
        assert report.all_passed

    def test_edge_sum_and_round_trip_entrypoints(self, golden_cover):
        es = verify_edge_sum_hypotheses(golden_cover, max_len=8)
        assert [r.name for r in es] == [
            "left_resolving", "edge_label_cover", "labeled_path_ranges",
            "path_concatenation"]
        assert all(r.passed for r in es)
        rt = verify_round_trips(golden_cover)
        assert [r.name for r in rt] == ["letter_roundtrip",
                                        "edge_roundtrip"]
        assert all(r.passed for r in rt)

    def test_random_presentations_pass(self):
        for g in random_corpus(12, seed=301):
            report = verify_all(build_cover(g), max_len=6)
            assert report.all_passed, report.render()


class TestNegativeControls:
    def test_every_family_has_a_failing_control(self, even_cover):
        assert set(NEGATIVE_CONTROLS) == set(FAMILY_ORDER)
        failures_by_kind = {}
        for kind in CORRUPTION_KINDS:
            bad = corrupt_cover(even_cover, kind)
            report = verify_all(bad, max_len=6)
            failures_by_kind[kind] = {r.name for r in report.results
                                      if not r.passed}
            assert failures_by_kind[kind], kind
        for family, kind in NEGATIVE_CONTROLS.items():
            assert family in failures_by_kind[kind], (family, kind)

    def test_range_reassignment_breaks_support_sums(self, even_cover):
        bad = corrupt_cover(even_cover, "reassign-range")
        results = {r.name: r for r in verify_ck_relations(bad)}
        failed = results["edge_support_sums"]
        assert not failed.passed
        assert failed.witness is not None

    def test_duplicate_label_names_the_vertex(self, even_cover):
        bad = corrupt_cover(even_cover, "duplicate-label")
        results = {r.name: r for r in
                   verify_edge_sum_hypotheses(bad, max_len=4)}
        failed = results["left_resolving"]
        assert not failed.passed
        assert "E" in failed.witness and "labeled" in failed.witness

    def test_dropped_edge_breaks_letter_round_trip(self, even_cover):
        bad = corrupt_cover(even_cover, "drop-edge")
        dropped = even_cover.edges[0]
        results = {r.name: r for r in verify_round_trips(bad)}
        failed = results["letter_roundtrip"]
        assert not failed.passed
        assert even_cover.alphabet.tokens[dropped.label] in failed.witness

    def test_witness_only_on_failure(self, even_cover):
        for result in verify_all(even_cover, max_len=5).results:
            assert result.witness is None

    def test_passing_checks_render_nothing(self, even_cover, monkeypatch):
        def no_render(self, word):
            raise AssertionError("rendered a word for a passing check")

        monkeypatch.setattr(Alphabet, "render", no_render)
        assert verify_all(even_cover, max_len=6).failed == 0

    def test_split_families_word_one_outcome(self, even_cover):
        # the split identity is decided once per class; each family
        # keeps its own count and wording
        bad = corrupt_cover(even_cover, "reassign-range")
        results = {r.name: r for r in verify_all(bad, max_len=4).results}
        split = ("cover split {0->E2, 1->E2, 1->E3} != derived split "
                 "{0->E2, 1->E1, 1->E3}")
        assert results["class_edge_splitting"].witness == \
            f"class E1: {split}"
        assert results["edge_support_sums"].witness == \
            f"edge E2--0-->E1: class E1 {split}"
        assert results["class_edge_splitting"].checked == 3
        assert results["edge_support_sums"].checked == 5

    def test_unknown_corruption_rejected(self, even_cover):
        with pytest.raises(ValueError):
            corrupt_cover(even_cover, "melt")

    def test_negative_word_length_rejected(self, even_cover):
        for verify in (verify_all, verify_edge_sum_hypotheses):
            with pytest.raises(ValueError,
                               match="word length must be nonnegative"):
                verify(even_cover, max_len=-2)


class TestReportRendering:
    def test_pass_and_summary_lines(self, even_cover):
        text = verify_all(even_cover, max_len=5).render()
        lines = text.splitlines()
        assert lines[-1] == f"families={len(FAMILY_ORDER)} failed=0"
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_fail_lines_carry_witnesses(self, even_cover):
        bad = corrupt_cover(even_cover, "drop-edge")
        text = verify_all(bad, max_len=5).render()
        assert "FAIL" in text and "witness=" in text
        assert text.splitlines()[-1].startswith(
            f"families={len(FAMILY_ORDER)} failed=")


def forbidden(*args):
    raise AssertionError("forbidden call")


def ck_relations_without_backward_walks(cover):
    """``verify_ck_relations`` unpatched, and with ``diagonal._sources``,
    the engine's only backward walk, patched to raise."""
    expected = verify_ck_relations(cover)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagonal, "_sources", forbidden)
        return expected, verify_ck_relations(cover)


class TestRangeImages:
    """One mapped range projection per edge serves every CK family.

    Each image conjugates a depth-0 class projection, so it walks no
    edge backward and cannot meet an ambiguity, even on the
    ``duplicate-label`` covers, which are not left-resolving.
    """

    def test_corpus_needs_no_backward_walk(self, corpus_covers):
        not_left_resolving = 0
        for name, cover in corpus_covers:
            for label, variant in with_variants(name, cover):
                expected, got = ck_relations_without_backward_walks(variant)
                assert got == expected, label
                not_left_resolving += not variant.is_left_resolving()
        assert not_left_resolving > 0

    @settings(max_examples=100, deadline=None)
    @given(GENERATED_SHAPES)
    def test_generated_covers_need_no_backward_walk(self, shape):
        cover = build_cover(generated_graph(shape))
        for label, variant in with_variants("generated", cover):
            expected, got = ck_relations_without_backward_walks(variant)
            assert got == expected, label

    def test_one_conjugation_per_edge(self, corpus_covers, monkeypatch):
        conj = diagonal.conj_by_letter
        calls = [0]

        def counting_conj(cover, letter, F):
            calls[0] += 1
            return conj(cover, letter, F)

        monkeypatch.setattr(diagonal, "conj_by_letter", counting_conj)
        for name, cover in corpus_covers:
            for label, variant in with_variants(name, cover):
                calls[0] = 0
                verify_ck_relations(variant)
                assert calls[0] == len(variant.edges), label

    def test_split_identities_read_the_images(self, corpus_covers,
                                              monkeypatch):
        for name, cover in corpus_covers:
            for label, variant in with_variants(name, cover):
                derived = isocheck._derived_splits(variant)
                images = isocheck._range_images(variant)
                expected = isocheck._split_identities(variant, derived,
                                                      images)
                with monkeypatch.context() as mp:
                    mp.setattr(diagonal, "conj_by_letter", forbidden)
                    assert isocheck._split_identities(
                        variant, derived, images) == expected, label
