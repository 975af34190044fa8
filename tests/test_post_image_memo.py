"""The clopen families decided once per post image against the per-word
and per-class checks they replaced.

``slow_check_conjugation`` runs the clopen engine on every word up to
``CLOPEN_WORD_CAP``, and ``slow_check_projection_formulas`` takes the
post image of every formula word again for each class, with the
formula product written out.  ``isocheck._check_conjugation`` and
``isocheck._check_projection_formulas`` must record the same
``checked=`` count and the same witness on seeded covers, intact and
corrupted, and on generated presentations.  Within one ``verify_all``
call, the word scan, the conjugation check and the formulas share one
table of post images, so each word's post image is taken once.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from soficshift import (Alphabet, LabeledGraph, build_cover, corrupt_cover,
                        diagonal, isocheck, trim_essential, verify_all)
from soficshift.errors import AmbiguousLabelError, EmptyShiftError
from soficshift.isocheck import (CLOPEN_WORD_CAP, CORRUPTION_KINDS,
                                 _Recorder, _word_str)
from soficshift.shiftcore import EPSILON, words_of_length
from conftest import corpus_graphs, random_corpus
from test_krieger import random_presentations
from test_word_scan import with_variants


# --- the slow references ------------------------------------------------

def slow_check_conjugation(cover, rec, max_len, post_images=None):
    """``isocheck._check_conjugation`` word by word, each post image
    taken anew (``post_images`` is not read)."""
    cap = min(max_len, CLOPEN_WORD_CAP)
    words = [EPSILON]
    for k in range(1, cap + 1):
        words.extend(sorted(words_of_length(cover.graph, k)))
    for nu in words:
        try:
            F = diagonal.post_image(cover, nu)
            lifted = diagonal.shift_preimage(cover, F)
            for a in cover.alphabet:
                rec.count("conjugation_locality")
                lhs = diagonal.conj_by_letter(cover, a, F)
                rhs = diagonal.cylinder(cover, (a,)).intersect(lifted)
                if lhs != rhs:
                    rec.fail(
                        "conjugation_locality",
                        f"letter {cover.alphabet.tokens[a]}, word "
                        f"{_word_str(cover, nu)}: {lhs.render()} != "
                        f"{rhs.render()}")
        except AmbiguousLabelError as exc:
            rec.fail("conjugation_locality",
                     f"word {_word_str(cover, nu)}: {exc}")


def slow_check_projection_formulas(cover, rec, post_images=None):
    """``isocheck._check_projection_formulas`` class by class, each
    formula word's post image taken anew (``post_images`` is not
    read)."""
    for i in range(cover.class_count):
        rec.count("projection_word_formulas")
        try:
            pos, neg = diagonal.express_class_projection(cover, i)
            value = diagonal.full_space(cover)
            for w in pos:
                value = value.intersect(diagonal.post_image(cover, w))
            for w in neg:
                value = value.intersect(
                    diagonal.post_image(cover, w).complement())
            if value != diagonal.class_projection(cover, i):
                rec.fail(
                    "projection_word_formulas",
                    f"class E{i + 1}: formula evaluates to "
                    f"{value.render()}")
        except AmbiguousLabelError as exc:
            rec.fail("projection_word_formulas", f"class E{i + 1}: {exc}")


def conjugation(check, cover, max_len):
    rec = _Recorder()
    check(cover, rec, max_len)
    return (rec.checked.get("conjugation_locality", 0),
            rec.witness.get("conjugation_locality"))


def formulas(check, cover):
    rec = _Recorder()
    check(cover, rec)
    return (rec.checked.get("projection_word_formulas", 0),
            rec.witness.get("projection_word_formulas"))


def assert_matches(name, cover, max_len=CLOPEN_WORD_CAP):
    assert conjugation(isocheck._check_conjugation, cover, max_len) == \
        conjugation(slow_check_conjugation, cover, max_len), (name, max_len)
    assert formulas(isocheck._check_projection_formulas, cover) == \
        formulas(slow_check_projection_formulas, cover), name


# --- covers -----------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    """The conftest corpus, intact, under each corruption and with two
    labels duplicated."""
    return [nc for name, g in corpus_graphs()
            for nc in with_variants(name, build_cover(g))]


@pytest.fixture(scope="module")
def randoms():
    graphs = [(f"random{i}", g) for i, g in enumerate(random_corpus(8, 808))]
    graphs += [(name, g) for name, g in random_presentations(909)
               if len(g.alphabet) <= 3 and len(g.vertex_names) <= 4]
    return [nc for name, g in graphs
            for nc in with_variants(name, build_cover(g))]


def clopen_words(cover, max_len):
    return [EPSILON] + [w for k in range(1, max_len + 1)
                        for w in sorted(words_of_length(cover.graph, k))]


def post_images(cover, max_len):
    """The distinct post images of the words up to ``max_len``, and how
    many of those words are ambiguous."""
    images, ambiguous = set(), 0
    for w in clopen_words(cover, max_len):
        try:
            images.add(diagonal.post_image(cover, w))
        except AmbiguousLabelError:
            ambiguous += 1
    return images, ambiguous


# --- tests ------------------------------------------------------------

class TestMatchesSlowReferences:
    def test_corpus(self, corpus):
        kinds = {name.split("/")[1] for name, _ in corpus if "/" in name}
        assert kinds == {*CORRUPTION_KINDS, "two-duplicate-labels"}
        for name, cover in corpus:
            for max_len in (0, 2, CLOPEN_WORD_CAP + 1):
                assert_matches(name, cover, max_len)

    def test_seeded_random(self, randoms):
        failing = 0
        for name, cover in randoms:
            assert_matches(name, cover, 4)
            failing += formulas(isocheck._check_projection_formulas,
                                cover)[1] is not None
        assert failing > 0

    def test_ambiguity_in_post_image_and_letter_loop(self, corpus, randoms):
        in_post_image = in_letter_loop = 0
        for name, cover in corpus + randoms:
            images, ambiguous = post_images(cover, 4)
            # an ambiguity in the letter loop stops the count after
            # at least one letter
            loop = any(failure is not None and failure[0] is None
                       and counted > 0
                       for counted, failure in (
                           isocheck._conjugation_outcome(cover, F)
                           for F in images))
            in_post_image += ambiguous > 0
            in_letter_loop += loop
            if ambiguous or loop:
                count = conjugation(isocheck._check_conjugation, cover, 4)[0]
                assert count < len(cover.alphabet) * len(
                    clopen_words(cover, 4)), name
        assert in_post_image > 0
        assert in_letter_loop > 0

    def test_letter_failures_with_a_broken_engine(self, corpus,
                                                  monkeypatch):
        # the identity holds on every cover whose walks are unambiguous;
        # cylinders that are empty for every letter but the first break
        # it wherever those letters can be prepended, so letter failures
        # are met, several per post image over three or more letters
        real = diagonal.cylinder

        def broken(cover, word):
            if len(word) == 1 and word[0] > 0:
                return diagonal.empty_set(cover)
            return real(cover, word)

        monkeypatch.setattr(diagonal, "cylinder", broken)
        failing = 0
        for name, cover in corpus:
            assert_matches(name, cover, 3)
            witness = conjugation(isocheck._check_conjugation, cover, 3)[1]
            failing += witness is not None and witness.startswith("letter ")
        assert failing > 0

    @settings(max_examples=160, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just(k),
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(st.integers(0, n - 1), max_size=2 * k),
            min_size=n, max_size=n)))),
        st.sampled_from((None,) + CORRUPTION_KINDS),
        st.integers(0, CLOPEN_WORD_CAP))
    def test_generated(self, shape, kind, max_len):
        # targets per vertex, each edge labeled by its position mod k:
        # not necessarily right-resolving
        k, rows = shape
        edges = sorted({(v, t, j % k) for v, row in enumerate(rows)
                        for j, t in enumerate(row)})
        assume(edges)
        try:
            g = trim_essential(LabeledGraph(
                Alphabet([str(a) for a in range(k)]),
                [f"v{v}" for v in range(len(rows))], edges))
        except EmptyShiftError:
            assume(False)
        cover = build_cover(g)
        if kind is not None:
            try:
                cover = corrupt_cover(cover, kind)
            except ValueError:
                assume(False)
        assert_matches(kind, cover, max_len)


class TestDecidedOncePerPostImage:
    def test_conjugation_outcome_once_per_post_image(self, corpus, randoms,
                                                     monkeypatch):
        decided = []
        real = isocheck._conjugation_outcome

        def counting(cover, F):
            decided.append(F)
            return real(cover, F)

        monkeypatch.setattr(isocheck, "_conjugation_outcome", counting)
        shared = 0
        for name, cover in corpus + randoms:
            decided.clear()
            isocheck._check_conjugation(cover, _Recorder(), 4)
            images, ambiguous = post_images(cover, 4)
            assert len(decided) == len(set(decided)), name
            assert set(decided) == images, name
            shared += len(images) + ambiguous < len(clopen_words(cover, 4))
        assert shared > 0

    def test_post_image_once_per_table_word(self, corpus, randoms,
                                            monkeypatch):
        taken = []
        real = diagonal.post_image

        def counting(cover, word):
            taken.append(word)
            return real(cover, word)

        monkeypatch.setattr(diagonal, "post_image", counting)
        several = 0
        for name, cover in corpus + randoms:
            taken.clear()
            isocheck._check_projection_formulas(cover, _Recorder())
            assert taken == list(cover.range_witnesses.values()), name
            several += cover.class_count > 1
        assert several > 0

    def test_verify_takes_each_post_image_once(self, corpus, randoms,
                                                monkeypatch):
        taken = []
        real = diagonal.post_image

        def counting(cover, word):
            taken.append(word)
            return real(cover, word)

        monkeypatch.setattr(diagonal, "post_image", counting)
        for name, cover in corpus + randoms:
            taken.clear()
            verify_all(cover, max_len=4)
            assert len(taken) == len(set(taken)), name
            # every word the clopen families reach goes through the
            # graph route
            assert set(clopen_words(cover, 4)) <= set(taken), name
            assert set(cover.range_witnesses.values()) <= set(taken), name
