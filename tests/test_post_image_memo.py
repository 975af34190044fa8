"""The clopen families decided once per post image against the per-word
and per-class checks they replaced.

``slow_check_conjugation`` runs the clopen engine on every word up to
``CLOPEN_WORD_CAP``, and ``slow_check_projection_formulas`` takes the
post image of every formula word again for each class, with the
formula product written out.  ``isocheck._check_conjugation`` and
``isocheck._check_projection_formulas``, which groups the classes once
by their signatures over the post images, must record the same
``checked=`` count and the same witness on seeded covers, intact and
corrupted, and on generated presentations.  ``fold_union`` unites
sets one at a time, as ``diagonal._union_all`` did before it united
them in one step on left-resolving covers on which every class has an
out-edge.  The word scan carries the post image of the
least word of each of its (length, scan state) pairs, on a
left-resolving cover one forward letter step from the pair before,
and the conjugation check reads it there; each carried value must be
the one ``diagonal.post_image`` gives the word on its own.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from soficshift import (Alphabet, LabeledGraph, build_cover, corrupt_cover,
                        diagonal, isocheck, trim_essential, verify_all)
from soficshift.errors import AmbiguousLabelError, EmptyShiftError
from soficshift.isocheck import (CLOPEN_WORD_CAP, CORRUPTION_KINDS,
                                 _Recorder, _word_str)
from soficshift.shiftcore import EPSILON, Edge, words_of_length
from conftest import corpus_graphs, random_corpus
from test_krieger import random_presentations
from test_word_scan import (recorded, slow_rounds, slow_scan_words,
                            with_variants)


# --- the slow references ------------------------------------------------

def slow_check_conjugation(cover, rec, pairs):
    """``isocheck._check_conjugation`` word by word over the words of
    the presentation graph, each post image taken anew.  Of ``pairs``
    only the number of lengths is read: it runs up to the scan's clopen
    length."""
    cap = len(pairs) - 1
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


def slow_check_projection_formulas(cover, rec, post_image=None):
    """``isocheck._check_projection_formulas`` class by class, each
    formula word's post image taken anew by ``post_image`` (by default
    ``diagonal.post_image``)."""
    post_image = post_image or diagonal.post_image
    for i in range(cover.class_count):
        rec.count("projection_word_formulas")
        try:
            pos, neg = diagonal.express_class_projection(cover, i)
            value = diagonal.full_space(cover)
            for w in pos:
                value = value.intersect(post_image(cover, w))
            for w in neg:
                value = value.intersect(post_image(cover, w).complement())
            if value != diagonal.class_projection(cover, i):
                rec.fail(
                    "projection_word_formulas",
                    f"class E{i + 1}: formula evaluates to "
                    f"{value.render()}")
        except AmbiguousLabelError as exc:
            rec.fail("projection_word_formulas", f"class E{i + 1}: {exc}")


def fold_union(cover, sets):
    """The union of ``sets`` one set at a time, in their order, each
    union settled."""
    total = diagonal.empty_set(cover)
    for F in sets:
        total = total.union(F)
    return total


def scan_pairs(cover, max_len):
    """The pairs of the word scan up to ``max_len`` and the cap, as
    ``verify_all`` hands them to the conjugation check."""
    cap = min(max_len, CLOPEN_WORD_CAP)
    pairs = []
    isocheck._scan_words(cover, cap, cap, pairs=pairs)
    return pairs


def conjugation(check, cover, max_len):
    rec = _Recorder()
    check(cover, rec, scan_pairs(cover, max_len))
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
    images = isocheck._range_images(cover)
    fast, slow = diagonal._union_all(cover, images), fold_union(cover,
                                                                 images)
    assert (fast.depth, fast.masks) == (slow.depth, slow.masks), name


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


class TestVerifyMatchesSlowScan:
    def test_clopen_families(self, corpus, randoms):
        # verify_all reads both families off the scan's pairs; the slow
        # references compare every word's post image on its own
        failing = {"word_range_projections": 0, "conjugation_locality": 0}
        for name, cover in corpus + randoms:
            rounds, _ = slow_rounds(cover, 6, CLOPEN_WORD_CAP)
            for max_len in range(7):
                got = {r.name: (r.checked, r.witness)
                       for r in verify_all(cover, max_len).results}
                counts, witnesses = (rounds[max_len - 1] if max_len else
                                     recorded(slow_scan_words(cover, 0, 0)))
                fam = "word_range_projections"
                assert got[fam] == (counts[fam], witnesses[fam]), \
                    (name, max_len)
                # past the cap the words, and so the outcome, are those
                # at the cap
                if max_len <= CLOPEN_WORD_CAP:
                    slow = conjugation(slow_check_conjugation, cover, max_len)
                assert got["conjugation_locality"] == slow, (name, max_len)
            for fam in failing:
                failing[fam] += got[fam][1] is not None
        assert all(failing.values()), failing


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
            conjugation(isocheck._check_conjugation, cover, 4)
            images, ambiguous = post_images(cover, 4)
            assert len(decided) == len(set(decided)), name
            assert set(decided) == images, name
            shared += len(images) + ambiguous < len(clopen_words(cover, 4))
        assert shared > 0

    def test_each_letter_conjugated_once(self, corpus, randoms,
                                         monkeypatch):
        # the conjugates serve both sides of the identity, and the
        # preimage unites them in letter order
        decided, conjugated = [], []
        real_outcome = isocheck._conjugation_outcome
        real_conj = diagonal.conj_by_letter

        def outcome(cover, F):
            decided.append(F)
            return real_outcome(cover, F)

        def conj(cover, a, F):
            conjugated.append((a, F))
            return real_conj(cover, a, F)

        monkeypatch.setattr(isocheck, "_conjugation_outcome", outcome)
        monkeypatch.setattr(diagonal, "conj_by_letter", conj)
        for name, cover in corpus + randoms:
            pairs = scan_pairs(cover, 4)
            decided.clear()
            conjugated.clear()
            isocheck._check_conjugation(cover, _Recorder(), pairs)
            assert conjugated == [(a, F) for F in decided
                                  for a in cover.alphabet], name

    def test_post_image_once_per_table_word(self, corpus, randoms,
                                            monkeypatch):
        taken, walked = count_post_images(monkeypatch)
        several = 0
        for name, cover in corpus + randoms:
            taken.clear()
            walked.clear()
            isocheck._check_projection_formulas(cover, _Recorder())
            table = list(cover.range_witnesses.values())
            assert taken == table, name
            # a left-resolving cover walks each word forward; any other
            # walks each word backward from all classes once
            assert walked == ([] if cover.is_left_resolving() else table), \
                name
            several += cover.class_count > 1
        assert several > 0

    def test_backward_walks(self, corpus, randoms, monkeypatch):
        # verify walks no word backward on a left-resolving cover; on
        # any other the scan walks each of its words up to the cap
        # once, the words of the shift among them
        _, walked = count_post_images(monkeypatch)
        kinds = set()
        for name, cover in corpus + randoms:
            walked.clear()
            if cover.is_left_resolving():
                verify_all(cover, max_len=4)
                assert walked == [], name
            else:
                pairs = scan_pairs(cover, 4)
                words = [w for level in pairs[1:] for w, *_ in level]
                assert walked == words, name
                assert len(set(words)) == len(words), name
                assert set(clopen_words(cover, 4)[1:]) <= set(words), name
            kinds.add(cover.is_left_resolving())
        assert kinds == {True, False}


def scan_least_words(cover, max_len):
    """The least word of each (length, scan state) pair of the word
    scan up to ``max_len``, found word by word.

    A word's state is, per realized slot, the slot that prepending the
    word reaches (-1: none), and per class the least start of a path
    labeled the word that ends there (-1: none), both read from the
    cover's tables and edges directly.  Words that reach no class by
    either route are pruned and not extended.
    """
    m = cover.class_count
    masks = list(cover.realized)
    least = {}
    level = {EPSILON: (tuple(range(len(masks))),
                       frozenset((i, i) for i in range(m)))}
    for k in range(1, max_len + 1):
        nxt = {}
        for word in sorted(level):
            slots, rel = level[word]
            for a in cover.alphabet:
                slots2 = tuple(slots[r] if r >= 0 else -1
                               for r in cover.prepend[a])
                rel2 = frozenset((s, e.dst) for s, t in rel
                                 for e in cover.edges
                                 if e.src == t and e.label == a)
                if not rel2 and not any(
                        slots2[i] >= 0 and masks[slots2[i]]
                        for i in range(m)):
                    continue
                back = tuple(min((s for s, c in rel2 if c == i), default=-1)
                             for i in range(m))
                nxt[word + (a,)] = (slots2, rel2)
                least.setdefault((k, slots2, back), word + (a,))
        level = nxt
    return set(least.values())


def count_post_images(monkeypatch):
    """Record the words whose post image ``isocheck._post_image`` takes
    and the words ``diagonal._sources`` walks backward, in call
    order."""
    taken, walked = [], []
    real_post_image = isocheck._post_image
    real_sources = diagonal._sources

    def post_image(cover, word):
        taken.append(word)
        return real_post_image(cover, word)

    def sources(cover, word, mask):
        walked.append(word)
        return real_sources(cover, word, mask)

    monkeypatch.setattr(isocheck, "_post_image", post_image)
    monkeypatch.setattr(diagonal, "_sources", sources)
    return taken, walked


def graph_route(cover, word):
    """The post image mask of ``diagonal.post_image``, or its error's
    message."""
    try:
        return diagonal.post_image(cover, word).masks.get(EPSILON, 0)
    except AmbiguousLabelError as exc:
        return str(exc)


class TestCarriedPostImages:
    def test_carried_values_match_graph_route(self, corpus, randoms):
        # every pair's carried post image is its least word's own; on a
        # left-resolving cover the pairs' least words are those of a
        # word by word scan, and on any other each word is a pair of
        # its own, as the per-word scan hands them on
        kinds, ambiguous, shared = set(), 0, 0
        for name, cover in corpus + randoms:
            pairs = scan_pairs(cover, CLOPEN_WORD_CAP)
            assert len(pairs) == CLOPEN_WORD_CAP + 1, name
            for level in pairs:
                for w, _, _, image in level:
                    assert image == graph_route(cover, w), (name, w)
                    ambiguous += isinstance(image, str)
            least = {w for level in pairs[1:] for w, *_ in level}
            if cover.is_left_resolving():
                assert least == scan_least_words(cover, CLOPEN_WORD_CAP), \
                    name
                shared += len(least) < len(
                    clopen_words(cover, CLOPEN_WORD_CAP)) - 1
            else:
                slow = []
                slow_scan_words(cover, CLOPEN_WORD_CAP, CLOPEN_WORD_CAP,
                                slow)
                assert pairs == slow, name
            kinds.add(cover.is_left_resolving())
        assert kinds == {True, False}
        assert ambiguous > 0
        assert shared > 0


def doctored(cover, rng):
    """The post images of the formula words with some masks changed by
    one class and the empty word's made to miss one class, and a
    ``post_image`` that reads them."""
    m = cover.class_count
    table = {w: graph_route(cover, w)
             for w in cover.range_witnesses.values()}
    for w in table:
        if isinstance(table[w], int) and rng.random() < 0.3:
            table[w] ^= 1 << rng.randrange(m)
    if rng.random() < 0.5:
        table[EPSILON] &= ~(1 << rng.randrange(m))

    def read(c, w):
        if isinstance(table[w], str):
            raise AmbiguousLabelError(table[w])
        return diagonal._at_word(c, EPSILON, table[w])

    return table, read


def read_post_images(monkeypatch):
    """Make ``isocheck._post_image`` read the returned table."""
    table = {}
    monkeypatch.setattr(isocheck, "_post_image", lambda cover, w: table[w])
    return table


class TestFormulasAsOnePartition:
    @pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1100])
    def test_signatures_across_chunks(self, rows):
        rng = random.Random(rows)
        m = 67
        masks = [rng.getrandbits(m) for _ in range(rows)]
        expected = [int("".join("1" if mask >> j & 1 else "0"
                                for mask in masks) or "0", 2)
                    for j in range(m)]
        assert isocheck._signatures(masks, m) == expected

    def test_doctored_tables(self, corpus, monkeypatch):
        # keys and post images differ, groups hold several classes or
        # none, and the empty word's post image misses classes
        rng = random.Random(1919)
        read_table = read_post_images(monkeypatch)
        outcomes = set()
        for name, cover in corpus:
            for _ in range(6):
                table, read = doctored(cover, rng)
                read_table.clear()
                read_table.update(table)
                rec, ref = _Recorder(), _Recorder()
                isocheck._check_projection_formulas(cover, rec)
                slow_check_projection_formulas(cover, ref, post_image=read)
                assert (rec.checked, rec.witness) == \
                    (ref.checked, ref.witness), name
                outcomes.add(rec.witness.get(
                    "projection_word_formulas", "PASS")[:13])
        assert {"PASS", "class E1: for", "class E1: two"} <= outcomes

    def test_empty_word_factor_kept_alone(self, corpus, monkeypatch):
        # a class in no key but the all-classes one keeps the empty
        # word's factor: a table whose empty word misses it fails it
        read_table = read_post_images(monkeypatch)
        met = 0
        for name, cover in corpus:
            full = (1 << cover.class_count) - 1
            others = 0
            for v in cover.range_witnesses:
                others |= v if v != full else 0
            alone = full & ~others
            if not alone or cover.class_count < 2:
                continue
            read_table.clear()
            read_table.update((w, graph_route(cover, w))
                              for w in cover.range_witnesses.values())
            i = (alone & -alone).bit_length() - 1
            read_table[EPSILON] = full & ~(1 << i)
            rec = _Recorder()
            isocheck._check_projection_formulas(cover, rec)
            assert rec.witness["projection_word_formulas"].startswith(
                f"class E{i + 1}: "), name
            met += 1
        assert met > 0


def strand_out_edges(cover, c):
    """The cover with every out-edge of class c moved to another
    source, keeping its labels and ranges, or None."""
    edges = list(cover.edges)
    for idx, e in enumerate(edges):
        if e.src != c:
            continue
        for s in range(cover.class_count):
            if s != c and Edge(s, e.dst, e.label) not in edges:
                edges[idx] = Edge(s, e.dst, e.label)
                break
        else:
            return None
    return cover.with_edges(edges)


def one_step(cover):
    """Whether ``diagonal._union_all`` unites in one step: on a
    left-resolving cover on which every class has an out-edge."""
    return cover.is_left_resolving() and all(
        cover.out_edges(i) for i in range(cover.class_count))


class TestRangeUnion:
    def test_one_step_on_left_resolving_covers(self, corpus, randoms,
                                               monkeypatch):
        # left-resolving covers with a class without out-edges (some
        # drop-edge and drop-letter corruptions) keep the fold
        assert any(one_step(cover) for _, cover in corpus)
        assert any(cover.is_left_resolving() and not one_step(cover)
                   for _, cover in corpus)
        unions = []
        real = diagonal.ClopenSet.union

        def counting(self, other):
            unions.append(other)
            return real(self, other)

        monkeypatch.setattr(diagonal.ClopenSet, "union", counting)
        for name, cover in corpus + randoms:
            images = isocheck._range_images(cover)
            unions.clear()
            diagonal._union_all(cover, images)
            assert len(unions) == (0 if one_step(cover)
                                   else len(images)), name

    def test_stranded_sources_fail_alike(self, corpus):
        # moving a class's out-edges keeps the cover left-resolving and
        # its (label, range) pairs, so the partition reaches the union,
        # which misses the class
        failing = 0
        for name, cover in corpus:
            for c in range(cover.class_count):
                bad = strand_out_edges(cover, c)
                if bad is None or not bad.is_left_resolving():
                    continue
                images = isocheck._range_images(bad)
                fast = diagonal._union_all(bad, images)
                slow = fold_union(bad, images)
                assert (fast.depth, fast.masks) == (slow.depth, slow.masks)
                report = {r.name: r for r in
                          isocheck.verify_ck_relations(bad)}
                if fast != diagonal.full_space(bad):
                    failing += 1
                    assert not report["range_projection_partition"].passed
        assert failing > 0
