"""The letter steps of the clopen engine and the word scan, taken by
gathers over the in-edge source tables, against the per-bit loops they
replaced.

``per_bit_letter_masks`` is the refinement step the engine took before:
the union of the out-splits of a mask's classes, class by class, its
letters in the order first met.  ``tiling_split_owners`` is the merge
the engine took on every cover before, the tiling test that
``diagonal._tiling_owners`` keeps for covers that are not
left-resolving.  With both swapped in, ``verify_all`` must render the
same report and fill the same refinement and merge memos (a
refinement's letters compared in letter order, the order the gathers
give) on the corpus covers, intact, under every corruption kind and
with two labels duplicated, on a cover whose highest class has no
edges, and on the 506- and 802-class covers of the scaling tier.  The
one-step union of ``diagonal._union_all`` must equal the fold on
seeded lists of sets over every cover.  It, the letter prepend and the
shift preimage refuse a set over another cover.
"""

import random

import pytest

from soficshift import build_cover, diagonal, verify_all
from soficshift.krieger import _bits
from soficshift.shiftcore import parse_presentation
from conftest import corpus_graphs
from test_post_image_memo import fold_union
from test_word_scan import with_variants


# --- the per-bit references -------------------------------------------

def per_bit_letter_masks(index, mask):
    """``diagonal._letter_masks`` by the out-splits of the mask's
    classes, one class at a time."""
    memo = index.refine_memo
    if mask not in memo:
        by_letter = {}
        for i in _bits(mask):
            for a, sub in index.split_masks.get(i, ()):
                by_letter[a] = by_letter.get(a, 0) | sub
        memo[mask] = tuple(by_letter.items())
    return memo[mask]


def tiling_split_owners(index, key):
    """``diagonal._split_owners`` by the tiling test on every cover."""
    memo = index.merge_memo
    if key not in memo:
        memo[key] = diagonal._tiling_owners(index, key)
    return memo[key]


def memos_and_report(cover, max_len):
    """The report of ``verify_all`` on a copy of the cover with its own
    index, and that index's refinement and merge memos."""
    fresh = cover.with_edges(cover.edges)
    report = verify_all(fresh, max_len=max_len).render()
    return report, fresh.index.refine_memo, fresh.index.merge_memo


def assert_matches_per_bit(name, cover, max_len, monkeypatch):
    report, refine, merge = memos_and_report(cover, max_len)
    with monkeypatch.context() as m:
        m.setattr(diagonal, "_letter_masks", per_bit_letter_masks)
        m.setattr(diagonal, "_split_owners", tiling_split_owners)
        slow_report, slow_refine, slow_merge = memos_and_report(cover,
                                                                max_len)
    assert report == slow_report, name
    assert refine == {mask: tuple(sorted(pairs))
                      for mask, pairs in slow_refine.items()}, name
    assert merge == slow_merge, name
    return report


# --- covers -----------------------------------------------------------

def rr_graph(gseed, n, k, p=0.8):
    """The presentation of the scaling tier's right-resolving
    generator: each (vertex, letter) pair gets one edge to a uniformly
    random target with probability p."""
    rng = random.Random(gseed)
    edges = [(v, rng.randrange(n), a)
             for v in range(n) for a in range(k) if rng.random() < p]
    return parse_presentation(
        f"alphabet {' '.join(map(str, range(k)))}\n"
        + "".join(f"vertex v{i}\n" for i in range(n))
        + "".join(f"edge v{s} v{t} {a}\n" for s, t, a in edges))


def without_highest_class_edges(cover):
    """The cover with every edge into or out of its highest class
    dropped: class masks stay ``class_count`` bits wide while the
    largest edge endpoint is lower."""
    top = cover.class_count - 1
    return cover.with_edges([e for e in cover.edges
                             if top not in (e.src, e.dst)])


@pytest.fixture(scope="module")
def corpus():
    return [nc for name, g in corpus_graphs()
            for nc in with_variants(name, build_cover(g))]


# --- tests ------------------------------------------------------------

class TestVerifyMatchesPerBitSteps:
    def test_corpus(self, corpus, monkeypatch):
        failing = 0
        for name, cover in corpus:
            report = assert_matches_per_bit(name, cover, 4, monkeypatch)
            failing += "FAIL" in report
        assert failing > 0

    def test_highest_class_without_edges(self, monkeypatch):
        met = 0
        for name, g in corpus_graphs():
            cover = build_cover(g)
            if cover.class_count < 2:
                continue
            bad = without_highest_class_edges(cover)
            if not bad.edges:
                continue
            assert max(max(e.src, e.dst) for e in bad.edges) < \
                bad.class_count - 1, name
            assert_matches_per_bit(name, bad, 4, monkeypatch)
            met += 1
        assert met > 0

    @pytest.mark.parametrize("n, classes", [(48, 506), (64, 802)])
    def test_scaling_covers(self, n, classes, monkeypatch):
        cover = build_cover(rr_graph(5, n, 2))
        assert cover.class_count == classes
        report = assert_matches_per_bit(f"rr_graph(5, {n}, 2)", cover, 4,
                                        monkeypatch)
        assert report.endswith("failed=0")


class TestUnionInOneStep:
    def test_matches_the_fold(self, corpus):
        # seeded lists of sets of depths 0-3, cells that no path reaches
        # included; on a left-resolving cover with a class without
        # out-edges a one-step union would differ from the fold here
        rng = random.Random(2222)
        kinds = set()
        for name, cover in corpus:
            m, k = cover.class_count, len(cover.alphabet)
            index = cover.index
            kinds.add((index.left_resolving,
                       len(index.split_masks) == m))
            for _ in range(60):
                sets = []
                for _ in range(rng.randint(0, 4)):
                    depth = rng.randint(0, 3)
                    cells = [(tuple(rng.randrange(k)
                                    for _ in range(depth)), rng.randrange(m))
                             for _ in range(rng.randint(1, 4))]
                    sets.append(diagonal.ClopenSet(cover, depth, cells,
                                                   validate=False))
                got = diagonal._union_all(cover, sets)
                want = fold_union(cover, sets)
                assert (got.depth, got.masks) == (want.depth, want.masks), \
                    (name, [F.render() for F in sets])
        assert {(True, True), (True, False)} <= kinds

    def test_other_cover_refused(self, corpus):
        (_, a), (_, b) = corpus[0], corpus[1]
        with pytest.raises(ValueError, match="different covers"):
            diagonal._union_all(a, [diagonal.full_space(b)])

    @pytest.mark.parametrize("step", [
        lambda cover, F: diagonal.conj_by_letter(cover, 0, F),
        diagonal.shift_preimage], ids=["conj_by_letter", "shift_preimage"])
    def test_letter_prepend_of_other_cover_refused(self, corpus, step):
        (_, a), (_, b) = corpus[0], corpus[1]
        with pytest.raises(ValueError, match="different covers"):
            step(a, diagonal.full_space(b))
