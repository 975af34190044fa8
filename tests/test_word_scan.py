"""The word scan's dynamic program over (length, scan state) against
the per-word scan it replaced.

``slow_scan_rounds`` is that scan: it visits every admissible word and
keeps the path relation of each.  It reads ``cover.edges`` and the
cover's mask tables of realized sets and prepends directly, never the
cover's index.
``isocheck._scan_words`` must record the same ``checked=`` count and
the same witness for every family, on seeded covers, intact and
corrupted, and on generated right-resolving presentations.
"""

import dataclasses
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from soficshift import (Alphabet, LabeledGraph, build_cover, corrupt_cover,
                        diagonal, isocheck, trim_essential)
from soficshift.errors import AmbiguousLabelError, EmptyShiftError
from soficshift.isocheck import CORRUPTION_KINDS, _Recorder, _word_str
from soficshift.shiftcore import EPSILON, Edge, words_of_length
from conftest import corpus_graphs, make_even, make_full, random_corpus
from test_cover_index import duplicate_two_labels
from test_krieger import random_presentations

WORD_FAMILIES = ("word_path_equivalence", "shifted_cylinder_classes",
                 "labeled_path_ranges", "path_concatenation",
                 "word_range_projections")


# --- the slow reference -------------------------------------------------

def slow_scan_rounds(cover, max_len, clopen_len, pairs=None):
    """The per-word scan: one pass over all admissible words up to
    ``max_len`` computing the word-indexed families.  After each length
    it yields the recorder so far and the path relation of every word
    met and not pruned.

    Per word the relation route keeps the backward preimage of every
    realized survivor set, extended one letter at a time through the
    prepend map; the graph route keeps the unique backward path data
    and the forward path ends on the cover.  If ``pairs`` is given,
    every word met and not pruned up to ``clopen_len`` is appended to
    it as a pair of its own, (word, 1, relation classes, post image
    mask or ambiguity message), one list per length from the empty
    word's.
    """
    rec = _Recorder()
    m = cover.class_count
    block_of_mask = dict(cover.realized)
    realized_masks = list(block_of_mask)
    class_masks = realized_masks[:m]
    pre_mask = {(a, realized_masks[r]): realized_masks[p]
                for a, row in zip(cover.alphabet, cover.prepend)
                for r, p in enumerate(row) if p >= 0}
    in_edges_by_label = {}
    for e in cover.edges:
        in_edges_by_label.setdefault(e.label, []).append(e)
    letters = list(cover.alphabet)
    all_classes = frozenset(range(m))

    # frontier state per word: (P, back, fwd) where P maps realized
    # mask -> preimage mask, back maps end class -> source class of
    # the unique path, fwd is the set of forward path ends
    start = ({mm: mm for mm in realized_masks},
             {i: i for i in range(m)}, all_classes)
    frontier = {EPSILON: start}
    rels = {
        EPSILON: frozenset((i, i) for i in range(m))}
    if pairs is not None:
        pairs.append([(EPSILON, 1, sum(1 << i for i in range(m)
                                       if class_masks[i]),
                       class_mask(diagonal.post_image(cover, EPSILON)))])

    for k in range(1, max_len + 1):
        nxt = {}
        level = []
        for word, (P, back, fwd) in frontier.items():
            for a in letters:
                w = word + (a,)
                P2 = {mm: (P[pre_mask[(a, mm)]]
                           if (a, mm) in pre_mask else 0)
                      for mm in realized_masks}
                back2 = {}
                ambiguous = None
                for e in in_edges_by_label.get(a, ()):
                    if e.src in back:
                        if e.dst in back2:
                            ambiguous = e.dst
                            back2[e.dst] = min(back2[e.dst], back[e.src])
                        else:
                            back2[e.dst] = back[e.src]
                fwd2 = frozenset(e.dst for e in in_edges_by_label.get(a, ())
                                 if e.src in fwd)
                a_set = frozenset(i for i in range(m)
                                  if P2[class_masks[i]])
                b_set = frozenset(back2)
                if not a_set and not b_set:
                    continue

                # witnesses are callables, rendered only when kept
                if ambiguous is not None:
                    for fam in ("word_path_equivalence",
                                "path_concatenation"):
                        rec.fail(fam, lambda: (
                            f"two paths labeled {_word_str(cover, w)} "
                            f"end at E{ambiguous + 1}"))

                # word_path_equivalence: existence and source class of
                # the unique path against the iterated prepend
                rec.count("word_path_equivalence", m)
                for i in range(m):
                    amask = P2[class_masks[i]]
                    if bool(amask) != (i in back2):
                        rec.fail("word_path_equivalence", lambda: (
                            f"word {_word_str(cover, w)}, class "
                            f"E{i + 1}: path "
                            f"{'missing' if amask else 'spurious'}"))
                    elif amask:
                        blk = block_of_mask.get(amask)
                        if blk != back2[i]:
                            got = ("not realized" if blk is None
                                   else f"E{blk + 1}")
                            rec.fail("word_path_equivalence", lambda: (
                                f"word {_word_str(cover, w)} into "
                                f"E{i + 1}: path source "
                                f"E{back2[i] + 1}, prepend lands in {got}"))

                # shifted_cylinder_classes: the classes the word can
                # precede, by paths and by relation ranges
                rec.count("shifted_cylinder_classes")
                if b_set != a_set:
                    rec.fail("shifted_cylinder_classes", lambda: (
                        f"word {_word_str(cover, w)}: path classes "
                        f"{sorted(x + 1 for x in b_set)} != relation "
                        f"classes {sorted(x + 1 for x in a_set)}"))

                # labeled_path_ranges: forward path ends against the
                # relation route
                rec.count("labeled_path_ranges")
                if fwd2 != a_set:
                    rec.fail("labeled_path_ranges", lambda: (
                        f"word {_word_str(cover, w)}: forward ends "
                        f"{sorted(x + 1 for x in fwd2)} != relation "
                        f"classes {sorted(x + 1 for x in a_set)}"))

                # path_concatenation: the source/end relation of the
                # word factors through its first letter
                rel = frozenset((src, end) for end, src in back2.items())
                rels[w] = rel
                if len(w) > 1:
                    rec.count("path_concatenation")
                    head = rels.get(w[:1], frozenset())
                    tail = rels.get(w[1:], frozenset())
                    composed = frozenset(
                        (s, c) for s, mid in head for mid2, c in tail
                        if mid == mid2)
                    if rel != composed:
                        rec.fail("path_concatenation", lambda: (
                            f"word {_word_str(cover, w)}: path relation "
                            f"differs from first-letter composition"))

                # word_range_projections: clopen post image against
                # the relation-route class sum
                if len(w) <= clopen_len:
                    rec.count("word_range_projections")
                    try:
                        lhs = diagonal.post_image(cover, w)
                        rhs = diagonal.ClopenSet(
                            cover, 0, [(EPSILON, i) for i in a_set],
                            validate=False)
                        image = class_mask(lhs)
                        if lhs != rhs:
                            rec.fail("word_range_projections", lambda: (
                                f"word {_word_str(cover, w)}: "
                                f"{lhs.render()} != {rhs.render()}"))
                    except AmbiguousLabelError as exc:
                        image = str(exc)
                        rec.fail("word_range_projections", lambda: (
                            f"word {_word_str(cover, w)}: {exc}"))
                    level.append((w, 1, sum(1 << i for i in a_set), image))

                nxt[w] = (P2, back2, fwd2)
        frontier = nxt
        if pairs is not None and k <= clopen_len:
            pairs.append(level)
        yield rec, rels



def class_mask(F):
    """The classes of a depth-0 clopen set, as a bitmask."""
    return sum(1 << i for _, i in F.cells)


def recorded(rec):
    """Every word family's count and witness, as the report reads them."""
    return ({fam: rec.checked.get(fam, 0) for fam in WORD_FAMILIES},
            {fam: rec.witness.get(fam) for fam in WORD_FAMILIES})


def slow_scan_words(cover, max_len, clopen_len, pairs=None):
    """``isocheck._scan_words`` by the per-word scan, which takes each
    post image anew; ``pairs`` is filled with one pair per word."""
    rec = _Recorder()
    for rec, _ in slow_scan_rounds(cover, max_len, clopen_len, pairs):
        pass
    for fam in WORD_FAMILIES:
        rec.count(fam, 0)
    return rec


def slow_rounds(cover, max_len, clopen_len):
    """``recorded(slow_scan_words(cover, n, clopen_len))`` for n = 1, 2,
    ..., max_len, from one pass, and the words met whose tail was
    pruned."""
    out, rels = [], {}
    for rec, rels in slow_scan_rounds(cover, max_len, clopen_len):
        out.append(recorded(rec))
    pruned_tails = [w for w in rels if len(w) > 1 and w[1:] not in rels]
    return out, pruned_tails


# --- covers -----------------------------------------------------------

def with_variants(name, cover):
    """The cover, its four corruptions and its two duplicated labels."""
    out = [(name, cover)]
    for kind in CORRUPTION_KINDS:
        try:
            out.append((f"{name}/{kind}", corrupt_cover(cover, kind)))
        except ValueError:
            pass
    twice = duplicate_two_labels(cover)
    if twice is not None:
        out.append((f"{name}/two-duplicate-labels", twice))
    return out


def tampered_even_covers():
    """Even-shift covers whose prepend map sends one realized set to
    the empty set and the empty set on to a realized set.  Paths and
    preimages are closed under taking tails, so only such a map lets a
    word outlive its pruned tail."""
    cover = build_cover(make_even())
    masks = list(cover.realized)
    empty = len(masks)  # the slot of the empty set, mask 0, in class 0
    out = []
    for a, row in zip(cover.alphabet, cover.prepend):
        for r, p in enumerate(row):
            if p < 0:
                continue
            for b in cover.alphabet:
                for target in range(len(masks)):
                    prepend = [list(slots) + [-1]
                               for slots in cover.prepend]
                    prepend[a][r] = empty
                    prepend[b][empty] = target
                    bad = dataclasses.replace(
                        cover, realized={**cover.realized, 0: 0},
                        prepend=tuple(map(tuple, prepend)))
                    out += with_variants(f"even/{a}{masks[r]:b}{b}", bad)
    return out


@pytest.fixture(scope="module")
def covers():
    graphs = corpus_graphs() + [
        (f"random{i}", g) for i, g in enumerate(random_corpus(12, 707))] + [
        (name, g) for name, g in random_presentations(616)
        if len(g.alphabet) <= 3 and len(g.vertex_names) <= 4]
    return [nc for name, g in graphs
            for nc in with_variants(name, build_cover(g))]


# --- tests ------------------------------------------------------------

class TestMatchesPerWordScan:
    @pytest.mark.parametrize("clopen_len", [0, 5])
    def test_every_length(self, covers, clopen_len):
        ambiguous = 0
        for name, cover in covers:
            expected, _ = slow_rounds(cover, 6, clopen_len)
            for n in range(1, 7):
                got = recorded(isocheck._scan_words(cover, n, clopen_len))
                assert got == expected[n - 1], (name, n)
            ambiguous += any(w is not None and w.startswith("two paths")
                             for w in expected[-1][1].values())
        # the ambiguity witness must actually fire
        assert ambiguous > 0

    def test_covers_include_every_corruption(self, covers):
        kinds = {name.split("/")[1] for name, _ in covers if "/" in name}
        assert kinds == {*CORRUPTION_KINDS, "two-duplicate-labels"}

    def test_pruned_tails(self):
        met = 0
        for name, cover in tampered_even_covers():
            expected, pruned_tails = slow_rounds(cover, 6, 3)
            met += bool(pruned_tails)
            assert recorded(isocheck._scan_words(cover, 6, 3)) == \
                expected[-1], name
        assert met > 0

    def test_ambiguity_names_the_last_meeting_in_edge_order(self, covers):
        # letter 0 enters E1 from E1 and E4 and E2 from E2 and E3: in
        # edge order the last meeting is the one at E1, although E2's
        # edges come after E1's first one
        name, cover = next((name, c) for name, c in covers
                           if c.class_count >= 4)
        added = [Edge(0, 0, 0), Edge(3, 0, 0), Edge(1, 1, 0), Edge(2, 1, 0)]
        bad = cover.with_edges(set(cover.edges) | set(added))
        got = recorded(isocheck._scan_words(bad, 3, 2))
        assert got == recorded(slow_scan_words(bad, 3, 2)), name
        assert got[1]["word_path_equivalence"] == \
            f"two paths labeled {bad.alphabet.tokens[0]} end at E1"

    def test_no_words(self, even_cover):
        assert recorded(isocheck._scan_words(even_cover, 0, 0)) == \
            recorded(slow_scan_words(even_cover, 0, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda k: st.tuples(
        st.just(k),
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(st.one_of(st.none(), st.integers(0, n - 1)),
                     min_size=k, max_size=k),
            min_size=n, max_size=n)))),
        st.sampled_from((None,) + CORRUPTION_KINDS),
        st.integers(1, 5), st.sampled_from((0, 3)))
    def test_generated_right_resolving(self, shape, kind, max_len,
                                       clopen_len):
        # one optional edge per (vertex, letter): right-resolving
        k, targets = shape
        edges = [(v, t, a) for v, row in enumerate(targets)
                 for a, t in enumerate(row) if t is not None]
        assume(edges)
        try:
            g = trim_essential(LabeledGraph(
                Alphabet([str(a) for a in range(k)]),
                [f"v{v}" for v in range(len(targets))], edges))
        except EmptyShiftError:
            assume(False)
        cover = build_cover(g)
        if kind is not None:
            try:
                cover = corrupt_cover(cover, kind)
            except ValueError:
                assume(False)
        assert recorded(isocheck._scan_words(cover, max_len, clopen_len)) \
            == recorded(slow_scan_words(cover, max_len, clopen_len))


class TestGraphWords:
    def test_relation_classes_pick_the_graph_words(self, covers):
        # conjugation_locality takes the words of the shift as the scan
        # words with relation classes, which corruption cannot move
        spurious = 0
        for name, cover in covers:
            m = cover.class_count
            masks = list(cover.realized)
            pairs = []
            isocheck._scan_words(cover, 5, 5, pairs=pairs)
            for k, (_, rels) in enumerate(slow_scan_rounds(cover, 5, 0),
                                          start=1):
                words = words_of_length(cover.graph, k)
                # word by word, the relation classes by a prepend fold
                met = set()
                for w in (w for w in rels if len(w) == k):
                    slots = list(range(m))
                    for a in reversed(w):
                        slots = [cover.prepend[a][s] if s >= 0 else -1
                                 for s in slots]
                    if any(s >= 0 and masks[s] for s in slots):
                        met.add(w)
                    else:
                        spurious += 1
                assert met == words, (name, k)
                # pair by pair, as the scan hands them on
                graph = [(w, n) for w, n, a_set, _ in pairs[k] if a_set]
                assert sum(n for _, n in graph) == len(words), (name, k)
                assert {w for w, _ in graph} <= words, (name, k)
                if not cover.is_left_resolving():
                    assert {w for w, _ in graph} == words, (name, k)
            assert pairs[0] == [(EPSILON, 1, (1 << m) - 1, (1 << m) - 1)], \
                name
        assert spurious > 0


class TestMemory:
    def test_full_four_shift_scan_stays_small(self):
        # the per-word scan kept every word's path relation: 93.5 MB
        # for the whole verify_all at this length
        cover = build_cover(make_full(4))
        tracemalloc.start()
        try:
            rec = isocheck._scan_words(cover, 8, clopen_len=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.checked["labeled_path_ranges"] == sum(
            4 ** n for n in range(1, 9))
        assert peak < 10 * 2 ** 20
