"""The cover's adjacency index and its cached tables against the slow
references they replaced.

The references are the per-edge scans that ``out_edges``,
``in_edges`` and ``unique_labeled_path`` ran before the index existed,
the frozenset-cell clopen engine of ``frozenset_clopen``, which scans
the edge tuple too, the per-class semigroup pass of
``express_class_projection`` and the all-pairs orthogonality check.
They are compared with the indexed code on seeded random covers,
intact and under every corruption kind; the slow route of
``verify_all`` also takes the per-word scan kept in ``test_word_scan``
and the per-word and per-class clopen checks kept in
``test_post_image_memo``.
"""

import dataclasses
import functools
import itertools

import pytest

from soficshift import (build_cover, corrupt_cover, diagonal,
                        express_class_projection, isocheck, krieger,
                        transition_semigroup, unique_labeled_path,
                        verify_all, word_classes)
from soficshift.errors import AmbiguousLabelError
from soficshift.isocheck import CORRUPTION_KINDS, _edge_str
from soficshift.krieger import KriegerCover
from soficshift.shiftcore import Edge
import frozenset_clopen
from conftest import corpus_graphs
from frozenset_clopen import (slow_in_edges, slow_out_edges,
                              slow_unique_labeled_path, slow_word_classes)
from test_krieger import random_presentations


# --- slow references -------------------------------------------------

# the covers' classes are visited one cover at a time, and a corrupted
# cover shares its graph with the intact one, so one cached semigroup
# builds it once per cover
semigroup_of = functools.lru_cache(maxsize=1)(transition_semigroup)


def slow_express_class_projection(cover, i):
    if not (0 <= i < cover.class_count):
        raise ValueError(f"class index {i} out of range")
    sg = semigroup_of(cover.graph)
    reps = [min(block, key=lambda c: (len(c), tuple(sorted(c))))
            for block in cover.class_sets]
    masks = [sum(1 << v for v in rep) for rep in reps]
    best = {}
    for idx, rel in enumerate(sg.relations):
        rng = rel.range_mask()
        if not rng:
            continue
        value = frozenset(c for c, m in enumerate(masks) if rng & m)
        w = sg.witnesses[idx]
        cur = best.get(value)
        if cur is None or (len(w), w) < (len(cur), cur):
            best[value] = w
    everything = frozenset(range(cover.class_count))
    pos = sorted((w for v, w in best.items() if i in v),
                 key=lambda w: (len(w), w))
    neg = sorted((w for v, w in best.items() if i not in v),
                 key=lambda w: (len(w), w))
    if len(pos) > 1 and everything in best:
        pos = [w for w in pos if w != best[everything]]
    return tuple(pos), tuple(neg)


def slow_check_orthogonality(cover, rec, images):
    """``isocheck._check_orthogonality`` over all pairs of edges."""
    edges = cover.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            rec.count("range_projection_orthogonality")
            if (edges[i].label, edges[i].dst) == (edges[j].label,
                                                  edges[j].dst):
                rec.fail(
                    "range_projection_orthogonality",
                    f"{_edge_str(cover, edges[i])} and "
                    f"{_edge_str(cover, edges[j])} share label and range")
                continue
            if images[i] is None or images[j] is None:
                continue
            meet = images[i].intersect(images[j])
            if not meet.is_empty():
                rec.fail(
                    "range_projection_orthogonality",
                    f"{_edge_str(cover, edges[i])} and "
                    f"{_edge_str(cover, edges[j])} overlap on "
                    f"{meet.render()}")


def use_slow_references(monkeypatch):
    """Route every indexed code path through the edge scans, swap the
    whole frozenset-cell engine into ``diagonal``, and make any
    remaining read of the index fail."""
    monkeypatch.setattr(KriegerCover, "out_edges", slow_out_edges)
    monkeypatch.setattr(KriegerCover, "in_edges", slow_in_edges)
    monkeypatch.setattr(krieger, "unique_labeled_path",
                        slow_unique_labeled_path)
    for name in frozenset_clopen.ENGINE:
        monkeypatch.setattr(diagonal, name, getattr(frozenset_clopen, name))
    monkeypatch.setattr(diagonal, "express_class_projection",
                        slow_express_class_projection)
    monkeypatch.setattr(isocheck, "_check_orthogonality",
                        slow_check_orthogonality)
    # imported here because test_word_scan and test_post_image_memo
    # import this module
    from test_word_scan import slow_scan_words
    from test_post_image_memo import (fold_union, slow_check_conjugation,
                                      slow_check_projection_formulas)
    monkeypatch.setattr(isocheck, "_scan_words", slow_scan_words)
    monkeypatch.setattr(diagonal, "_union_all", fold_union)
    monkeypatch.setattr(isocheck, "_check_conjugation",
                        slow_check_conjugation)
    monkeypatch.setattr(isocheck, "_check_projection_formulas",
                        slow_check_projection_formulas)

    def no_index(self):
        raise AssertionError("the slow route read the cover index")

    # a property is a data descriptor, so it also hides an index that
    # an earlier call cached on the instance
    monkeypatch.setattr(KriegerCover, "index", property(no_index))


# --- covers -----------------------------------------------------------

def duplicate_two_labels(cover):
    """The cover with a second source added to two (range, label)
    groups, so that walks can meet different ambiguities, or None."""
    added, seen = [], set()
    for e in cover.edges:
        if (e.dst, e.label) in seen:
            continue
        for src in range(cover.class_count):
            if src != e.src and Edge(src, e.dst, e.label) not in cover.edges:
                added.append(Edge(src, e.dst, e.label))
                seen.add((e.dst, e.label))
                break
        if len(added) == 2:
            return cover.with_edges(cover.edges + tuple(added))
    return None


def seeded_covers():
    """Named corpus covers and seeded random covers over at most three
    letters, intact, under every corruption kind, and with two labels
    duplicated."""
    graphs = corpus_graphs() + [
        (name, g) for name, g in random_presentations(515)
        if len(g.alphabet) <= 3]
    out = []
    for name, g in graphs:
        cover = build_cover(g)
        out.append((name, cover))
        for kind in CORRUPTION_KINDS:
            try:
                out.append((f"{name}/{kind}", corrupt_cover(cover, kind)))
            except ValueError:
                pass
        twice = duplicate_two_labels(cover)
        if twice is not None:
            out.append((f"{name}/two-duplicate-labels", twice))
    return out


@pytest.fixture(scope="module")
def covers():
    return seeded_covers()


def outcome(f, *args):
    """The value of f(*args), or the message of its ambiguity error."""
    try:
        return ("value", f(*args))
    except AmbiguousLabelError as exc:
        return ("ambiguous", str(exc))


def all_words(cover, max_len):
    letters = list(cover.alphabet)
    return [w for n in range(1, max_len + 1)
            for w in itertools.product(letters, repeat=n)]


# --- tests ------------------------------------------------------------

class TestIndexMatchesScans:
    def test_covers_include_every_corruption(self, covers):
        names = {name.split("/")[1] for name, _ in covers if "/" in name}
        assert names == {*CORRUPTION_KINDS, "two-duplicate-labels"}
        assert len(covers) > 40

    def test_out_and_in_edges(self, covers):
        for name, cover in covers:
            for i in range(cover.class_count + 1):
                assert cover.out_edges(i) == slow_out_edges(cover, i), name
                assert cover.in_edges(i) == slow_in_edges(cover, i), name
            split = cover.index.split_masks
            leaving = {i: edges for i in range(cover.class_count)
                       if (edges := slow_out_edges(cover, i))}
            for i, edges in leaving.items():
                assert {(a, k) for a, mask in split[i]
                        for k in range(cover.class_count)
                        if mask >> k & 1} == \
                    {(e.label, e.dst) for e in edges}, name
                assert [a for a, _ in split[i]] == \
                    sorted({e.label for e in edges}), name
            assert set(split) == set(leaving), name
            for a in cover.alphabet:
                assert diagonal._letter_mask(
                    cover.index, (1 << cover.class_count) - 1, a) == sum(
                    {1 << e.dst for e in cover.edges if e.label == a}), name
                sources = {}
                for e in cover.edges:
                    if e.label == a:
                        sources.setdefault(e.dst, []).append(e.src)
                # one source table per rank, -1 past a class's last
                # in-edge labeled a
                tables = cover.index.sources.get(a, ())
                assert len(tables) == max(map(len, sources.values()),
                                          default=0), name
                for j in range(cover.class_count):
                    want = sources.get(j, [])
                    assert [t[j] for t in tables] == \
                        want + [-1] * (len(tables) - len(want)), name

    def test_left_resolving_flag(self, covers):
        for name, cover in covers:
            pairs = [(e.dst, e.label) for e in cover.edges]
            assert cover.is_left_resolving() == (
                len(pairs) == len(set(pairs))), name

    def test_unique_labeled_path(self, covers):
        for name, cover in covers:
            for w in all_words(cover, 3):
                # -1 and class_count are no classes: no path ends there
                for i in range(-1, cover.class_count + 1):
                    assert outcome(unique_labeled_path, cover, w, i) == \
                        outcome(slow_unique_labeled_path, cover, w, i), \
                        (name, w, i)

    def test_word_classes_with_the_same_errors(self, covers):
        errors = 0
        for name, cover in covers:
            for w in [()] + all_words(cover, 4):
                got = outcome(word_classes, cover, w)
                assert got == outcome(slow_word_classes, cover, w), \
                    (name, w)
                errors += got[0] == "ambiguous"
        # the duplicated labels must actually be met
        assert errors > 0

    def test_projection_words(self, covers):
        for name, cover in covers:
            for i in range(cover.class_count):
                assert express_class_projection(cover, i) == \
                    slow_express_class_projection(cover, i), (name, i)

    def test_canonical_sets(self, covers):
        for name, cover in covers:
            assert cover.canonical_sets == tuple(
                min(block, key=lambda c: (len(c), tuple(sorted(c))))
                for block in cover.class_sets), name


class TestVerifyMatchesSlowRoute:
    def test_reports_identical(self, covers, monkeypatch):
        # the slow route takes seconds per cover beyond 24 classes
        covers = [(name, cover) for name, cover in covers
                  if cover.class_count <= 24]
        fast = [verify_all(cover, max_len=3).render()
                for _, cover in covers]
        use_slow_references(monkeypatch)
        slow = [verify_all(cover, max_len=3).render()
                for _, cover in covers]
        for (name, _), a, b in zip(covers, fast, slow):
            assert a == b, name
        assert any("FAIL" in r for r in fast)

    def test_slow_route_never_reads_the_index(self, even_cover,
                                               monkeypatch):
        use_slow_references(monkeypatch)
        assert verify_all(even_cover, max_len=3).failed == 0
        with pytest.raises(AssertionError):
            even_cover.index


class TestIndexLifetime:
    def test_edited_covers_build_their_own(self, covers):
        for name, cover in covers:
            parent_index = cover.index
            parent_table = cover.range_witnesses
            edited = [cover.with_edges(cover.edges[1:]),
                      cover.with_edges(cover.edges[::-1]),
                      dataclasses.replace(cover, edges=cover.edges[1:]),
                      dataclasses.replace(cover)]
            for bad in edited:
                assert "index" not in vars(bad), name
                assert "range_witnesses" not in vars(bad), name
                assert bad.index is not parent_index, name
                assert bad.range_witnesses is not parent_table, name
                for i in range(bad.class_count):
                    assert bad.out_edges(i) == slow_out_edges(bad, i)
                    assert bad.in_edges(i) == slow_in_edges(bad, i)

    def test_index_built_once_per_cover(self, even_cover):
        assert even_cover.index is even_cover.index
        assert even_cover.range_witnesses is even_cover.range_witnesses

    def test_tables_are_read_only(self, even_cover):
        with pytest.raises(TypeError):
            even_cover.range_witnesses[0] = ()
