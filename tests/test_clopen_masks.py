"""The bitmask clopen engine and the grouped orthogonality check against
the slow references they replaced.

``soficshift.diagonal`` stores a union of marked cylinders as one class
bitmask per word; ``frozenset_clopen`` is the frozenset-cell engine it
replaced, reading only the edge tuple.  Generated programs of set
operations run through both on corpus and seeded covers, intact, under
every corruption kind and with two labels duplicated, and every value,
error, equality and rendering must agree.

``isocheck._check_orthogonality`` intersects only the pairs of edges
whose images share a depth-1 cell or whose (label, range) pairs
coincide; ``slow_check_orthogonality`` intersects all pairs.  Both
must record the same ``checked=`` count and the same witness, the
least failing pair.
"""

import functools
import gc
import itertools

from hypothesis import given, settings, strategies as st

from soficshift import build_cover, diagonal, isocheck, verify_all
from soficshift.errors import AmbiguousLabelError
from soficshift.isocheck import CORRUPTION_KINDS, _Recorder
import frozenset_clopen
from conftest import corpus_graphs
from test_cover_index import slow_check_orthogonality
from test_krieger import random_presentations
from test_word_scan import with_variants

ORTHOGONALITY = "range_projection_orthogonality"


@functools.cache
def covers():
    """The corpus and six seeded random presentations of 4-21 classes
    over two or three letters, each with its variants."""
    picked = [g for name, g in random_presentations(515)
              if len(g.alphabet) <= 3]
    graphs = corpus_graphs() + [(f"random{i}", g) for i, g in
                                enumerate(picked[2:14:2])]
    return [nc for name, g in graphs
            for nc in with_variants(name, build_cover(g))]


def test_covers_include_every_variant():
    kinds = {name.split("/")[1] for name, _ in covers() if "/" in name}
    assert kinds == {*CORRUPTION_KINDS, "two-duplicate-labels"}
    assert max(c.class_count for _, c in covers()) >= 10


# --- the engines against each other -----------------------------------

def outcome(thunk):
    """What a call gives, comparable across the two engines: the value
    as (depth, cells, rendering), or the error's kind and message."""
    try:
        F = thunk()
    except AmbiguousLabelError as exc:
        return ("ambiguous", str(exc)), None
    except ValueError as exc:
        return ("invalid", str(exc)), None
    return ("value", F.depth, F.cells, F.render()), F


BASE_STEPS, DERIVED_STEPS = 3, 6


@functools.cache
def program_steps(c):
    """The strategy of a step that makes a set on the c-th cover, and
    per pool size n the strategy of a step that combines sets of the
    pool (index n - 1); built once, since building strategies costs
    more than running the steps."""
    cover = covers()[c][1]
    return base_ops(cover), [derived_ops(cover, n) for n in range(
        1, BASE_STEPS + DERIVED_STEPS)]


def base_ops(cover):
    k, m = len(cover.alphabet), cover.class_count

    def words(size=st.integers(0, 3)):
        return size.flatmap(lambda n: st.lists(
            st.integers(0, k - 1), min_size=n, max_size=n).map(tuple))

    cells = st.integers(0, 2).flatmap(lambda d: st.tuples(
        st.just("cells"), st.just(d),
        st.lists(st.tuples(words(st.just(d)), st.integers(0, m - 1)),
                 max_size=6),
        st.booleans()))
    return st.one_of(
        st.tuples(st.just("full")), st.tuples(st.just("empty")),
        st.tuples(st.just("class"), st.integers(-1, m)),
        st.tuples(st.just("cylinder"), words()),
        st.tuples(st.just("post"), words()),
        st.tuples(st.just("generator"), words(), words()),
        st.tuples(st.just("formula"), st.lists(words(), max_size=3),
                  st.lists(words(), max_size=3)),
        cells)


def derived_ops(cover, n):
    k = len(cover.alphabet)
    some = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("union"), some, some),
        st.tuples(st.just("intersect"), some, some),
        st.tuples(st.just("complement"), some),
        st.tuples(st.just("refine"), some, st.integers(0, 3)),
        st.tuples(st.just("conj"), st.integers(0, k - 1), some),
        st.tuples(st.just("preimage"), some))


def apply(engine, cover, op, pool):
    """The value of one program step in one engine's module."""
    kind, args = op[0], op[1:]
    if kind == "full":
        return engine.full_space(cover)
    if kind == "empty":
        return engine.empty_set(cover)
    if kind == "class":
        return engine.class_projection(cover, *args)
    if kind == "cylinder":
        return engine.cylinder(cover, *args)
    if kind == "post":
        return engine.post_image(cover, *args)
    if kind == "generator":
        return engine.diagonal_generator(cover, *args)
    if kind == "formula":
        return engine.evaluate_projection_formula(cover, *args)
    if kind == "cells":
        depth, cells, validate = args
        return engine.ClopenSet(cover, depth, cells, validate=validate)
    if kind == "conj":
        return engine.conj_by_letter(cover, args[0], pool[args[1]])
    if kind == "preimage":
        return engine.shift_preimage(cover, pool[args[0]])
    if kind == "complement":
        return pool[args[0]].complement()
    if kind == "refine":
        return pool[args[0]].refine(args[1])
    return getattr(pool[args[0]], kind)(pool[args[1]])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_engines_agree(data):
    c = data.draw(st.integers(0, len(covers()) - 1))
    name, cover = covers()[c]
    base, derived = program_steps(c)
    masks, ref = [], []

    def step(op):
        got, F = outcome(lambda: apply(diagonal, cover, op, masks))
        want, R = outcome(lambda: apply(frozenset_clopen, cover, op, ref))
        assert got == want, (name, op)
        if F is not None:
            assert all(F.masks.values()), (name, op)
            masks.append(F)
            ref.append(R)

    for _ in range(data.draw(st.integers(1, BASE_STEPS))):
        step(data.draw(base))
    for _ in range(data.draw(st.integers(0, DERIVED_STEPS))):
        if masks:
            step(data.draw(derived[len(masks) - 1]))
    for F, R in zip(masks, ref):
        for G, S in zip(masks, ref):
            assert (F == G) == (R == S), name
            assert F != G or hash(F) == hash(G), name


def small_sets(cover):
    """Every single cell of depth at most 2 and every pair of cells of
    depth at most 1, cells that no path reaches included, as arguments
    of ``ClopenSet``."""
    out = []
    for d in range(3):
        cells = [(w, i) for w in itertools.product(cover.alphabet, repeat=d)
                 for i in range(cover.class_count)]
        out += [(d, list(pick)) for r in ((1, 2) if d < 2 else (1,))
                for pick in itertools.combinations(cells, r)]
    return out


def test_small_sets_exhaustively():
    # on the corpus covers with their variants: complements, deep
    # refinements, letter prepends and shift preimages of every small
    # set, ambiguous walks in two cells included
    ambiguous = 0
    for name, cover in covers():
        if name.startswith("random"):
            continue
        for depth, cells in small_sets(cover):
            F = diagonal.ClopenSet(cover, depth, cells, validate=False)
            R = frozenset_clopen.ClopenSet(cover, depth, cells,
                                           validate=False)
            calls = [(lambda E, G: G.complement()),
                     (lambda E, G: G.refine(3)),
                     (lambda E, G: E.shift_preimage(cover, G))]
            calls += [(lambda E, G, a=a: E.conj_by_letter(cover, a, G))
                      for a in cover.alphabet]
            for call in calls:
                got = outcome(lambda: call(diagonal, F))[0]
                assert got == outcome(lambda: call(frozenset_clopen, R))[0], \
                    (name, depth, cells)
                ambiguous += got[0] == "ambiguous"
    assert ambiguous > 0


def test_no_cyclic_garbage():
    # ambiguity errors are kept as messages, so their tracebacks do not
    # tie a verify call's tables and the cover into cycles
    built = [cover for _, cover in covers()]
    gc.collect()
    gc.disable()
    try:
        for cover in built:
            verify_all(cover, max_len=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- grouped orthogonality against all pairs --------------------------

def orthogonality(check, cover):
    rec = _Recorder()
    check(cover, rec, isocheck._range_images(cover))
    return rec.checked.get(ORTHOGONALITY, 0), rec.witness.get(ORTHOGONALITY)


def broken_conj(cover, letter, F):
    # every cell of depth 1 with the letter, so edges with one letter
    # overlap, and no walk meets an ambiguity
    return diagonal.ClopenSet(
        cover, 1, [((letter,), i) for i in range(cover.class_count)],
        validate=False)


class TestGroupedOrthogonality:
    def test_matches_all_pairs(self):
        shares = 0
        for name, cover in covers():
            got = orthogonality(isocheck._check_orthogonality, cover)
            assert got == orthogonality(slow_check_orthogonality, cover), \
                name
            e = len(cover.edges)
            assert got[0] == e * (e - 1) // 2, name
            if name.endswith(("duplicate-label", "two-duplicate-labels")):
                assert "share label and range" in got[1], name
            shares += got[1] is not None
        assert shares > 0

    def test_pairs_sharing_label_and_range_without_images(self,
                                                           monkeypatch):
        # with empty images only the (label, range) groups pair edges
        monkeypatch.setattr(diagonal, "conj_by_letter",
                            lambda cover, letter, F: diagonal.empty_set(cover))
        shares = 0
        for name, cover in covers():
            got = orthogonality(isocheck._check_orthogonality, cover)
            assert got == orthogonality(slow_check_orthogonality, cover), \
                name
            shares += got[1] is not None
        assert shares > 0

    def test_least_pair_over_both_kinds(self, monkeypatch):
        monkeypatch.setattr(diagonal, "conj_by_letter", broken_conj)
        overlap_first = 0
        for name, cover in covers():
            got = orthogonality(isocheck._check_orthogonality, cover)
            assert got == orthogonality(slow_check_orthogonality, cover), \
                name
            # an overlap picked although the cover has a pair sharing
            # label and range: the least pair decides, not the kind
            pairs = [(e.label, e.dst) for e in cover.edges]
            if got[1] is not None and "overlap on" in got[1] and \
                    len(set(pairs)) < len(pairs):
                overlap_first += 1
        assert overlap_first > 0
