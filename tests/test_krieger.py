import dataclasses
import itertools
import random
import re
from array import array
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from soficshift import (Alphabet, CoverInvariantError, EmptyShiftError,
                        LabeledGraph, Ray, ResourceLimitError, build_cover, cover_to_dot,
                        edge_matrix, k_groups, make_right_resolving,
                        past_partition, realized_survivor_sets,
                        realized_survivor_sets_bruteforce,
                        stabilization_level, survivor_set,
                        transition_semigroup, trim_essential,
                        unique_labeled_path)
import soficshift.krieger as kr
from soficshift.shiftcore import Edge
from conftest import (corpus_graphs, make_chain, make_even, make_full,
                       make_full_sft, make_golden, make_twins, random_corpus)

# the displayed edge matrix of the even shift's cover, frozen from the
# source material's worked example
EVEN_PUBLISHED_MATRIX = [
    [1, 1, 0, 1, 0],
    [0, 0, 1, 0, 0],
    [1, 1, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1],
]


def names_of(g, vertices):
    return frozenset(g.vertex_names[v] for v in vertices)


def pre_word_mask(g, word, mask):
    """Oracle helper: iterate single-letter predecessor maps directly."""
    for a in reversed(word):
        mask = g.predecessors(a, mask)
    return mask


def naive_alive(sg):
    """Slow reference: elements that can compose letters forever
    without their domain shrinking, by repeated sweeps."""
    doms = [rel.domain_mask() for rel in sg.relations]
    letters = range(len(sg.step[0]))
    alive = set(range(len(sg.relations)))
    changed = True
    while changed:
        changed = False
        for i in list(alive):
            if not any(sg.step[i][a] in alive
                       and doms[sg.step[i][a]] == doms[i] for a in letters):
                alive.discard(i)
                changed = True
    return alive


def alive_elements(sg, doms):
    """Slow reference for the realized sets, from the semigroup: the
    flags of the elements that can keep composing letters forever
    without their domain shrinking, i.e. that reach a directed cycle of
    the constant-domain subgraph (edges i -> step[i][a] with
    doms[step[i][a]] == doms[i]).  Greatest fixed point by reverse-edge
    counting: an element dies once every constant-domain successor has
    died."""
    n = len(doms)
    count = [0] * n
    preds = [[] for _ in range(n)]
    for i, row in enumerate(sg.step):
        for j in row:
            if doms[j] == doms[i]:
                count[i] += 1
                preds[j].append(i)
    alive = bytearray([1]) * n
    dead = [i for i in range(n) if not count[i]]
    for i in dead:
        alive[i] = 0
    while dead:
        j = dead.pop()
        for i in preds[j]:
            count[i] -= 1
            if not count[i]:
                alive[i] = 0
                dead.append(i)
    return alive


def semigroup_realized_sets(g):
    """Slow reference for ``realized_survivor_sets``: a domain is
    realized as a survivor set exactly when some alive semigroup
    element has it."""
    sg = transition_semigroup(g)
    doms = [rel.domain_mask() for rel in sg.relations]
    return frozenset(
        frozenset(v for v in range(g.vertex_count) if d >> v & 1)
        for d, live in zip(doms, alive_elements(sg, doms)) if live and d)


def short_rays(letters, cap):
    """The rays u v^∞ in (total length, preperiod length,
    lexicographic) order up to total length ``cap``."""
    for total in range(1, cap + 1):
        for lu in range(total):
            for u in itertools.product(letters, repeat=lu):
                for v in itertools.product(letters, repeat=total - lu):
                    yield Ray(u, v)


def short_ray_representative(g, block, cap):
    """Slow reference for the first pass of the representatives: the
    first ray of ``short_rays`` up to ``cap`` whose survivor set lies
    in the block, else None."""
    return next((ray for ray in short_rays(list(g.alphabet), cap)
                 if survivor_set(g, ray) in block), None)


def track_representative(g, block):
    """Slow reference for the representative of a block with no short
    ray, from per-vertex tracks and no pair graph.  D is the block's
    least set.  Words are taken in length-lex order until one keeps
    every track from D alive, lets every other track die without
    meeting one of them, and ends on vertices whose tracks can go on
    forever; the walk from those ends then takes the least letter that
    keeps them able to, until the set of ends repeats."""
    letters = list(g.alphabet)
    head = {(e.src, e.label): e.dst for e in g.edges}
    d = min(block, key=lambda c: (len(c), tuple(sorted(c))))

    def move(ends, a):
        # the ends of the tracks from a set after a, or None if one dies
        out = [head.get((v, a)) for v in ends]
        return None if None in out else frozenset(out)

    def forever(ends):
        # naive sweeps over the sets of ends reachable by moves
        reach, todo = {ends}, [ends]
        while todo:
            cur = todo.pop()
            for a in letters:
                nxt = move(cur, a)
                if nxt is not None and nxt not in reach:
                    reach.add(nxt)
                    todo.append(nxt)
        alive, changed = set(reach), True
        while changed:
            changed = False
            for s in list(alive):
                if not any(move(s, a) in alive for a in letters):
                    alive.discard(s)
                    changed = True
        return ends in alive

    def first_word():
        # tracks are (end, from D) pairs; dead tracks not from D drop out
        level = [((), [(v, v in d) for v in range(g.vertex_count)])]
        while True:
            longer = []
            for u, tracks in level:
                ends = frozenset(v for v, mine in tracks if mine)
                if all(mine for _, mine in tracks) and forever(ends):
                    return u, ends
                for a in letters:
                    moved = [(head.get((v, a)), mine) for v, mine in tracks]
                    if any(v is None for v, mine in moved if mine):
                        continue
                    mine_at = {v for v, mine in moved if mine}
                    if not any(v in mine_at for v, mine in moved
                               if not mine):
                        longer.append((u + (a,), [t for t in moved
                                                  if t[0] is not None]))
            level = longer

    u, ends = first_word()
    seen, seq = {ends: 0}, []
    while True:
        a = next(a for a in letters
                 if move(ends, a) is not None and forever(move(ends, a)))
        seq.append(a)
        ends = move(ends, a)
        if ends in seen:
            return Ray(u + tuple(seq[:seen[ends]]), tuple(seq[seen[ends]:]))
        seen[ends] = len(seq)


def semigroup_level_partition(sg, realized, level=None):
    """Slow reference: the realized sets grouped by which semigroup
    elements, of those with a witness of length at most ``level`` (all
    of them if None), have a range meeting them."""
    ranges = [rel.range_mask() for i, rel in enumerate(sg.relations)
              if level is None or sg.depth[i] <= level]
    groups = {}
    for c in realized:
        mask = sum(1 << v for v in c)
        sig = tuple(bool(r & mask) for r in ranges)
        groups.setdefault(sig, []).append(c)
    return [frozenset(b) for b in groups.values()]


def semigroup_past_partition(realized, sg):
    """Slow reference for ``past_partition``: the semigroup-signature
    blocks, in canonical order of their least set."""
    return sorted(semigroup_level_partition(sg, realized),
                  key=lambda b: min((len(c), tuple(sorted(c))) for c in b))


def semigroup_stabilization_level(cover, sg):
    """Slow reference for ``stabilization_level``: the first level whose
    semigroup-signature partition is the cover's."""
    realized = [c for b in cover.class_sets for c in b]
    full = set(cover.class_sets)
    for level in range(max(sg.depth) + 1):
        if set(semigroup_level_partition(sg, realized, level)) == full:
            return level
    return max(sg.depth)


def semigroup_range_witnesses(cover, sg):
    """Slow reference for ``KriegerCover.range_witnesses``: per class
    bitmask met by a nonempty element range, the least witness among
    the elements, in (length, lexicographic) order."""
    masks = [sum(1 << v for v in c) for c in cover.canonical_sets]
    best = {}
    for rel, w in zip(sg.relations, sg.witnesses):
        rng = rel.range_mask()
        if rng:
            value = sum(1 << c for c, m in enumerate(masks) if rng & m)
            if value not in best or (len(w), w) < (len(best[value]),
                                                   best[value]):
                best[value] = w
    return sorted(best.items(), key=lambda item: (len(item[1]), item[1]))


def check_against_semigroup(g):
    """The Moore-refinement partition, level and range witnesses of the
    cover of ``g`` against the semigroup references."""
    cover = build_cover(g)
    h = cover.graph
    sg = transition_semigroup(h)
    realized, _ = realized_survivor_sets(h, sg)
    want = semigroup_past_partition(realized, sg)
    assert past_partition(h, realized, sg) == want
    assert list(cover.class_sets) == want
    level = stabilization_level(cover)
    assert level == semigroup_stabilization_level(cover, sg)
    full = set(want)
    assert set(semigroup_level_partition(sg, realized, level)) == full
    if level:
        assert set(semigroup_level_partition(sg, realized,
                                             level - 1)) != full
    assert list(cover.range_witnesses.items()) == \
        semigroup_range_witnesses(cover, sg)
    return level


# --- the frozenset construction of the cover, a slow reference -------
#
# build_cover as it was before the cover stored its vertex sets as
# bitmasks: the realized sets, the past partition, the prepend map and
# the representatives over frozensets of vertex indices.  It shares the
# pair graph and the ray helpers with build_cover, but explores the pair
# graph from every candidate, as build_cover did before the realized
# sets were closed from the periodic ones.

def set_key(c):
    # canonical order on vertex sets: cardinality, then sorted indices
    return (len(c), tuple(sorted(c)))


def mask_set(mask):
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def set_mask(c):
    return sum(1 << v for v in c)


def full_pair_graph(g):
    """The pair graph from the state (D, V∖D) of every candidate D:
    (starts, states, step, good), where starts maps each realized
    candidate to its state's index."""
    cands, _ = kr._candidates(g)
    states, step, good = kr._pair_graph(g, kr._roots(g, cands), 0,
                                        "reference")
    starts = {d: i for i, d in enumerate(cands) if good[i]}
    return starts, states, step, good


def slow_survivor_family(g, masks):
    """The realized sets as frozensets, with their letter-prepend map."""
    sets = frozenset(mask_set(m) for m in masks)
    pre = {}
    for m in masks:
        c = mask_set(m)
        for a in g.alphabet:
            p = g.predecessors(a, m)
            if p:
                pre[(a, c)] = mask_set(p)
    return sets, pre


def slow_past_partition(g, realized):
    """Moore refinement of the frozenset family under the letter
    preimages, blocks in canonical order of their least set."""
    family = list(realized)
    n = len(family)
    slot = {set_mask(c): k for k, c in enumerate(family)}
    slot[0] = n  # an empty preimage reads the sentinel label -1
    pre = [tuple(slot[g.predecessors(a, set_mask(c))] for a in g.alphabet)
           for c in family]
    label, blocks = [0] * n + [-1], min(1, n)
    while True:
        ids = {}
        nxt = [ids.setdefault((label[k],) + tuple(label[p] for p in row),
                              len(ids)) for k, row in enumerate(pre)]
        if len(ids) == blocks:
            break
        label, blocks = nxt + [-1], len(ids)
    groups = {}
    for c, k in zip(family, label):
        groups.setdefault(k, []).append(c)
    return sorted((frozenset(b) for b in groups.values()),
                  key=lambda b: min(set_key(c) for c in b))


def slow_class_representatives(g, blocks, starts, states, step, good):
    """The representatives from frozenset blocks: the first short ray
    whose survivor set lies in the block, else the walk in the pair
    graph from the block's least set."""
    letters = list(g.alphabet)
    full, k = g.full_mask(), len(letters)
    reps = []
    for block in blocks:
        rays = short_rays(letters, kr._REPRESENTATIVE_SEARCH_CAP)
        rep = next((ray for ray in rays
                    if mask_set(kr._survivor_mask(g, ray)) in block), None)
        if rep is None:
            cur = starts[set_mask(min(block, key=set_key))]
            words, queue = {cur: ()}, deque([cur])
            while states[cur] & full:
                i = queue.popleft()
                for a in letters:
                    j = step[i * k + a]
                    if j >= 0 and good[j] and j not in words:
                        words[j] = words[i] + (a,)
                        queue.append(j)
                        if not states[j] & full:
                            cur = j
                            break
            u, seen, seq = words[cur], {cur: 0}, []
            while len(seen) > len(seq):
                cur, a = next((j, a) for a in letters
                              if (j := step[cur * k + a]) >= 0 and good[j])
                seq.append(a)
                seen.setdefault(cur, len(seq))
            rep = Ray(u + tuple(seq[:seen[cur]]), tuple(seq[seen[cur]:]))
        reps.append(rep)
    return tuple(reps)


def slow_cover(h):
    """The frozenset construction on the conditioned presentation h:
    (blocks, block_of, pre_map, canonical sets, representatives,
    edges)."""
    starts, states, step, good = full_pair_graph(h)
    realized, pre = slow_survivor_family(h, starts)
    blocks = slow_past_partition(h, realized)
    block_of = {c: i for i, block in enumerate(blocks) for c in block}
    edges = []
    for i, block in enumerate(blocks):
        for a in h.alphabet:
            targets = {block_of.get(pre.get((a, c)), "empty")
                       for c in block}
            assert len(targets) == 1, (i, a)
            src = targets.pop()
            if src != "empty":
                edges.append(Edge(src, i, a))
    edges.sort(key=lambda e: (e.src, e.dst, e.label))
    canonical = tuple(min(block, key=set_key) for block in blocks)
    reps = slow_class_representatives(h, blocks, starts, states, step, good)
    return blocks, block_of, pre, canonical, reps, tuple(edges)


def check_against_frozenset_cover(g):
    """The cover of ``g`` and its mask tables against the frozenset
    construction."""
    cover = build_cover(g)
    blocks, block_of, pre, canonical, reps, edges = slow_cover(cover.graph)
    masks = list(cover.realized)
    m = cover.class_count
    # the class order and each class's survivor sets
    assert list(cover.class_sets) == blocks
    assert {mask_set(mask): i for mask, i in cover.realized.items()} == \
        block_of
    # the canonical sets, in the first slots
    assert cover.canonical_sets == canonical
    assert tuple(mask_set(mask) for mask in masks[:m]) == canonical
    assert [cover.realized[mask] for mask in masks[:m]] == list(range(m))
    # the prepend map
    assert len(cover.prepend) == len(cover.alphabet)
    assert all(len(row) == len(masks) for row in cover.prepend)
    assert {(a, mask_set(masks[r])): mask_set(masks[p])
            for a, row in enumerate(cover.prepend)
            for r, p in enumerate(row) if p >= 0} == pre
    assert cover.representatives == reps
    assert cover.edges == edges


def random_presentations(seed):
    """Seeded random presentations: right-resolving ones over 2, 3 and
    10 letters, and 2-letter ones that are not right-resolving."""
    rng = random.Random(seed)
    shapes = ([("rr", 2, n) for n in range(3, 10)] * 3
              + [("rr", 3, n) for n in range(2, 7)] * 2
              + [("rr", 10, n) for n in (2, 3, 4)]
              + [("nrr", 2, n) for n in range(3, 7)] * 3)
    out = []
    for kind, k, n in shapes:
        while True:
            if kind == "rr":
                edges = [(v, rng.randrange(n), a) for v in range(n)
                         for a in range(k) if rng.random() < 0.8]
            else:
                edges = [(s, t, a) for s in range(n) for t in range(n)
                         for a in range(k) if rng.random() < 0.25]
            try:
                g = trim_essential(LabeledGraph(
                    Alphabet([str(a) for a in range(k)]),
                    [f"v{i}" for i in range(n)], edges))
            except EmptyShiftError:
                continue
            out.append((f"{kind}{k}_n{n}", g))
            break
    return out


# (letters, edges) of presentations with 2-3 letters and at most 5
# vertices, right-resolving or not
GENERATED_SHAPES = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, k - 1)), min_size=1, unique=True))))


def generated_graph(shape):
    """The essential part of a generated shape; a shape whose shift is
    empty is rejected."""
    k, edges = shape
    n = 1 + max(max(s, t) for s, t, _ in edges)
    try:
        return trim_essential(LabeledGraph(
            Alphabet([str(a) for a in range(k)]),
            [f"v{v}" for v in range(n)], edges))
    except EmptyShiftError:
        assume(False)


def permutation_equivalent(a, b):
    """True iff b equals a up to one simultaneous row/column
    permutation (brute force, fine for desk-size matrices)."""
    n = len(a)
    if len(b) != n:
        return False
    for perm in itertools.permutations(range(n)):
        if all(a[perm[i]][perm[j]] == b[i][j]
               for i in range(n) for j in range(n)):
            return True
    return False


class TestFrozensetReference:
    def test_corpus_and_random_presentations(self):
        graphs = corpus_graphs() + random_presentations(seed=317) + [
            (f"random{i}", g) for i, g in enumerate(random_corpus(12, 707))]
        for name, g in graphs:
            try:
                check_against_frozenset_cover(g)
            except AssertionError as err:
                raise AssertionError(name) from err

    @settings(max_examples=200, deadline=None)
    @given(GENERATED_SHAPES)
    def test_generated_presentations(self, shape):
        check_against_frozenset_cover(generated_graph(shape))


class TestSurvivorSets:
    def test_even_all_zeros(self, even_graph):
        s = survivor_set(even_graph, Ray((), (0,)))
        assert names_of(even_graph, s) == {"a", "b"}

    def test_even_one_then_zeros(self, even_graph):
        s = survivor_set(even_graph, Ray((1,), (0,)))
        assert names_of(even_graph, s) == {"a"}

    def test_golden_forbidden_period(self, golden_graph):
        assert survivor_set(golden_graph, Ray((), (1, 1))) == frozenset()


class TestTransitionSemigroup:
    def test_even_letter_relations(self, even_graph):
        sg = transition_semigroup(even_graph)
        # vertex indices: a = 0, b = 1
        assert sg.element_of_word((1,)).pairs() == {(0, 0)}
        assert sg.element_of_word((0,)).pairs() == {(0, 1), (1, 0)}
        assert sg.element_of_word((0, 0)).pairs() == {(0, 0), (1, 1)}

    def test_golden_composition_by_hand(self, golden_graph):
        sg = transition_semigroup(golden_graph)
        r0 = sg.element_of_word((0,))
        r1 = sg.element_of_word((1,))
        assert r0.compose(r1).pairs() == {(0, 1), (1, 1)}
        assert sg.element_of_word((0, 1)) == r0.compose(r1)

    def test_full_shift_collapses(self):
        g = make_full(2)
        sg = transition_semigroup(g)
        assert sg.element_of_word((0,)) == sg.element_of_word((1,))
        assert sg.element_of_word((0,)).pairs() == {(0, 0)}
        # identity plus the single collapsed relation
        assert len(sg) <= 2

    def test_composition_law_matches_path_counting(self):
        for g in random_corpus(10, seed=201):
            g = make_right_resolving(g)
            sg = transition_semigroup(g)
            for w in itertools.product(range(len(g.alphabet)), repeat=3):
                rel = sg.element_of_word(w)
                mask = g.full_mask()
                expect = {(s, t) for s in range(g.vertex_count)
                          for t in range(g.vertex_count)
                          if pre_word_mask(g, w, 1 << t) >> s & 1}
                assert rel.pairs() == expect

    def test_nonempty_depth_matches_word_enumeration(self):
        # the relations of all words of length L, length by length,
        # composed vertex by vertex, until a set of them repeats
        for g in [g for _, g in corpus_graphs()] + random_corpus(20, 77):
            g = make_right_resolving(g)
            n = g.vertex_count
            first: dict[tuple[int, ...], int] = {}
            layer = {tuple(1 << s for s in range(n))}
            layers = []
            while layer not in layers:
                layers.append(layer)
                layer = {tuple(g.successors(a, row) for row in rel)
                         for rel in layer for a in g.alphabet}
                for rel in layer:
                    first.setdefault(rel, len(layers))
            sg = transition_semigroup(g)
            assert list(sg.nonempty_depth) == [
                first.get(rel.rows) for rel in sg.relations]

    def test_size_cap(self, even_graph):
        with pytest.raises(ResourceLimitError):
            transition_semigroup(even_graph, max_elements=3)

    def test_row_cap_counts_rows_per_element(self, monkeypatch, even_graph):
        # the even shift's semigroup has 7 elements of 2 rows each
        import soficshift.semigroup as sm
        monkeypatch.setattr(sm, "SEMIGROUP_ROW_CAP", 14)
        assert len(transition_semigroup(even_graph)) == 7
        monkeypatch.setattr(sm, "SEMIGROUP_ROW_CAP", 13)
        with pytest.raises(ResourceLimitError,
                           match="transition semigroup exceeds 13 stored "
                                 "rows: 6 elements of 2 rows"):
            transition_semigroup(even_graph)

    def test_alive_worklist_matches_sweeps(self):
        for name, g in random_presentations(seed=312):
            g = make_right_resolving(g)
            sg = transition_semigroup(g)
            doms = [rel.domain_mask() for rel in sg.relations]
            alive = alive_elements(sg, doms)
            assert {i for i, live in enumerate(alive) if live} == \
                naive_alive(sg), name


class TestRealizedSets:
    def test_even_three_sets(self, even_graph):
        sets, _pre = realized_survivor_sets(even_graph)
        assert {names_of(even_graph, s) for s in sets} == \
            {frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}

    def test_full_shift_single_set(self):
        g = make_full(3)
        sets, _ = realized_survivor_sets(g)
        assert sets == {frozenset({0})}

    def test_golden_two_sets(self, golden_graph):
        sets, _ = realized_survivor_sets(golden_graph)
        assert {names_of(golden_graph, s) for s in sets} == \
            {frozenset({"0"}), frozenset({"0", "1"})}

    def test_prepend_closure(self):
        for name, g in corpus_graphs():
            g = make_right_resolving(trim_essential(g))
            sets, pre = realized_survivor_sets(g)
            for (a, c), p in pre.items():
                assert c in sets
                assert p in sets, (name, a, sorted(c))

    def test_naive_subset_chain_overgenerates(self):
        # Two disjoint self-loops on one letter.  The only ray is the
        # constant one, emitted from both vertices, so {u} and {w} are
        # not survivor sets; yet each satisfies the backward chain
        # condition C = pre_a(C).  This is the documented pitfall the
        # pair-graph method avoids.
        a = Alphabet(["a"])
        g = LabeledGraph(a, ["u", "w"], [(0, 0, 0), (1, 1, 0)])

        subsets = [frozenset(s) for r in range(1, 3)
                   for s in itertools.combinations(range(2), r)]
        family = set(subsets)
        while True:
            kept = set()
            for c in family:
                mask = sum(1 << v for v in c)
                if any(frozenset(
                        v for v in range(2)
                        if g.predecessors(0, dmask) >> v & 1) == c
                       for d in family
                       for dmask in [sum(1 << v for v in d)]):
                    kept.add(c)
            if kept == family:
                break
            family = kept
        naive = family

        sets, _ = realized_survivor_sets(g)
        assert sets == {frozenset({0, 1})}
        assert naive > sets  # strict overgeneration

    def test_non_right_resolving_input_rejected(self):
        # 0 has two a-edges.  I(a a a ...) = {0, 1}, but from ({0, 1},
        # {2}) the set move by a reaches ({0, 1, 2}, ∅), which neither
        # letter can leave (2 has no a-edge, 0 no b-edge): the pair
        # graph would miss {0, 1}, as it moves sets of ends and not the
        # track of each start vertex
        g = LabeledGraph(Alphabet(["a", "b"]), ["0", "1", "2"],
                         [(0, 1, 0), (0, 2, 0), (1, 1, 0), (1, 0, 0),
                          (2, 2, 1), (2, 0, 1)])
        assert g.is_essential() and not g.is_right_resolving()
        assert survivor_set(g, Ray((), (0,))) == {0, 1}
        with pytest.raises(ValueError, match="right-resolving"):
            realized_survivor_sets(g)
        h = make_right_resolving(g)
        sets, _ = realized_survivor_sets(h)
        assert sets == realized_survivor_sets_bruteforce(
            h, len(transition_semigroup(h)))

    def test_oracle_equivalence_at_semigroup_bound(self):
        for name, g in corpus_graphs():
            g = make_right_resolving(trim_essential(g))
            sets, _ = realized_survivor_sets(g)
            bound = len(transition_semigroup(g))
            assert sets == realized_survivor_sets_bruteforce(g, bound), name

    def test_pair_graph_matches_semigroup_and_enumeration(self):
        for name, g in corpus_graphs() + random_presentations(seed=315):
            g = make_right_resolving(trim_essential(g))
            sets, _ = realized_survivor_sets(g)
            assert sets == semigroup_realized_sets(g), name
            bound = len(transition_semigroup(g))
            assert sets == realized_survivor_sets_bruteforce(g, bound), name

    @settings(max_examples=200, deadline=None)
    @given(GENERATED_SHAPES)
    def test_generated_presentations(self, shape):
        g = make_right_resolving(generated_graph(shape))
        sets, _ = realized_survivor_sets(g)
        assert sets == semigroup_realized_sets(g)
        bound = len(transition_semigroup(g))
        assert sets == realized_survivor_sets_bruteforce(g, bound)

    def test_pair_state_cap_weighs_states_by_vertices(self, monkeypatch):
        # the chain's candidates are V, {p} and {q}; no period of length
        # 1 or 2 decides V, whose pair graph holds the one state (V, ∅):
        # 4 pair states of 2 vertices each
        import soficshift.krieger as kr
        chain = make_chain()
        monkeypatch.setattr(kr, "PAIR_STATE_CAP", 8)
        assert len(realized_survivor_sets(chain)[0]) == 2
        assert len(build_cover(chain).representatives) == 2
        monkeypatch.setattr(kr, "PAIR_STATE_CAP", 7)
        for build in (realized_survivor_sets, build_cover):
            with pytest.raises(ResourceLimitError,
                               match=r"pair graph exceeds 7 stored "
                                     r"vertices: 3 pair states of 2 "
                                     r"vertices each are stored "
                                     r"\(realized sets\)"):
                build(chain)
        # a move that merges a track from V∖D into one from D is barred:
        # this golden-mean presentation's pair graph from every
        # candidate has 4 pair states, not 6
        golden = LabeledGraph(Alphabet(["0", "1"]), ["v0", "v1"],
                              [(0, 0, 0), (0, 1, 1), (1, 0, 0)])
        monkeypatch.setattr(kr, "PAIR_STATE_CAP", 8)
        assert len(full_pair_graph(golden)[1]) == 4

    def test_build_never_builds_the_semigroup(self, monkeypatch):
        import soficshift.semigroup as sm

        def refuse(*args, **kwargs):
            raise AssertionError("the transition semigroup was built")
        monkeypatch.setattr(sm, "transition_semigroup", refuse)
        monkeypatch.setattr(sm, "TransitionSemigroup", refuse)
        for name, g in corpus_graphs() + random_presentations(seed=316):
            cover = build_cover(g)
            assert realized_survivor_sets(cover.graph)[0] == \
                frozenset(c for b in cover.class_sets for c in b), name

    def test_bruteforce_matches_direct_ray_enumeration(self):
        # validates the relation-level dedup inside the brute-force
        # oracle against literal (preperiod, period) enumeration
        for name, g in [("even", make_even()), ("golden", make_golden())]:
            bound = 4
            letters = range(len(g.alphabet))
            direct = set()
            for lu in range(bound + 1):
                for lv in range(1, bound + 1):
                    for u in itertools.product(letters, repeat=lu):
                        for v in itertools.product(letters, repeat=lv):
                            s = survivor_set(g, Ray(u, v))
                            if s:
                                direct.add(s)
            assert realized_survivor_sets_bruteforce(g, bound) == direct, name

    def test_bruteforce_refuses_bound_below_one(self, monkeypatch):
        # a ray's period needs a letter; the bound is refused before the
        # semigroup is built
        import soficshift.semigroup as sm

        def refuse(*args, **kwargs):
            raise AssertionError("the transition semigroup was built")
        monkeypatch.setattr(sm, "transition_semigroup", refuse)
        for bound in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                realized_survivor_sets_bruteforce(make_even(), bound)


class TestCandidatePreimageTable:
    def test_entries_and_period_fixpoints(self):
        # pre[i * k + a] is the index of the candidate pre_a D, -1 when
        # that is empty, and the table's fixpoints are _period_fixpoint's
        empty_fixpoints = 0
        for name, g in random_presentations(seed=318):
            h = make_right_resolving(trim_essential(g))
            n, full, k = h.vertex_count, h.full_mask(), len(h.alphabet)
            cands, pre = kr._candidates(h)
            candidates = len(cands)
            assert len(pre) == candidates * k
            assert cands[0] == full
            assert len(set(cands)) == candidates and 0 not in cands
            assert list(kr._roots(h, cands)) == [d << n | full ^ d
                                                 for d in cands]
            for i in range(candidates):
                d = cands[i]
                for a in h.alphabet:
                    p, j = h.predecessors(a, d), pre[i * k + a]
                    if p:
                        assert 0 <= j < candidates, (name, i, a)
                        assert cands[j] == p, (name, i, a)
                    else:
                        assert j == -1, (name, i, a)
            for length in (1, 2, 3):
                for v in itertools.product(h.alphabet, repeat=length):
                    j = kr._pre_fixpoint(pre, k, v)
                    mask = cands[j] if j >= 0 else 0
                    assert mask == kr._period_fixpoint(h, v), (name, v)
                    empty_fixpoints += j < 0
        assert empty_fixpoints > 0


def full_pair_graph_family(g):
    """Slow reference for the realized sets, sharing no code with
    ``krieger``: the pair graph explored from (D, V∖D) for every
    candidate D (V closed under nonempty letter preimages), with D
    realized when that state reaches a (P, ∅) whose P can move
    forever.  A move by letter a needs an a-edge at every vertex of P
    and disjoint images of P and Q."""
    full, letters = g.full_mask(), list(g.alphabet)
    cands, todo = {full}, [full]
    while todo:
        d = todo.pop()
        for a in letters:
            p = g.predecessors(a, d)
            if p and p not in cands:
                cands.add(p)
                todo.append(p)
    moves, todo = {}, [(d, full ^ d) for d in cands]
    while todo:
        p, q = state = todo.pop()
        if state in moves:
            continue
        moves[state] = []
        for a in letters:
            if all(g.successors(a, 1 << v) for v in mask_set(p)):
                p2, q2 = g.successors(a, p), g.successors(a, q)
                if not p2 & q2:
                    moves[state].append((p2, q2))
                    todo.append((p2, q2))
    # the (P, ∅) that can move forever, then every state reaching one
    alive = {s for s in moves if not s[1]}
    while True:
        keep = {s for s in alive if any(t in alive for t in moves[s])}
        if keep == alive:
            break
        alive = keep
    good = set(alive)
    while True:
        more = {s for s in moves if any(t in good for t in moves[s])}
        if more <= good:
            break
        good |= more
    return frozenset(mask_set(d) for d in cands if (d, full ^ d) in good)


def trimmed_rr(gseed, n, k):
    from test_letter_gathers import rr_graph
    return make_right_resolving(trim_essential(rr_graph(gseed, n, k)))


class TestPeriodicClosure:
    """The realized sets from the closure of the periodic survivor sets
    against the pair graph from every candidate."""

    def test_corpus_and_random_presentations(self):
        graphs = corpus_graphs() + [
            item for seed in range(319, 324)
            for item in random_presentations(seed=seed)]
        for name, g in graphs:
            h = make_right_resolving(trim_essential(g))
            want = full_pair_graph_family(h)
            assert realized_survivor_sets(h)[0] == want, name
            assert frozenset(c for block in build_cover(g).class_sets
                             for c in block) == want, name

    @settings(max_examples=100, deadline=None)
    @given(GENERATED_SHAPES)
    def test_generated_presentations(self, shape):
        h = make_right_resolving(generated_graph(shape))
        assert realized_survivor_sets(h)[0] == full_pair_graph_family(h)

    def test_every_set_left_open(self):
        # no period of length 1 or 2 is emitted, so the pair graph
        # decides each of the 95 realized sets
        h = trimmed_rr(6, 26, 2)
        assert not any(kr._period_fixpoint(h, v) for length in (1, 2)
                       for v in itertools.product(h.alphabet,
                                                  repeat=length))
        want = full_pair_graph_family(h)
        assert len(want) == 95
        assert realized_survivor_sets(h)[0] == want

    def test_mutation_unrealized_seed(self, monkeypatch):
        # seeding the closure with an unrealized candidate adds sets
        h = trimmed_rr(104, 14, 2)
        want = full_pair_graph_family(h)
        cands, _ = kr._candidates(h)
        assert (len(cands), len(want)) == (110, 95)
        bad = next(i for i, d in enumerate(cands)
                   if mask_set(d) not in want)
        fixpoint = kr._pre_fixpoint
        monkeypatch.setattr(kr, "_pre_fixpoint", lambda pre, k, v: (
            bad if v == (0,) else fixpoint(pre, k, v)))
        assert realized_survivor_sets(h)[0] > want

    def test_mutation_open_candidates_unexplored(self, monkeypatch):
        # without the pair graph no open candidate is realized
        h = trimmed_rr(6, 26, 2)
        want = full_pair_graph_family(h)
        monkeypatch.setattr(kr, "_pair_graph", lambda g, roots, held,
                            stage: ([], array("q"),
                                    bytearray(len(list(roots)))))
        assert realized_survivor_sets(h)[0] < want


class TestPastPartition:
    def test_even_three_singleton_blocks(self, even_graph):
        sg = transition_semigroup(even_graph)
        sets, _ = realized_survivor_sets(even_graph, sg)
        blocks = past_partition(even_graph, sets, sg)
        assert len(blocks) == 3
        assert all(len(b) == 1 for b in blocks)

    def test_full_shift_one_block(self):
        g = make_full(2)
        sg = transition_semigroup(g)
        sets, _ = realized_survivor_sets(g, sg)
        assert len(past_partition(g, sets, sg)) == 1

    def test_twin_copies_collapse_to_three_classes(self):
        cover = build_cover(make_twins())
        assert cover.class_count == 3
        assert len(cover.edges) == 5


class TestStabilization:
    def brute_level_partition(self, g, realized, level):
        """Oracle: partition realized sets by direct word enumeration
        up to the given length, no semigroup involved."""
        groups = {}
        letters = range(len(g.alphabet))
        words = [w for k in range(level + 1)
                 for w in itertools.product(letters, repeat=k)]
        for c in realized:
            mask = sum(1 << v for v in c)
            sig = tuple(bool(pre_word_mask(g, w, mask)) for w in words)
            groups.setdefault(sig, set()).add(c)
        return frozenset(frozenset(v) for v in groups.values())

    def test_even_stabilizes_at_two(self, even_cover):
        assert stabilization_level(even_cover) == 2
        g = even_cover.graph
        realized = [c for b in even_cover.class_sets for c in b]
        full = frozenset(frozenset(b) for b in even_cover.class_sets)
        assert self.brute_level_partition(g, realized, 1) != full
        assert self.brute_level_partition(g, realized, 2) == full
        assert self.brute_level_partition(g, realized, 3) == full

    def test_full_shift_level_zero(self):
        assert stabilization_level(build_cover(make_full(3))) == 0

    def test_golden_level_one(self, golden_cover):
        assert stabilization_level(golden_cover) == 1


class TestMooreRefinement:
    def test_matches_semigroup_references(self):
        levels = set()
        for name, g in corpus_graphs() + random_presentations(seed=314):
            try:
                levels.add(check_against_semigroup(g))
            except AssertionError as err:
                raise AssertionError(name) from err
        # the inputs stabilize at several levels, deep ones included
        assert {0, 1, 2} <= levels and max(levels) >= 4

    @settings(max_examples=300, deadline=None)
    @given(GENERATED_SHAPES)
    def test_generated_presentations(self, shape):
        # any edge set, right-resolving or not; build_cover conditions it
        check_against_semigroup(generated_graph(shape))

    def test_family_must_be_closed_under_preimages(self, even_graph):
        # {a, b} is realized, but its preimage under 1 is {a}
        with pytest.raises(CoverInvariantError,
                           match=re.escape("preimage of [0, 1] under "
                                           "letter 1 is not in the family")):
            past_partition(even_graph, {frozenset({0, 1})})


class TestBuildCover:
    def test_even_shift_cover(self, even_cover):
        assert even_cover.class_count == 3
        tokens = even_cover.alphabet.tokens
        edges = [(e.src + 1, e.dst + 1, tokens[e.label])
                 for e in even_cover.edges]
        assert edges == [(1, 1, "1"), (1, 2, "0"), (1, 3, "1"),
                         (2, 1, "0"), (3, 3, "0")]

    def test_essential_right_resolving_graph_kept(self, even_graph):
        # neither trimming nor determinizing rebuilds the graph
        assert build_cover(even_graph).graph is even_graph

    def test_index_not_built(self):
        # the edges are validated as a tuple; only a walk builds the
        # index
        for name, g in corpus_graphs():
            assert "index" not in build_cover(g).__dict__, name

    def test_stranded_class_refused(self, even_graph, monkeypatch):
        # a prepend table that sends no set into class 2 leaves the
        # class without in-edges
        real = kr._class_tables

        def tampered(g, masks):
            realized, prepend = real(g, masks)
            classes = list(realized.values())
            return realized, tuple(
                tuple(-1 if r < len(classes) and classes[r] == 1 else p
                      for r, p in enumerate(row)) for row in prepend)

        monkeypatch.setattr(kr, "_class_tables", tampered)
        with pytest.raises(CoverInvariantError,
                           match=r"^class 2 is stranded$"):
            build_cover(even_graph)

    def test_even_class_membership(self, even_cover):
        assert even_cover.class_of_ray(Ray((1,), (0,))) == 0
        assert even_cover.class_of_ray(Ray((0, 1), (0,))) == 1
        assert even_cover.class_of_ray(Ray((), (0,))) == 2
        assert even_cover.class_of_ray(Ray((1,), (0, 1))) is None

    def test_even_representatives_deterministic(self, even_cover):
        assert even_cover.representatives == (
            Ray((), (1,)), Ray((0,), (1,)), Ray((), (0,)))

    def test_representatives_lie_in_their_classes(self, corpus_covers):
        for name, cover in corpus_covers:
            for i, rep in enumerate(cover.representatives):
                assert cover.class_of_ray(rep) == i, name

    def test_representative_fallback_path(self, monkeypatch):
        # with the bounded search disabled, representatives come from
        # walks in the pair graph and must still land in their classes
        import soficshift.krieger as kr
        monkeypatch.setattr(kr, "_REPRESENTATIVE_SEARCH_CAP", 0)
        for name, g in corpus_graphs():
            cover = build_cover(g)
            for i, rep in enumerate(cover.representatives):
                assert cover.class_of_ray(rep) == i, (name, i, rep)

    @pytest.mark.parametrize("cap", [None, 0])
    def test_representatives_match_per_block_reference(self, monkeypatch,
                                                         cap):
        # classes with a short ray take the first one; the others, all
        # of them under cap 0, take the walk of track_representative
        import soficshift.krieger as kr
        if cap is not None:
            monkeypatch.setattr(kr, "_REPRESENTATIVE_SEARCH_CAP", cap)
        fallbacks = 0
        for name, g in random_presentations(seed=311):
            cover = build_cover(g)
            for block, rep in zip(cover.class_sets, cover.representatives):
                want = short_ray_representative(
                    cover.graph, block, kr._REPRESENTATIVE_SEARCH_CAP)
                if want is None:
                    fallbacks += 1
                    want = track_representative(cover.graph, block)
                assert rep == want, (name, sorted(map(sorted, block)))
        assert fallbacks >= 20

    @pytest.mark.parametrize("gseed, longest", [(9, 3), (25, 4)])
    def test_ten_letter_representatives_match_survivor_set_route(
            self, gseed, longest):
        # 5 vertices over 10 letters, each (vertex, letter) pair with one
        # edge to a random target with probability 0.8
        rng = random.Random(gseed)
        edges = [(v, rng.randrange(5), a) for v in range(5)
                 for a in range(10) if rng.random() < 0.8]
        cover = build_cover(LabeledGraph(
            Alphabet([str(a) for a in range(10)]),
            [f"v{v}" for v in range(5)], edges))
        assert cover.class_count >= 28
        for block, rep in zip(cover.class_sets, cover.representatives):
            assert rep == short_ray_representative(
                cover.graph, block, kr._REPRESENTATIVE_SEARCH_CAP), \
                sorted(map(sorted, block))
        assert max(len(rep.preperiod) + len(rep.period)
                   for rep in cover.representatives) == longest

    def test_full_two_shift_cover(self):
        cover = build_cover(make_full(2))
        assert cover.class_count == 1
        assert [(e.src, e.dst, e.label) for e in cover.edges] == \
            [(0, 0, 0), (0, 0, 1)]

    def test_full_shift_cover_presentation_independent(self):
        # the one-vertex presentation and the forbidden-word compiler's
        # two-vertex presentation give the same cover and matrix
        for n in (2, 3):
            direct = build_cover(make_full(n))
            compiled = build_cover(make_full_sft(n))
            assert direct.class_count == compiled.class_count == 1
            assert edge_matrix(direct).as_lists() == \
                edge_matrix(compiled).as_lists()

    def test_golden_mean_cover(self, golden_cover):
        tokens = golden_cover.alphabet.tokens
        edges = [(e.src + 1, e.dst + 1, tokens[e.label])
                 for e in golden_cover.edges]
        assert edges == [(1, 2, "1"), (2, 1, "0"), (2, 2, "0")]

    def test_reducible_chain_cover(self):
        cover = build_cover(make_chain())
        tokens = cover.alphabet.tokens
        edges = [(e.src, e.dst, tokens[e.label]) for e in cover.edges]
        assert edges == [(0, 0, "a"), (0, 1, "b"), (1, 1, "c")]

    def test_left_resolving_everywhere(self, corpus_covers):
        for name, cover in corpus_covers:
            assert cover.is_left_resolving(), name

    def test_every_class_sourced_and_ranged(self, corpus_covers):
        for name, cover in corpus_covers:
            for i in range(cover.class_count):
                assert cover.out_edges(i), name
                assert cover.in_edges(i), name

    def test_past_refinement_is_stable(self, corpus_covers):
        # refining by one more letter of past data beyond the
        # stabilization level changes nothing
        for name, cover in corpus_covers:
            sg = transition_semigroup(cover.graph)
            level = stabilization_level(cover)
            full = frozenset(frozenset(b) for b in cover.class_sets)
            realized = [c for b in cover.class_sets for c in b]
            for extra in (level, level + 1):
                groups = {}
                idxs = [i for i in range(len(sg.relations))
                        if sg.depth[i] <= extra]
                for c in realized:
                    mask = sum(1 << v for v in c)
                    sig = tuple(
                        bool(sg.relations[i].range_mask() & mask)
                        for i in idxs)
                    groups.setdefault(sig, set()).add(c)
                assert frozenset(frozenset(v)
                                 for v in groups.values()) == full, name


class TestEdgeMatrix:
    def test_even_matches_published_matrix(self, even_cover):
        b = edge_matrix(even_cover).as_lists()
        assert permutation_equivalent(b, EVEN_PUBLISHED_MATRIX)

    def test_full_two_shift(self):
        b = edge_matrix(build_cover(make_full(2))).as_lists()
        assert b == [[1, 1], [1, 1]]

    def test_single_loop(self):
        b = edge_matrix(build_cover(make_full(1))).as_lists()
        assert b == [[1]]

    def test_twins_match_even(self, even_cover):
        twins = edge_matrix(build_cover(make_twins())).as_lists()
        assert permutation_equivalent(twins,
                                      edge_matrix(even_cover).as_lists())

    def test_no_zero_rows_or_columns(self, corpus_covers):
        for name, cover in corpus_covers:
            b = edge_matrix(cover).as_lists()
            assert all(any(row) for row in b), name
            assert all(any(row[j] for row in b)
                       for j in range(len(b))), name


def reference_zero_line(edges):
    """Slow reference for ``edge_matrix``'s validation: the message for
    the first zero row, else the first zero column, of the full edge
    matrix, or None."""
    entries = [[1 if e.dst == f.src else 0 for f in edges] for e in edges]
    for i, row in enumerate(entries):
        if not any(row):
            return f"zero row for edge {edges[i]}"
    for j in range(len(edges)):
        if not any(row[j] for row in entries):
            return f"zero column for edge {edges[j]}"
    return None


class TestEdgeMatrixValidation:
    def test_class_without_out_edges(self, even_cover):
        # dropping the only edge out of class 1 zeroes the row of the
        # edge into it
        edges = tuple(e for e in even_cover.edges if e.src != 1)
        bad = dataclasses.replace(even_cover, edges=edges)
        with pytest.raises(CoverInvariantError,
                           match=re.escape("zero row for edge Edge(src=0, "
                                           "dst=1, label=0)")):
            edge_matrix(bad)

    def test_class_without_in_edges(self, even_cover):
        # dropping the only edge into class 1 zeroes the column of the
        # edge out of it
        edges = tuple(e for e in even_cover.edges if e.dst != 1)
        bad = dataclasses.replace(even_cover, edges=edges)
        with pytest.raises(CoverInvariantError,
                           match=re.escape("zero column for edge Edge("
                                           "src=1, dst=0, label=0)")):
            edge_matrix(bad)

    def test_first_offending_edge_matches_reference(self):
        for name, g in random_presentations(seed=313):
            cover = build_cover(g)
            assert reference_zero_line(cover.edges) is None, name
            for c in range(cover.class_count):
                for keep in (lambda e: e.src != c, lambda e: e.dst != c):
                    edges = tuple(e for e in cover.edges if keep(e))
                    want = reference_zero_line(edges)
                    bad = dataclasses.replace(cover, edges=edges)
                    if want is None:
                        b = edge_matrix(bad)
                        assert b.edges == edges, name
                        assert k_groups(bad) == k_groups(b), name
                        continue
                    # the cover route of k_groups runs the same checks
                    for route in (edge_matrix, k_groups):
                        with pytest.raises(CoverInvariantError) as err:
                            route(bad)
                        assert str(err.value) == want, name


class TestUniqueLabeledPath:
    def test_single_letter_into_last_class(self, even_cover):
        path = unique_labeled_path(even_cover, (1,), 2)
        assert path is not None
        assert [(e.src, e.dst, e.label) for e in path] == [(0, 2, 1)]

    def test_missing_path(self, even_cover):
        assert unique_labeled_path(even_cover, (1, 0), 0) is None

    def test_two_step_walk(self, even_cover):
        path = unique_labeled_path(even_cover, (0, 1), 2)
        assert path is not None
        assert [(e.src, e.dst, e.label) for e in path] == \
            [(1, 0, 0), (0, 2, 1)]

    def test_empty_word_rejected(self, even_cover):
        with pytest.raises(ValueError):
            unique_labeled_path(even_cover, (), 0)

    def test_path_existence_matches_prepend_iteration(self, corpus_covers):
        # unique-path existence and its source class agree with the
        # letter-by-letter prepend map on survivor sets
        for name, cover in corpus_covers:
            g = cover.graph
            reps = [min(b, key=lambda c: (len(c), tuple(sorted(c))))
                    for b in cover.class_sets]
            letters = range(len(g.alphabet))
            for k in range(1, 5):
                for w in itertools.product(letters, repeat=k):
                    for i, rep in enumerate(reps):
                        mask = pre_word_mask(g, w,
                                             sum(1 << v for v in rep))
                        path = unique_labeled_path(cover, w, i)
                        assert bool(mask) == (path is not None), (name, w)
                        if path is not None:
                            assert cover.realized[mask] == path[0].src


class TestDot:
    def test_even_dot_output(self, even_cover):
        dot = cover_to_dot(even_cover)
        assert dot.startswith("digraph krieger_cover {")
        assert '"E1" -> "E2" [label="0"];' in dot
        assert dot.count("->") == 5

    def test_deterministic(self, even_cover):
        assert cover_to_dot(even_cover) == cover_to_dot(even_cover)
