"""Survivor sets, past equivalence, and the left Krieger cover with
its edge matrix.

The central objects:

* the survivor set I(x) of a ray x, the vertices of a right-resolving
  essential presentation that emit x;
* the candidate survivor sets (V closed under nonempty letter
  preimages) and their preimage table (the candidate pre_a D per
  candidate D and letter a, by index), on which ``build_cover``
  decides the realized survivor sets: the survivor sets of the
  periods of length 1 and 2 and everything they reach by preimages
  are realized, and the pair graph of vertex sets, explored only from
  the candidates left open, decides the rest;
* the class representatives, built on first read: short rays found on
  the candidate preimage table, the others by walks of the pair graph
  explored from their classes' canonical sets;
* the past-equivalence partition of the realized survivor sets, by
  Moore refinement, whose blocks are the left Krieger cover's vertices;
  a letter sends all the sets of one block into one block, so the
  cover's prepend table maps classes to classes, and its entries are
  the cover's edges;
* the cover's edge matrix B, indexed by cover edges in canonical
  order, with B(e, f) = 1 exactly when the range of e is the source
  of f.

The transition semigroup and the brute-force ray enumeration, which
only the oracle and the tests read, live in :mod:`soficshift.semigroup`;
their names stay reachable from this module and load on first use.

Everything is exact and finite.  A vertex set is an int bitmask over
the presentation's vertices everywhere from the pair graph to the
cover's table of realized sets (``KriegerCover.realized``); the
checks of :mod:`soficshift.isocheck` read the class-indexed
``KriegerCover.prepend``.  Frozensets of vertex indices appear only
at the public boundary: :func:`survivor_set`,
:func:`realized_survivor_sets`, :func:`past_partition` and the views
``KriegerCover.class_sets`` and ``canonical_sets``.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping

from .automata import make_right_resolving, trim_essential
from .errors import (AmbiguousLabelError, CoverInvariantError,
                     ResourceLimitError)
from .shiftcore import (EPSILON, Alphabet, Edge, LabeledGraph, Ray, Word,
                        require_essential)

if TYPE_CHECKING:
    from .semigroup import TransitionSemigroup

# The names of ``semigroup`` that this module used to define: they stay
# reachable here and import that module on first use.
_SEMIGROUP_NAMES = frozenset({
    "DEFAULT_SEMIGROUP_CAP", "SEMIGROUP_ROW_CAP", "TransitionRelation",
    "TransitionSemigroup", "transition_semigroup",
    "realized_survivor_sets_bruteforce"})

# Cap on the stored pair states times vertices, candidates included,
# in each exploration: the candidate listing, the realized decision and
# the representative search.
PAIR_STATE_CAP = 2 ** 24

_REPRESENTATIVE_SEARCH_CAP = 4


def __getattr__(name: str):
    if name in _SEMIGROUP_NAMES:
        from . import semigroup
        return getattr(semigroup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _bits(mask: int) -> Iterator[int]:
    # the set bits of a mask, least first
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _pull_back(g: LabeledGraph, word: Word, mask: int) -> int:
    # starts of paths labeled ``word`` ending in ``mask``
    for a in reversed(word):
        mask = g.predecessors(a, mask)
        if not mask:
            return 0
    return mask


def _period_fixpoint(g: LabeledGraph, period: Word) -> int:
    # greatest fixed point of C -> pre_v(C), from the full vertex set
    cur = g.full_mask()
    while True:
        nxt = _pull_back(g, period, cur)
        if nxt == cur:
            return cur
        cur = nxt


def _survivor_mask(g: LabeledGraph, ray: Ray) -> int:
    return _pull_back(g, ray.preperiod, _period_fixpoint(g, ray.period))


def survivor_set(g: LabeledGraph, ray: Ray) -> frozenset[int]:
    """The vertices of ``g`` that emit the ray u v v v ...

    Computed as the greatest fixed point of the period's backward
    predecessor map (downward iteration from the full vertex set),
    pulled back through the preperiod.  The empty set means the ray is
    not in the shift.

    Examples
    --------
    >>> from .shiftcore import parse_presentation
    >>> g = parse_presentation(
    ...     "alphabet 0 1\\nvertex a\\nvertex b\\n"
    ...     "edge a a 1\\nedge a b 0\\nedge b a 0\\n")
    >>> sorted(survivor_set(g, Ray((), (0,))))
    [0, 1]
    >>> sorted(survivor_set(g, Ray((1,), (0,))))
    [0]
    """
    require_essential(g)
    return _mask_to_set(_survivor_mask(g, ray))


def _check_stored(j: int, n: int, stage: str) -> None:
    # the pair-state cap, met when the state or candidate j is stored
    if (j + 1) * n > PAIR_STATE_CAP:
        raise ResourceLimitError(
            f"pair graph exceeds {PAIR_STATE_CAP} stored vertices: {j} "
            f"pair states of {n} vertices each are stored ({stage})")


def _candidates(g: LabeledGraph) -> tuple[tuple[int, ...], array]:
    # The candidate survivor sets: V closed under nonempty letter
    # preimages, V at index 0.  The candidate preimage table
    # pre[i * k + a] is the index of the candidate pre_a D for the
    # candidate D at index i, or -1 if that is empty.  Each candidate
    # counts as one pair state (D, V∖D) towards the cap.
    n, letters = g.vertex_count, list(g.alphabet)
    cands = [g.full_mask()]
    index = {cands[0]: 0}
    pre = array("q")
    for d in cands:  # reads cands as it grows
        for a in letters:
            p = g.predecessors(a, d)
            j = index.setdefault(p, len(cands)) if p else -1
            if j == len(cands):
                _check_stored(j, n, "candidates")
                cands.append(p)
            pre.append(j)
    return tuple(cands), pre


def _pair_graph(g: LabeledGraph, roots: Iterable[int], held: int,
                stage: str) -> tuple[list[int], array, bytearray]:
    # States (P, Q) of disjoint vertex sets, as P << n | Q, explored from
    # the distinct roots, which take the first indices.  The move
    # (P, Q) -a-> (δ_a P, δ_a Q), step[i * k + a] (-1 if barred), needs
    # every track from P to survive a and none from Q to merge into one.
    # A state is good when it reaches a (P', ∅) whose P' can move
    # forever; that depends only on the states it reaches, so it is
    # exact from any roots.  A candidate D is realized iff (D, V∖D) is
    # good.  The cap counts the ``held`` candidates as stored states.
    n, full, letters = g.vertex_count, g.full_mask(), list(g.alphabet)
    states: list[int] = []
    index: dict[int, int] = {}
    for s in roots:
        _check_stored(held + len(states), n, stage)
        index[s] = len(states)
        states.append(s)
    doms = [g.predecessors(a, full) for a in letters]
    successors = g.successors
    step = array("q")
    for s in states:  # reads states as it grows
        p, q = s >> n, s & full
        for a in letters:
            j = -1
            if not p & ~doms[a]:
                p2, q2 = successors(a, p), successors(a, q)
                if not p2 & q2:
                    s2 = p2 << n | q2
                    # the index of s2, stored when first met if the cap
                    # allows
                    j = index.setdefault(s2, len(states))
                    if j == len(states):
                        _check_stored(held + j, n, stage)
                        states.append(s2)
            step.append(j)

    # reverse moves in flat buffers (a list per state would fragment the
    # heap and raise the peak resident set): into j from
    # preds[first[j]:first[j + 1]]
    m, k = len(states), len(letters)
    first = array("q", bytes(8 * (m + 1)))
    for j in step:
        if j >= 0:
            first[j + 1] += 1
    for j in range(m):
        first[j + 1] += first[j]
    preds, fill = array("q", bytes(8 * first[m])), first[:m]
    for t, j in enumerate(step):
        if j >= 0:
            preds[fill[j]] = t // k
            fill[j] += 1

    # a state (P, ∅) moves only to such states; it dies once every move
    # leads to a dead one (reverse-edge counting, as in trimming)
    count = [k - step[i * k:i * k + k].count(-1) for i in range(m)]
    good = bytearray(not s & full for s in states)
    dead = [i for i in range(m) if good[i] and not count[i]]
    while dead:
        j = dead.pop()
        good[j] = 0
        for i in preds[first[j]:first[j + 1]]:
            count[i] -= 1
            if not count[i] and good[i]:
                dead.append(i)
    stack = [i for i in range(m) if good[i]]
    while stack:
        j = stack.pop()
        for i in preds[first[j]:first[j + 1]]:
            if not good[i]:
                good[i] = 1
                stack.append(i)
    return states, step, good


def _roots(g: LabeledGraph, masks: Iterable[int]) -> Iterator[int]:
    # the pair states (D, V∖D) of the sets D
    n, full = g.vertex_count, g.full_mask()
    return (d << n | full ^ d for d in masks)


def _pre_walk(pre: array, k: int, word: Word, i: int) -> int:
    # the index of the candidate pre_word D for the candidate D at index
    # i of the preimage table (-1: empty)
    for a in reversed(word):
        if i < 0:
            return i
        i = pre[i * k + a]
    return i


def _pre_fixpoint(pre: array, k: int, period: Word) -> int:
    # _period_fixpoint by candidate index, from candidate 0 (V); the
    # sets only shrink, so once one is empty (-1) so is the fixpoint
    backward, cur = period[::-1], 0
    while True:
        nxt = cur
        for a in backward:
            nxt = pre[nxt * k + a]
            if nxt < 0:
                return nxt
        if nxt == cur:
            return cur
        cur = nxt


def _realized_masks(g: LabeledGraph, cands: tuple[int, ...],
                    pre: array) -> list[int]:
    # The realized candidates, in candidate order.  Fix(v), the survivor
    # set of v v v ..., is realized, and so is every nonempty letter
    # preimage of a realized set, since I(ax) = pre_a I(x).  So the
    # closure under ``pre`` of the fixpoints of the periods of length 1
    # and 2 holds only realized sets; the pair graph decides the rest.
    k = len(g.alphabet)
    realized = bytearray(len(cands))
    stack: list[int] = []
    for length in (1, 2):
        for v in itertools.product(range(k), repeat=length):
            j = _pre_fixpoint(pre, k, v)
            if j >= 0 and not realized[j]:
                realized[j] = 1
                stack.append(j)
    while stack:
        i = stack.pop()
        for j in pre[i * k:i * k + k]:
            if j >= 0 and not realized[j]:
                realized[j] = 1
                stack.append(j)
    undecided = [i for i, r in enumerate(realized) if not r]
    good = _pair_graph(g, _roots(g, (cands[i] for i in undecided)),
                       len(cands), "realized sets")[2]
    for r, i in enumerate(undecided):  # the roots take the first indices
        realized[i] = good[r]
    return list(itertools.compress(cands, realized))


def realized_survivor_sets(
    g: LabeledGraph,
    sg: TransitionSemigroup | None = None,
) -> tuple[frozenset[frozenset[int]],
           dict[tuple[int, frozenset[int]], frozenset[int]]]:
    """All survivor sets of rays of the shift, with the letter-prepend
    map.

    Returns the family { I(x) : x in the shift space } together with a
    map sending (letter j, survivor set C) to the survivor set of j x
    for x with I(x) = C; pairs whose prepend is empty (j y never in
    the shift) are absent from the map.

    Every survivor set is a candidate: the vertex set V or a nonempty
    letter preimage of a candidate.  Most realized candidates are found
    without search: the survivor set of v v v ... for every period v of
    length 1 or 2 is realized, and the family is closed under nonempty
    letter preimages.  The candidates this closure leaves open are
    decided over pairs of vertex sets, since naively chaining vertex
    subsets backwards overgenerates (a strict subset of a true survivor
    set can satisfy the chain condition): D is realized exactly when
    some ray keeps every track from D alive while every track from V∖D
    dies without merging into one of them.  A move follows each track
    only when every vertex has at most one edge per letter, so ``g``
    must be right-resolving as well as essential.  ``build_cover`` takes
    the same route.  The map is read from the family's prepend table.
    ``sg`` is not read.

    Raises
    ------
    ValueError
        If ``g`` is not essential or not right-resolving.
    ResourceLimitError
        Past ``PAIR_STATE_CAP`` pair states times vertices.
    """
    require_essential(g)
    if not g.is_right_resolving():
        raise ValueError("realized survivor sets require a right-resolving "
                         "presentation")
    family = _realized_masks(g, *_candidates(g))
    table = _prepend_table(g, family)
    sets = [_mask_to_set(mask) for mask in family]
    pre = {(a, c): sets[row[k]] for k, c in enumerate(sets)
           for a, row in zip(g.alphabet, table) if row[k] >= 0}
    return frozenset(sets), pre


def _prepend_table(g: LabeledGraph,
                   family: list[int]) -> tuple[tuple[int, ...], ...]:
    # per letter, per set of the family, the position in the family of
    # its letter preimage, or -1 if that is empty
    pos = {mask: k for k, mask in enumerate(family)}
    pos[0] = -1
    table: list[list[int]] = [[] for _ in g.alphabet]
    for mask in family:
        for a, row in zip(g.alphabet, table):
            p = g.predecessors(a, mask)
            if p not in pos:
                raise CoverInvariantError(
                    f"preimage of {list(_bits(mask))} under letter {a} "
                    f"is not in the family")
            row.append(pos[p])
    return tuple(map(tuple, table))


def _moore_refinement(prepend: tuple[tuple[int, ...], ...],
                      n: int) -> tuple[list[int], int]:
    # Moore refinement of n sets under the letter preimages of a
    # prepend table: after round k two sets share a label iff the same
    # words of length at most k have a path ending in each.  Returns
    # the labels, numbered in order of first appearance, and the
    # splitting rounds.
    label, blocks, rounds = [0] * n + [-1], min(1, n), 0
    while True:
        # the key of set k: its label, then its preimages' labels by
        # letter, built a letter column at a time
        keys = zip(label[:n], *(map(label.__getitem__, row)
                                for row in prepend))
        ids: dict[tuple[int, ...], int] = {}
        nxt = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) == blocks:
            return label[:n], rounds
        label, blocks, rounds = nxt + [-1], len(ids), rounds + 1


def _class_tables(g: LabeledGraph, masks: Iterable[int]
                  ) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
    # ``realized`` and ``prepend`` of KriegerCover for the sets masks.
    # Sorted canonically (cardinality, then sorted indices), the Moore
    # labels are the classes in canonical order, so the sets that first
    # show each label, the canonical sets, come first and in class
    # order.  Each letter must send all the sets of a class into one
    # class, or all to the empty set.
    family = sorted(masks, key=lambda m: (m.bit_count(), list(_bits(m))))
    table = _prepend_table(g, family)
    labels = _moore_refinement(table, len(family))[0]
    realized: dict[int, int] = {}
    for mask, i in zip(family, labels):
        if i == len(realized):
            realized[mask] = i
    realized.update(zip(family, labels))
    of = labels + [-1]
    prepend = []
    for a, row in zip(g.alphabet, table):
        moves = set(zip(labels, map(of.__getitem__, row)))
        into = dict(moves)
        if len(into) < len(moves):
            raise CoverInvariantError(
                f"letter {a} acts inconsistently on class "
                f"{min(i for i, p in moves if into[i] != p) + 1}")
        prepend.append(tuple(map(into.__getitem__, range(len(into)))))
    return realized, tuple(prepend)


def _class_blocks(realized: Mapping[int, int]
                  ) -> list[frozenset[frozenset[int]]]:
    # per class, in class order, its sets as frozensets
    blocks: dict[int, list[frozenset[int]]] = {}
    for mask, i in realized.items():
        blocks.setdefault(i, []).append(_mask_to_set(mask))
    return [frozenset(blocks[i]) for i in range(len(blocks))]


def past_partition(
    g: LabeledGraph,
    realized: Collection[frozenset[int]],
    sg: TransitionSemigroup | None = None,
) -> list[frozenset[frozenset[int]]]:
    """Partition the realized survivor sets by past equivalence.

    Two survivor sets are equivalent when the same words have a path
    ending in each.  Decided by Moore refinement under the nonempty
    letter preimages, under which ``realized`` must be closed; ``sg``
    is not read.  The classes are built as in ``build_cover``, so the
    blocks come in canonical order of their least set (cardinality,
    then sorted indices), as ``KriegerCover.class_sets`` does.

    Raises
    ------
    CoverInvariantError
        If a nonempty letter preimage falls outside ``realized``.
    """
    masks = {sum(1 << v for v in c) for c in realized}
    return _class_blocks(_class_tables(g, masks)[0])


class CoverIndex:
    """Adjacency of one tuple of cover edges over ``class_count``
    classes, each group in edge order.

    ``split_masks[i]``, the only out-edge table, holds class i's
    out-split as (letter, bitmask of the ranges of its edges with that
    letter) pairs in letter order, so repeated edges share a bit;
    classes without out-edges are absent.

    ``sources[a]`` holds the in-edges labeled a, once each, as source
    tables, one per rank r: entry j of table r is the source of the
    r-th edge labeled a into class j, in edge order, or -1 if there are
    fewer.  Letters without edges are absent.  ``left_resolving`` tells
    whether every letter has one table, that is whether no two edges
    with one label enter one class; there a letter step of a set of
    classes is a gather: class j is reached exactly when its entry is
    in the set.  ``gathers[a]`` holds the same tables as
    ``operator.itemgetter`` objects over the binary string of a class
    mask, ``class_count`` digits with a "0" appended: position
    ``class_count - 1 - j`` holds class j, and a missing source reads
    the appended "0".  The word scan of :mod:`soficshift.isocheck` and
    the clopen engine of :mod:`soficshift.diagonal` step by them.

    ``refine_memo`` and ``merge_memo`` are the clopen engine's memos
    keyed by class bitmasks (see :mod:`soficshift.diagonal`); they live
    here so that nothing outlives the cover.
    """

    __slots__ = ("class_count", "left_resolving", "split_masks",
                 "sources", "gathers", "refine_memo", "merge_memo")

    def __init__(self, edges: Iterable[Edge], class_count: int):
        m = self.class_count = class_count
        splits: dict[int, dict[int, int]] = {}
        tables: dict[int, list[list[int]]] = {}
        for e in edges:
            split = splits.setdefault(e.src, {})
            split[e.label] = split.get(e.label, 0) | 1 << e.dst
            ranks = tables.setdefault(e.label, [])
            r = sum(t[e.dst] >= 0 for t in ranks)  # ranks fill in order
            if r == len(ranks):
                ranks.append([-1] * m)
            ranks[r][e.dst] = e.src
        self.split_masks = {i: tuple(sorted(split.items()))
                            for i, split in splits.items()}
        self.sources = {a: tuple(map(tuple, tables[a]))
                        for a in sorted(tables)}
        self.left_resolving = all(len(ts) == 1
                                  for ts in self.sources.values())
        self.gathers = {
            a: tuple(itemgetter(*(m - 1 - s if s >= 0 else m
                                  for s in reversed(t))) for t in ts)
            for a, ts in self.sources.items()}
        self.refine_memo: dict[int, tuple[tuple[int, int], ...]] = {}
        self.merge_memo: dict[tuple[tuple[int, int], ...], int | None] = {}

    def edge_into(self, dst: int, label: int) -> Edge | None:
        """The edge labeled ``label`` into class ``dst``, or None, also
        for a ``dst`` outside ``0 .. class_count - 1``.

        Raises
        ------
        AmbiguousLabelError
            If there are two, which only corrupted covers exhibit.
        """
        tables = self.sources.get(label, ())
        if not (tables and 0 <= dst < self.class_count
                and tables[0][dst] >= 0):
            return None
        if len(tables) > 1 and tables[1][dst] >= 0:
            raise AmbiguousLabelError(
                f"two edges labeled {label} into class {dst + 1}")
        return Edge(tables[0][dst], dst, label)


@dataclass(frozen=True)
class KriegerCover:
    """The left Krieger cover of a sofic shift.

    Vertices are the ``class_count`` past-equivalence classes,
    numbered from 0 in canonical order.  Edges are sorted by (source,
    range, label) and the graph is left-resolving: no two edges with
    the same label enter the same class.

    Vertex sets are bitmasks over the vertices of ``graph``.
    ``realized`` maps each realized survivor set to its class, class
    i's canonical set (its least set by cardinality, then sorted
    indices) at position i.  ``prepend[a][i]`` is the class of the
    preimages under letter a of class i's sets, or -1 if they are
    empty: past equivalence makes that one class for all of them, and
    the edges are the table's entries, one edge labeled a from
    ``prepend[a][i]`` to i for each entry that is not -1.
    ``class_sets`` and ``canonical_sets`` are read-only views of the
    same sets as frozensets of vertex indices, for callers outside the
    package; no code in the package reads them.  ``candidates`` and
    ``candidate_pre`` are the candidate survivor sets (V first, then
    the nonempty letter preimages, realized or not) and their preimage
    table: ``candidate_pre[i * k + a]`` is the index of the preimage
    under letter a of candidate i over k letters, or -1 if that is
    empty.  Only ``representatives`` reads them.

    ``representatives``, ``index`` (a :class:`CoverIndex` of ``edges``,
    each edge once per direction) and ``range_witnesses`` are built on
    first use and kept on this instance; a cover made by
    :meth:`with_edges` or ``dataclasses.replace`` is a new instance and
    builds its own.
    """

    graph: LabeledGraph
    class_count: int
    edges: tuple[Edge, ...]
    realized: Mapping[int, int] = field(repr=False)
    prepend: tuple[tuple[int, ...], ...] = field(repr=False)
    candidates: tuple[int, ...] = field(repr=False)
    candidate_pre: array = field(repr=False)

    @property
    def alphabet(self) -> Alphabet:
        return self.graph.alphabet

    @cached_property
    def representatives(self) -> tuple[Ray, ...]:
        """Per class, one ultimately periodic ray in it: the first short
        ray whose survivor set lies in the class, else a walk in the
        pair graph from the class's canonical set.

        Raises
        ------
        ResourceLimitError
            Past ``PAIR_STATE_CAP`` pair states times vertices in the
            walk's pair graph.
        """
        return _class_representatives(self.graph, self.realized,
                                      self.class_count, self.candidates,
                                      self.candidate_pre)

    @cached_property
    def index(self) -> CoverIndex:
        """The adjacency index of ``edges``."""
        return CoverIndex(self.edges, self.class_count)

    @property
    def class_sets(self) -> tuple[frozenset[frozenset[int]], ...]:
        """Per class, its realized survivor sets."""
        return tuple(_class_blocks(self.realized))

    @property
    def canonical_sets(self) -> tuple[frozenset[int], ...]:
        """Per class, its least survivor set: fewest vertices, then
        least sorted indices."""
        return tuple(map(_mask_to_set, itertools.islice(self.realized,
                                                        self.class_count)))

    @cached_property
    def range_witnesses(self) -> Mapping[int, Word]:
        """Each distinct set of classes met by the range of a word (the
        ends of its paths), as a bitmask over class indices, mapped to
        its shortest, then lexicographically least, witness word, in
        that order.

        A class is met when the range meets its canonical survivor set,
        so this is the set of classes the word can precede.  Empty
        ranges are left out.  Found by a breadth-first search over the
        ranges from the full vertex set, letters in order; a range's
        classes are the union, over its vertices, of the classes whose
        canonical sets hold the vertex.  By past equivalence the classes
        of the range of w a depend only on those of w and on a, so only
        a range whose classes are new is expanded: the search takes at
        most one step per key and letter, where the distinct ranges can
        be exponentially many.
        """
        g = self.graph
        of_vertex = [0] * len(g.vertex_names)
        for c, m in enumerate(itertools.islice(self.realized,
                                               self.class_count)):
            for v in _bits(m):
                of_vertex[v] |= 1 << c
        best: dict[int, Word] = {}
        queue = deque([(g.full_mask(), EPSILON)])
        while queue:
            rng, w = queue.popleft()
            classes = 0
            for v in _bits(rng):
                classes |= of_vertex[v]
            if classes in best:
                continue
            best[classes] = w
            for a in g.alphabet:
                nxt = g.successors(a, rng)
                if nxt:
                    queue.append((nxt, w + (a,)))
        return MappingProxyType(best)

    def class_of_ray(self, ray: Ray) -> int | None:
        """The class containing the ray, or None if it is not in the
        shift."""
        return self.realized.get(_survivor_mask(self.graph, ray))

    def out_edges(self, i: int) -> list[Edge]:
        return [e for e in self.edges if e.src == i]

    def in_edges(self, i: int) -> list[Edge]:
        return [e for e in self.edges if e.dst == i]

    def is_left_resolving(self) -> bool:
        return self.index.left_resolving

    def with_edges(self, edges) -> "KriegerCover":
        """Copy with a replaced edge tuple, skipping validation.

        Testing hook for building deliberately corrupted covers; the
        verification checks are expected to flag the damage.
        """
        return replace(self, edges=tuple(sorted(
            edges, key=lambda e: (e.src, e.dst, e.label))))


def _short_rays(pre: array, k: int) -> Iterator[tuple[Word, Word, int]]:
    # (preperiod, period, the period's fixpoint index) ordered by total
    # length, then preperiod length, then lexicographically, up to
    # _REPRESENTATIVE_SEARCH_CAP.  Of the periods of one length with one
    # fixpoint only the least is taken: the others add no survivor set.
    letters = range(k)
    firsts: list[list[tuple[int, Word]]] = [[]]
    for total in range(1, _REPRESENTATIVE_SEARCH_CAP + 1):
        least: dict[int, Word] = {}
        for v in itertools.product(letters, repeat=total):
            fix = _pre_fixpoint(pre, k, v)
            if fix not in least:
                least[fix] = v
                yield (), v, fix
        firsts.append(list(least.items()))
        for lu in range(1, total):
            for u in itertools.product(letters, repeat=lu):
                for fix, v in firsts[total - lu]:
                    yield u, v, fix


def _class_representatives(g: LabeledGraph, realized: Mapping[int, int],
                           count: int, cands: tuple[int, ...],
                           pre: array) -> tuple[Ray, ...]:
    # Per class of ``realized`` (whose first ``count`` sets are the
    # canonical ones), the first short ray in the order of _short_rays
    # whose survivor set lies in it, found on the candidate preimage
    # table.  Otherwise, in the pair graph from the states (D, V∖D) of
    # the remaining classes' canonical sets D, the breadth-first least
    # word from (D, V∖D) to a good (P', ∅), then the least letter that
    # keeps P' good, until a set repeats.
    letters = list(g.alphabet)
    full, k = g.full_mask(), len(letters)
    reps: list[Ray | None] = [None] * count
    missing = count
    # the class of each candidate, None if it is not realized; the
    # trailing None is the class of index -1, the empty set
    cls = [realized.get(d) for d in cands]
    cls.append(None)
    for u, v, fix in _short_rays(pre, k):
        b = cls[_pre_walk(pre, k, u, fix)]
        if b is not None and reps[b] is None:
            reps[b] = Ray(u, v)
            missing -= 1
            if not missing:
                break

    canonical = list(itertools.islice(realized, count))
    left = [b for b in range(count) if reps[b] is None]
    states, step, good = _pair_graph(
        g, _roots(g, (canonical[b] for b in left)), len(cands),
        "representatives")
    for cur, b in enumerate(left):  # the roots take the first indices
        words, queue = {cur: EPSILON}, deque([cur])
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
        reps[b] = Ray(u + tuple(seq[:seen[cur]]), tuple(seq[seen[cur]:]))
    return tuple(reps)


def build_cover(g: LabeledGraph) -> KriegerCover:
    """Construct the left Krieger cover of the shift presented by g.

    The input is conditioned internally (trimmed to its essential part
    and determinized forward).  The realized survivor sets are found as
    in :func:`realized_survivor_sets`: the closure of the periodic
    survivor sets under letter preimages, then the pair graph from the
    candidates the closure leaves open.  Cover vertices are the blocks
    of the past partition; for each class i and each letter j that can
    be prepended to the class there is one edge labeled j from the
    class containing the prepended rays to i.  The representatives are
    built when first read.

    Raises
    ------
    ResourceLimitError
        Past ``PAIR_STATE_CAP`` pair states times vertices.
    CoverInvariantError
        If prepend nonemptiness or the target block differs across
        members of one block; this cannot happen for a correct
        implementation and indicates a bug.
    """
    g = make_right_resolving(trim_essential(g))
    cands, pre = _candidates(g)
    realized, prepend = _class_tables(g, _realized_masks(g, cands, pre))
    # one edge per (class, letter) entry of the table: left-resolving
    edges = [Edge(p, i, a) for a, row in zip(g.alphabet, prepend)
             for i, p in enumerate(row) if p >= 0]
    count = len(prepend[0])
    has_out = {e.src for e in edges}
    has_in = {e.dst for e in edges}
    for i in range(count):
        if i not in has_out or i not in has_in:
            raise CoverInvariantError(f"class {i + 1} is stranded")
    return KriegerCover(g, count, tuple(sorted(
        edges, key=lambda e: (e.src, e.dst, e.label))), realized, prepend,
        cands, pre)


def stabilization_level(cover: KriegerCover) -> int:
    """The smallest l at which length-(at most l) past data already
    separates the past-equivalence classes: the number of rounds of
    :func:`past_partition`'s Moore refinement that split a block.
    Counted on the class-indexed prepend table: each round's partition
    of the sets is the pullback of that round's partition of the
    classes, so the same rounds split a block.
    """
    return _moore_refinement(cover.prepend, cover.class_count)[1]


@dataclass(frozen=True)
class EdgeMatrix:
    """The 0/1 matrix over cover edges in canonical order."""

    entries: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def entered_classes(edges: tuple[Edge, ...]) -> list[int]:
    """The classes that some edge enters, in order of the first edge
    into each: the states of the edge matrix's in-amalgamation, since
    the row of an edge depends only on its range.

    Raises
    ------
    CoverInvariantError
        On a zero row or column of the edge matrix, which a valid cover
        never produces: the row of e is zero iff no edge leaves e.dst,
        the column of f iff no edge enters f.src.
    """
    has_out = {e.src for e in edges}
    entered = list(dict.fromkeys(e.dst for e in edges))
    for e in edges:
        if e.dst not in has_out:
            raise CoverInvariantError(f"zero row for edge {e}")
    has_in = set(entered)
    for f in edges:
        if f.src not in has_in:
            raise CoverInvariantError(f"zero column for edge {f}")
    return entered


def edge_matrix(cover: KriegerCover) -> EdgeMatrix:
    """B(e, f) = 1 iff the range of e is the source of f.

    Raises
    ------
    CoverInvariantError
        On a zero row or column (:func:`entered_classes`).
    """
    es = cover.edges
    # the row of e depends only on e.dst, so one is built per class
    rows = {i: tuple(1 if i == f.src else 0 for f in es)
            for i in entered_classes(es)}
    return EdgeMatrix(tuple(rows[e.dst] for e in es), es)


def unique_labeled_path(cover: KriegerCover, word: Word,
                        target: int) -> tuple[Edge, ...] | None:
    """The unique cover path labeled ``word`` ending at class
    ``target``, or None if there is none, as for a ``target`` that is
    not a class.

    Found by walking backward from the target through the cover's
    index; left-resolving uniqueness makes each backward step
    deterministic.

    Raises
    ------
    AmbiguousLabelError
        If two candidate edges share a label into one vertex, which
        only corrupted covers exhibit.
    """
    if not word:
        raise ValueError("word must be nonempty")
    edge_into = cover.index.edge_into
    path: list[Edge] = []
    cur = target
    for a in reversed(word):
        e = edge_into(cur, a)
        if e is None:
            return None
        path.append(e)
        cur = e.src
    return tuple(reversed(path))


def cover_to_dot(cover: KriegerCover) -> str:
    """Graphviz DOT rendering: one node per class, one edge per cover
    edge with its label; deterministic ordering."""
    lines = ["digraph krieger_cover {"]
    for i in range(cover.class_count):
        lines.append(f'  "E{i + 1}";')
    for e in cover.edges:
        label = cover.alphabet.tokens[e.label].replace(
            "\\", "\\\\").replace('"', '\\"')
        lines.append(f'  "E{e.src + 1}" -> "E{e.dst + 1}" '
                     f'[label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
