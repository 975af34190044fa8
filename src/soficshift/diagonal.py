"""Exact clopen-set model of the commutative diagonal algebras.

Indicator functions on the one-sided shift space are represented by
finite unions of marked cylinders w·E_i, the rays that start with the
word w and whose tail after w lies in past-equivalence class i.  Cells
of equal depth (word length) are pairwise disjoint, every cell splits
along the out-edges of its class, and two unions are equal exactly
when their refinements to a common depth coincide, which makes every
set identity decidable.

The noncommutative generators of the ambient algebra act on this
model through :func:`conj_by_letter` (conjugation by a letter's
partial isometry) and :func:`post_image` (the support of the letter's
co-range projection); nothing noncommutative is ever represented
directly.

Every step through the cover reads the cover's adjacency index
(:class:`~soficshift.krieger.CoverIndex`: out-edges, out-splits and
edges by range and label), built once per cover instance on first use,
so no operation scans the edge tuple.  A cover made by ``with_edges``
or ``dataclasses.replace`` builds its own index.

Examples
--------
The even shift's cover has three classes: the rays 1 1 1 ..., 0 1 1
1 ... and 0 0 0 ... represent them.  A 1 cannot precede the second
class, whose rays begin with an odd run of 0s, while 1 0 can precede
only the second and the third:

>>> from .krieger import build_cover
>>> from .shiftcore import parse_presentation
>>> cover = build_cover(parse_presentation(
...     "alphabet 0 1\\nvertex a\\nvertex b\\n"
...     "edge a a 1\\nedge a b 0\\nedge b a 0\\n"))
>>> sorted(word_classes(cover, (1,)))
[0, 2]
>>> sorted(word_classes(cover, (1, 0)))
[1, 2]
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .krieger import KriegerCover
from .shiftcore import EPSILON, Word

Cell = tuple[Word, int]


def word_classes(cover: KriegerCover, word: Word) -> frozenset[int]:
    """Classes i such that the word can be prepended to class i,
    decided by existence of the unique cover path labeled ``word``
    ending at i.

    All classes walk backward together, one (range, label) group per
    step, with the walks that have met kept as one.

    Raises
    ------
    AmbiguousLabelError
        The error of the first class, in index order, whose backward
        walk meets two edges with one label into one class.
    """
    index = cover.index
    by_range_label = index.by_range_label
    # current class of the walks -> the classes they started from
    at: dict[int, list[int]] = {i: [i] for i in range(cover.class_count)}
    # (first start class, class, letter) of the first ambiguous walk
    ambiguous: tuple[int, int, int] | None = None
    for a in reversed(word):
        nxt: dict[int, list[int]] = {}
        for cur, starts in at.items():
            edges = by_range_label.get((cur, a))
            if edges is None:
                continue
            if len(edges) > 1:
                first = min(starts)
                if ambiguous is None or first < ambiguous[0]:
                    ambiguous = (first, cur, a)
                continue
            nxt.setdefault(edges[0].src, []).extend(starts)
        at = nxt
    if ambiguous is not None:
        index.edge_into(ambiguous[1], ambiguous[2])  # raises its error
    return frozenset(i for starts in at.values() for i in starts)


def _cell_source(cover: KriegerCover, cell: Cell) -> int | None:
    # source class of the unique path labeled w ending at class i,
    # walked backward one (range, label) group at a time
    word, i = cell
    edge_into = cover.index.edge_into
    for a in reversed(word):
        e = edge_into(i, a)
        if e is None:
            return None
        i = e.src
    return i


class ClopenSet:
    """A finite union of marked cylinders at one common depth.

    Instances are immutable and canonical: the cell set is merged down
    to the smallest depth that represents the same set of rays, so
    semantically equal values compare equal structurally as well.
    """

    __slots__ = ("cover", "depth", "cells")

    def __init__(self, cover: KriegerCover, depth: int,
                 cells: Iterable[Cell], validate: bool = True):
        # the engine's own operations pass frozensets of tuple cells
        if not isinstance(cells, frozenset):
            cells = frozenset((tuple(w), i) for w, i in cells)
        if any(len(w) != depth for w, _ in cells):
            raise ValueError("cell word length differs from depth")
        if validate:
            for w, i in cells:
                if not (0 <= i < cover.class_count):
                    raise ValueError(f"class index {i} out of range")
                if w and _cell_source(cover, (w, i)) is None:
                    raise ValueError(
                        f"empty cell: no path labeled {w} into class "
                        f"{i + 1}")
        while depth > 0:
            merged = _merge_once(cover, cells)
            if merged is None:
                break
            cells = merged
            depth -= 1
        self.cover = cover
        self.depth = depth
        self.cells = cells

    def refine(self, depth: int) -> "ClopenSet":
        """The same set of rays re-expressed at a greater depth.

        Each cell w·E_i splits into the cells (w L(e))·E_{r(e)} over
        the out-edges e of class i.
        """
        if depth < self.depth:
            raise ValueError("cannot refine to a smaller depth")
        out_edges = self.cover.index.out
        cells = self.cells
        for _ in range(depth - self.depth):
            cells = frozenset((w + (e.label,), e.dst)
                              for w, i in cells
                              for e in out_edges.get(i, ()))
        out = ClopenSet.__new__(ClopenSet)
        out.cover = self.cover
        out.depth = depth
        out.cells = cells
        return out

    def _common(self, other: "ClopenSet") -> tuple[frozenset, frozenset]:
        if self.cover is not other.cover:
            raise ValueError("operands live over different covers")
        d = max(self.depth, other.depth)
        return self.refine(d).cells, other.refine(d).cells

    def union(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.cover, max(self.depth, other.depth), a | b,
                         validate=False)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.cover, max(self.depth, other.depth), a & b,
                         validate=False)

    def complement(self) -> "ClopenSet":
        """Complement relative to the whole shift space."""
        everything = full_space(self.cover).refine(self.depth)
        return ClopenSet(self.cover, self.depth,
                         everything.cells - self.cells, validate=False)

    __or__ = union
    __and__ = intersect

    def is_empty(self) -> bool:
        return not self.cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        if self.cover is not other.cover:
            return False
        a, b = self._common(other)
        return a == b

    def __hash__(self) -> int:
        return hash((id(self.cover), self.depth, self.cells))

    def render(self) -> str:
        """Sorted cell list, e.g. ``{10·E1, 10·E3}``."""
        parts = []
        for w, i in sorted(self.cells, key=lambda c: (c[0], c[1])):
            if w:
                parts.append(f"{self.cover.alphabet.render(w)}·E{i + 1}")
            else:
                parts.append(f"E{i + 1}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"ClopenSet({self.render()})"


def _merge_once(cover: KriegerCover,
                cells: frozenset[Cell]) -> frozenset[Cell] | None:
    # Undo one refinement step if the cell set is exactly a union of
    # full out-edge splits; splits of distinct classes are disjoint on
    # left-resolving covers, so the decomposition is unique.  Only a
    # class with an edge labeled a into class k can own the pair (a, k).
    index = cover.index
    splits, by_range_label = index.out_split, index.by_range_label
    groups: dict[Word, set[tuple[int, int]]] = {}
    for w, i in cells:
        groups.setdefault(w[:-1], set()).add((w[-1], i))
    merged: set[Cell] = set()
    for prefix, pairs in groups.items():
        owners = {e.src for a, k in pairs
                  for e in by_range_label.get((k, a), ())}
        chosen = [i for i in owners if splits[i] <= pairs]
        if sum(len(splits[i]) for i in chosen) != len(pairs):
            return None
        covered = set()
        for i in chosen:
            covered |= splits[i]
        if covered != pairs:
            return None
        merged.update((prefix, i) for i in chosen)
    return frozenset(merged)


def full_space(cover: KriegerCover) -> ClopenSet:
    """The whole shift space: the union of every class at depth 0."""
    return ClopenSet(cover, 0, [(EPSILON, i)
                                for i in range(cover.class_count)],
                     validate=False)


def empty_set(cover: KriegerCover) -> ClopenSet:
    return ClopenSet(cover, 0, [], validate=False)


def class_projection(cover: KriegerCover, i: int) -> ClopenSet:
    """The class E_i itself, as the single cell at depth 0."""
    if not (0 <= i < cover.class_count):
        raise ValueError(f"class index {i} out of range")
    return ClopenSet(cover, 0, [(EPSILON, i)], validate=False)


def cylinder(cover: KriegerCover, word: Word) -> ClopenSet:
    """Rays beginning with ``word``; empty (not an error) when the
    word is inadmissible, and the whole space for the empty word."""
    if not word:
        return full_space(cover)
    return ClopenSet(cover, len(word),
                     [(tuple(word), i) for i in word_classes(cover, word)],
                     validate=False)


def post_image(cover: KriegerCover, word: Word) -> ClopenSet:
    """The image of the cylinder of ``word`` under the shift applied
    len(word) times: the union of the classes the word can precede.

    This is the support of the co-range projection of the word's
    partial isometry.
    """
    return ClopenSet(cover, 0,
                     [(EPSILON, i) for i in word_classes(cover, word)],
                     validate=False)


def conj_by_letter(cover: KriegerCover, letter: int,
                   F: ClopenSet) -> ClopenSet:
    """Prepend a letter: the rays j x with x in F and j x in the
    shift; models conjugation of F's indicator by the letter's
    partial isometry."""
    by_range_label = cover.index.by_range_label
    cells = []
    for w, i in F.cells:
        src = _cell_source(cover, (w, i))
        if src is not None and (src, letter) in by_range_label:
            cells.append(((letter,) + w, i))
    return ClopenSet(cover, F.depth + 1, cells, validate=False)


def shift_preimage(cover: KriegerCover, F: ClopenSet) -> ClopenSet:
    """Rays whose shift lands in F: the union of the letter prepends
    of F over the whole alphabet."""
    out = empty_set(cover)
    for a in cover.alphabet:
        out = out.union(conj_by_letter(cover, a, F))
    return out


def diagonal_generator(cover: KriegerCover, mu: Word, nu: Word) -> ClopenSet:
    """The diagonal generator supported on rays that begin with mu and
    whose tail can also be preceded by nu: cells (mu, i) over classes
    i that both words can precede."""
    classes = word_classes(cover, mu) & word_classes(cover, nu)
    if not mu:
        return ClopenSet(cover, 0, [(EPSILON, i) for i in classes],
                         validate=False)
    return ClopenSet(cover, len(mu), [(tuple(mu), i) for i in classes],
                     validate=False)


def express_class_projection(
        cover: KriegerCover, i: int) -> tuple[tuple[Word, ...],
                                              tuple[Word, ...]]:
    """Finite word sets (M, N) whose product formula recovers E_i.

    Intersecting the post images of the words in M with the
    complements of the post images of the words in N yields exactly
    the class projection of i; see
    :func:`evaluate_projection_formula`.  There are only finitely many
    distinct post images, so one representative word per distinct
    value suffices: the shortest, then lexicographically least.  The
    table of these words does not depend on i and is built once per
    cover (``cover.range_witnesses``).  The trivial all-classes factor
    is dropped unless it is the only member of M.
    """
    if not (0 <= i < cover.class_count):
        raise ValueError(f"class index {i} out of range")
    best = cover.range_witnesses
    everything = (1 << cover.class_count) - 1
    pos = [w for v, w in best.items() if v >> i & 1]
    neg = [w for v, w in best.items() if not v >> i & 1]
    if len(pos) > 1 and everything in best:
        pos = [w for w in pos if w != best[everything]]
    return tuple(pos), tuple(neg)


def evaluate_projection_formula(cover: KriegerCover,
                                positive: Iterable[Word],
                                negative: Iterable[Word]) -> ClopenSet:
    """Evaluate the product of post images and complemented post
    images as a clopen set."""
    return _formula_product(
        cover, (post_image(cover, w) for w in positive),
        (post_image(cover, w).complement() for w in negative))


def _formula_product(cover: KriegerCover, images: Iterable[ClopenSet],
                     complements: Iterable[ClopenSet]) -> ClopenSet:
    # the product of a projection formula from its factors: the post
    # images of the positive words, then the complemented post images
    # of the negative words, each taken when it is reached
    out = full_space(cover)
    for factor in chain(images, complements):
        out = out.intersect(factor)
    return out
