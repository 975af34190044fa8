"""Exact clopen-set model of the commutative diagonal algebras.

Indicator functions on the one-sided shift space are represented by
finite unions of marked cylinders w·E_i, the rays that start with the
word w and whose tail after w lies in past-equivalence class i.  Cells
of equal depth (word length) are pairwise disjoint, every cell splits
along the out-edges of its class, and two unions are equal exactly
when their refinements to a common depth coincide, which makes every
set identity decidable.

A union is stored as one bitmask over classes per word, all words of
one depth: ``{w: mask}`` holds the cells w·E_i for the bits i of the
mask.  Union, intersection and complement are then ``|``, ``&`` and
``& ~`` per word.  Refining maps a class mask to one mask per letter,
the union of the out-splits of its classes: class j is in the mask of
letter a exactly when a source of one of j's in-edges labeled a is in
the mask, so each letter is a gather of the mask's binary string by
the index's in-edge source tables, one per rank (one on a
left-resolving cover).  Merging back asks, per prefix, whether the
per-letter masks are exactly a union of whole out-splits.  On a
left-resolving cover the cell (a, k) has one possible owner, the
source of k's in-edge labeled a, so the merge is the set of those
sources if their out-edges are as many as the cells; other covers
take the sources of every rank as candidates and test which of their
out-splits tile the masks.  Both answers are memoized by mask on the
cover's index.  A union of many sets is refined to their greatest
depth, united and settled once where that reaches the form that
uniting them one at a time does (see ``_union_all``).

The noncommutative generators of the ambient algebra act on this
model through :func:`conj_by_letter` (conjugation by a letter's
partial isometry) and :func:`post_image` (the support of the letter's
co-range projection); nothing noncommutative is ever represented
directly.

Every step through the cover reads the cover's adjacency index
(:class:`~soficshift.krieger.CoverIndex`: the out-split masks and the
in-edge source tables, which hold each out-edge and each in-edge once,
and the memos above), built once per cover instance on first use, so
no operation scans the edge tuple.  A cover made by ``with_edges`` or
``dataclasses.replace`` builds its own index.

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

from .krieger import CoverIndex, KriegerCover, _bits, unique_labeled_path
from .shiftcore import EPSILON, Word

Cell = tuple[Word, int]
Masks = dict[Word, int]


def _sources(cover: KriegerCover, word: Word, mask: int) -> dict[int, int]:
    # source class -> mask of the classes of ``mask`` whose unique path
    # labeled ``word`` starts there.  All classes walk backward
    # together, one letter's in-edge source tables per step, with the
    # walks that have met kept as one.  Ranks fill in edge order, so a
    # class has two in-edges labeled a exactly when its rank-1 entry is
    # a source; the error raised is that of the least class whose walk
    # meets two edges with one label into one class.
    index = cover.index
    at = {i: 1 << i for i in _bits(mask)}
    # (least start class, class, letter) of the first ambiguous walk
    ambiguous: tuple[int, int, int] | None = None
    for a in reversed(word):
        tables = index.sources.get(a, ())
        nxt: dict[int, int] = {}
        for cur, starts in at.items():
            src = tables[0][cur] if tables else -1
            if src < 0:
                continue
            if len(tables) > 1 and tables[1][cur] >= 0:
                first = (starts & -starts).bit_length() - 1
                if ambiguous is None or first < ambiguous[0]:
                    ambiguous = (first, cur, a)
                continue
            nxt[src] = nxt.get(src, 0) | starts
        at = nxt
    if ambiguous is not None:
        index.edge_into(ambiguous[1], ambiguous[2])  # raises its error
    return at


def _word_mask(cover: KriegerCover, word: Word) -> int:
    # the classes the word can precede, as a bitmask (see word_classes);
    # forward, each letter's step is one refinement step
    index = cover.index
    if index.left_resolving:
        ends = (1 << cover.class_count) - 1
        for a in word:
            ends = _letter_mask(index, ends, a)
        return ends
    out = 0
    for starts in _sources(cover, word,
                           (1 << cover.class_count) - 1).values():
        out |= starts
    return out


def word_classes(cover: KriegerCover, word: Word) -> frozenset[int]:
    """Classes i such that the word can be prepended to class i,
    decided by existence of the unique cover path labeled ``word``
    ending at i.

    On a left-resolving cover these are the ends of the paths labeled
    ``word``, found forward one letter at a time.  Otherwise all classes
    walk backward together, one letter's in-edge source tables per
    step, with the walks that have met kept as one.

    Raises
    ------
    AmbiguousLabelError
        The error of the first class, in index order, whose backward
        walk meets two edges with one label into one class.
    """
    return frozenset(_bits(_word_mask(cover, word)))


def _letter_masks(index: CoverIndex,
                  mask: int) -> tuple[tuple[int, int], ...]:
    # one refinement step of the classes of ``mask``: (letter, mask of
    # the ranges of their out-edges with that letter) pairs in letter
    # order.  Class j is a range on letter a exactly when one of its
    # in-edge sources on a is in ``mask``: one gather per rank over the
    # mask's binary string (see CoverIndex.gathers).
    memo = index.refine_memo
    if mask not in memo:
        bits = format(mask, f"0{index.class_count}b") + "0"
        out = []
        for a, gets in index.gathers.items():
            sub = 0
            for get in gets:
                sub |= int("".join(get(bits)), 2)
            if sub:
                out.append((a, sub))
        memo[mask] = tuple(out)
    return memo[mask]


def _letter_mask(index: CoverIndex, mask: int, letter: int) -> int:
    # the ranges of the out-edges labeled ``letter`` of the classes of
    # ``mask``: one letter of a forward walk
    return next((sub for a, sub in _letter_masks(index, mask)
                 if a == letter), 0)


def _split_owners(index: CoverIndex,
                  key: tuple[tuple[int, int], ...]) -> int | None:
    # The classes whose out-splits tile the (letter, mask) pairs of
    # ``key`` exactly, as a mask, or None if no such classes exist.
    # Splits of distinct classes are disjoint on left-resolving covers,
    # so the decomposition is unique.  Only a class with an edge
    # labeled a into class k can own the pair (a, k).
    memo = index.merge_memo
    if key not in memo:
        memo[key] = (_gathered_owners if index.left_resolving
                     else _tiling_owners)(index, key)
    return memo[key]


def _gathered_owners(index: CoverIndex,
                     key: tuple[tuple[int, int], ...]) -> int | None:
    # On a left-resolving cover the pair (a, k) has one possible owner,
    # the source of k's in-edge labeled a, and none if k has no such
    # edge.  The out-splits of those owners hold every cell of the key
    # and are disjoint, one cell per out-edge and split-mask bit, so
    # they tile the key exactly when their bits are as many as its cells.
    sources = index.sources
    owners: set[int] = set()
    cells = 0
    for a, mask in key:
        tables = sources.get(a)
        if tables is None:
            return None
        owners.update(map(tables[0].__getitem__, _bits(mask)))
        cells += mask.bit_count()
    if -1 in owners:
        return None
    if sum(sub.bit_count() for i in owners
           for _, sub in index.split_masks[i]) != cells:
        return None
    return sum(1 << i for i in owners)


def _tiling_owners(index: CoverIndex,
                   key: tuple[tuple[int, int], ...]) -> int | None:
    # on any cover: the classes whose whole out-splits lie in the key,
    # if together they cover it exactly and without overlap
    letters = dict(key)
    owners = 0
    for a, mask in key:
        for table in index.sources.get(a, ()):
            for k in _bits(mask):
                if table[k] >= 0:
                    owners |= 1 << table[k]
    chosen = count = 0
    covered: dict[int, int] = {}
    for i in _bits(owners):
        split = index.split_masks[i]
        if all(letters.get(a, 0) & sub == sub for a, sub in split):
            chosen |= 1 << i
            for a, sub in split:
                count += sub.bit_count()
                covered[a] = covered.get(a, 0) | sub
    total = sum(mask.bit_count() for mask in letters.values())
    return chosen if count == total and covered == letters else None


def _merge_once(index: CoverIndex, masks: Masks) -> Masks | None:
    # Undo one refinement step if every prefix's per-letter masks are
    # exactly a union of whole out-splits.
    groups: dict[Word, list[tuple[int, int]]] = {}
    for w, mask in masks.items():
        groups.setdefault(w[:-1], []).append((w[-1], mask))
    merged: Masks = {}
    for prefix, pairs in groups.items():
        owners = _split_owners(index, tuple(sorted(pairs)))
        if owners is None:
            return None
        merged[prefix] = owners
    return merged


class ClopenSet:
    """A finite union of marked cylinders at one common depth.

    ``masks`` maps each word of length ``depth`` to the bitmask of the
    classes i whose cells w·E_i the union holds; words without cells
    are absent.  ``cells`` gives the same union as a frozenset of
    (word, class) pairs.

    Instances are immutable and settled: merged down while each prefix's
    cells are whole out-splits, canonical only on a left-resolving cover.
    :meth:`refine` does not settle; the hash reads only the cover.

    >>> from .krieger import build_cover
    >>> from .shiftcore import parse_presentation
    >>> even = build_cover(parse_presentation(
    ...     "alphabet 0 1\\nvertex a\\nvertex b\\n"
    ...     "edge a a 1\\nedge a b 0\\nedge b a 0\\n"))
    >>> F = class_projection(even, 2) | conj_by_letter(
    ...     even, 1, class_projection(even, 2))
    >>> F.depth, F.masks
    (1, {(0,): 4, (1,): 4})
    >>> F.render()
    '{0·E3, 1·E3}'
    >>> sorted(F.cells)
    [((0,), 2), ((1,), 2)]
    """

    __slots__ = ("cover", "depth", "masks")

    def __init__(self, cover: KriegerCover, depth: int,
                 cells: Iterable[Cell], validate: bool = True):
        cells = frozenset((tuple(w), i) for w, i in cells)
        if any(len(w) != depth for w, _ in cells):
            raise ValueError("cell word length differs from depth")
        if validate:
            for w, i in cells:
                if not (0 <= i < cover.class_count):
                    raise ValueError(f"class index {i} out of range")
                if w and unique_labeled_path(cover, w, i) is None:
                    raise ValueError(
                        f"empty cell: no path labeled {w} into class "
                        f"{i + 1}")
        masks: Masks = {}
        for w, i in cells:
            masks[w] = masks.get(w, 0) | 1 << i
        self._settle(cover, depth, masks)

    def _settle(self, cover: KriegerCover, depth: int, masks: Masks) -> None:
        # store the canonical form of masks at depth
        while depth > 0:
            merged = _merge_once(cover.index, masks)
            if merged is None:
                break
            masks = merged
            depth -= 1
        self.cover = cover
        self.depth = depth
        self.masks = masks

    @classmethod
    def _of(cls, cover: KriegerCover, depth: int,
            masks: Masks) -> "ClopenSet":
        # the canonical set of masks (no zero mask) at depth
        out = cls.__new__(cls)
        out._settle(cover, depth, masks)
        return out

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset((w, i) for w, mask in self.masks.items()
                         for i in _bits(mask))

    def refine(self, depth: int) -> "ClopenSet":
        """The same set of rays re-expressed at a greater depth.

        Each cell w·E_i splits into the cells (w L(e))·E_{r(e)} over
        the out-edges e of class i.
        """
        if depth < self.depth:
            raise ValueError("cannot refine to a smaller depth")
        if depth == self.depth:
            return self
        index = self.cover.index
        masks = self.masks
        for _ in range(depth - self.depth):
            masks = {w + (a,): sub for w, mask in masks.items()
                     for a, sub in _letter_masks(index, mask)}
        out = ClopenSet.__new__(ClopenSet)
        out.cover = self.cover
        out.depth = depth
        out.masks = masks
        return out

    def _common(self, other: "ClopenSet") -> tuple[Masks, Masks]:
        if self.cover is not other.cover:
            raise ValueError("operands live over different covers")
        d = max(self.depth, other.depth)
        return self.refine(d).masks, other.refine(d).masks

    def union(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        out = dict(a)
        for w, mask in b.items():
            out[w] = out.get(w, 0) | mask
        return ClopenSet._of(self.cover, max(self.depth, other.depth), out)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        out = {}
        for w, mask in a.items():
            meet = mask & b.get(w, 0)
            if meet:
                out[w] = meet
        return ClopenSet._of(self.cover, max(self.depth, other.depth), out)

    def complement(self) -> "ClopenSet":
        """Complement relative to the whole shift space."""
        everything = full_space(self.cover).refine(self.depth)
        own = self.masks
        out = {}
        for w, mask in everything.masks.items():
            rest = mask & ~own.get(w, 0)
            if rest:
                out[w] = rest
        return ClopenSet._of(self.cover, self.depth, out)

    __or__ = union
    __and__ = intersect

    def is_empty(self) -> bool:
        return not self.masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClopenSet):
            return NotImplemented
        if self.cover is not other.cover:
            return False
        a, b = self._common(other)
        return a == b

    def __hash__(self) -> int:
        return hash(id(self.cover))

    def render(self) -> str:
        """Sorted cell list, e.g. ``{10·E1, 10·E3}``."""
        parts = []
        for w in sorted(self.masks):
            for i in _bits(self.masks[w]):
                if w:
                    parts.append(f"{self.cover.alphabet.render(w)}·E{i + 1}")
                else:
                    parts.append(f"E{i + 1}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"ClopenSet({self.render()})"


def _at_word(cover: KriegerCover, word: Word, mask: int) -> ClopenSet:
    # the cells word·E_i over the classes i of mask
    word = tuple(word)
    return ClopenSet._of(cover, len(word), {word: mask} if mask else {})


def full_space(cover: KriegerCover) -> ClopenSet:
    """The whole shift space: the union of every class at depth 0."""
    return _at_word(cover, EPSILON, (1 << cover.class_count) - 1)


def empty_set(cover: KriegerCover) -> ClopenSet:
    return _at_word(cover, EPSILON, 0)


def class_projection(cover: KriegerCover, i: int) -> ClopenSet:
    """The class E_i itself, as the single cell at depth 0."""
    if not (0 <= i < cover.class_count):
        raise ValueError(f"class index {i} out of range")
    return _at_word(cover, EPSILON, 1 << i)


def cylinder(cover: KriegerCover, word: Word) -> ClopenSet:
    """Rays beginning with ``word``; empty (not an error) when the
    word is inadmissible, and the whole space for the empty word."""
    if not word:
        return full_space(cover)
    return _at_word(cover, word, _word_mask(cover, word))


def post_image(cover: KriegerCover, word: Word) -> ClopenSet:
    """The image of the cylinder of ``word`` under the shift applied
    len(word) times: the union of the classes the word can precede.

    This is the support of the co-range projection of the word's
    partial isometry.
    """
    return _at_word(cover, EPSILON, _word_mask(cover, word))


def conj_by_letter(cover: KriegerCover, letter: int,
                   F: ClopenSet) -> ClopenSet:
    """Prepend a letter: the rays j x with x in F and j x in the
    shift; models conjugation of F's indicator by the letter's
    partial isometry.

    Raises
    ------
    ValueError
        If F lives over another cover.
    AmbiguousLabelError
        The error of the least cell (word, then class) whose backward
        walk meets two edges with one label into one class.
    """
    if F.cover is not cover:
        raise ValueError("operands live over different covers")
    entered = _letter_mask(cover.index, (1 << cover.class_count) - 1,
                           letter)
    masks = {}
    for w, mask in sorted(F.masks.items()):
        if w:
            kept = 0
            for src, starts in _sources(cover, w, mask).items():
                if entered >> src & 1:
                    kept |= starts
        else:
            kept = mask & entered
        if kept:
            masks[(letter,) + w] = kept
    return ClopenSet._of(cover, F.depth + 1, masks)


def shift_preimage(cover: KriegerCover, F: ClopenSet) -> ClopenSet:
    """Rays whose shift lands in F, a set over ``cover``: the union of
    the letter prepends of F over the whole alphabet."""
    return _union_all(cover, (conj_by_letter(cover, a, F)
                              for a in cover.alphabet))


def _union_all(cover: KriegerCover, sets: Iterable[ClopenSet]) -> ClopenSet:
    # The union of ``sets``, as folding them in their order, settling
    # each union, gives it.  A merge succeeds only when the chosen
    # out-splits cover the per-letter masks exactly, so refining a
    # settled union gives back the masks it was settled from, and the
    # fold's refinement to the greatest depth is the union of the sets'
    # refinements.  Where out-splits are disjoint and none is empty (a
    # left-resolving cover on which every class has an out-edge), a
    # merge of a refinement gives back the masks refined, so every
    # order of refining, uniting and settling reaches one form: the
    # sets are refined to the greatest depth, united and settled once.
    # Other covers keep the fold.  Where out-splits overlap, a settled
    # union can differ from the settled form of its refinement; and a
    # class without out-edges drops out of a refinement, so there the
    # form depends on the depths the fold passes through.
    index = cover.index
    if not index.left_resolving or len(index.split_masks) < cover.class_count:
        out = empty_set(cover)
        for F in sets:
            out = out.union(F)
        return out
    sets = list(sets)
    if any(F.cover is not cover for F in sets):
        raise ValueError("operands live over different covers")
    depth = max((F.depth for F in sets), default=0)
    masks: Masks = {}
    for F in sets:
        for w, mask in F.refine(depth).masks.items():
            masks[w] = masks.get(w, 0) | mask
    return ClopenSet._of(cover, depth, masks)


def diagonal_generator(cover: KriegerCover, mu: Word, nu: Word) -> ClopenSet:
    """The diagonal generator supported on rays that begin with mu and
    whose tail can also be preceded by nu: cells (mu, i) over classes
    i that both words can precede."""
    mask = _word_mask(cover, mu) & _word_mask(cover, nu)
    return _at_word(cover, mu, mask)


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

    ``verify`` does not call this once per class: its
    projection_word_formulas check decides every class's formula from
    one grouping of the classes (see
    ``isocheck._check_projection_formulas``).
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
    # of the negative words.  Each factor has depth 0 over this cover,
    # so the product is one AND of their masks.
    mask = (1 << cover.class_count) - 1
    for factor in chain(images, complements):
        if factor.depth or factor.cover is not cover:
            raise ValueError("formula factor is not a depth-0 set over "
                             "this cover")
        mask &= factor.masks.get(EPSILON, 0)
    return _at_word(cover, EPSILON, mask)
