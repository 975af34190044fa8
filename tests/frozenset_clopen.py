"""The clopen engine that stored a union of marked cylinders as a
frozenset of (word, class) cells, kept as a slow reference for
``soficshift.diagonal``, which stores one class bitmask per word.

Every step reads ``cover.edges`` by a full scan, never the cover's
index, so the reference shares no structure with the engine it checks.
Each operation follows the engine's: the same refinements, merges and
canonical forms, and the same ``ValueError`` messages.  One choice is
pinned down here that the frozenset engine left to iteration order: a
letter prepend walks the cells in sorted order, so that of several
ambiguous cells the least one raises.

``ENGINE`` names the functions and the class that
``tests/test_cover_index.py`` swaps into ``soficshift.diagonal`` for
its slow route.
"""

from itertools import chain

from soficshift.errors import AmbiguousLabelError
from soficshift.shiftcore import EPSILON

ENGINE = ("ClopenSet", "word_classes", "full_space", "empty_set",
          "class_projection", "cylinder", "post_image", "conj_by_letter",
          "shift_preimage", "diagonal_generator",
          "evaluate_projection_formula")


# --- scans of the whole edge tuple -----------------------------------

def slow_out_edges(cover, i):
    return [e for e in cover.edges if e.src == i]


def slow_in_edges(cover, i):
    return [e for e in cover.edges if e.dst == i]


def slow_unique_labeled_path(cover, word, target):
    if not word:
        raise ValueError("word must be nonempty")
    path = []
    cur = target
    for a in reversed(word):
        candidates = [e for e in cover.edges
                      if e.dst == cur and e.label == a]
        if len(candidates) > 1:
            raise AmbiguousLabelError(
                f"two edges labeled {a} into class {cur + 1}")
        if not candidates:
            return None
        path.append(candidates[0])
        cur = candidates[0].src
    return tuple(reversed(path))


def slow_word_classes(cover, word):
    if not word:
        return frozenset(range(cover.class_count))
    return frozenset(i for i in range(cover.class_count)
                     if slow_unique_labeled_path(cover, word, i)
                     is not None)


def slow_cell_source(cover, cell):
    word, i = cell
    if not word:
        return i
    path = slow_unique_labeled_path(cover, word, i)
    return None if path is None else path[0].src


def slow_merge_once(cover, cells):
    splits = [frozenset((e.label, e.dst) for e in slow_out_edges(cover, i))
              for i in range(cover.class_count)]
    groups = {}
    for w, i in cells:
        groups.setdefault(w[:-1], set()).add((w[-1], i))
    merged = set()
    for prefix, pairs in groups.items():
        chosen = [i for i in range(cover.class_count)
                  if splits[i] and splits[i] <= pairs]
        if sum(len(splits[i]) for i in chosen) != len(pairs):
            return None
        covered = set()
        for i in chosen:
            covered |= splits[i]
        if covered != pairs:
            return None
        merged.update((prefix, i) for i in chosen)
    return frozenset(merged)


# --- the engine -------------------------------------------------------

word_classes = slow_word_classes


class ClopenSet:
    """A finite union of marked cylinders at one common depth, as a
    frozenset of (word, class) cells, merged down to canonical form."""

    __slots__ = ("cover", "depth", "cells")

    def __init__(self, cover, depth, cells, validate=True):
        if not isinstance(cells, frozenset):
            cells = frozenset((tuple(w), i) for w, i in cells)
        if any(len(w) != depth for w, _ in cells):
            raise ValueError("cell word length differs from depth")
        if validate:
            for w, i in cells:
                if not (0 <= i < cover.class_count):
                    raise ValueError(f"class index {i} out of range")
                if w and slow_cell_source(cover, (w, i)) is None:
                    raise ValueError(
                        f"empty cell: no path labeled {w} into class "
                        f"{i + 1}")
        while depth > 0:
            merged = slow_merge_once(cover, cells)
            if merged is None:
                break
            cells = merged
            depth -= 1
        self.cover = cover
        self.depth = depth
        self.cells = cells

    def refine(self, depth):
        if depth < self.depth:
            raise ValueError("cannot refine to a smaller depth")
        cells = self.cells
        for _ in range(depth - self.depth):
            cells = frozenset((w + (e.label,), e.dst)
                              for w, i in cells
                              for e in slow_out_edges(self.cover, i))
        out = ClopenSet.__new__(ClopenSet)
        out.cover = self.cover
        out.depth = depth
        out.cells = cells
        return out

    def _common(self, other):
        if self.cover is not other.cover:
            raise ValueError("operands live over different covers")
        d = max(self.depth, other.depth)
        return self.refine(d).cells, other.refine(d).cells

    def union(self, other):
        a, b = self._common(other)
        return ClopenSet(self.cover, max(self.depth, other.depth), a | b,
                         validate=False)

    def intersect(self, other):
        a, b = self._common(other)
        return ClopenSet(self.cover, max(self.depth, other.depth), a & b,
                         validate=False)

    def complement(self):
        everything = full_space(self.cover).refine(self.depth)
        return ClopenSet(self.cover, self.depth,
                         everything.cells - self.cells, validate=False)

    __or__ = union
    __and__ = intersect

    def is_empty(self):
        return not self.cells

    def __eq__(self, other):
        if not isinstance(other, ClopenSet):
            return NotImplemented
        if self.cover is not other.cover:
            return False
        a, b = self._common(other)
        return a == b

    def __hash__(self):
        return hash(id(self.cover))

    def render(self):
        parts = []
        for w, i in sorted(self.cells, key=lambda c: (c[0], c[1])):
            if w:
                parts.append(f"{self.cover.alphabet.render(w)}·E{i + 1}")
            else:
                parts.append(f"E{i + 1}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self):
        return f"ClopenSet({self.render()})"


def full_space(cover):
    return ClopenSet(cover, 0, [(EPSILON, i)
                                for i in range(cover.class_count)],
                     validate=False)


def empty_set(cover):
    return ClopenSet(cover, 0, [], validate=False)


def class_projection(cover, i):
    if not (0 <= i < cover.class_count):
        raise ValueError(f"class index {i} out of range")
    return ClopenSet(cover, 0, [(EPSILON, i)], validate=False)


def cylinder(cover, word):
    if not word:
        return full_space(cover)
    return ClopenSet(cover, len(word),
                     [(tuple(word), i) for i in word_classes(cover, word)],
                     validate=False)


def post_image(cover, word):
    return ClopenSet(cover, 0,
                     [(EPSILON, i) for i in word_classes(cover, word)],
                     validate=False)


def conj_by_letter(cover, letter, F):
    labels_into = {e.dst for e in cover.edges if e.label == letter}
    cells = []
    for w, i in sorted(F.cells):
        src = slow_cell_source(cover, (w, i))
        if src is not None and src in labels_into:
            cells.append(((letter,) + w, i))
    return ClopenSet(cover, F.depth + 1, cells, validate=False)


def shift_preimage(cover, F):
    out = empty_set(cover)
    for a in cover.alphabet:
        out = out.union(conj_by_letter(cover, a, F))
    return out


def diagonal_generator(cover, mu, nu):
    classes = word_classes(cover, mu) & word_classes(cover, nu)
    if not mu:
        return ClopenSet(cover, 0, [(EPSILON, i) for i in classes],
                         validate=False)
    return ClopenSet(cover, len(mu), [(tuple(mu), i) for i in classes],
                     validate=False)


def evaluate_projection_formula(cover, positive, negative):
    return _formula_product(
        cover, (post_image(cover, w) for w in positive),
        (post_image(cover, w).complement() for w in negative))


def _formula_product(cover, images, complements):
    out = full_space(cover)
    for factor in chain(images, complements):
        out = out.intersect(factor)
    return out
