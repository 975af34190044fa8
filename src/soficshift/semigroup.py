"""The transition semigroup of a presentation, and the brute-force
enumeration of survivor sets over it.

The relation of a word relates each start vertex to the ends of its
paths labeled by the word; the semigroup is the finite set of these
relations, up to (n+1)^n of them on n vertices.  The Krieger cover
never builds it: ``oracle`` reads it, through
:func:`realized_survivor_sets_bruteforce`, as an independent check of
the pair graph of :func:`soficshift.krieger.realized_survivor_sets`,
and so do the tests.
"""

from __future__ import annotations

from collections import deque

from .errors import ResourceLimitError
from .krieger import _mask_to_set
from .shiftcore import EPSILON, LabeledGraph, Word, require_essential

DEFAULT_SEMIGROUP_CAP = 2 ** 20

# Cap on the rows the semigroup stores: every element holds one row
# per vertex, so the element cap alone does not bound memory on wide
# presentations.  A row, an n-bit int, counts once per 64 vertices.
SEMIGROUP_ROW_CAP = 2 ** 22


class TransitionRelation:
    """The relation of a word w: start s is related to end t when some
    path labeled w runs from s to t.

    Stored as one successor bitmask per start vertex.  Relations
    compose left factor first: the relation of wa is the relation of w
    composed with the relation of a.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(rows)

    @classmethod
    def identity(cls, n: int) -> "TransitionRelation":
        return cls(1 << s for s in range(n))

    @classmethod
    def of_letter(cls, g: LabeledGraph, label: int) -> "TransitionRelation":
        return cls(g._succ[label])

    def compose(self, other: "TransitionRelation") -> "TransitionRelation":
        rows = []
        orows = other.rows
        for mask in self.rows:
            out = 0
            while mask:
                t = (mask & -mask).bit_length() - 1
                out |= orows[t]
                mask &= mask - 1
            rows.append(out)
        return TransitionRelation(rows)

    def domain_mask(self) -> int:
        out = 0
        for s, row in enumerate(self.rows):
            if row:
                out |= 1 << s
        return out

    def range_mask(self) -> int:
        out = 0
        for row in self.rows:
            out |= row
        return out

    def preimage(self, mask: int) -> int:
        """Starts with some related end inside ``mask``."""
        out = 0
        for s, row in enumerate(self.rows):
            if row & mask:
                out |= 1 << s
        return out

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((s, t)
                         for s, row in enumerate(self.rows)
                         for t in _mask_to_set(row))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransitionRelation)
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"TransitionRelation({sorted(self.pairs())})"


class TransitionSemigroup:
    """Closure of the single-letter relations under right composition.

    Element 0 is the identity relation (the empty word).  Each element
    records a shortest witness word, found by one breadth-first search;
    ``step[i][a]`` is the index of element i composed with the letter
    a.  ``depth[i]`` is the witness's length, ``nonempty_depth[i]`` that
    of a shortest nonempty word (None if none gives element i); they
    differ only at the identity.
    """

    __slots__ = ("relations", "witnesses", "step", "generator", "depth",
                 "nonempty_depth")

    def __init__(self, g: LabeledGraph, max_elements: int):
        n = g.vertex_count
        weight = n * -(-n // 64)  # one element's rows, each by its width
        letters = list(g.alphabet)
        ident = TransitionRelation.identity(n)
        relations = [ident]
        witnesses: list[Word] = [EPSILON]
        index = {ident.rows: 0}
        step: list[list[int]] = []
        queue = deque([0])
        while queue:
            i = queue.popleft()
            row = []
            for a in letters:
                nxt = relations[i].compose(
                    TransitionRelation.of_letter(g, a))
                j = index.get(nxt.rows)
                if j is None:
                    if len(relations) >= max_elements:
                        raise ResourceLimitError(
                            f"transition semigroup exceeds "
                            f"{max_elements} elements")
                    if (len(relations) + 1) * weight > SEMIGROUP_ROW_CAP:
                        raise ResourceLimitError(
                            f"transition semigroup exceeds "
                            f"{SEMIGROUP_ROW_CAP} stored rows: "
                            f"{len(relations)} elements of {n} rows "
                            f"each are stored, a row counting once per "
                            f"64 vertices")
                    j = len(relations)
                    index[nxt.rows] = j
                    relations.append(nxt)
                    witnesses.append(witnesses[i] + (a,))
                    queue.append(j)
                row.append(j)
            step.append(row)
        self.relations = tuple(relations)
        self.witnesses = tuple(witnesses)
        self.step = tuple(tuple(r) for r in step)
        self.generator = tuple(self.step[0][a] for a in letters)
        self.depth = tuple(len(w) for w in witnesses)
        # a shortest word of an element other than the identity is
        # nonempty; one of the identity is a shortest word of some j
        # that one letter takes to the identity, then that letter
        self.nonempty_depth = (
            min((d + 1 for d, row in zip(self.depth, self.step) if 0 in row),
                default=None),) + self.depth[1:]

    def __len__(self) -> int:
        return len(self.relations)

    def element_of_word(self, word: Word) -> TransitionRelation:
        i = 0
        for a in word:
            i = self.step[i][a]
        return self.relations[i]


def transition_semigroup(g: LabeledGraph,
                         max_elements: int = DEFAULT_SEMIGROUP_CAP
                         ) -> TransitionSemigroup:
    """Compute the transition semigroup of a right-resolving essential
    presentation.

    Raises
    ------
    ResourceLimitError
        If the closure exceeds ``max_elements`` relations or
        ``SEMIGROUP_ROW_CAP`` stored rows (elements times vertices, a
        row counting once per 64 vertices of its width).
    """
    require_essential(g)
    return TransitionSemigroup(g, max_elements)


def realized_survivor_sets_bruteforce(
        g: LabeledGraph, bound: int) -> frozenset[frozenset[int]]:
    """Survivor sets of all ultimately periodic rays u v v v ... with
    preperiod and period no longer than ``bound``.

    Words sharing a transition relation give rays with equal survivor
    sets, so the enumeration runs over the semigroup elements reachable
    within ``bound`` letters; it shares no structure with the pair
    graph of :func:`soficshift.krieger.realized_survivor_sets`.

    Raises
    ------
    ValueError
        If ``bound`` is below 1: a ray's period needs a letter.
    """
    if bound < 1:
        raise ValueError("ray bound must be at least 1")
    require_essential(g)
    sg = transition_semigroup(g)
    full = g.full_mask()
    period_idxs = [i for i, d in enumerate(sg.nonempty_depth)
                   if d is not None and d <= bound]
    prefix_idxs = [0] + period_idxs
    out: set[int] = set()
    for pi in period_idxs:
        rel = sg.relations[pi]
        cur = full
        while True:
            nxt = rel.preimage(cur)
            if nxt == cur:
                break
            cur = nxt
        if not cur:
            continue
        for ui in prefix_idxs:
            m = sg.relations[ui].preimage(cur)
            if m:
                out.add(m)
    return frozenset(_mask_to_set(m) for m in out)
