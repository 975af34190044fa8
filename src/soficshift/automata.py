"""Automaton conditioning: trimming and forward determinization.

Every pipeline in this package runs on an essential right-resolving
presentation; these functions produce one from arbitrary input while
preserving the presented sofic shift.
"""

from __future__ import annotations

from collections import deque

from .errors import EmptyShiftError, ResourceLimitError
from .shiftcore import Edge, LabeledGraph, require_essential, words_of_length

# Cap on the states of the subset construction.  Each state becomes a
# vertex, and the cover's pair graph is capped by its states times the
# vertices, so wider presentations are out of reach downstream anyway.
SUBSET_STATE_CAP = 2 ** 11


def trim_essential(g: LabeledGraph) -> LabeledGraph:
    """Delete stranded vertices until the graph is essential.

    Iteratively removes vertices with no outgoing or no incoming edge;
    the label language of bi-extendable paths is preserved.  Vertex
    order and names of the survivors are kept.

    Raises
    ------
    EmptyShiftError
        If no vertex survives.
    """
    alive = set(range(g.vertex_count))
    edges = list(g.edges)
    while True:
        outs = {e.src for e in edges}
        ins = {e.dst for e in edges}
        dead = {v for v in alive if v not in outs or v not in ins}
        if not dead:
            break
        alive -= dead
        edges = [e for e in edges if e.src in alive and e.dst in alive]
    if not alive:
        raise EmptyShiftError("no bi-infinite path survives: empty shift")
    order = sorted(alive)
    remap = {v: i for i, v in enumerate(order)}
    return LabeledGraph(
        g.alphabet,
        [g.vertex_names[v] for v in order],
        [Edge(remap[e.src], remap[e.dst], e.label) for e in edges],
    )


def make_right_resolving(g: LabeledGraph) -> LabeledGraph:
    """Determinize forward to a right-resolving essential presentation.

    Already right-resolving input is returned unchanged.  Otherwise
    the subset construction is applied: states are the nonempty vertex
    subsets reachable from the full vertex set under the forward
    successor map, canonicalized as sorted vertex-index tuples and
    named by them (``{0,2}``; joined vertex names could collide, as
    names may hold commas), and the result is trimmed to its essential
    part.  The presented sofic shift is unchanged.

    Raises
    ------
    ResourceLimitError
        If the construction reaches more than ``SUBSET_STATE_CAP``
        subset states.
    """
    require_essential(g)
    if g.is_right_resolving():
        return g

    full = g.full_mask()
    order: list[int] = [full]
    seen = {full}
    edges: list[tuple[int, int, int]] = []  # (src mask, dst mask, label)
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        for a in g.alphabet:
            nxt = g.successors(a, mask)
            if not nxt:
                continue
            edges.append((mask, nxt, a))
            if nxt not in seen:
                if len(order) >= SUBSET_STATE_CAP:
                    raise ResourceLimitError(
                        f"subset construction exceeds {SUBSET_STATE_CAP} "
                        f"subset states of {g.vertex_count} vertices")
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)

    index = {mask: i for i, mask in enumerate(order)}

    det = LabeledGraph(
        g.alphabet,
        ["{" + ",".join(str(v) for v in range(g.vertex_count)
                        if mask >> v & 1) + "}" for mask in order],
        [Edge(index[s], index[t], a) for s, t, a in edges],
    )
    return trim_essential(det)


def language_equal_upto(g1: LabeledGraph, g2: LabeledGraph, k: int) -> bool:
    """True iff the two presentations admit the same words of every
    length up to ``k``."""
    require_essential(g1)
    require_essential(g2)
    return all(words_of_length(g1, j) == words_of_length(g2, j)
               for j in range(k + 1))
