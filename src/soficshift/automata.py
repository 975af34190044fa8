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

    Removes vertices with no outgoing or no incoming edge, and then
    those that this strands, by a worklist over in- and out-degrees, so
    each edge is looked at a bounded number of times; the label
    language of bi-extendable paths is preserved.  Vertex order and
    names of the survivors are kept, and an essential graph is
    returned as it is.

    Raises
    ------
    EmptyShiftError
        If no vertex survives.
    """
    n = g.vertex_count
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        outs[e.src].append(e.dst)
        ins[e.dst].append(e.src)
    out_degree = [len(ws) for ws in outs]
    in_degree = [len(us) for us in ins]
    dead = [not (out_degree[v] and in_degree[v]) for v in range(n)]
    stack = [v for v in range(n) if dead[v]]
    if n and not stack:
        return g  # nothing is stranded; a LabeledGraph is immutable
    while stack:
        v = stack.pop()
        # drop v's edges from its live neighbours' degrees; a dead
        # neighbour's degrees are never read again
        for w in outs[v]:
            if not dead[w]:
                in_degree[w] -= 1
                if not in_degree[w]:
                    dead[w] = True
                    stack.append(w)
        for u in ins[v]:
            if not dead[u]:
                out_degree[u] -= 1
                if not out_degree[u]:
                    dead[u] = True
                    stack.append(u)
    order = [v for v in range(n) if not dead[v]]
    if not order:
        raise EmptyShiftError("no bi-infinite path survives: empty shift")
    remap = {v: i for i, v in enumerate(order)}
    return LabeledGraph(
        g.alphabet,
        [g.vertex_names[v] for v in order],
        [Edge(remap[e.src], remap[e.dst], e.label) for e in g.edges
         if not (dead[e.src] or dead[e.dst])],
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
