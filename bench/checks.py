"""Output checks that share no code with ``soficshift``.

Each check reads the text a CLI invocation printed and compares it
with a computation of the benchmark's own: word sets and survivor
sets over the generated presentation, and invariant factors from
sympy.  A check returns a list of problems; an empty list passes.
No check compares against stored output or against ``checked=``
counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from corpus import Presentation

# word lengths for the language and class-past comparisons: the largest
# length whose word count over the alphabet stays under these budgets
LANGUAGE_BUDGET = 20000
PAST_BUDGET = 1000

FAMILY_COUNT = 15


# -- graphs as per-letter bitmask tables --------------------------------

@dataclass(frozen=True)
class Graph:
    """Successor and predecessor masks per letter, ``succ[a][v]``."""

    n: int
    k: int
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]

    @classmethod
    def of_edges(cls, n, k, edges) -> "Graph":
        succ = [[0] * n for _ in range(k)]
        pred = [[0] * n for _ in range(k)]
        for s, t, a in edges:
            succ[a][s] |= 1 << t
            pred[a][t] |= 1 << s
        return cls(n, k, tuple(map(tuple, succ)), tuple(map(tuple, pred)))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @staticmethod
    def _image(rows, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def step(self, a: int, mask: int) -> int:
        return self._image(self.succ[a], mask)

    def back(self, a: int, mask: int) -> int:
        return self._image(self.pred[a], mask)


def trim(n: int, edges) -> tuple[int, list[tuple[int, int, int]]]:
    """Keep the vertices on bi-infinite paths, renumbered in order."""
    alive = set(range(n))
    edges = list(edges)
    while True:
        outs = {s for s, _, _ in edges}
        ins = {t for _, t, _ in edges}
        dead = {v for v in alive if v not in outs or v not in ins}
        if not dead:
            break
        alive -= dead
        edges = [e for e in edges if e[0] in alive and e[1] in alive]
    remap = {v: i for i, v in enumerate(sorted(alive))}
    return len(remap), [(remap[s], remap[t], a) for s, t, a in edges]


def presentation_graph(p: Presentation) -> Graph:
    """The essential graph of the presentation; an SFT is compiled by
    the higher-block construction on words of length m - 1."""
    k = len(p.tokens)
    if p.forbidden is None:
        n, edges = trim(p.vertices, p.edges)
        return Graph.of_edges(n, k, edges)
    m = max([2] + [len(w) for w in p.forbidden])

    def clean(w):
        return not any(w[i:i + len(f)] == f for f in p.forbidden
                       for i in range(len(w) - len(f) + 1))

    blocks = [()]
    for _ in range(m - 1):
        blocks = [w + (a,) for w in blocks for a in range(k)
                  if clean(w + (a,))]
    index = {w: i for i, w in enumerate(blocks)}
    edges = [(index[w], index[w[1:] + (a,)], a)
             for w in blocks for a in range(k) if clean(w + (a,))]
    n, edges = trim(len(blocks), edges)
    return Graph.of_edges(n, k, edges)


def budget_length(k: int, budget: int) -> int:
    length = 1
    while k ** (length + 1) <= budget:
        length += 1
    return length


# -- parsing CLI output -------------------------------------------------

@dataclass(frozen=True)
class PrintedCover:
    classes: int
    reps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    edges: tuple[tuple[int, int, int], ...]


_REP = re.compile(r'^E(\d+): rep = "([^"]*)" \("([^"]+)"\)\^inf$')
_EDGE = re.compile(r"^E(\d+) --(\S+)--> E(\d+)$")


def _word(text: str, tokens) -> tuple[int, ...]:
    parts = text.split() if " " in text else list(text)
    return tuple(tokens.index(t) for t in parts)


def parse_cover(text: str, tokens) -> PrintedCover:
    """Parse ``soficshift cover`` output; raises ValueError on any
    line out of format."""
    lines = text.splitlines()
    head = re.fullmatch(r"classes: (\d+)", lines[0] if lines else "")
    if not head:
        raise ValueError(f"bad header in {text[:40]!r}")
    n = int(head.group(1))
    if len(lines) < n + 2:
        raise ValueError("cover output is cut short")
    reps = []
    for i, line in enumerate(lines[1:n + 1]):
        m = _REP.match(line)
        if not m or int(m.group(1)) != i + 1:
            raise ValueError(f"bad representative line {line!r}")
        reps.append((_word(m.group(2), tokens), _word(m.group(3), tokens)))
    count = re.fullmatch(r"edges: (\d+)", lines[n + 1])
    if not count or len(lines) != n + 2 + int(count.group(1)):
        raise ValueError("bad edge count")
    edges = []
    for line in lines[n + 2:]:
        m = _EDGE.match(line)
        if not m:
            raise ValueError(f"bad edge line {line!r}")
        s, t = int(m.group(1)) - 1, int(m.group(3)) - 1
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"edge endpoint out of range in {line!r}")
        edges.append((s, t, tokens.index(m.group(2))))
    return PrintedCover(n, tuple(reps), tuple(edges))


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """``Z^2 ⊕ Z/2 ⊕ Z/6`` -> (2, (2, 6)); ``0`` -> (0, ())."""
    if text == "0":
        return 0, ()
    rank, factors = 0, []
    for part in text.split(" ⊕ "):
        if part == "Z":
            rank = 1
        elif part.startswith("Z^"):
            rank = int(part[2:])
        elif part.startswith("Z/"):
            factors.append(int(part[2:]))
        else:
            raise ValueError(f"bad group summand {part!r}")
    return rank, tuple(factors)


def parse_ktheory(text: str):
    lines = text.splitlines()
    if len(lines) != 2 or not lines[0].startswith("K0 = ") \
            or not lines[1].startswith("K1 = "):
        raise ValueError(f"bad ktheory output {text!r}")
    return parse_group(lines[0][5:]), parse_group(lines[1][5:])


# -- the checks ---------------------------------------------------------

def expected_k_groups(cover: PrintedCover):
    """K0 = coker(I - A^T) and K1 = ker(I - A^T) for the class
    adjacency matrix A counted with multiplicity, by sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    n = cover.classes
    a = [[0] * n for _ in range(n)]
    for s, t, _ in cover.edges:
        a[s][t] += 1
    m = Matrix(n, n, lambda i, j: (1 if i == j else 0) - a[j][i])
    diag = [abs(int(d)) for d in invariant_factors(m, domain=ZZ)]
    diag += [0] * (n - len(diag))
    nullity = sum(1 for d in diag if d == 0)
    return (nullity, tuple(sorted(d for d in diag if d > 1))), (nullity, ())


def check_ktheory(cover: PrintedCover, ktheory_text: str) -> list[str]:
    try:
        k0, k1 = parse_ktheory(ktheory_text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if k1[1] or k1[0] != k0[0]:
        problems.append(f"K1 {k1} is not free of the rank of K0 {k0}")
    want0, want1 = expected_k_groups(cover)
    if (k0, k1) != (want0, want1):
        problems.append(f"K-groups {k0}, {k1} != coker/ker of I - A^T "
                        f"{want0}, {want1}")
    return problems


def _first_disagreement(step1, step2, m1: int, m2: int, k: int,
                        length: int):
    """Walk two vertex masks letter by letter, ``m1 -> step1(a, m1)``
    and ``m2 -> step2(a, m2)``; return the first letter sequence of
    at most ``length`` letters after which exactly one mask is empty,
    or None."""
    stack = [((), m1, m2)]
    while stack:
        walk, m1, m2 = stack.pop()
        if len(walk) == length:
            continue
        for a in range(k):
            n1, n2 = step1(a, m1), step2(a, m2)
            if bool(n1) != bool(n2):
                return walk + (a,)
            if n1:
                stack.append((walk + (a,), n1, n2))
    return None


def survivor_mask(g: Graph, preperiod, period) -> int:
    """Vertices emitting ``preperiod period period ...``: the greatest
    fixed point of the period's backward map, pulled back through the
    preperiod."""
    cur = g.full
    while True:
        nxt = cur
        for a in reversed(period):
            nxt = g.back(a, nxt)
        if nxt == cur:
            break
        cur = nxt
    for a in reversed(preperiod):
        cur = g.back(a, cur)
    return cur


def check_cover(p: Presentation, cover: PrintedCover) -> list[str]:
    """The printed cover is left-resolving, presents the input's words
    up to a fixed length, and each class's words of bounded length
    are exactly the words that can precede its representative."""
    k = len(p.tokens)
    problems = []
    seen = set()
    for s, t, a in cover.edges:
        if (t, a) in seen:
            problems.append(f"two edges labeled {p.tokens[a]} into "
                            f"E{t + 1}")
        seen.add((t, a))
    shift = presentation_graph(p)
    cg = Graph.of_edges(cover.classes, k, cover.edges)
    n, edges = trim(cover.classes, cover.edges)
    if n != cover.classes:
        problems.append(f"{cover.classes - n} classes are stranded")
    trimmed = Graph.of_edges(n, k, edges)
    w = _first_disagreement(trimmed.step, shift.step, trimmed.full,
                            shift.full, k, budget_length(k, LANGUAGE_BUDGET))
    if w is not None:
        problems.append(f"word {w} is in only one of cover and input")
    length = budget_length(k, PAST_BUDGET)
    for i, (u, v) in enumerate(cover.reps):
        base = survivor_mask(shift, u, v)
        if not base:
            problems.append(f"E{i + 1}: representative not in the shift")
            continue
        # walk backward from the class and from the representative's
        # survivor set, prepending one letter at a time
        w = _first_disagreement(cg.back, shift.back, 1 << i, base, k, length)
        if w is not None:
            problems.append(f"E{i + 1}: word {w[::-1]} precedes exactly one "
                            f"of the class and its representative")
    return problems


_FAMILY = re.compile(r"^(PASS|FAIL) (\w+) checked=\d+( witness=.*)?$")


def parse_report(text: str) -> dict[str, bool]:
    """Family name -> passed, from ``soficshift verify`` output; raises
    ValueError unless the summary line matches the family lines."""
    lines = text.splitlines() or [""]
    families = {}
    for line in lines[:-1]:
        m = _FAMILY.match(line)
        if not m or m.group(2) in families:
            raise ValueError(f"bad family line {line!r}")
        families[m.group(2)] = m.group(1) == "PASS"
    failed = sum(1 for ok in families.values() if not ok)
    if lines[-1] != f"families={len(families)} failed={failed}":
        raise ValueError(f"bad summary {lines[-1]!r}")
    return families


def check_intact_report(code: int, text: str) -> list[str]:
    try:
        families = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if code != 0:
        problems.append(f"intact verify exited {code}")
    if len(families) != FAMILY_COUNT:
        problems.append(f"{len(families)} families, not {FAMILY_COUNT}")
    problems += [f"intact cover fails {name}"
                 for name, ok in families.items() if not ok]
    return problems


def check_corrupt_reports(intact_text: str,
                          runs: list[tuple[str, int, str]]) -> list[str]:
    """Every corrupted run exits 1, and the four kinds together fail
    every family of the intact report."""
    problems = []
    failed = set()
    for kind, code, text in runs:
        if code != 1:
            problems.append(f"{kind}: exited {code}, not 1")
        try:
            failed |= {n for n, ok in parse_report(text).items() if not ok}
        except ValueError as exc:
            problems.append(f"{kind}: {exc}")
    try:
        missed = set(parse_report(intact_text)) - failed
    except ValueError as exc:
        return problems + [str(exc)]
    if missed:
        problems.append(f"no corruption fails {sorted(missed)}")
    return problems
