"""Seeded corpora of presentation files for the three workloads.

Every random input is produced by one of three generators from a
generator seed.  A workload seed picks one generator seed from each
band of ``POOLS``, so the same workload seed always yields the same
files.  The bands group generator seeds whose CLI cost was close when
the pools were surveyed (``survey.py``); that keeps the total work of
a workload nearly the same for every workload seed, so run-to-run
spread measures the program and the machine, not the draw.  Inputs
are not relabeled: vertex order decides the class numbering, which
moves both Smith-form pivoting and what ``--corrupt`` damages, and
with them the cost.

Nothing here imports ``soficshift``: the benchmark's checks reuse
these structures as their independent reference.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

CORRUPTION_KINDS = ("reassign-range", "drop-edge", "duplicate-label",
                    "drop-letter")


@dataclass(frozen=True)
class Presentation:
    """A labeled graph (``forbidden is None``) or a shift of finite
    type given by forbidden words; an SFT with no forbidden words is
    the full shift.  Labels and words are indices into ``tokens``."""

    name: str
    tokens: tuple[str, ...]
    vertices: int = 0
    edges: tuple[tuple[int, int, int], ...] = ()
    forbidden: tuple[tuple[int, ...], ...] | None = None

    def text(self) -> str:
        lines = ["alphabet " + " ".join(self.tokens)]
        if self.forbidden is None:
            lines += [f"vertex v{i}" for i in range(self.vertices)]
            lines += [f"edge v{s} v{t} {self.tokens[a]}"
                      for s, t, a in self.edges]
        else:
            lines += ["forbid " + " ".join(self.tokens[a] for a in w)
                      for w in self.forbidden]
        return "\n".join(lines) + "\n"


def _digits(k: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(k))


def rr_graph(gseed: int, n: int, k: int, p: float = 0.8) -> Presentation:
    """The right-resolving generator: each (vertex, letter) pair gets
    one edge to a uniformly random target with probability ``p``."""
    rng = random.Random(gseed)
    edges = tuple((v, rng.randrange(n), a)
                  for v in range(n) for a in range(k) if rng.random() < p)
    return Presentation(f"rr{k}_n{n}_g{gseed}", _digits(k), n, edges)


def nondeterministic_graph(gseed: int, n: int = 8,
                           density: float = 0.18) -> Presentation:
    """A 2-letter graph with every (source, target, label) triple
    present independently; vertices usually emit a letter twice."""
    rng = random.Random(gseed)
    edges = tuple((s, t, a) for s in range(n) for t in range(n)
                  for a in range(2) if rng.random() < density)
    return Presentation(f"nrr_g{gseed}", _digits(2), n, edges)


def random_sft(gseed: int) -> Presentation:
    """A 3-letter SFT with two or three forbidden words of length
    3 to 5."""
    rng = random.Random(gseed)
    words = tuple(tuple(rng.randrange(3) for _ in range(rng.randint(3, 5)))
                  for _ in range(rng.choice((2, 3))))
    return Presentation(f"sft3_g{gseed}", _digits(3), forbidden=words)


FULL3 = Presentation("full3", _digits(3), forbidden=())
FULL4 = Presentation("full4", _digits(4), forbidden=())
GOLDEN = Presentation("golden", _digits(2), forbidden=((1, 1),))
EVEN = Presentation("even", _digits(2), 2, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))

# Generator seeds per band, chosen from ``python3 bench/survey.py``.
# Within a band the CLI times of the members were within about 10% of
# each other (the timing noise of the machine they were measured on),
# and the sizes close, at the commit that introduced the benchmark.
POOLS: dict[str, list[list[int]]] = {
    # rr_graph(g, 12 + g % 3, 2): |S| about 1.2k, 3k-5k and 11.5k
    "rr2": [[99, 113, 123, 126], [57, 58, 104, 143], [1094, 1278]],
    # rr_graph(g, 5, 10): 28-31 classes and 227-268 edges
    "rr10": [[5, 6, 21, 27], [9, 22, 25, 34]],
    # nondeterministic_graph(g): 15-24 vertices after determinization
    "nrr": [[97, 105, 141], [1, 29, 34]],
    # random_sft(g): 26-81 vertices after compilation
    "sft3": [[0, 2, 3, 7, 20], [1, 23, 26, 57]],
    # rr_graph(g, 12, 2): covers with 35-38 classes
    "classes": [[6, 483], [305, 461]],
}


GENERATORS = {
    "rr2": lambda g: rr_graph(g, 12 + g % 3, 2),
    "rr10": lambda g: rr_graph(g, 5, 10),
    "nrr": nondeterministic_graph,
    "sft3": random_sft,
    "classes": lambda g: rr_graph(g, 12, 2),
}


def draw(part: str, rng: random.Random) -> list[Presentation]:
    """One presentation per band of ``part``, in band order."""
    return [GENERATORS[part](rng.choice(band)) for band in POOLS[part]]


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: ``soficshift <argv>`` on ``presentation``."""

    index: int
    presentation: Presentation
    path: str
    argv: tuple[str, ...]
    corrupt: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def inputs(workload: str, seed: int) -> list[Presentation]:
    """The workload's presentations for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cover_ktheory":
        return draw("rr2", rng) + draw("rr10", rng) + draw("nrr", rng)
    if workload == "verify_words":
        return [FULL3, FULL4, EVEN, GOLDEN] + draw("sft3", rng)
    if workload == "verify_classes":
        return draw("classes", rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cover_ktheory", "verify_words", "verify_classes")


def commands(workload: str) -> list[tuple[tuple[str, ...], str | None]]:
    """The CLI calls made on each input of the workload, in order, as
    (subcommand and flags, ``--corrupt`` kind or None)."""
    if workload == "cover_ktheory":
        return [(("cover",), None), (("ktheory",), None)]
    if workload == "verify_words":
        return [(("verify", "--max-word-len", "8"), None)]
    verify = ("verify", "--max-word-len", "4")
    return [(verify, None)] + [(verify + ("--corrupt", kind), kind)
                               for kind in CORRUPTION_KINDS]


def write_operations(runs, directory: str) -> list[Operation]:
    """Write the presentation of each (presentation, CLI calls as in
    ``commands``) pair into ``directory`` and return the operations in
    execution order."""
    os.makedirs(directory, exist_ok=True)
    ops: list[Operation] = []
    for i, (p, calls) in enumerate(runs):
        path = os.path.join(directory, f"{i:02d}_{p.name}.shift")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(p.text())
        for argv, kind in calls:
            ops.append(Operation(len(ops), p, path,
                                 (argv[0], path) + argv[1:], kind))
    return ops


def write_corpus(workload: str, seed: int, directory: str) -> list[Operation]:
    """Write the workload's files into ``directory`` and return its
    operations in execution order."""
    calls = commands(workload)
    return write_operations([(p, calls) for p in inputs(workload, seed)],
                            directory)
