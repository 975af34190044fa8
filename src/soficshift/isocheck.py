"""Mechanical verification of the finite combinatorial identities
relating a shift's diagonal model to its cover's edge algebra.

Every check family compares two independently computed objects: a
"graph route" derived from the cover's edges and the clopen-set
engine, against a "relation route" derived from survivor sets and
their letter-prepend map, never the transition semigroup.  A correct
cover passes every family; a corrupted cover (edges dropped, ranges
reassigned, labels duplicated) is caught by the family whose identity
it breaks, with a witness.

Checks are counted per word but decided once per distinct input they
depend on: the word families once per scan state, the conjugation
identity once per post image (the set of classes a word can precede),
and the projection formulas of all classes by one grouping of the
classes by their memberships in the table words' post images.  On a
left-resolving cover every word of one scan state has the same post
image, so the clopen families read the post image of the state's
least word only, which the word scan carries: one forward letter step
from the post image of the shorter least word it extends.  The
conjugation check reads the scan's post images; the formulas take
those of their table words by the graph route.  One ``verify_all``
call also builds each edge's mapped range projection once, in one list that
class_edge_splitting, edge_support_sums, range_projection_orthogonality
and range_projection_partition share.  Range projection orthogonality
groups the edges by the depth-1 cells of their images and by their
(label, range) pairs; every pair in a group fails, so only the least
such pair is intersected, for its witness.  On a left-resolving cover
on which every class has an out-edge the partition unites the images
in one step.
The memo tables are locals of one call, and each witness is the one a
word by word, class by class, pair by pair run gives.

Reports are plain data; rendering is left to callers.

Examples
--------
>>> from .krieger import build_cover
>>> from .shiftcore import parse_presentation
>>> even = build_cover(parse_presentation(
...     "alphabet 0 1\\nvertex a\\nvertex b\\n"
...     "edge a a 1\\nedge a b 0\\nedge b a 0\\n"))
>>> verify_all(even, max_len=4).failed == 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import diagonal
from .diagonal import ClopenSet
from .errors import AmbiguousLabelError
from .krieger import KriegerCover, _bits
from .shiftcore import EPSILON, Edge, Word

FAMILY_ORDER = (
    "word_path_equivalence",
    "shifted_cylinder_classes",
    "word_range_projections",
    "class_edge_splitting",
    "conjugation_locality",
    "range_projection_orthogonality",
    "edge_support_sums",
    "range_projection_partition",
    "left_resolving",
    "edge_label_cover",
    "labeled_path_ranges",
    "path_concatenation",
    "letter_roundtrip",
    "edge_roundtrip",
    "projection_word_formulas",
)

CLOPEN_WORD_CAP = 5

CORRUPTION_KINDS = ("reassign-range", "drop-edge", "duplicate-label",
                    "drop-letter")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    witness: str | None = None

    def render(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.name} " \
               f"checked={self.checked}"
        if self.witness is not None:
            line += f" witness={self.witness}"
        return line


@dataclass(frozen=True)
class Report:
    results: tuple[CheckResult, ...]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        lines = [r.render() for r in self.results]
        lines.append(f"families={len(self.results)} failed={self.failed}")
        return "\n".join(lines)


class _Recorder:
    """Accumulates per-family counts and first witnesses."""

    def __init__(self):
        self.checked: dict[str, int] = {}
        self.witness: dict[str, str] = {}

    def count(self, family: str, n: int = 1) -> None:
        self.checked[family] = self.checked.get(family, 0) + n

    def fail(self, family: str, witness: str | Callable[[], str]) -> None:
        """Record a failure; only the first witness of a family is
        kept, and a callable witness is rendered only if it is kept."""
        if family not in self.witness:
            self.witness[family] = (witness() if callable(witness)
                                    else witness)

    def result(self, family: str) -> CheckResult:
        w = self.witness.get(family)
        return CheckResult(family, w is None,
                           self.checked.get(family, 0), w)


def _word_str(cover: KriegerCover, word: Word) -> str:
    return cover.alphabet.render(word)


def _class_numbers(mask: int) -> list[int]:
    return [i + 1 for i in _bits(mask)]


def _edge_str(cover: KriegerCover, e: Edge) -> str:
    return f"E{e.src + 1}--{cover.alphabet.tokens[e.label]}-->E{e.dst + 1}"


def _post_image(cover: KriegerCover, word: Word) -> int | str:
    """The word's post image by the graph route (``diagonal._word_mask``)
    as the bitmask of its classes, or the message of its ambiguity
    error.  Only the message is kept, never the error, whose traceback
    would tie the cover into a reference cycle."""
    try:
        return diagonal._word_mask(cover, word)
    except AmbiguousLabelError as exc:
        return str(exc)


def _mask_str(cover: KriegerCover, mask: int) -> str:
    # a class mask rendered as its depth-0 clopen set
    return diagonal._at_word(cover, EPSILON, mask).render()


# (least word, word count, relation classes, post image of the least
# word) of one (length, scan state) pair
_Pair = tuple[Word, int, int, int | str]


def _scan_words(cover: KriegerCover, max_len: int, clopen_len: int,
                pairs: list[list[_Pair]] | None = None) -> _Recorder:
    """The word-indexed families over all admissible words up to
    ``max_len``, by a dynamic program over (length, scan state).

    A word's core is the relation route's map from each class to the
    class of the word's preimage of its sets (-1 if that is empty),
    extended one letter at a time through the class-indexed prepend
    table, and the graph route's backward map (end class -> source
    class of the unique path).  The backward map also gives the
    forward path ends: both start at every class, and a letter keeps a
    class exactly when one of its sources on that letter is kept.  A
    letter step of the relation map is a gather by the prepend table;
    where the letter has one in-edge source table (every letter of a
    left-resolving cover), so is the step of the backward map, and no
    two paths meet.  On an intact cover the two maps are equal.  Its
    scan state adds the class where two paths labeled the word end, if
    any.  Every word-indexed check depends only on the scan state, so
    it is decided once per (length, state) pair and counted once per
    word reaching the pair.  Pairs are taken in the order of their
    least words: by length, then lexicographically, with pruned words
    (those that precede no class by either route) never extended.  A
    family's witness is thus the least word of its first failing pair,
    the first failing word.

    Up to ``clopen_len`` ``word_range_projections`` compares the post
    image of the pair's least word with the relation route.  That post
    image is the set of the word's forward path ends, the classes where
    the backward map is defined, so every word of the pair has it.  The
    scan carries it with the pair: the least word of a pair extends the
    least word of the pair before it by one letter, so on a
    left-resolving cover its post image is one forward letter step
    (``diagonal._letter_mask``) from that pair's.  Only on a cover that
    is not left-resolving does the state up to ``clopen_len`` also hold
    the word itself: there the graph route names the ambiguity a word's
    backward walk meets, which is the word's own, and each word's post
    image is its own backward walk (``_post_image``).  If ``pairs`` is
    given, the (least word, word count, relation classes, post image)
    of every pair up to ``clopen_len`` are appended to it, one list per
    length from the empty word's.
    """
    if max_len < 0:
        raise ValueError("word length must be nonnegative")
    rec = _Recorder()
    m = cover.class_count
    prepend = cover.prepend
    index = cover.index
    sources = index.sources
    per_word = not index.left_resolving
    letters = list(cover.alphabet)
    # core id -> (relation map, back, relation classes, path classes):
    # per class the class of the preimage and the source class of the
    # path (-1: none), then the classes where each is defined as
    # bitmasks.  A core is keyed by its first two fields, which fix the
    # other two.
    cores: list[tuple] = []
    ids: dict[tuple, int] = {}
    steps: dict[tuple[int, int], tuple[int | None, int | None]] = {}

    def core(rel: tuple, back: tuple) -> int | None:
        key = (rel, back)
        if key not in ids:
            a_set = sum(1 << i for i, p in enumerate(rel) if p >= 0)
            b_set = sum(1 << i for i, s in enumerate(back) if s >= 0)
            if not a_set and not b_set:
                return None
            ids[key] = len(cores)
            cores.append((rel, back, a_set, b_set))
        return ids[key]

    def step(cid: int, a: int) -> tuple[int | None, int | None]:
        # the core after letter a (None if pruned), and the class where
        # two paths meet on a, the last such in edge order.  A class
        # without a preimage or source on a reads the appended -1.
        if (cid, a) not in steps:
            rel, back = cores[cid][:2]
            tables = sources.get(a, ())
            met = None
            if len(tables) < 2:
                back2 = tuple(map((back + (-1,)).__getitem__,
                                  tables[0])) if tables else (-1,) * m
            else:
                back2 = [-1] * m
                for dst, srcs in enumerate(zip(*tables)):
                    live = [s for s in srcs if s >= 0 and back[s] >= 0]
                    if live:
                        back2[dst] = min(back[s] for s in live)
                        if len(live) > 1 and (met is None
                                              or (live[-1], dst) > met):
                            met = (live[-1], dst)
                back2 = tuple(back2)
            steps[cid, a] = (
                core(tuple(map((rel + (-1,)).__getitem__, prepend[a])),
                     back2),
                None if met is None else met[1])
        return steps[cid, a]

    # (core, ambiguous class, word up to clopen_len on a cover that is
    # not left-resolving) -> [word count, least word, post image of the
    # least word up to clopen_len, else None]
    start = core(tuple(range(m)), tuple(range(m)))
    everything = (1 << m) - 1
    frontier: dict[tuple, list] = {
        (start, None, EPSILON): [1, EPSILON, everything]}
    if pairs is not None:
        pairs.append([(EPSILON, 1, cores[start][2], everything)])
    for k in range(1, max_len + 1):
        clopen = k <= clopen_len
        nxt: dict[tuple, list] = {}
        for (cid, _, _), (n, least, image) in frontier.items():
            for a in letters:
                child, amb = step(cid, a)
                if child is None:
                    continue
                w = least + (a,)
                key = (child, amb, w if clopen and per_word else None)
                if key in nxt:
                    nxt[key][0] += n
                elif not clopen:
                    nxt[key] = [n, w, None]
                elif per_word:
                    nxt[key] = [n, w, _post_image(cover, w)]
                else:
                    nxt[key] = [n, w, diagonal._letter_mask(index, image, a)]
        if clopen and pairs is not None:
            pairs.append([(w, n, cores[cid][2], lhs)
                          for (cid, _, _), (n, w, lhs) in nxt.items()])

        for (cid, amb, _), (n, w, lhs) in nxt.items():
            rel, back, a_set, b_set = cores[cid]

            # witnesses are callables, rendered only when kept
            if amb is not None:
                for fam in ("word_path_equivalence", "path_concatenation"):
                    rec.fail(fam, lambda: (
                        f"two paths labeled {_word_str(cover, w)} "
                        f"end at E{amb + 1}"))

            # word_path_equivalence: existence and source class of
            # the unique path against the iterated prepend, two maps
            # that are equal on an intact cover
            rec.count("word_path_equivalence", m * n)
            for i, (p, s) in enumerate(zip(rel, back) if rel != back else ()):
                if (p >= 0) != (s >= 0):
                    rec.fail("word_path_equivalence", lambda: (
                        f"word {_word_str(cover, w)}, class "
                        f"E{i + 1}: path "
                        f"{'missing' if p >= 0 else 'spurious'}"))
                elif p != s:
                    rec.fail("word_path_equivalence", lambda: (
                        f"word {_word_str(cover, w)} into "
                        f"E{i + 1}: path source "
                        f"E{s + 1}, prepend lands in E{p + 1}"))

            # shifted_cylinder_classes (the classes the word can
            # precede) and labeled_path_ranges (its forward path ends)
            # are by paths both the classes where back is defined
            rec.count("shifted_cylinder_classes", n)
            rec.count("labeled_path_ranges", n)
            if b_set != a_set:
                for fam, what in (("shifted_cylinder_classes",
                                   "path classes"),
                                  ("labeled_path_ranges", "forward ends")):
                    rec.fail(fam, lambda: (
                        f"word {_word_str(cover, w)}: {what} "
                        f"{_class_numbers(b_set)} != relation "
                        f"classes {_class_numbers(a_set)}"))

            # path_concatenation: the source/end relation of the word
            # factors through its first letter.  The backward map is
            # composed of per-letter maps read from one index, so where
            # each is a partial function the factoring holds by
            # construction; where one is not, its one-letter word has
            # two paths meeting (the ambiguity above) and fails first.
            # So only the words of length >= 2 are counted here.
            if k > 1:
                rec.count("path_concatenation", n)

            # word_range_projections: clopen post image against the
            # relation-route class sum
            if clopen:
                rec.count("word_range_projections", n)
                if isinstance(lhs, str):
                    rec.fail("word_range_projections", lambda: (
                        f"word {_word_str(cover, w)}: {lhs}"))
                elif lhs != a_set:
                    rec.fail("word_range_projections", lambda: (
                        f"word {_word_str(cover, w)}: "
                        f"{_mask_str(cover, lhs)} != "
                        f"{_mask_str(cover, a_set)}"))
        frontier = nxt
    return rec


def _derived_splits(cover: KriegerCover) -> list[set[tuple[int, int]]]:
    """Per class, the (letter, target class) split derived from the
    survivor-set prepend map, independent of the cover's edges."""
    splits: list[set[tuple[int, int]]] = [
        set() for _ in range(cover.class_count)]
    for a, row in zip(cover.alphabet, cover.prepend):
        for i, p in enumerate(row):
            if p >= 0:
                splits[p].add((a, i))
    return splits


def _split_str(cover, split) -> str:
    return "{" + ", ".join(
        f"{cover.alphabet.tokens[a]}->E{i + 1}"
        for a, i in sorted(split)) + "}"


_SplitOutcome = tuple[bool, str] | None


def _split_identities(cover: KriegerCover,
                      derived: list[set[tuple[int, int]]],
                      images: list[ClopenSet]) -> list[_SplitOutcome]:
    """Per class i, the split identity E_i = sum over the out-edges e
    of i of the mapped range projection of e, from ``images``, grounded
    against the derived split.  The images of each class's out-edges
    are united in edge order.

    An outcome is None when it holds, else (whether the cover's split
    already differs from the derived one, the detail for a witness).
    """
    by_src: list[list[ClopenSet]] = [[] for _ in range(cover.class_count)]
    cover_splits: list[set[tuple[int, int]]] = [set() for _ in by_src]
    for e, img in zip(cover.edges, images):
        by_src[e.src].append(img)
        cover_splits[e.src].add((e.label, e.dst))
    outcomes: list[_SplitOutcome] = []
    for i, cover_split in enumerate(cover_splits):
        if cover_split != derived[i]:
            outcomes.append((True, f"cover split "
                                   f"{_split_str(cover, cover_split)} != "
                                   f"derived split "
                                   f"{_split_str(cover, derived[i])}"))
            continue
        lhs = diagonal.class_projection(cover, i)
        rhs = diagonal._union_all(cover, by_src[i])
        outcomes.append(None if lhs == rhs else
                        (False, f"{lhs.render()} != {rhs.render()}"))
    return outcomes


def _check_class_splitting(cover: KriegerCover, rec: _Recorder,
                           outcomes: list[_SplitOutcome]) -> None:
    for i, outcome in enumerate(outcomes):
        rec.count("class_edge_splitting")
        if outcome is not None:
            rec.fail("class_edge_splitting",
                     f"class E{i + 1}: {outcome[1]}")


_ConjugationOutcome = tuple[int, tuple[int | None, str] | None]


def _conjugation_outcome(cover: KriegerCover,
                         F: ClopenSet) -> _ConjugationOutcome:
    """The identity conj_by_letter(a, F) == cylinder(a) ∩ shift_preimage(F)
    letter by letter: the number of letters counted and the first
    failure, as (letter, detail), or (None, message) for an ambiguity,
    which stops the count.  Each letter's conjugate is taken once and
    serves as the left side and, united in letter order as
    ``diagonal.shift_preimage`` unites them, as the preimage."""
    counted = 0
    failure = None
    try:
        conjugates = [diagonal.conj_by_letter(cover, a, F)
                      for a in cover.alphabet]
        lifted = diagonal._union_all(cover, conjugates)
        for a, lhs in zip(cover.alphabet, conjugates):
            counted += 1
            rhs = diagonal.cylinder(cover, (a,)).intersect(lifted)
            if failure is None and lhs != rhs:
                failure = (a, f"{lhs.render()} != {rhs.render()}")
    except AmbiguousLabelError as exc:
        if failure is None:
            failure = (None, str(exc))
    return counted, failure


def _check_conjugation(cover: KriegerCover, rec: _Recorder,
                       pairs: list[list[_Pair]]) -> None:
    """conjugation_locality over the words of the word scan's (length,
    scan state) pairs, ``pairs`` as ``_scan_words`` fills it up to its
    clopen length.

    A pair's words are words of the shift exactly when its relation
    classes are not empty, and they all share the post image F of its
    least word, which the pair carries.  A word reaches the identity
    only through F, so the outcome is decided once per distinct F and
    counted per word; the witness is the first failing (word, letter),
    words in length then lexicographic order, as the pairs come.
    """
    outcomes: dict[int, _ConjugationOutcome] = {}
    for nu, n, a_set, F in (p for level in pairs for p in level):
        if not a_set:
            continue
        if isinstance(F, str):
            rec.fail("conjugation_locality",
                     f"word {_word_str(cover, nu)}: {F}")
            continue
        if F not in outcomes:
            outcomes[F] = _conjugation_outcome(
                cover, diagonal._at_word(cover, EPSILON, F))
        counted, failure = outcomes[F]
        rec.count("conjugation_locality", counted * n)
        if failure is not None:
            a, detail = failure
            rec.fail("conjugation_locality", lambda: (
                f"word {_word_str(cover, nu)}: {detail}" if a is None else
                f"letter {cover.alphabet.tokens[a]}, word "
                f"{_word_str(cover, nu)}: {detail}"))


def _range_images(cover: KriegerCover) -> list[ClopenSet]:
    """Per edge e, the mapped range projection s_e s_e*: E_r(e)
    conjugated by the letter of e.

    One list, built once per verify call, serves class_edge_splitting,
    edge_support_sums (through the split identities),
    range_projection_orthogonality and range_projection_partition.  A
    class projection has depth 0, so conjugating it walks no edge
    backward and meets no ambiguity, even on a cover that is not
    left-resolving.
    """
    return [diagonal.conj_by_letter(cover, e.label,
                                    diagonal.class_projection(cover, e.dst))
            for e in cover.edges]


def _check_orthogonality(cover: KriegerCover, rec: _Recorder,
                         images: list[ClopenSet]) -> None:
    """range_projection_orthogonality: distinct edges have distinct
    (label, range) pairs and disjoint mapped range projections.

    Every image conjugates a depth-0 set, so it has depth at most 1,
    and two images meet exactly when they share a depth-1 cell.  The
    edges are grouped by the depth-1 cells their images meet and by
    their (label, range) pairs; every pair in one group fails, and no
    other pair does, so the least pair over the groups is the witness
    an all pairs scan gives.  All E(E-1)/2 pairs are counted.
    """
    edges = cover.edges
    rec.count("range_projection_orthogonality",
              len(edges) * (len(edges) - 1) // 2)
    groups: dict[tuple, list[int]] = {}
    for idx, (e, img) in enumerate(zip(edges, images)):
        groups.setdefault((e.label, e.dst, "range"), []).append(idx)
        assert img.depth <= 1, "range projection deeper than 1"
        for cell in img.refine(1).cells:
            groups.setdefault(cell, []).append(idx)
    pairs = [(m[0], m[1]) for m in groups.values() if len(m) > 1]
    if not pairs:
        return
    i, j = min(pairs)
    ei, ej = edges[i], edges[j]
    if (ei.label, ei.dst) == (ej.label, ej.dst):
        rec.fail("range_projection_orthogonality",
                 f"{_edge_str(cover, ei)} and {_edge_str(cover, ej)} "
                 f"share label and range")
    else:
        meet = images[i].intersect(images[j])
        rec.fail("range_projection_orthogonality",
                 f"{_edge_str(cover, ei)} and {_edge_str(cover, ej)} "
                 f"overlap on {meet.render()}")


def _check_ck(cover: KriegerCover, rec: _Recorder,
              derived: list[set[tuple[int, int]]],
              outcomes: list[_SplitOutcome],
              images: list[ClopenSet]) -> None:
    """The relations of the mapped generators: the orthogonality of the
    range projections (``_check_orthogonality``), the support sums from
    the split identities in ``outcomes``, and the partition of the
    whole space.  The partition compares the (label, range) cells of
    the edges with the prepend-derived ones and, where they agree,
    unites the images by ``diagonal._union_all``: in one step on a
    left-resolving cover on which every class has an out-edge, one at
    a time on any other.
    """
    edges = cover.edges
    _check_orthogonality(cover, rec, images)

    # edge_support_sums: the support projection of each mapped
    # generator equals the sum over the edges its range emits: the
    # split identity of the range class
    for e in edges:
        rec.count("edge_support_sums")
        outcome = outcomes[e.dst]
        if outcome is not None:
            split_differs, detail = outcome
            if split_differs:
                detail = f"class E{e.dst + 1} {detail}"
            rec.fail("edge_support_sums",
                     f"edge {_edge_str(cover, e)}: {detail}")

    # range_projection_partition: the mapped range projections tile
    # the whole space; grounded against the prepend-derived cells
    rec.count("range_projection_partition")
    cover_cells = {(e.label, e.dst) for e in edges}
    derived_cells = set()
    for i, split in enumerate(derived):
        derived_cells |= split
    if cover_cells != derived_cells:
        rec.fail(
            "range_projection_partition",
            f"depth-1 cells from edges {_split_str(cover, cover_cells)} "
            f"!= derived cells {_split_str(cover, derived_cells)}")
    else:
        total = diagonal._union_all(cover, images)
        if total != diagonal.full_space(cover):
            rec.fail("range_projection_partition",
                     f"union of range projections is "
                     f"{total.render()}, not the whole space")


def _check_edge_sum_structural(cover: KriegerCover, rec: _Recorder) -> None:
    # left_resolving: no two edges with one label into one vertex
    seen: dict[tuple[int, int], Edge] = {}
    for e in cover.edges:
        rec.count("left_resolving")
        key = (e.dst, e.label)
        if key in seen:
            rec.fail(
                "left_resolving",
                f"class E{e.dst + 1} has two incoming edges labeled "
                f"{cover.alphabet.tokens[e.label]}")
        seen[key] = e

    # edge_label_cover: cover letters match the letters that can be
    # prepended to some class, and the labeled edge sets tile the
    # edge set
    rec.count("edge_label_cover")
    used_b = {e.label for e in cover.edges}
    used_a = {a for a, row in zip(cover.alphabet, cover.prepend)
              if any(p >= 0 for p in row)}
    if used_b != used_a:
        names = cover.alphabet.tokens
        rec.fail(
            "edge_label_cover",
            f"cover uses letters {sorted(names[a] for a in used_b)}, "
            f"prepend map uses {sorted(names[a] for a in used_a)}")
    tiled = [e for a in cover.alphabet for e in cover.edges
             if e.label == a]
    rec.count("edge_label_cover")
    if sorted(tiled, key=lambda e: (e.src, e.dst, e.label)) != \
            list(cover.edges):
        rec.fail("edge_label_cover",
                 "labeled edge sets do not tile the edge set")


def _check_round_trips(cover: KriegerCover, rec: _Recorder) -> None:
    # letter_roundtrip: ranges of the edges carrying each letter equal
    # the classes the letter can be prepended to
    for a, row in zip(cover.alphabet, cover.prepend):
        rec.count("letter_roundtrip")
        b_side = {e.dst for e in cover.edges if e.label == a}
        a_side = {i for i, p in enumerate(row) if p >= 0}
        if b_side != a_side:
            rec.fail(
                "letter_roundtrip",
                f"letter {cover.alphabet.tokens[a]}: edge ranges "
                f"{sorted(x + 1 for x in b_side)} != prependable "
                f"classes {sorted(x + 1 for x in a_side)}")
    rec.count("letter_roundtrip")
    total = diagonal._union_all(cover, (diagonal.class_projection(cover, i)
                                        for i in range(cover.class_count)))
    if total != diagonal.full_space(cover):
        rec.fail("letter_roundtrip",
                 "class projections do not sum to the whole space")

    # edge_roundtrip: an edge is recovered from its label and range,
    # unless another edge has both
    sharing: dict[tuple[int, int], int] = {}
    for f in set(cover.edges):
        sharing[f.label, f.dst] = sharing.get((f.label, f.dst), 0) + 1
    for e in cover.edges:
        rec.count("edge_roundtrip")
        if sharing[e.label, e.dst] > 1:
            rec.fail(
                "edge_roundtrip",
                f"edges into E{e.dst + 1} labeled "
                f"{cover.alphabet.tokens[e.label]} are not unique")


_SIGNATURE_CHUNK = 512


def _signatures(masks: list[int], m: int) -> list[int]:
    # per class j < m, its membership in each of ``masks`` as an int
    # whose bits, most significant first, follow the masks' order: the
    # columns of the masks' bit matrix, read off their binary strings
    # (class j is the (j + 1)-th character from the right), a chunk of
    # rows at a time so that only one chunk is held as characters
    sigs = [0] * m
    for start in range(0, len(masks), _SIGNATURE_CHUNK):
        rows = [format(mask, f"0{m}b")
                for mask in masks[start:start + _SIGNATURE_CHUNK]]
        for c, column in enumerate(zip(*rows)):
            j = m - 1 - c
            sigs[j] = sigs[j] << len(rows) | int("".join(column), 2)
    return sigs


def _check_projection_formulas(cover: KriegerCover,
                               rec: _Recorder) -> None:
    """projection_word_formulas: each class projection E_i is the
    product of its formula (``diagonal.express_class_projection``) over
    the post images of the ``range_witnesses`` words, each taken once
    by ``_post_image``.

    Class i's formula takes the table words whose key holds i as
    positive and the rest as negative.  Its product is therefore the
    set of classes j whose membership in the words' post images matches
    i's membership in their keys: the group of i's key signature, once
    the classes are grouped by their signatures over the post images.
    The classes are grouped once, and class i passes exactly when its
    group is {i}; a failing value is that group, rendered only for the
    witness.  The all-classes key belongs to the empty word, where the
    table search starts, and the formula drops that factor unless it is
    i's only positive word, so the signatures leave it out and the
    group of a class in no other key is intersected with the empty
    word's post image, taken once before the classes are visited.  That
    post image walks no edge, so an ambiguous post image belongs to a
    word every formula names, and every class fails; the witness is the
    first class's first ambiguous word, positive words first, as a class
    by class run gives it.
    """
    m = cover.class_count
    everything = (1 << m) - 1
    table = cover.range_witnesses
    images = {v: _post_image(cover, w) for v, w in table.items()}
    rec.count("projection_word_formulas", m)
    if any(isinstance(x, str) for x in images.values()):
        msg = next(x for _, x in sorted(images.items(),
                                        key=lambda vx: not vx[0] & 1)
                   if isinstance(x, str))
        rec.fail("projection_word_formulas", f"class E1: {msg}")
        return
    empty_image = images[everything]
    rows = [(v, x) for v, x in images.items() if v != everything]
    signatures = _signatures([x for _, x in rows], m)
    keys = signatures if all(v == x for v, x in rows) else \
        _signatures([v for v, _ in rows], m)
    groups: dict[int, int] = {}
    for j, sig in enumerate(signatures):
        groups[sig] = groups.get(sig, 0) | 1 << j
    for i, key in enumerate(keys):
        value = groups.get(key, 0)
        if not key:
            value &= empty_image
        if value != 1 << i:
            rec.fail("projection_word_formulas", lambda: (
                f"class E{i + 1}: formula evaluates to "
                f"{_mask_str(cover, value)}"))
            return


def _results(rec: _Recorder, names) -> tuple[CheckResult, ...]:
    return tuple(rec.result(n) for n in names)


def verify_ck_relations(cover: KriegerCover) -> tuple[CheckResult, ...]:
    """Check the edge-algebra relations of the mapped generators:
    pairwise orthogonality of range projections, the support sums over
    same-source edges, and the partition of the whole space."""
    rec = _Recorder()
    derived = _derived_splits(cover)
    images = _range_images(cover)
    _check_ck(cover, rec, derived,
              _split_identities(cover, derived, images), images)
    return _results(rec, ("range_projection_orthogonality",
                          "edge_support_sums",
                          "range_projection_partition"))


def verify_edge_sum_hypotheses(cover: KriegerCover,
                          max_len: int = 8) -> tuple[CheckResult, ...]:
    """Check the combinatorial facts behind mapping the shift algebra
    onto the edge algebra: left-resolving labels, label tiling, path
    end sets per word, and path concatenation."""
    rec = _scan_words(cover, max_len, clopen_len=0)
    _check_edge_sum_structural(cover, rec)
    return _results(rec, ("left_resolving", "edge_label_cover",
                          "labeled_path_ranges", "path_concatenation"))


def verify_round_trips(cover: KriegerCover) -> tuple[CheckResult, ...]:
    """Check the two composite maps letter -> edges -> letter and
    edge -> letter and range -> edge act as the identity."""
    rec = _Recorder()
    _check_round_trips(cover, rec)
    return _results(rec, ("letter_roundtrip", "edge_roundtrip"))


def verify_all(cover: KriegerCover, max_len: int = 8) -> Report:
    """Run every check family and aggregate the outcomes.

    Word-indexed families run over all admissible words up to
    ``max_len``, counted per word but decided once per (length, scan
    state) pair (see ``_scan_words``).  Families that go through the
    clopen engine cap the word length at ``CLOPEN_WORD_CAP`` (5) to
    stay inside desk-scale budgets and read the scan's pairs up to the
    cap: ``word_range_projections`` is decided once per pair, by the
    post image of its least word, and ``conjugation_locality`` once per
    post image of the pairs' least words, counted per word (see
    ``_check_conjugation``).  On a cover that is not left-resolving
    each word up to the cap is a pair of its own.  Both families read
    the post images that the scan carries with its pairs; the
    projection formulas take those of their table words.
    """
    pairs: list[list[_Pair]] = []
    rec = _scan_words(cover, max_len,
                      clopen_len=min(max_len, CLOPEN_WORD_CAP), pairs=pairs)
    derived = _derived_splits(cover)
    images = _range_images(cover)
    outcomes = _split_identities(cover, derived, images)
    _check_class_splitting(cover, rec, outcomes)
    _check_conjugation(cover, rec, pairs)
    _check_ck(cover, rec, derived, outcomes, images)
    _check_edge_sum_structural(cover, rec)
    _check_round_trips(cover, rec)
    _check_projection_formulas(cover, rec)
    return Report(_results(rec, FAMILY_ORDER))


def corrupt_cover(cover: KriegerCover, kind: str) -> KriegerCover:
    """Deliberately damage a cover's edge set; testing hook.

    Kinds: ``reassign-range`` moves one edge's range to another class,
    ``drop-edge`` removes the first edge, ``duplicate-label`` adds a
    second edge with an existing (label, range) pair, ``drop-letter``
    removes every edge carrying the first used letter.
    """
    edges = list(cover.edges)
    if kind == "reassign-range":
        for idx, e in enumerate(edges):
            for new_dst in range(cover.class_count):
                cand = Edge(e.src, new_dst, e.label)
                if new_dst != e.dst and cand not in edges:
                    edges[idx] = cand
                    return cover.with_edges(edges)
        raise ValueError("no range reassignment available")
    if kind == "drop-edge":
        if len(edges) < 2:
            raise ValueError("not enough edges to drop one")
        return cover.with_edges(edges[1:])
    if kind == "duplicate-label":
        for e in edges:
            for new_src in range(cover.class_count):
                cand = Edge(new_src, e.dst, e.label)
                if new_src != e.src and cand not in edges:
                    edges.append(cand)
                    return cover.with_edges(edges)
        raise ValueError("no label duplication available")
    if kind == "drop-letter":
        label = edges[0].label
        remaining = [e for e in edges if e.label != label]
        if not remaining:
            raise ValueError("dropping the letter would empty the cover")
        return cover.with_edges(remaining)
    raise ValueError(f"unknown corruption kind {kind!r}")
