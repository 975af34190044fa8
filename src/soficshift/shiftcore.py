"""Alphabets, words, labeled-graph presentations, and the word language.

A sofic shift is presented by a finite labeled directed graph; the
one-sided shift space is realized as the set of label sequences of
right-infinite paths in an essential presentation.  Words are stored
as tuples of symbol indices into an :class:`Alphabet`, so all
algorithms work on dense integers while input and output use the
declared symbol tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyShiftError, InputFormatError, ResourceLimitError

Word = tuple[int, ...]

EPSILON: Word = ()

# Cap on the clean words of one length in ``sft_to_graph``.  The words
# of the longest length become vertices, and a graph of n vertices
# keeps a successor and a predecessor bitmask of up to n bits per
# letter and vertex, about n * n / 8 bytes per letter (8 MB at this
# cap).  The cover's pair graph already refuses the 4,096-vertex
# higher-block graphs of one forbidden run of zeros (2 letters, length
# 13; 4 letters, length 7), so only ``words`` reads graphs this large.
# The test and benchmark inputs reach at most 81 clean words.
CLEAN_WORD_CAP = 2 ** 13

# Cap on the words of one length in ``words_of_length``.  The listing
# holds one small entry per word of every length, then spells the words
# of the last length as tuples of their letters, about 200 bytes each at
# length 18, and ``words`` sorts a copy.  On the full 2-shift the 2**18
# words of length 18 print at a peak RSS of about 120 MB, and length 19
# is refused at about 85 MB; without the cap, length 21 took 770 MB.
WORD_CAP = 2 ** 18


class Alphabet:
    """An ordered finite set of distinct symbol tokens.

    The ordering is fixed at construction and is used for every
    canonical sort in the package.

    Examples
    --------
    >>> a = Alphabet(["0", "1"])
    >>> a.index("1")
    1
    >>> len(a)
    2
    """

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens: Iterable[str]):
        tokens = tuple(str(t) for t in tokens)
        if not tokens:
            raise ValueError("alphabet must be nonempty")
        if len(set(tokens)) != len(tokens):
            raise ValueError("alphabet tokens must be distinct")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    def index(self, token: str) -> int:
        if token not in self._index:
            raise KeyError(f"symbol {token!r} not in alphabet")
        return self._index[token]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(range(len(self.tokens)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.tokens)!r})"

    def word(self, tokens: Sequence[str]) -> Word:
        """Convert a sequence of tokens to a word of symbol indices."""
        return tuple(self.index(t) for t in tokens)

    def render(self, word: Word) -> str:
        """Render a word as text; the empty word renders as 'e'."""
        if not word:
            return "e"
        toks = [self.tokens[i] for i in word]
        if all(len(t) == 1 for t in self.tokens):
            return "".join(toks)
        return " ".join(toks)


@dataclass(frozen=True)
class Edge:
    """A labeled edge; endpoints and label are dense indices."""

    src: int
    dst: int
    label: int


@dataclass(frozen=True)
class Ray:
    """The ultimately periodic right-infinite sequence u v v v ...

    Every past-equivalence class of a sofic shift contains such a
    ray, and they admit exact finite computation, so arbitrary rays
    are never needed.
    """

    preperiod: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise ValueError("ray period must be nonempty")

    def render(self, alphabet: Alphabet) -> str:
        u = alphabet.render(self.preperiod) if self.preperiod else ""
        v = alphabet.render(self.period)
        return f'"{u}" ("{v}")^inf'


class LabeledGraph:
    """A finite labeled directed graph presenting a sofic shift.

    Vertices are identified by position in ``vertex_names``; edges are
    ``Edge`` records over dense indices.  Duplicate (source, range,
    label) triples are rejected; parallel edges with distinct labels
    are allowed.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("alphabet", "vertex_names", "edges", "_succ", "_pred")

    def __init__(self, alphabet: Alphabet, vertex_names: Iterable[str],
                 edges: Iterable[Edge | tuple[int, int, int]]):
        self.alphabet = alphabet
        self.vertex_names = tuple(str(v) for v in vertex_names)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise ValueError("vertex names must be distinct")
        norm = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if not (0 <= e.src < len(self.vertex_names)):
                raise ValueError(f"edge source {e.src} out of range")
            if not (0 <= e.dst < len(self.vertex_names)):
                raise ValueError(f"edge target {e.dst} out of range")
            if not (0 <= e.label < len(alphabet)):
                raise ValueError(f"edge label {e.label} out of range")
            norm.append(e)
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate (source, range, label) edge")
        self.edges = tuple(sorted(norm, key=lambda e: (e.src, e.dst, e.label)))
        n = len(self.vertex_names)
        # successor / predecessor bitmasks per letter, indexed [label][vertex]
        succ = [[0] * n for _ in alphabet]
        pred = [[0] * n for _ in alphabet]
        for e in self.edges:
            succ[e.label][e.src] |= 1 << e.dst
            pred[e.label][e.dst] |= 1 << e.src
        self._succ = tuple(tuple(row) for row in succ)
        self._pred = tuple(tuple(row) for row in pred)

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_names)

    def full_mask(self) -> int:
        return (1 << len(self.vertex_names)) - 1

    def successors(self, label: int, source_mask: int) -> int:
        """Bitmask of vertices reached from ``source_mask`` by ``label``."""
        out = 0
        row = self._succ[label]
        m = source_mask
        while m:
            v = (m & -m).bit_length() - 1
            out |= row[v]
            m &= m - 1
        return out

    def predecessors(self, label: int, target_mask: int) -> int:
        """Bitmask of vertices with a ``label`` edge into ``target_mask``."""
        out = 0
        row = self._pred[label]
        m = target_mask
        while m:
            v = (m & -m).bit_length() - 1
            out |= row[v]
            m &= m - 1
        return out

    def is_essential(self) -> bool:
        """True iff every vertex has an incoming and an outgoing edge."""
        outs = set(e.src for e in self.edges)
        ins = set(e.dst for e in self.edges)
        return all(v in outs and v in ins for v in range(self.vertex_count))

    def is_right_resolving(self) -> bool:
        """True iff no vertex has two out-edges with the same label."""
        seen = set()
        for e in self.edges:
            key = (e.src, e.label)
            if key in seen:
                return False
            seen.add(key)
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, LabeledGraph)
                and self.alphabet == other.alphabet
                and self.vertex_names == other.vertex_names
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.vertex_names, self.edges))

    def __repr__(self) -> str:
        return (f"LabeledGraph({len(self.vertex_names)} vertices, "
                f"{len(self.edges)} edges)")


@dataclass(frozen=True)
class SftSpec:
    """A shift of finite type given by its forbidden words."""

    alphabet: Alphabet
    forbidden: tuple[Word, ...]


def require_essential(g: LabeledGraph) -> None:
    if not g.is_essential():
        raise ValueError("operation requires an essential presentation")


def parse_presentation(text: str) -> LabeledGraph | SftSpec:
    """Parse the line-based presentation format.

    The format is: an ``alphabet`` line first, then either ``vertex``
    and ``edge`` lines (graph mode) or ``forbid`` lines (SFT mode).
    ``#`` starts a comment.  A file with only an alphabet line is the
    full shift on that alphabet (an :class:`SftSpec` with no forbidden
    words).

    Raises
    ------
    InputFormatError
        On unknown directives, undeclared vertices or symbols, mixed
        modes, or duplicate edges; the error names the offending line.
    """
    alphabet: Alphabet | None = None
    vertex_names: list[str] = []
    vertex_index: dict[str, int] = {}
    edges: list[Edge] = []
    seen_edges: set[Edge] = set()
    forbidden: list[Word] = []
    mode: str | None = None  # "graph" or "sft"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive, args = parts[0], parts[1:]

        if alphabet is None:
            if directive != "alphabet":
                raise InputFormatError(
                    "first directive must be 'alphabet'", lineno)
            if not args:
                raise InputFormatError("alphabet needs at least one symbol",
                                       lineno)
            try:
                alphabet = Alphabet(args)
            except ValueError as exc:
                raise InputFormatError(str(exc), lineno) from None
            continue

        if directive == "alphabet":
            raise InputFormatError("duplicate alphabet directive", lineno)

        if directive == "vertex":
            if mode == "sft":
                raise InputFormatError(
                    "graph directive in SFT-mode file", lineno)
            mode = "graph"
            if len(args) != 1:
                raise InputFormatError("vertex takes exactly one id", lineno)
            name = args[0]
            if name in vertex_index:
                raise InputFormatError(f"duplicate vertex {name!r}", lineno)
            vertex_index[name] = len(vertex_names)
            vertex_names.append(name)
        elif directive == "edge":
            if mode == "sft":
                raise InputFormatError(
                    "graph directive in SFT-mode file", lineno)
            mode = "graph"
            if len(args) != 3:
                raise InputFormatError(
                    "edge takes: source target label", lineno)
            src, dst, label = args
            for name in (src, dst):
                if name not in vertex_index:
                    raise InputFormatError(
                        f"undeclared vertex {name!r}", lineno)
            if label not in alphabet.tokens:
                raise InputFormatError(
                    f"undeclared symbol {label!r}", lineno)
            edge = Edge(vertex_index[src], vertex_index[dst],
                        alphabet.index(label))
            if edge in seen_edges:
                raise InputFormatError(
                    f"duplicate edge {src} {dst} {label}", lineno)
            seen_edges.add(edge)
            edges.append(edge)
        elif directive == "forbid":
            if mode == "graph":
                raise InputFormatError(
                    "SFT directive in graph-mode file", lineno)
            mode = "sft"
            if not args:
                raise InputFormatError("forbid needs at least one symbol",
                                       lineno)
            try:
                forbidden.append(alphabet.word(args))
            except KeyError:
                bad = next(a for a in args if a not in alphabet.tokens)
                raise InputFormatError(
                    f"undeclared symbol {bad!r}", lineno) from None
        else:
            raise InputFormatError(f"unknown directive {directive!r}", lineno)

    if alphabet is None:
        raise InputFormatError("empty input: no alphabet directive")
    if mode == "graph":
        try:
            return LabeledGraph(alphabet, vertex_names, edges)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
    return SftSpec(alphabet, tuple(forbidden))


def serialize_presentation(obj: LabeledGraph | SftSpec) -> str:
    """Render a presentation back into the line format.

    Parsing the result reproduces the input object exactly; a token
    or vertex name that could not be parsed back (empty, or holding
    whitespace or ``#``) raises ``ValueError``.
    """
    names = obj.vertex_names if isinstance(obj, LabeledGraph) else ()
    for text in obj.alphabet.tokens + names:
        if text.split() != [text] or "#" in text:
            raise ValueError(f"cannot serialize {text!r}: empty, or holds "
                             f"whitespace or '#'")
    lines = ["alphabet " + " ".join(obj.alphabet.tokens)]
    if isinstance(obj, LabeledGraph):
        for name in obj.vertex_names:
            lines.append(f"vertex {name}")
        for e in obj.edges:
            lines.append(f"edge {obj.vertex_names[e.src]} "
                         f"{obj.vertex_names[e.dst]} "
                         f"{obj.alphabet.tokens[e.label]}")
    else:
        for word in obj.forbidden:
            lines.append("forbid " + " ".join(
                obj.alphabet.tokens[i] for i in word))
    return "\n".join(lines) + "\n"


def _contains_factor(word: Sequence[int], factor: Word) -> bool:
    k = len(factor)
    return any(tuple(word[i:i + k]) == factor
               for i in range(len(word) - k + 1))


def sft_to_graph(spec: SftSpec) -> LabeledGraph:
    """Compile a forbidden-word specification to a labeled graph.

    Uses the higher-block presentation: with m the maximum forbidden
    length (at least 2), vertices are the clean words of length m-1
    and an edge w -> w' labeled a exists exactly when w' is w shifted
    by a and the m-word w a contains no forbidden factor.  The result
    is trimmed to its essential part and is right-resolving by
    construction.  Vertices are named by their words, rendered, or as
    dot-joined symbol indices (``0.2``) over longer tokens.

    Raises
    ------
    EmptyShiftError
        If nothing survives (the whole language is forbidden).
    ResourceLimitError
        If a length up to m-1 has more than ``CLEAN_WORD_CAP`` clean
        words; each length is checked as it is listed.
    """
    if any(not w for w in spec.forbidden):
        raise ValueError("forbidden words must be nonempty")
    from .automata import trim_essential

    alphabet = spec.alphabet
    m = max([2] + [len(w) for w in spec.forbidden])
    letters = list(range(len(alphabet)))

    def clean(word: tuple[int, ...]) -> bool:
        return not any(_contains_factor(word, f) for f in spec.forbidden)

    prev: list[tuple[int, ...]] = [()]
    for length in range(1, m):
        level: list[tuple[int, ...]] = []
        for w in prev:
            for a in letters:
                word = w + (a,)
                if not clean(word):
                    continue
                if len(level) >= CLEAN_WORD_CAP:
                    raise ResourceLimitError(
                        f"forbidden-word compilation exceeds "
                        f"{CLEAN_WORD_CAP} clean words of length {length} "
                        f"(vertices are the clean words of length {m - 1})")
                level.append(word)
        prev = level
    vertices = sorted(prev)
    if not vertices:
        raise EmptyShiftError("every word is forbidden: empty shift")
    index = {w: i for i, w in enumerate(vertices)}

    edges = []
    for w in vertices:
        for a in letters:
            if not clean(w + (a,)):
                continue
            target = w[1:] + (a,)
            edges.append(Edge(index[w], index[target], a))

    short = all(len(t) == 1 for t in alphabet.tokens)
    names = [alphabet.render(w) if short else ".".join(map(str, w))
             for w in vertices]
    return trim_essential(LabeledGraph(alphabet, names, edges))


def words_of_length(g: LabeledGraph, k: int) -> set[Word]:
    """The label sequences of length-k paths in an essential graph.

    For essential presentations this is exactly the set of length-k
    words of the presented shift; k = 0 yields the empty word only.

    Raises
    ------
    ResourceLimitError
        If a length up to k has more than ``WORD_CAP`` words; each
        length is checked as it is listed.

    Examples
    --------
    >>> spec = parse_presentation("alphabet 0 1\\nforbid 1 1\\n")
    >>> g = sft_to_graph(spec)
    >>> sorted(g.alphabet.render(w) for w in words_of_length(g, 2))
    ['00', '01', '10']
    """
    require_essential(g)
    if k < 0:
        raise ValueError("word length must be nonnegative")
    # Per length, each word as (index of its prefix one length shorter,
    # last letter, path ends).  The words are spelled once, at the end:
    # extending each word by copying it would cost its length per word
    # and length.
    levels: list[list[tuple[int, int, int]]] = []
    ends = [g.full_mask()]
    # path ends -> (letter, path ends after it) over the letters with
    # paths
    moves: dict[int, list[tuple[int, int]]] = {}
    for length in range(1, k + 1):
        level: list[tuple[int, int, int]] = []
        for p, mask in enumerate(ends):
            if mask not in moves:
                moves[mask] = [(a, hit) for a in g.alphabet
                               if (hit := g.successors(a, mask))]
            for a, hit in moves[mask]:
                if len(level) >= WORD_CAP:
                    raise ResourceLimitError(
                        f"word listing exceeds {WORD_CAP} words of "
                        f"length {length}")
                level.append((p, a, hit))
        levels.append(level)
        ends = [hit for _, _, hit in level]
    if not levels:
        return {EPSILON}
    # the words' letters, one column per position from the last, each
    # level dropped once read
    picks: Iterable[int] = range(len(ends))
    columns = []
    while levels:
        level = levels.pop()
        chosen = [level[i] for i in picks]
        columns.append([a for _, a, _ in chosen])
        picks = [p for p, _, _ in chosen]
    return set(zip(*reversed(columns)))


def is_admissible(g: LabeledGraph, word: Word) -> bool:
    """True iff some path in ``g`` is labeled ``word``.

    The empty word is always admissible.
    """
    require_essential(g)
    mask = g.full_mask()
    for a in word:
        mask = g.successors(a, mask)
        if not mask:
            return False
    return True


def ray_admissible(g: LabeledGraph, ray: Ray) -> bool:
    """True iff some vertex of ``g`` emits the ray u v v v ...

    Decided by nonemptiness of the ray's survivor set.
    """
    require_essential(g)
    from .krieger import survivor_set

    return bool(survivor_set(g, ray))
