"""Command-line front end.

Subcommands: ``cover``, ``matrix``, ``verify``, ``ktheory``,
``oracle``, ``words``.  Exit codes: 0 on success, 1 when a
verification or oracle comparison fails, 2 on input errors, unreadable
or unwritable files, invalid option values and size caps reached.  All
output is byte-deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import sys

from . import isocheck, krieger
from .automata import make_right_resolving, trim_essential
from .errors import SoficError
from .shiftcore import (LabeledGraph, SftSpec, parse_presentation,
                        sft_to_graph, words_of_length)


def _load_graph(path: str) -> LabeledGraph:
    with open(path, encoding="utf-8") as handle:
        obj = parse_presentation(handle.read())
    if isinstance(obj, SftSpec):
        return sft_to_graph(obj)
    return trim_essential(obj)


def cmd_cover(args) -> int:
    cover = krieger.build_cover(_load_graph(args.file))
    reps = cover.representatives  # may hit a cap: read before any output
    if args.dot:  # written first, so that a failed write prints nothing
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(krieger.cover_to_dot(cover))
    print(f"classes: {cover.class_count}")
    for i, rep in enumerate(reps):
        print(f"E{i + 1}: rep = {rep.render(cover.alphabet)}")
    print(f"edges: {len(cover.edges)}")
    for e in cover.edges:
        label = cover.alphabet.tokens[e.label]
        print(f"E{e.src + 1} --{label}--> E{e.dst + 1}")
    return 0


def cmd_matrix(args) -> int:
    cover = krieger.build_cover(_load_graph(args.file))
    matrix = krieger.edge_matrix(cover)
    for row in matrix.entries:
        print(" ".join(str(x) for x in row))
    return 0


def cmd_verify(args) -> int:
    cover = krieger.build_cover(_load_graph(args.file))
    if args.corrupt:
        cover = isocheck.corrupt_cover(cover, args.corrupt)
    report = isocheck.verify_all(cover, max_len=args.max_word_len)
    print(report.render())
    return 0 if report.all_passed else 1


def cmd_ktheory(args) -> int:
    from . import ktheory
    cover = krieger.build_cover(_load_graph(args.file))
    k0, k1 = ktheory.k_groups(cover)
    print(f"K0 = {k0.render()}")
    print(f"K1 = {k1.render()}")
    return 0


def cmd_oracle(args) -> int:
    from .semigroup import realized_survivor_sets_bruteforce
    g = make_right_resolving(_load_graph(args.file))
    pair_sets, _ = krieger.realized_survivor_sets(g)
    brute = realized_survivor_sets_bruteforce(g, args.bound)
    if pair_sets == brute:
        n = len(pair_sets)
        print(f"{n} {'set' if n == 1 else 'sets'} via both methods")
        return 0
    only_pair = sorted(map(sorted, pair_sets - brute))
    only_brute = sorted(map(sorted, brute - pair_sets))
    print(f"mismatch: pair-graph method found {len(pair_sets)}, "
          f"ray enumeration found {len(brute)}")
    if only_pair:
        print(f"only pair graph: {only_pair}")
    if only_brute:
        print(f"only enumeration: {only_brute}")
    return 1


def cmd_words(args) -> int:
    g = _load_graph(args.file)
    for word in sorted(words_of_length(g, args.k)):
        print(" ".join(g.alphabet.tokens[a] for a in word))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soficshift",
        description="Left Krieger covers, edge matrices, diagonal-model "
                    "verification, and K-theory for sofic shifts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="print the cover's classes and edges")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH",
                   help="also write a Graphviz rendering")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("matrix", help="print the edge matrix")
    p.add_argument("file")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify",
                       help="run every verification family and report")
    p.add_argument("file")
    p.add_argument("--max-word-len", type=int, default=8,
                   help="longest word the word-indexed families check; "
                        "nonnegative (default 8)")
    p.add_argument("--corrupt", choices=isocheck.CORRUPTION_KINDS,
                   help="damage the cover first (testing aid)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ktheory", help="print K0 and K1 of the edge algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("oracle",
                       help="cross-check realized survivor sets against "
                            "ray enumeration")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=10,
                   help="longest preperiod and period of the enumerated "
                        "rays; at least 1 (default 10)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("words", help="list the admissible words of length k")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True,
                   help="the word length; nonnegative")
    p.set_defaults(func=cmd_words)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SoficError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
