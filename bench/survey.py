"""Survey generator seeds for the bands in ``corpus.POOLS``.

For each generator seed in [first, stop) whose input passes the part's
size filter, prints the vertices after conditioning, |S|, classes,
edges and the median CLI time of the workload's operations on it, scaled as in
``run.run_round``.  The times come from ``--passes`` round-robin passes over all kept
candidates, so that a slow phase of the machine does not land on one
candidate alone.  Bands are then chosen by hand from candidates of
similar size and time.

    python3 bench/survey.py rr2 0 200
    python3 bench/survey.py rr2 400 1400 --min-s 10000
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import statistics
import sys

import run  # sets up the import paths
import corpus

WORKLOAD = {"rr2": "cover_ktheory", "rr10": "cover_ktheory",
            "nrr": "cover_ktheory", "sft3": "verify_words",
            "classes": "verify_classes"}

SIZE_FILTER = {
    "rr2": lambda s, c: 1000 <= s <= 16000,
    "rr10": lambda s, c: True,
    "nrr": lambda s, c: c >= 4,
    "sft3": lambda s, c: True,
    "classes": lambda s, c: 35 <= c <= 55,
}

TIMEOUT_S = 20  # skip a candidate whose sizes take longer
MAX_S = 20000  # skip candidates with a larger semigroup


def sizes(text: str, min_s: int):
    from soficshift import krieger
    from soficshift.automata import make_right_resolving, trim_essential
    from soficshift.shiftcore import SftSpec, parse_presentation, sft_to_graph

    obj = parse_presentation(text)
    g = sft_to_graph(obj) if isinstance(obj, SftSpec) else obj
    h = make_right_resolving(trim_essential(g))
    sg = krieger.transition_semigroup(h, MAX_S)
    if len(sg) < min_s:
        raise ValueError("semigroup below --min-s")
    cover = krieger.build_cover(h)
    return h.vertex_count, len(sg), cover.class_count, len(cover.edges)


def _timeout(signum, frame):
    raise TimeoutError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("part", choices=sorted(corpus.GENERATORS))
    ap.add_argument("first", type=int)
    ap.add_argument("stop", type=int)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--min-s", type=int, default=0,
                    help="skip candidates with a smaller semigroup")
    args = ap.parse_args()
    cli = run.import_program()
    from soficshift.errors import SoficError

    signal.signal(signal.SIGALRM, _timeout)
    directory = os.path.join(run.WORK, f"survey-{os.getpid()}")
    calls = corpus.commands(WORKLOAD[args.part])
    kept = []
    try:
        for g in range(args.first, args.stop):
            p = corpus.GENERATORS[args.part](g)
            signal.alarm(TIMEOUT_S)
            try:
                v, s, c, e = sizes(p.text(), args.min_s)
            except (SoficError, ValueError, TimeoutError):
                continue
            finally:
                signal.alarm(0)
            if not SIZE_FILTER[args.part](s, c):
                continue
            ops = corpus.write_operations(
                [(p, calls)], os.path.join(directory, str(g)))
            kept.append((g, f"vertices={v} S={s} classes={c} edges={e}",
                         ops))
        times = {g: [] for g, _, _ in kept}
        for _ in range(args.passes):
            for g, _, ops in kept:
                times[g].append(sum(run.run_round(cli, ops)[1]))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for g, size, _ in kept:
        print(f"{g} {size} cli_s={statistics.median(times[g]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
