"""Reference figures from the traced mode on the baseline's scaling
tiers: per-stage ``build_cover`` times and sizes for the right-resolving
2-letter presentation ``corpus.rr_graph(5, n, 2)`` at each of 8, 14 and
20 vertices, and ``verify_all`` on the full 4-shift at word lengths 6
and 8.

    python3 bench/reference.py

Single runs; prints one line per operation.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # sets up the import paths
import corpus
import spans

VERTICES = (8, 14, 20)
GSEED = 5


def main() -> int:
    run.import_program()
    directory = os.path.join(run.WORK, f"reference-{os.getpid()}")
    runs = [(corpus.rr_graph(GSEED, n, 2), [(("cover",), None)])
            for n in VERTICES]
    runs.append((corpus.FULL4, [(("verify", "--max-word-len", length), None)
                                for length in ("6", "8")]))
    try:
        for op in corpus.write_operations(runs, directory):
            tracer = spans.Tracer()
            spans.traced_round([op], tracer)
            m = spans.layer_metrics(tracer.spans)
            print(f"{op.presentation.name} {' '.join(op.argv[2:]) or 'cover'}:"
                  + "".join(f" {k}={v:.3f}" if unit == "s" else f" {k}={v}"
                            for k, (v, unit) in m.items() if v))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
