"""Benchmark of the soficshift CLI on three seeded workloads.

    python3 bench/run.py --workload cover_ktheory --seed 1 --seconds 40
    python3 bench/run.py --workload verify_words --trace 1

Set-up imports soficshift from ``src/`` of this checkout, generates the
workload's presentation files from the seed and writes them; it runs
before the first round and again between rounds, and its median is
reported as ``setup_s``.  The timed phase runs whole rounds of the
workload's operations (one operation is one ``soficshift.cli.main``
call, stdout captured) until ``--seconds`` would pass if one more round
ran.  ``total_s`` is the timed phase's wall time per round (the mean
round time) and ``peak_rss_mb`` the process peak, read before the
checks import sympy.  Every output is then checked (``checks.py``).
Both times are scaled to a reference machine speed by a probe loop
timed next to each operation and set-up (see ``REFERENCE_PROBE_S``);
the raw times go to the result file.

With ``--trace 1`` untraced and traced rounds alternate instead, and
the per-layer metrics of ``spans.py`` are printed, each the median over
the traced rounds, with the tracing overhead.  The spans are written
to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

# The machine the benchmark was tuned on (a shared 2-core VM) changes
# speed by up to 1.8x in phases of seconds to minutes, and process CPU
# time drifts with wall time, so raw wall times of identical runs
# spread by more than the bounds.  A fixed loop is timed between
# operations, and every operation's time is scaled to the speed at
# which the loop takes REFERENCE_PROBE_S (its median on that machine).
# Short probes taken next to each operation followed the drift (their
# times correlated 0.87 with the operation's); one loop per round did
# not.
PROBE_LOOP = 400_000
REFERENCE_PROBE_S = 0.033

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402


def import_program():
    """Import soficshift afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "soficshift" or m.startswith("soficshift.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import soficshift.cli
    if not os.path.abspath(soficshift.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"soficshift imported from "
                          f"{soficshift.cli.__file__}, not {SRC}")
    return soficshift.cli


def work_dir(args) -> str:
    return os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")


def probe() -> float:
    """Seconds for a fixed pure-Python loop that shares no code with
    soficshift and allocates nothing the garbage collector tracks."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes timed just
    before and just after."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


def setup(args, rep: int):
    """One set-up: (scaled seconds, raw seconds, cli module,
    operations)."""
    before = probe()
    t0 = time.perf_counter()
    cli = import_program()
    ops = corpus.write_corpus(args.workload, args.seed,
                              os.path.join(work_dir(args), str(rep)))
    seconds = time.perf_counter() - t0
    return scaled(seconds, before, probe()), seconds, cli, ops


def run_round(cli, ops):
    """One pass over the operations, a probe before each and after the
    last: ([raw seconds per operation], [scaled seconds per
    operation], [(exit code, stdout)])."""
    raw, times, results = [], [], []
    before = probe()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except Exception as exc:  # an operation that crashed
                code = f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - t0)
        after = probe()
        times.append(scaled(raw[-1], before, after))
        before = after
        results.append((code, out.getvalue()))
    return raw, times, results


def answered(code) -> bool:
    """Exit 0 or 1 is an answer; a crash or exit 2 is a failed
    operation."""
    return code in (0, 1) and isinstance(code, int)


def check_outputs(workload, ops, results) -> list[str]:
    """All checks of one round's outputs against the independent
    computations in ``checks``."""
    problems = []
    by_path: dict[str, list] = {}
    for op, (code, text) in zip(ops, results):
        by_path.setdefault(op.path, []).append((op, code, text))
    for path, runs in by_path.items():
        if not all(answered(code) for _, code, _ in runs):
            continue  # counted in ``failed``; the checks judge answers
        p = runs[0][0].presentation
        name = os.path.basename(path)
        found: list[str] = []
        if workload == "cover_ktheory":
            (_, c1, cover_text), (_, c2, k_text) = runs
            if c1 != 0 or c2 != 0:
                found.append(f"exit codes {c1}, {c2}")
            else:
                try:
                    cover = checks.parse_cover(cover_text, p.tokens)
                except ValueError as exc:
                    found.append(str(exc))
                else:
                    found += checks.check_cover(p, cover)
                    found += checks.check_ktheory(cover, k_text)
        else:
            (_, code, intact), corrupt = runs[0], runs[1:]
            found += checks.check_intact_report(code, intact)
            if corrupt:
                found += checks.check_corrupt_reports(
                    intact, [(op.corrupt, c, t) for op, c, t in corrupt])
        problems += [f"{name}: {msg}" for msg in found]
    return problems


def traced_answers_match(ops, results, answers) -> list[str]:
    """The traced run must reach the CLI's answers on the same inputs;
    for ``cover`` the class and edge counts are compared."""
    problems = []
    for op, (_, text), answer in zip(ops, results, answers):
        got = text.rstrip("\n")
        if op.command == "cover":
            counts = [line.split(": ")[1] for line in text.splitlines()
                      if line.startswith(("classes: ", "edges: "))]
            got = " ".join(counts)
        if got != answer:
            problems.append(f"traced run of {' '.join(op.argv)} differs "
                            f"from the CLI output")
    return problems


def median_metrics(rounds: list[dict]) -> dict:
    """Each metric's median over the traced rounds; counts, equal in
    every round, stay whole numbers."""
    out = {}
    for name, (_, unit) in rounds[0].items():
        value = statistics.median(r[name][0] for r in rounds)
        out[name] = {"value": int(value) if unit == "count" else value,
                     "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "soficshift", "__init__.py")):
        print(f"error: no soficshift package under {SRC}", file=sys.stderr)
        return 2
    try:
        try:
            first_setup = setup(args, 0)
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return measure(args, *first_setup)
    finally:
        shutil.rmtree(work_dir(args), ignore_errors=True)


def measure(args, seconds, raw_seconds, cli, ops) -> int:
    setup_times, raw_setup_times = [seconds], [raw_seconds]
    op_times: list[list[float]] = []
    raw_op_times: list[list[float]] = []
    layer_rounds: list[dict] = []
    overheads: list[float] = []
    tracers: list[spans.Tracer] = []
    first = None
    problems: list[str] = []
    start = time.perf_counter()
    # whole rounds only; stop before a round that would end past the
    # deadline, so a run measures for about --seconds
    while True:
        raw, times, results = run_round(cli, ops)
        op_times.append(times)
        raw_op_times.append(raw)
        if first is None:
            first = results
        elif results != first:
            problems.append(f"round {len(op_times)} output differs from "
                            f"round 1")
        if args.trace:
            tracer = spans.Tracer()
            answers = spans.traced_round(ops, tracer)
            tracers.append(tracer)
            problems += traced_answers_match(ops, first, answers)
            layer_rounds.append(spans.layer_metrics(tracer.spans))
            overheads.append(100.0 * (spans.command_seconds(tracer.spans)
                                      / sum(raw) - 1.0))
        elapsed = time.perf_counter() - start
        if elapsed * (len(op_times) + 1) / len(op_times) > args.seconds:
            break
        # set up again between rounds, so that setup_s samples the same
        # stretch of time as total_s
        seconds, raw_seconds, cli, ops = setup(args, len(op_times))
        setup_times.append(seconds)
        raw_setup_times.append(raw_seconds)
    rounds = len(op_times)
    round_times = [sum(t) for t in op_times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed_per_round = sum(1 for code, _ in first if not answered(code))
    problems += check_outputs(args.workload, ops, first)
    for msg in problems:
        print(f"CHECK FAILED {msg}")

    if args.trace:
        metrics = median_metrics(layer_rounds)
        metrics["trace.overhead_pct"] = {
            "value": statistics.median(overheads), "unit": "%"}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([[vars(s) for s in t.spans] for t in tracers], handle)
    else:
        metrics = {
            "total_s": {"value": statistics.fmean(round_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
        }
    result = {"correct": not problems, "attempted": rounds * len(ops),
              "failed": rounds * failed_per_round, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                                f"trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"result": result, "round_s": round_times,
                   "op_s": op_times, "raw_op_s": raw_op_times,
                   "setup_s": setup_times, "raw_setup_s": raw_setup_times,
                   "problems": problems}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
