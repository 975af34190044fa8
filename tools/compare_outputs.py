"""Compare the CLI and demo outputs of two checkouts.

  python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT
  python3 tools/compare_outputs.py OLD NEW --seeds 1 2 --workloads verify_words

For every workload seed the inputs of each workload are drawn from
``bench/corpus.py`` (of this checkout) and each distinct input is run
through ``cover --dot``, ``matrix``, ``ktheory`` and ``verify``,
intact and with each ``--corrupt`` kind, and through ``oracle`` at its
default ``--bound``, the one command that reads the frozenset survivor
sets of ``realized_survivor_sets``.  ``verify`` takes the workload's own
``--max-word-len`` on the verify workloads; on the ``cover_ktheory``
inputs it takes 4, or 2 over more than three letters.  On the
``verify_classes`` and ``cover_ktheory`` inputs ``verify`` also runs,
intact and with each ``--corrupt`` kind, at ``--max-word-len 5``, or 3
over more than three letters, so that the word families reach the
clopen word cap on covers with many classes.  Each checkout
runs every call in one child process that imports ``soficshift`` from
that checkout's ``src``.  Then every ``demos/*.py`` of NEW_CHECKOUT is
run as a script, from each checkout's own ``demos`` directory against
that checkout's ``src``.  Standard output, standard error and the exit
code of each call and each demo are compared, and so is the DOT file
that each ``cover --dot`` call writes; the differences are printed and
the exit code is 1 if there are any.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import corpus  # noqa: E402

# Run in the child: read argv lists from stdin as JSON, write one
# [exit code, stdout, stderr] per call, plus the text of the file
# written by --dot (None if there is none), which is then removed.
CHILD = """
import contextlib, io, json, os, sys
from soficshift import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"crash: {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
    if "--dot" in argv:
        dot = argv[argv.index("--dot") + 1]
        results[-1].append(None)
        if os.path.exists(dot):
            with open(dot, encoding="utf-8") as handle:
                results[-1][-1] = handle.read()
            os.remove(dot)
json.dump(results, sys.stdout)
"""


def calls(seeds, workloads, directory: str) -> list[list[str]]:
    """The CLI calls on every distinct input of the workloads' corpora
    for the seeds, in a stable order; input files go to
    ``directory``."""
    seen: dict[str, str] = {}
    out = []
    for workload in workloads:
        for seed in seeds:
            for p in corpus.inputs(workload, seed):
                text = p.text()
                if text in seen:
                    continue
                path = seen[text] = os.path.join(
                    directory, f"{len(seen):03d}_{p.name}.shift")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                few = len(p.tokens) <= 3
                if workload == "verify_words":
                    lengths = ["8"]
                elif workload == "verify_classes":
                    lengths = ["4", "5" if few else "3"]
                else:
                    lengths = ["4" if few else "2", "5" if few else "3"]
                out += [["cover", path, "--dot", path + ".dot"],
                        ["matrix", path], ["ktheory", path],
                        ["oracle", path]]
                for length in lengths:
                    verify = ["verify", path, "--max-word-len", length]
                    out += [verify] + [verify + ["--corrupt", kind]
                                       for kind in corpus.CORRUPTION_KINDS]
    return out


def child_env(checkout: str) -> dict[str, str]:
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "soficshift", "cli.py")):
        raise SystemExit(f"no soficshift source under {src}")
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def run(checkout: str, argvs: list[list[str]]) -> list[list]:
    done = subprocess.run([sys.executable, "-c", CHILD],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, env=child_env(checkout), check=True)
    return json.loads(done.stdout)


def run_demo(checkout: str, name: str) -> list:
    """[exit code, stdout, stderr] of the checkout's ``demos/<name>``."""
    path = os.path.join(os.path.abspath(checkout), "demos", name)
    if not os.path.isfile(path):
        return ["missing", "", ""]
    done = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, env=child_env(checkout))
    return [done.returncode, done.stdout, done.stderr]


def report(shown: str, a: list, b: list) -> bool:
    """Print the parts of two [exit, stdout, stderr(, DOT file)]
    results that differ; True if any do."""
    if a == b:
        return False
    print(f"DIFFER {shown}")
    for what, x, y in zip(("exit", "stdout", "stderr", "dot file"), a, b):
        if x != y:
            print(f"  {what}: {x!r}\n    -> {y!r}")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", choices=corpus.WORKLOADS,
                    default=list(corpus.WORKLOADS))
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as directory:
        argvs = calls(args.seeds, args.workloads, directory)
        old = run(args.old, argvs)
        new = run(args.new, argvs)
        differ = sum(report(" ".join(
            os.path.basename(x) if x.startswith(directory) else x
            for x in call), a, b) for call, a, b in zip(argvs, old, new))
    demos = sorted(os.path.basename(p) for p in glob.glob(
        os.path.join(os.path.abspath(args.new), "demos", "*.py")))
    demos_differ = sum(report(f"demos/{name}", run_demo(args.old, name),
                              run_demo(args.new, name)) for name in demos)
    inputs = len({call[1] for call in argvs})
    print(f"{len(argvs)} calls on {inputs} inputs compared, "
          f"{differ} differ")
    print(f"{len(demos)} demos compared, {demos_differ} differ")
    return 1 if differ or demos_differ else 0


if __name__ == "__main__":
    sys.exit(main())
