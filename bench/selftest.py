"""Self-tests of the output checks: each check accepts the CLI's real
output and rejects a copy damaged in one place.

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import sys

import run  # sets up the import paths
import checks
import corpus


def cli_output(cli, op) -> tuple[int, str]:
    return run.run_round(cli, [op])[2][0]


def swap_first_representatives(text: str) -> str:
    lines = text.splitlines()
    rep1, rep2 = lines[1].split(" = ")[1], lines[2].split(" = ")[1]
    lines[1] = f"E1: rep = {rep2}"
    lines[2] = f"E2: rep = {rep1}"
    return "\n".join(lines) + "\n"


def drop_last_edge(text: str) -> str:
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("edges: "))
    lines[at] = f"edges: {int(lines[at].split()[1]) - 1}"
    return "\n".join(lines[:-1]) + "\n"


def change_first_factor(text: str) -> str:
    return re.sub(r"Z/(\d+)", lambda m: f"Z/{int(m.group(1)) + 1}", text,
                  count=1)


def fail_one_family(text: str) -> str:
    lines = text.splitlines()
    lines[0] = lines[0].replace("PASS", "FAIL", 1)
    lines[-1] = lines[-1].replace("failed=0", "failed=1")
    return "\n".join(lines) + "\n"


def pass_family(text: str, family: str) -> str:
    """The report with ``family`` passing, its summary made to agree."""
    lines = [re.sub(rf"^FAIL {family} (checked=\d+).*$",
                    rf"PASS {family} \1", line)
             for line in text.splitlines()]
    failed = sum(line.startswith("FAIL ") for line in lines[:-1])
    lines[-1] = re.sub(r"failed=\d+", f"failed={failed}", lines[-1])
    return "\n".join(lines) + "\n"


def main() -> int:
    cli = run.import_program()
    directory = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    outcomes = []

    def expect(name, problems, should_fail):
        ok = bool(problems) == should_fail
        outcomes.append(ok)
        verdict = f"rejects ({problems[0]})" if problems else "accepts"
        print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}")

    try:
        ops = corpus.write_corpus("cover_ktheory", 1, directory)
        # the first input whose K0 has an invariant factor
        for cover_op, k_op in zip(ops[::2], ops[1::2]):
            _, k_text = cli_output(cli, k_op)
            if "Z/" in k_text:
                break
        else:
            raise SystemExit("no input with torsion in K0")
        p = cover_op.presentation
        _, cover_text = cli_output(cli, cover_op)
        cover = checks.parse_cover(cover_text, p.tokens)
        expect("the real cover", checks.check_cover(p, cover), False)
        expect("a cover with one edge dropped", checks.check_cover(
            p, checks.parse_cover(drop_last_edge(cover_text), p.tokens)),
            True)
        expect("a cover with two representatives swapped",
               checks.check_cover(p, checks.parse_cover(
                   swap_first_representatives(cover_text), p.tokens)), True)
        expect("the real K-groups", checks.check_ktheory(cover, k_text),
               False)
        expect("a K0 with one invariant factor changed",
               checks.check_ktheory(cover, change_first_factor(k_text)), True)

        ops = corpus.write_corpus("verify_words", 1, directory)
        code, report = cli_output(cli, ops[2])
        expect("the real verify report",
               checks.check_intact_report(code, report), False)
        expect("a verify report with one FAIL line",
               checks.check_intact_report(code, fail_one_family(report)),
               True)

        intact_op, *corrupt_ops = corpus.write_corpus("verify_classes", 1,
                                                      directory)[:5]
        _, intact = cli_output(cli, intact_op)
        corrupt = [(op.corrupt, *cli_output(cli, op)) for op in corrupt_ops]
        expect("the real corrupted reports",
               checks.check_corrupt_reports(intact, corrupt), False)
        kind, _, text = corrupt[0]
        expect("a corrupted run that exits 0", checks.check_corrupt_reports(
            intact, [(kind, 0, text)] + corrupt[1:]), True)
        family = next(line.split()[1] for line in text.splitlines()
                      if line.startswith("FAIL "))
        expect(f"corrupted reports in which {family} never fails",
               checks.check_corrupt_reports(intact, [
                   (kind, code, pass_family(text, family))
                   for kind, code, text in corrupt]), True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
