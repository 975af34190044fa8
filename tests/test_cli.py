import os
import subprocess
import sys
import textwrap

import pytest

import soficshift
from soficshift.cli import main
from soficshift.errors import InputFormatError, ResourceLimitError, SoficError
from conftest import CHAIN_TEXT, EVEN_TEXT, GOLDEN_TEXT
from test_krieger import EVEN_PUBLISHED_MATRIX, permutation_equivalent

FULL2_TEXT = "alphabet 0 1\n"
# a class of this shift has no ray u v^inf with |u| + |v| <= 4
LONG_RAY_TEXT = """\
alphabet 0 1
vertex v0
vertex v1
vertex v2
vertex v3
edge v0 v1 0
edge v0 v1 1
edge v1 v3 0
edge v1 v2 1
edge v2 v3 1
edge v3 v0 1
"""
FULL3_TEXT = "alphabet 0 1 2\n"
BROKEN_TEXT = "alphabet 0 1\nvertex a\nedge a a 0\nedge a c 1\n"
# not right-resolving, with vertex names that joined by commas name two
# different subset states alike ({a,b,c} from a + "b,c" and "a,b" + c)
COMMA_NAMES_TEXT = """\
alphabet 0 1
vertex a
vertex b,c
vertex a,b
vertex c
edge a a 1
edge a b,c 1
edge b,c a,b 0
edge a,b c 0
edge c a,b 1
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


class TestCover:
    def test_even_shift(self, write, capsys):
        assert main(["cover", write("even.shift", EVEN_TEXT)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "classes: 3"
        assert "edges: 5" in out
        assert out[-5:] == [
            "E1 --1--> E1",
            "E1 --0--> E2",
            "E1 --1--> E3",
            "E2 --0--> E1",
            "E3 --0--> E3",
        ]

    def test_full_two_shift(self, write, capsys):
        assert main(["cover", write("full2.shift", FULL2_TEXT)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "classes: 1"
        assert "edges: 2" in out

    def test_dot_export(self, write, capsys, tmp_path):
        dot = tmp_path / "cover.dot"
        assert main(["cover", write("even.shift", EVEN_TEXT),
                     "--dot", str(dot)]) == 0
        capsys.readouterr()
        text = dot.read_text()
        assert text.startswith("digraph krieger_cover {")
        assert text.count("->") == 5

    def test_dot_escapes_quote_and_backslash(self, write, capsys, tmp_path):
        dot = tmp_path / "cover.dot"
        text = 'alphabet " \\N\nvertex v\nedge v v "\nedge v v \\N\n'
        assert main(["cover", write("odd.shift", text),
                     "--dot", str(dot)]) == 0
        capsys.readouterr()
        assert dot.read_text().splitlines()[2:4] == [
            '  "E1" -> "E1" [label="\\""];',
            '  "E1" -> "E1" [label="\\\\N"];',
        ]

    def test_vertex_names_with_commas(self, write, capsys):
        path = write("commas.shift", COMMA_NAMES_TEXT)
        assert main(["cover", path]) == 0
        assert capsys.readouterr().out.startswith("classes: 3\n")
        assert main(["oracle", path]) == 0
        assert capsys.readouterr().out == "3 sets via both methods\n"

    def test_malformed_file_exits_2(self, write, capsys):
        assert main(["cover", write("bad.shift", BROKEN_TEXT)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "'c'" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["cover", "/nonexistent/nowhere.shift"]) == 2

    def test_dot_into_missing_directory_exits_2(self, write, capsys,
                                                tmp_path):
        dot = tmp_path / "missing" / "cover.dot"
        assert main(["cover", write("even.shift", EVEN_TEXT),
                     "--dot", str(dot)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert not dot.exists()

    def test_byte_deterministic(self, write, capsys):
        path = write("even.shift", EVEN_TEXT)
        main(["cover", path])
        first = capsys.readouterr().out
        main(["cover", path])
        assert capsys.readouterr().out == first


class TestMatrix:
    def test_even_shift_permutation_of_published(self, write, capsys):
        assert main(["matrix", write("even.shift", EVEN_TEXT)]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [[int(x) for x in line.split()] for line in out]
        assert len(rows) == 5
        assert permutation_equivalent(rows, EVEN_PUBLISHED_MATRIX)

    def test_full_two_shift(self, write, capsys):
        assert main(["matrix", write("full2.shift", FULL2_TEXT)]) == 0
        assert capsys.readouterr().out == "1 1\n1 1\n"

    def test_golden_mean_is_three_by_three(self, write, capsys):
        assert main(["matrix", write("gm.shift", GOLDEN_TEXT)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(len(line.split()) == 3 for line in out)


class TestVerify:
    def test_even_passes(self, write, capsys):
        assert main(["verify", write("even.shift", EVEN_TEXT)]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().splitlines()[-1] == "families=15 failed=0"

    def test_golden_passes(self, write, capsys):
        assert main(["verify", write("gm.shift", GOLDEN_TEXT),
                     "--max-word-len", "6"]) == 0

    def test_corrupted_cover_fails(self, write, capsys):
        assert main(["verify", write("even.shift", EVEN_TEXT),
                     "--corrupt", "reassign-range"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_reducible_fixture_passes(self, write, capsys):
        assert main(["verify", write("chain.shift", CHAIN_TEXT)]) == 0

    def test_negative_word_length_exits_2(self, write, capsys):
        assert main(["verify", write("even.shift", EVEN_TEXT),
                     "--max-word-len", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: word length must be nonnegative\n"


class TestKtheory:
    def test_full_three_shift(self, write, capsys):
        assert main(["ktheory", write("full3.shift", FULL3_TEXT)]) == 0
        assert capsys.readouterr().out == "K0 = Z/2\nK1 = 0\n"

    def test_even_shift(self, write, capsys):
        assert main(["ktheory", write("even.shift", EVEN_TEXT)]) == 0
        assert capsys.readouterr().out == "K0 = Z\nK1 = Z\n"

    def test_full_two_shift(self, write, capsys):
        assert main(["ktheory", write("full2.shift", FULL2_TEXT)]) == 0
        assert capsys.readouterr().out == "K0 = 0\nK1 = 0\n"


class TestOracle:
    def test_even_shift(self, write, capsys):
        assert main(["oracle", write("even.shift", EVEN_TEXT),
                     "--bound", "6"]) == 0
        assert capsys.readouterr().out == "3 sets via both methods\n"

    def test_golden_mean(self, write, capsys):
        assert main(["oracle", write("gm.shift", GOLDEN_TEXT),
                     "--bound", "6"]) == 0
        assert capsys.readouterr().out == "2 sets via both methods\n"

    def test_full_two_shift_tiny_bound(self, write, capsys):
        assert main(["oracle", write("full2.shift", FULL2_TEXT),
                     "--bound", "1"]) == 0
        assert capsys.readouterr().out == "1 set via both methods\n"

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_bound_below_one_exits_2(self, write, capsys, bound):
        assert main(["oracle", write("full2.shift", FULL2_TEXT),
                     "--bound", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ray bound must be at least 1\n"

    def test_mismatch_names_both_methods(self, write, capsys, monkeypatch):
        # the even shift realizes {a}, {b} and {a, b}
        import soficshift.semigroup as sm
        path = write("even.shift", EVEN_TEXT)
        monkeypatch.setattr(sm, "realized_survivor_sets_bruteforce",
                            lambda g, bound: frozenset(
                                {frozenset({0}), frozenset({0, 2})}))
        assert main(["oracle", path]) == 1
        assert capsys.readouterr().out == (
            "mismatch: pair-graph method found 3, ray enumeration found 2\n"
            "only pair graph: [[0, 1], [1]]\n"
            "only enumeration: [[0, 2]]\n")


class TestImports:
    def test_cover_and_verify_load_neither_ktheory_nor_semigroup(
            self, write):
        path = write("even.shift", EVEN_TEXT)
        script = textwrap.dedent("""
            import sys
            from soficshift.cli import main
            main(["cover", sys.argv[1]])
            main(["verify", sys.argv[1]])
            print(sorted(m for m in sys.modules
                         if m in ("soficshift.ktheory",
                                  "soficshift.semigroup")))
        """)
        src = os.path.dirname(os.path.dirname(soficshift.__file__))
        proc = subprocess.run([sys.executable, "-c", script, path],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_lazy_names_resolve(self):
        from soficshift import krieger, ktheory, semigroup
        assert soficshift.k_groups is ktheory.k_groups
        assert soficshift.TransitionSemigroup is semigroup.TransitionSemigroup
        assert krieger.transition_semigroup is semigroup.transition_semigroup
        assert krieger.SEMIGROUP_ROW_CAP == semigroup.SEMIGROUP_ROW_CAP
        with pytest.raises(AttributeError):
            soficshift.no_such_name
        with pytest.raises(AttributeError):
            krieger.no_such_name


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_processes(self, write,
                                                        capsys):
        # an argparse error leaves nothing behind for the calls after
        # it in the same process
        path = write("even.shift", EVEN_TEXT)
        calls = [["verify", path, "--max-word-len", "x"],
                 ["cover", path],
                 ["verify", path, "--max-word-len", "3"]]
        here = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            here.append((code, out.out, out.err))
        assert [code for code, _, _ in here] == [2, 0, 0]
        script = "import sys\nfrom soficshift.cli import main\n" \
                 "sys.exit(main(sys.argv[1:]))"
        src = os.path.dirname(os.path.dirname(soficshift.__file__))
        for argv, got in zip(calls, here):
            proc = subprocess.run([sys.executable, "-c", script, *argv],
                                  capture_output=True, text=True,
                                  timeout=60,
                                  env=dict(os.environ, PYTHONPATH=src))
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


class TestVertexSetsStayMasks:
    def test_cover_verify_and_ktheory_convert_no_vertex_set(
            self, write, capsys, monkeypatch):
        # from the pair graph to the checks vertex sets are bitmasks;
        # only the public boundary turns them into frozensets
        from soficshift import isocheck, krieger

        def refuse(*args):
            raise AssertionError("a vertex set was converted")
        monkeypatch.setattr(krieger, "_mask_to_set", refuse)
        for name, text in (("even", EVEN_TEXT), ("golden", GOLDEN_TEXT),
                           ("chain", CHAIN_TEXT)):
            path = write(f"{name}.shift", text)
            assert main(["cover", path]) == 0, name
            assert main(["ktheory", path]) == 0, name
            verify = ["verify", path, "--max-word-len", "4"]
            assert main(verify) == 0, name
            for kind in isocheck.CORRUPTION_KINDS:
                assert main(verify + ["--corrupt", kind]) == 1, (name, kind)
        capsys.readouterr()
        # the boundary does convert, so the patch is in force
        g = krieger.build_cover(soficshift.parse_presentation(EVEN_TEXT)).graph
        with pytest.raises(AssertionError, match="converted"):
            krieger.realized_survivor_sets(g)


class TestWords:
    def test_even_length_two(self, write, capsys):
        assert main(["words", "-k", "2", write("even.shift", EVEN_TEXT)]) == 0
        assert capsys.readouterr().out == "0 0\n0 1\n1 0\n1 1\n"

    def test_golden_length_two(self, write, capsys):
        assert main(["words", "-k", "2", write("gm.shift", GOLDEN_TEXT)]) == 0
        assert capsys.readouterr().out == "0 0\n0 1\n1 0\n"


def ladder_text(n):
    """v0 loops on both letters and also steps to v1 on 1; v1 .. v(n-1)
    step forward on both letters and v(n-1) returns to v0.  The subset
    construction reaches all 2**(n-1) sets of the form {v0} plus a set
    of the others."""
    lines = ["alphabet 0 1"] + [f"vertex v{i}" for i in range(n)]
    lines += ["edge v0 v0 0", "edge v0 v0 1", "edge v0 v1 1"]
    lines += [f"edge v{i} v{i + 1} {a}" for i in range(1, n - 1)
              for a in (0, 1)]
    lines += [f"edge v{n - 1} v0 {a}" for a in (0, 1)]
    return "\n".join(lines) + "\n"


# Runs the ``soficshift`` command line in a child that first lowers its
# own address-space limit, so a missing size cap fails with MemoryError
# there instead of exhausting the machine.
LIMITED_CLI = textwrap.dedent("""
    import resource, sys
    limit = int(sys.argv[1])
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    from soficshift.cli import main
    sys.exit(main(sys.argv[2:]))
""")


def run_limited(argv, limit_bytes, timeout=300):
    src = os.path.dirname(os.path.dirname(soficshift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, str(limit_bytes), *argv],
        capture_output=True, text=True, timeout=timeout, env=env)


def run_limited_cover(path, limit_bytes):
    return run_limited(["cover", path], limit_bytes)


class TestResourceLimits:
    def test_error_types_exit_2_through_one_handler(self):
        assert issubclass(InputFormatError, SoficError)
        assert issubclass(ResourceLimitError, SoficError)

    def test_wide_determinization_refused_under_memory_limit(self, write):
        # 13 vertices determinize to 4,096; unbounded, the semigroup
        # of that presentation grows to gigabytes
        proc = run_limited_cover(write("ladder13.shift", ladder_text(13)),
                                 800_000 * 1024)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "error: subset construction exceeds"), proc.stderr
        assert proc.stdout == ""

    def test_largest_ladder_within_caps_still_builds(self, write):
        # 11 vertices determinize to 1,024 and the pair graph holds
        # 2,047 states: about 2.1 million stored vertices, under the
        # pair-state cap
        proc = run_limited_cover(write("ladder11.shift", ladder_text(11)),
                                 800_000 * 1024)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("classes: 1\n")

    def test_twelve_vertex_ladder_builds_under_memory_limit(self, write):
        # 12 vertices determinize to 2,048, the most the subset cap
        # allows, and the pair graph holds 4,095 states: about 8.4
        # million stored vertices, under the pair-state cap
        proc = run_limited_cover(write("ladder12.shift", ladder_text(12)),
                                 800_000 * 1024)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("classes: 1\n")

    def test_wide_semigroup_refused_under_memory_limit(self, write):
        # the 12-vertex ladder determinizes to 2,048 vertices, so each
        # row of the oracle's semigroup is 32 words wide; counted once
        # per vertex, 2,048 elements (about 730 MB) fitted the row cap
        proc = run_limited(["oracle",
                            write("ladder12.shift", ladder_text(12))],
                           800_000 * 1024)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "error: transition semigroup exceeds 4194304 stored rows: "
            "64 elements of 2048 rows"), proc.stderr
        assert proc.stdout == ""

    def test_pair_graph_candidates_refused_under_memory_limit(self, write):
        # a is the 30-cycle and b a loop on every vertex but v0, so
        # every V∖S is a preimage pre_w(V): 2**30 - 1 candidates, which
        # the pair-state cap stops while they are still being listed
        n = 30
        lines = ["alphabet a b"] + [f"vertex v{i}" for i in range(n)]
        lines += [f"edge v{i} v{(i + 1) % n} a" for i in range(n)]
        lines += [f"edge v{i} v{i} b" for i in range(1, n)]
        proc = run_limited_cover(write("rotation30.shift",
                                       "\n".join(lines) + "\n"),
                                 800_000 * 1024)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "error: pair graph exceeds 16777216 stored vertices: 559240 "
            "pair states of 30 vertices"), proc.stderr
        assert proc.stdout == ""

    def test_long_forbidden_word_refused_under_memory_limit(self, write):
        # one forbidden word of length 16 over 4 letters asks for the
        # 4**15 clean words of length 15; the cap stops at length 7
        text = "alphabet 0 1 2 3\nforbid " + " ".join("0" * 16) + "\n"
        proc = run_limited_cover(write("zeros16.shift", text),
                                 800_000 * 1024)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "error: forbidden-word compilation exceeds 8192 clean words "
            "of length 7 "), proc.stderr
        assert proc.stdout == ""

    def test_long_word_listing_refused_under_memory_limit(self, write):
        # the full 2-shift has 2**40 words of length 40; unbounded, the
        # listing grows to gigabytes, and under this limit it crashed
        # with exit code 1.  The cap stops it at length 19
        proc = run_limited(["words", "-k", "40",
                            write("full2.shift", FULL2_TEXT)],
                           800_000 * 1024, timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: word listing exceeds 262144 words "
                               "of length 19\n"), proc.stderr
        assert proc.stdout == ""

    def test_largest_word_listing_within_the_cap_prints(self, write):
        # the 2**18 words of length 18, the most the cap allows
        proc = run_limited(["words", "-k", "18",
                            write("full2.shift", FULL2_TEXT)],
                           800_000 * 1024, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 ** 18
        assert (lines[0], lines[-1]) == (" ".join("0" * 18),
                                         " ".join("1" * 18))

    def test_pair_state_cap_exits_2(self, write, capsys, monkeypatch):
        # the chain stores 3 candidates and explores the one state (V, ∅)
        import soficshift.krieger as kr
        monkeypatch.setattr(kr, "PAIR_STATE_CAP", 7)
        assert main(["cover", write("chain.shift", CHAIN_TEXT)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: pair graph exceeds 7 stored vertices: 3 pair states "
            "of 2 vertices each are stored (realized sets)\n")

    def test_representative_cap_leaves_no_output(self, write, capsys,
                                                 monkeypatch, tmp_path):
        # the closure decides all 9 candidates of 4 vertices, so the
        # realized sets fit under a cap of 59 stored vertices; the class
        # of (1 1)^inf preceded by 1 1 1 0 has no short ray, and the walk
        # for it stores 6 pair states more, 15 in all
        import soficshift.krieger as kr
        path, dot = write("long_ray.shift", LONG_RAY_TEXT), tmp_path / "c.dot"
        monkeypatch.setattr(kr, "PAIR_STATE_CAP", 60)
        assert main(["cover", path]) == 0
        assert 'E7: rep = "1110" ("11")^inf' in \
            capsys.readouterr().out
        monkeypatch.setattr(kr, "PAIR_STATE_CAP", 59)
        assert main(["ktheory", path]) == 0
        capsys.readouterr()
        assert main(["cover", path, "--dot", str(dot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: pair graph exceeds 59 stored vertices: 14 pair states "
            "of 4 vertices each are stored (representatives)\n")
        assert not dot.exists()
