import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from soficshift import (Alphabet, Edge, EmptyShiftError,
                        InputFormatError, LabeledGraph, Ray,
                        ResourceLimitError, SftSpec,
                        is_admissible, parse_presentation, ray_admissible,
                        serialize_presentation, sft_to_graph,
                        words_of_length)
from conftest import (EVEN_TEXT, GOLDEN_TEXT, corpus_graphs, make_even,
                       make_full, make_golden)


def brute_words(g, k):
    """Oracle: enumerate all length-k edge paths directly."""
    if k == 0:
        return {()}
    paths = [((e.src,), (e.label,), e.dst) for e in g.edges]
    for _ in range(k - 1):
        paths = [(p + (e.src,), w + (e.label,), e.dst)
                 for p, w, end in paths for e in g.edges if e.src == end]
    return {w for _, w, _ in paths}


class TestAlphabet:
    def test_ordering_and_lookup(self):
        a = Alphabet(["x", "y", "z"])
        assert a.index("z") == 2
        assert a.word(["y", "x"]) == (1, 0)
        assert a.render((1, 0)) == "yx"

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Alphabet(["x", "x"])
        with pytest.raises(ValueError):
            Alphabet([])

    def test_multichar_tokens_render_with_spaces(self):
        a = Alphabet(["aa", "b"])
        assert a.render((0, 1)) == "aa b"


class TestParsing:
    def test_even_shift_file(self):
        g = parse_presentation(EVEN_TEXT)
        assert isinstance(g, LabeledGraph)
        assert len(g.vertex_names) == 2
        assert len(g.edges) == 3

    def test_sft_file(self):
        spec = parse_presentation(GOLDEN_TEXT)
        assert isinstance(spec, SftSpec)
        assert spec.forbidden == ((1, 1),)

    def test_bare_alphabet_is_full_shift(self):
        spec = parse_presentation("alphabet 0 1\n")
        assert isinstance(spec, SftSpec)
        assert spec.forbidden == ()

    def test_undeclared_vertex_names_culprit_and_line(self):
        text = "alphabet 0\nvertex a\nedge a c 0\n"
        with pytest.raises(InputFormatError, match="'c'"):
            parse_presentation(text)
        with pytest.raises(InputFormatError, match="line 3"):
            parse_presentation(text)

    def test_unknown_directive(self):
        with pytest.raises(InputFormatError, match="frobnicate"):
            parse_presentation("alphabet 0\nfrobnicate a\n")

    def test_duplicate_edge(self):
        text = "alphabet 0\nvertex a\nedge a a 0\nedge a a 0\n"
        with pytest.raises(InputFormatError, match="line 4"):
            parse_presentation(text)

    def test_duplicate_edge_check_compares_no_earlier_edges(self,
                                                           monkeypatch):
        # 1,000 distinct edges: a scan of the earlier edges would
        # compare 499,500 pairs, a set of the edges seen almost none
        lines = ["alphabet " + " ".join(str(a) for a in range(10))]
        lines += [f"vertex v{i}" for i in range(10)]
        lines += [f"edge v{i} v{j} {a}" for i in range(10)
                  for j in range(10) for a in range(10)]
        calls = [0]
        eq = Edge.__eq__

        def counting_eq(self, other):
            calls[0] += 1
            return eq(self, other)

        monkeypatch.setattr(Edge, "__eq__", counting_eq)
        g = parse_presentation("\n".join(lines) + "\n")
        assert len(g.edges) == 1000
        assert calls[0] < len(g.edges)

    def test_mixed_modes_rejected(self):
        with pytest.raises(InputFormatError):
            parse_presentation("alphabet 0\nvertex a\nforbid 0\n")
        with pytest.raises(InputFormatError):
            parse_presentation("alphabet 0\nforbid 0\nvertex a\n")

    def test_alphabet_must_come_first(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_presentation("vertex a\nalphabet 0\n")

    def test_undeclared_symbol_on_edge(self):
        with pytest.raises(InputFormatError, match="'9'"):
            parse_presentation("alphabet 0\nvertex a\nedge a a 9\n")

    def test_round_trip_graph(self):
        g = parse_presentation(EVEN_TEXT)
        assert parse_presentation(serialize_presentation(g)) == g

    def test_round_trip_sft(self):
        spec = parse_presentation(GOLDEN_TEXT)
        assert parse_presentation(serialize_presentation(spec)) == spec

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_round_trip_generated(self, data):
        # tokens and vertex names: one to three characters, none of them
        # whitespace or the comment sign
        names = st.text("abxyz019_-.:", min_size=1, max_size=3)
        tokens = data.draw(st.lists(names, min_size=1, max_size=4,
                                    unique=True))
        alphabet = Alphabet(tokens)
        k = len(tokens)
        if data.draw(st.booleans()):
            vertices = data.draw(st.lists(names, min_size=1, max_size=4,
                                          unique=True))
            n = len(vertices)
            edges = data.draw(st.sets(st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1),
                st.integers(0, k - 1)), max_size=3 * n))
            obj = LabeledGraph(alphabet, vertices, edges)
        else:
            obj = SftSpec(alphabet, tuple(data.draw(st.lists(
                st.lists(st.integers(0, k - 1), min_size=1,
                         max_size=3).map(tuple), max_size=4))))
        text = serialize_presentation(obj)
        assert parse_presentation(text) == obj
        assert serialize_presentation(parse_presentation(text)) == text

    @pytest.mark.parametrize("bad", ["", "x y", "a#b", "z\n"])
    def test_serialize_refuses_unparsable_text(self, bad):
        with pytest.raises(ValueError, match="cannot serialize"):
            serialize_presentation(LabeledGraph(Alphabet(["0"]), [bad],
                                                [(0, 0, 0)]))
        with pytest.raises(ValueError, match="cannot serialize"):
            serialize_presentation(SftSpec(Alphabet(["0", bad]), ()))


class TestGraphInvariants:
    def test_duplicate_triple_rejected(self):
        a = Alphabet(["0"])
        with pytest.raises(ValueError):
            LabeledGraph(a, ["v"], [(0, 0, 0), (0, 0, 0)])

    def test_bad_indices_rejected(self):
        a = Alphabet(["0"])
        with pytest.raises(ValueError):
            LabeledGraph(a, ["v"], [(0, 1, 0)])
        with pytest.raises(ValueError):
            LabeledGraph(a, ["v"], [(0, 0, 5)])

    def test_essential_scan(self):
        g = make_even()
        assert g.is_essential()
        a = Alphabet(["0"])
        sink = LabeledGraph(a, ["u", "v"], [(0, 0, 0), (0, 1, 0)])
        assert not sink.is_essential()


class TestSftToGraph:
    def test_golden_mean_blocks(self):
        g = make_golden()
        # oracle: vertices are the clean length-1 words, edges the
        # clean 2-blocks
        assert g.vertex_names == ("0", "1")
        expect = {(a, b) for a in "01" for b in "01" if (a, b) != ("1", "1")}
        got = {(g.vertex_names[e.src], g.vertex_names[e.dst][-1])
               for e in g.edges}
        assert got == expect
        assert len(g.edges) == 3

    def test_full_shift_single_letter(self):
        g = make_full(1)
        assert len(g.vertex_names) == 1
        assert len(g.edges) == 1

    def test_two_constant_loops(self):
        spec = parse_presentation("alphabet 0 1\nforbid 0 1\nforbid 1 0\n")
        g = sft_to_graph(spec)
        assert len(g.vertex_names) == 2
        assert all(e.src == e.dst for e in g.edges)
        assert len(g.edges) == 2

    def test_multichar_names_round_trip(self):
        spec = parse_presentation("alphabet ab c\nforbid ab ab c\n")
        g = sft_to_graph(spec)
        assert g.vertex_names == ("0.0", "0.1", "1.0", "1.1")
        assert parse_presentation(serialize_presentation(g)) == g

    def test_everything_forbidden(self):
        spec = parse_presentation("alphabet 0 1\nforbid 0\nforbid 1\n")
        with pytest.raises(EmptyShiftError):
            sft_to_graph(spec)

    def test_clean_word_cap(self, monkeypatch):
        # forbidding 0 0 0 keeps all 4 words of length 2 as vertices
        import soficshift.shiftcore as sc
        spec = parse_presentation("alphabet 0 1\nforbid 0 0 0\n")
        monkeypatch.setattr(sc, "CLEAN_WORD_CAP", 4)
        assert sft_to_graph(spec).vertex_count == 4
        monkeypatch.setattr(sc, "CLEAN_WORD_CAP", 3)
        with pytest.raises(ResourceLimitError,
                           match=r"^forbidden-word compilation exceeds 3 "
                                 r"clean words of length 2 "):
            sft_to_graph(spec)

    def test_output_essential_and_right_resolving(self):
        for text in (GOLDEN_TEXT, "alphabet 0 1 2\nforbid 0 1 2\n",
                     "alphabet 0 1\nforbid 1 1 1\n"):
            g = sft_to_graph(parse_presentation(text))
            assert g.is_essential()
            assert g.is_right_resolving()


class TestWords:
    def test_even_k0_is_empty_word(self, even_graph):
        assert words_of_length(even_graph, 0) == {()}

    def test_even_k2(self, even_graph):
        assert words_of_length(even_graph, 2) == brute_words(even_graph, 2)
        assert {even_graph.alphabet.render(w)
                for w in words_of_length(even_graph, 2)} == \
            {"00", "01", "10", "11"}

    def test_golden_k2(self, golden_graph):
        assert {golden_graph.alphabet.render(w)
                for w in words_of_length(golden_graph, 2)} == \
            {"00", "01", "10"}

    def test_words_match_admissibility_exhaustively(self):
        for name, g in corpus_graphs():
            for k in range(5):
                expect = {w for w in
                          itertools.product(range(len(g.alphabet)),
                                            repeat=k)
                          if is_admissible(g, w)}
                assert words_of_length(g, k) == expect, (name, k)

    def test_prefix_projection(self):
        for name, g in corpus_graphs():
            for k in range(4):
                longer = words_of_length(g, k + 1)
                shorter = words_of_length(g, k)
                assert {w[:-1] for w in longer} <= shorter, name

    def test_long_words_in_linear_time(self):
        # one word per length on the one-letter loop: copying each word
        # to extend it made the time grow with k**2 (7.8 s at k = 40,000)
        start = time.perf_counter()
        words = words_of_length(make_full(1), 200_000)
        assert time.perf_counter() - start < 5
        assert words == {(0,) * 200_000}

    def test_cap_on_words_of_one_length(self, golden_graph, monkeypatch):
        # 21 golden mean words of length 6: a cap of 21 lists them, a
        # cap of 20 refuses them (and the 13 of length 5 pass)
        import soficshift.shiftcore as shiftcore
        monkeypatch.setattr(shiftcore, "WORD_CAP", 21)
        assert len(words_of_length(golden_graph, 6)) == 21
        monkeypatch.setattr(shiftcore, "WORD_CAP", 20)
        with pytest.raises(ResourceLimitError,
                           match="^word listing exceeds 20 words of "
                                 "length 6$"):
            words_of_length(golden_graph, 6)


class TestAdmissibility:
    def test_even_101_inadmissible(self, even_graph):
        assert not is_admissible(even_graph, (1, 0, 1))

    def test_even_1001_admissible(self, even_graph):
        assert is_admissible(even_graph, (1, 0, 0, 1))

    def test_empty_word_always(self):
        for _, g in corpus_graphs():
            assert is_admissible(g, ())


class TestRays:
    def test_period_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Ray((), ())

    def test_even_zero_ray(self, even_graph):
        assert ray_admissible(even_graph, Ray((), (0,)))

    def test_even_one_then_zeros(self, even_graph):
        assert ray_admissible(even_graph, Ray((1,), (0,)))

    def test_golden_rejects_ones_period(self, golden_graph):
        assert not ray_admissible(golden_graph, Ray((), (1, 1)))
