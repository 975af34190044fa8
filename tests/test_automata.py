import pytest
from hypothesis import assume, given, settings, strategies as st

from soficshift import (Alphabet, EmptyShiftError, LabeledGraph,
                        ResourceLimitError, language_equal_upto,
                        make_right_resolving, trim_essential)
from conftest import make_even, make_golden, random_corpus


class TestTrim:
    def test_essential_graph_unchanged(self):
        g = make_even()
        assert trim_essential(g) == g

    def test_sink_removed(self):
        g = make_even()
        a = g.alphabet
        with_sink = LabeledGraph(
            a, list(g.vertex_names) + ["sink"],
            list(g.edges) + [(0, 2, 0)])
        assert trim_essential(with_sink) == g

    def test_acyclic_chain_is_empty(self):
        a = Alphabet(["0"])
        chain = LabeledGraph(a, ["x", "y", "z"], [(0, 1, 0), (1, 2, 0)])
        with pytest.raises(EmptyShiftError):
            trim_essential(chain)

    def test_idempotent(self):
        for g in random_corpus(20, seed=101):
            once = trim_essential(g)
            assert trim_essential(once) == once


class TestDeterminize:
    def test_right_resolving_input_unchanged(self):
        g = make_even()
        assert make_right_resolving(g) == g

    def test_golden_mean_unchanged(self):
        g = make_golden()
        assert make_right_resolving(g) == g

    def test_parallel_label_paths_merge(self):
        # u has two a-successors; the subset construction folds the
        # whole graph into one state with a single a-loop
        a = Alphabet(["a"])
        g = LabeledGraph(a, ["u", "v"], [(0, 0, 0), (0, 1, 0), (1, 0, 0)])
        det = make_right_resolving(g)
        assert len(det.vertex_names) == 1
        assert len(det.edges) == 1
        assert det.is_right_resolving()

    def test_output_right_resolving(self):
        for g in random_corpus(30, seed=102):
            det = make_right_resolving(g)
            assert det.is_right_resolving()
            assert det.is_essential()

    def test_language_preserved_on_random_graphs(self):
        for g in random_corpus(50, seed=103):
            det = make_right_resolving(trim_essential(g))
            assert language_equal_upto(g, det, 8)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(k), st.just(n), st.sets(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(0, k - 1)), min_size=1, max_size=3 * n)))))
    def test_language_preserved_on_generated_graphs(self, shape):
        # any edge set, so neither essential nor right-resolving
        k, n, edges = shape
        g = LabeledGraph(Alphabet([str(a) for a in range(k)]),
                         [f"v{v}" for v in range(n)], edges)
        try:
            trimmed = trim_essential(g)
        except EmptyShiftError:
            assume(False)
        det = make_right_resolving(trimmed)
        assert det.is_right_resolving()
        assert det.is_essential()
        assert language_equal_upto(trimmed, det, 6)

    def test_subset_state_cap(self, monkeypatch):
        # the subset construction on the twin a-paths reaches the full
        # set {u, v} and then {u}
        import soficshift.automata as au
        a = Alphabet(["a", "b"])
        g = LabeledGraph(a, ["u", "v"],
                         [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)])
        monkeypatch.setattr(au, "SUBSET_STATE_CAP", 2)
        assert make_right_resolving(g).is_right_resolving()
        monkeypatch.setattr(au, "SUBSET_STATE_CAP", 1)
        with pytest.raises(ResourceLimitError,
                           match="subset construction exceeds 1 subset "
                                 "states of 2 vertices"):
            make_right_resolving(g)


class TestLanguageCompare:
    def test_reflexive(self):
        g = make_even()
        assert language_equal_upto(g, g, 10)

    def test_even_vs_golden(self):
        assert not language_equal_upto(make_even(), make_golden(), 3)
