import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from soficshift import (Alphabet, EmptyShiftError, LabeledGraph,
                        ResourceLimitError, language_equal_upto,
                        make_right_resolving, trim_essential)
from soficshift.shiftcore import Edge
from conftest import make_even, make_golden, random_corpus


def layered_trim(g):
    """Slow reference for ``trim_essential``: remove every stranded
    vertex, one layer per pass over all edges, until none is left."""
    alive = set(range(g.vertex_count))
    edges = list(g.edges)
    while True:
        outs = {e.src for e in edges}
        ins = {e.dst for e in edges}
        dead = {v for v in alive if v not in outs or v not in ins}
        if not dead:
            break
        alive -= dead
        edges = [e for e in edges if e.src in alive and e.dst in alive]
    if not alive:
        raise EmptyShiftError("no bi-infinite path survives: empty shift")
    order = sorted(alive)
    remap = {v: i for i, v in enumerate(order)}
    return LabeledGraph(
        g.alphabet,
        [g.vertex_names[v] for v in order],
        [Edge(remap[e.src], remap[e.dst], e.label) for e in edges],
    )


def chain_into_loop(n):
    """A one-letter chain v0 -> ... -> v(n-1) whose last vertex loops,
    fed by nothing: every vertex but the last is stranded, one layer at
    a time from v0."""
    return LabeledGraph(Alphabet(["0"]), [f"v{i}" for i in range(n)],
                        [(i, i + 1, 0) for i in range(n - 1)]
                        + [(n - 1, n - 1, 0)])


def trim_or_empty(trim, g):
    try:
        return trim(g)
    except EmptyShiftError as exc:
        return str(exc)


class TestTrim:
    def test_essential_graph_unchanged(self):
        g = make_even()
        assert trim_essential(g) is g

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

    def test_matches_layered_reference_on_random_graphs(self):
        # any edge set over up to 12 vertices, so most graphs strand
        # vertices in several layers and some trim to nothing
        rng = random.Random(104)
        for _ in range(300):
            n, k = rng.randint(1, 12), rng.randint(1, 3)
            density = rng.uniform(0.02, 0.3)
            g = LabeledGraph(Alphabet([str(a) for a in range(k)]),
                             [f"v{i}" for i in range(n)],
                             [(s, t, a) for s in range(n) for t in range(n)
                              for a in range(k) if rng.random() < density])
            assert trim_or_empty(trim_essential, g) == \
                trim_or_empty(layered_trim, g)

    def test_chain_matches_layered_reference(self):
        g = chain_into_loop(300)
        trimmed = trim_essential(g)
        assert trimmed == layered_trim(g)
        assert trimmed.vertex_names == ("v299",)


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
