"""The traced run: spans around the calls into each module.

For every operation the traced run makes the public calls the CLI
command makes (load, ``build_cover``, ``edge_matrix``, ``k_groups``,
``corrupt_cover``, ``verify_all``), each inside a "command" span.  A
breakdown pass on the same input then calls the stage functions one by
one, each inside a "breakdown" span.  Spans are kept in memory; the
caller writes them out when the run ends.  Only command spans count
toward the tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

CLOPEN_WORD_LEN = 5


@dataclass
class Span:
    id: int
    name: str
    op: int
    kind: str            # "op", "command" or "breakdown"
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._op_span: Span | None = None

    def begin_op(self, op: int, name: str) -> None:
        self._op_span = self._open(name, op, "op", None)

    def end_op(self) -> None:
        self._op_span.end = time.perf_counter()

    def _open(self, name, op, kind, parent) -> Span:
        span = Span(len(self.spans), name, op, kind, parent, 0.0)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def call(self, name: str, fn, *args, breakdown: bool = False, **kw):
        op = self._op_span
        span = self._open(name, op.op, "breakdown" if breakdown else
                          "command", op.id)
        result = fn(*args, **kw)
        span.end = time.perf_counter()
        return result

    def count(self, **counts) -> None:
        """Attach counts to the most recent span."""
        self.spans[-1].counts.update(counts)


def traced_round(ops, tr: Tracer):
    """Run every operation once under the tracer; return the answer
    of each (a rendered string) for comparison with the CLI output."""
    from soficshift import diagonal, isocheck, krieger, ktheory
    from soficshift.automata import make_right_resolving, trim_essential
    from soficshift.shiftcore import (SftSpec, parse_presentation,
                                      sft_to_graph, words_of_length)

    answers = []
    for op in ops:
        tr.begin_op(op.index, " ".join(op.argv[:1] + op.argv[2:]))
        with open(op.path, encoding="utf-8") as handle:
            text = handle.read()
        obj = tr.call("shiftcore.parse_presentation", parse_presentation,
                      text)
        if isinstance(obj, SftSpec):
            g = tr.call("shiftcore.sft_to_graph", sft_to_graph, obj)
        else:
            g = tr.call("automata.trim_essential", trim_essential, obj)
        cover = tr.call("krieger.build_cover", krieger.build_cover, g)
        tr.count(classes=cover.class_count, edges=len(cover.edges))
        if op.command == "cover":
            answer = f"{cover.class_count} {len(cover.edges)}"
        elif op.command == "ktheory":
            m = tr.call("krieger.edge_matrix", krieger.edge_matrix, cover)
            tr.count(matrix_dim=m.size)
            k0, k1 = tr.call("ktheory.k_groups", ktheory.k_groups, m)
            answer = f"K0 = {k0.render()}\nK1 = {k1.render()}"
        else:
            max_len = int(op.argv[op.argv.index("--max-word-len") + 1])
            target = cover
            if op.corrupt:
                target = tr.call("isocheck.corrupt_cover",
                                 isocheck.corrupt_cover, cover, op.corrupt)
            report = tr.call("isocheck.verify_all", isocheck.verify_all,
                             target, max_len=max_len)
            tr.count(checked=sum(r.checked for r in report.results),
                     corrupt=bool(op.corrupt))
            answer = report.render()

        # breakdown: the stages of build_cover on the same input
        h = tr.call("automata.condition",
                    lambda: make_right_resolving(trim_essential(g)),
                    breakdown=True)
        tr.count(vertices=h.vertex_count)
        sg = tr.call("krieger.transition_semigroup",
                     krieger.transition_semigroup, h, breakdown=True)
        tr.count(elements=len(sg))
        realized, _ = tr.call("krieger.realized_survivor_sets",
                              krieger.realized_survivor_sets, h, sg,
                              breakdown=True)
        tr.count(sets=len(realized))
        tr.call("krieger.past_partition", krieger.past_partition, h,
                realized, sg, breakdown=True)

        # breakdown: the verification families and the clopen engine
        if op.command == "verify" and not op.corrupt:
            tr.call("isocheck.verify_edge_sum_hypotheses",
                    isocheck.verify_edge_sum_hypotheses, cover, max_len,
                    breakdown=True)
            tr.call("isocheck.verify_ck_relations",
                    isocheck.verify_ck_relations, cover, breakdown=True)
            tr.call("isocheck.verify_round_trips",
                    isocheck.verify_round_trips, cover, breakdown=True)
            words = [w for n in range(1, CLOPEN_WORD_LEN + 1)
                     for w in sorted(words_of_length(cover.graph, n))]
            tr.call("diagonal.post_image",
                    lambda: [diagonal.post_image(cover, w) for w in words],
                    breakdown=True)
            tr.count(words=len(words))

            def formulas():
                for i in range(cover.class_count):
                    pos, neg = diagonal.express_class_projection(cover, i)
                    diagonal.evaluate_projection_formula(cover, pos, neg)

            tr.call("diagonal.projection_formulas", formulas,
                    breakdown=True)
        tr.end_op()
        answers.append(answer)
    return answers


def _total(spans, name, **where) -> float:
    return sum(s.seconds for s in spans if s.name == name
               and all(s.counts.get(k) == v for k, v in where.items()))


def _count(spans, name, key) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, summed over its
    operations: name -> (value, unit)."""
    stages = ("automata.condition", "krieger.transition_semigroup",
              "krieger.realized_survivor_sets", "krieger.past_partition")
    build = _total(spans, "krieger.build_cover")
    return {
        "shiftcore.load_s": (_total(spans, "shiftcore.parse_presentation")
                             + _total(spans, "shiftcore.sft_to_graph"), "s"),
        "automata.condition_s": (_total(spans, "automata.condition"), "s"),
        "automata.vertices": (_count(spans, "automata.condition",
                                     "vertices"), "count"),
        "krieger.build_cover_s": (build, "s"),
        "krieger.semigroup_s": (_total(spans, stages[1]), "s"),
        "krieger.semigroup_elements": (_count(spans, stages[1],
                                              "elements"), "count"),
        "krieger.realized_s": (_total(spans, stages[2]), "s"),
        "krieger.realized_sets": (_count(spans, stages[2], "sets"), "count"),
        "krieger.partition_s": (_total(spans, stages[3]), "s"),
        "krieger.classes": (_count(spans, "krieger.build_cover",
                                   "classes"), "count"),
        "krieger.representatives_edges_s": (
            build - sum(_total(spans, s) for s in stages), "s"),
        "krieger.edge_matrix_s": (_total(spans, "krieger.edge_matrix"), "s"),
        "krieger.edges": (_count(spans, "krieger.build_cover", "edges"),
                          "count"),
        "ktheory.k_groups_s": (_total(spans, "ktheory.k_groups"), "s"),
        "ktheory.matrix_dim": (_count(spans, "krieger.edge_matrix",
                                      "matrix_dim"), "count"),
        "isocheck.verify_intact_s": (_total(spans, "isocheck.verify_all",
                                            corrupt=False), "s"),
        "isocheck.verify_corrupt_s": (_total(spans, "isocheck.verify_all",
                                             corrupt=True), "s"),
        "isocheck.edge_sum_hypotheses_s": (
            _total(spans, "isocheck.verify_edge_sum_hypotheses"), "s"),
        "isocheck.checked": (_count(spans, "isocheck.verify_all",
                                    "checked"), "count"),
        "isocheck.ck_relations_s": (
            _total(spans, "isocheck.verify_ck_relations"), "s"),
        "isocheck.round_trips_s": (
            _total(spans, "isocheck.verify_round_trips"), "s"),
        "diagonal.post_images_s": (_total(spans, "diagonal.post_image"),
                                   "s"),
        "diagonal.projection_formulas_s": (
            _total(spans, "diagonal.projection_formulas"), "s"),
    }


def command_seconds(spans) -> float:
    """Time inside command spans, the part comparable to the untraced
    CLI time."""
    return sum(s.seconds for s in spans if s.kind == "command")
