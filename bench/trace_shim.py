"""Run one citeclass CLI stage with spans around its calls into each module.

Usage:
    python bench/trace_shim.py TRACE_FILE RUN_ID -- <citeclass arguments>

The shim wraps the public functions that ``cli.py`` calls across module
boundaries, then calls ``citeclass.cli.main`` with the given arguments, so
the stage runs in its own process exactly as ``python -m citeclass`` would
run it. Names that ``cli.py`` binds with ``from ... import`` are patched in
the calling module's namespace; ``Corpus.__init__`` and
``FlowAccumulator.add`` are patched on their classes.

Spans stay in memory and are written to TRACE_FILE as one JSON object when
the stage returns, whatever its exit code:

- ``spans``: ``[id, name, parent, start, end]`` for each call of a wrapped
  function (``perf_counter`` seconds; ``parent`` is the enclosing span id).
- ``rollups``: ``[id, name, parent, calls, total_s]``. Functions called once
  or more per document are aggregated per parent instead of recorded one
  span per call.
- ``counts``: work done, such as bytes parsed or graph nodes.

TRACE_FILE must lie outside ``--out``: the pipeline's outputs are compared
byte for byte.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.rollups: dict[tuple[str, int | None], list] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.next_id = 0

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def _parent(self) -> int | None:
        return self.stack[-1] if self.stack else None

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def gauge(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), int(n))

    def span(self, name: str, fn, after=None):
        """Record one span per call; ``after(tracer, result, *args)`` runs
        outside the span to take counts from the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = self._parent()
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append((sid, name, parent, start, end))
            if after is not None:
                after(self, result, *args, **kwargs)
            return result
        return wrapper

    def _rollup(self, name: str) -> list:
        key = (name, self._parent())
        rec = self.rollups.get(key)
        if rec is None:
            rec = self.rollups[key] = [self._new_id(), name, key[1], 0, 0.0]
        return rec

    def rollup(self, name: str, fn):
        """Aggregate calls per parent into one record: count and total time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._rollup(name)
            self.stack.append(rec[0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] += perf_counter() - start
                rec[3] += 1
                self.stack.pop()
        return wrapper

    def rollup_iter(self, name: str, fn):
        """Like ``rollup`` for a generator function: times each ``next``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            rec = self._rollup(name)

            def timed():
                while True:
                    self.stack.append(rec[0])
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[4] += perf_counter() - start
                        rec[3] += 1
                        self.stack.pop()
                    yield item
            return timed()
        return wrapper

    def to_json(self, run_id: str, argv: list[str], exit_code: int) -> dict:
        return {
            "run": run_id,
            "argv": argv,
            "exit": exit_code,
            "spans": [list(s) for s in self.spans],
            "rollups": list(self.rollups.values()),
            "counts": dict(sorted(self.counts.items())),
        }


def _count_parsed(t: Tracer, result, journal_path, document_path, *args, **kwargs) -> None:
    t.add("corpus.bytes_parsed", os.path.getsize(journal_path) + os.path.getsize(document_path))


def _count_edges(t: Tracer, result, corpus, *args, **kwargs) -> None:
    # ref_edges() is cached on the corpus by the call just made
    t.gauge("corpus.edges", len(corpus.ref_edges()[0]))


def _count_low_ref(t: Tracer, result, corpus, asjc_set, policy, *args, **kwargs) -> None:
    low = sum(1 for d in corpus.documents if len(d.references) < policy.min_references)
    t.add("citer.low_ref_docs", low)


def _count_written(t: Tracer, result, path, *args, **kwargs) -> None:
    t.add("assignments.bytes_written", os.path.getsize(path))


def _count_pairs(t: Tracer, result, matrix, *args, **kwargs) -> None:
    if matrix.level == "category":
        t.add("flow.pairs_category", len(matrix.flow))


def _count_cells(t: Tracer, result, *args, **kwargs) -> None:
    t.gauge("indicators.cells", len(result.mean_citations))


def _count_graph(t: Tracer, result, graph, *args, **kwargs) -> None:
    t.gauge("netgraph.nodes", len(graph.nodes))
    t.gauge("netgraph.edges", len(graph.edges))


def _count_iterations(t: Tracer, result, *args, **kwargs) -> None:
    # the energy trace holds the initial energy plus one entry per step
    t.add("netgraph.layout_iterations", len(result.energy_trace) - 1)


def install(t: Tracer) -> None:
    """Patch the module boundaries that ``citeclass.cli`` crosses."""
    from citeclass import asjc, citer, cli, corpus, flow, indicators, netgraph, syngen

    cli.load_corpus = t.span("corpus.load_corpus", cli.load_corpus, _count_parsed)
    cli.write_corpus = t.span("corpus.write_corpus", cli.write_corpus)
    cli.build_citation_index = t.span(
        "corpus.build_citation_index", cli.build_citation_index, _count_edges)
    corpus.Corpus.__init__ = t.span("corpus.validate", corpus.Corpus.__init__)

    asjc.classify_asjc = t.span("asjc.classify_asjc", asjc.classify_asjc)
    citer.classify_u1f08_all = t.span(
        "citer.classify_u1f08_all", citer.classify_u1f08_all, _count_low_ref)

    cli.read_assignments = t.span("assignments.read_assignments", cli.read_assignments)
    cli.write_assignments = t.span(
        "assignments.write_assignments", cli.write_assignments, _count_written)
    cli.iter_assignments = t.rollup_iter("assignments.iter_assignments", cli.iter_assignments)

    flow.FlowAccumulator.add = t.rollup("flow.add", flow.FlowAccumulator.add)
    flow.write_flow_csv = t.span("flow.write", flow.write_flow_csv, _count_pairs)
    flow.write_class_stats_csv = t.span("flow.write", flow.write_class_stats_csv)

    collapse = t.rollup("weights.collapse_to_areas", cli.collapse_to_areas)
    for module in (cli, flow, indicators):
        module.collapse_to_areas = collapse

    for attr, name, after in (
        ("category_baselines", "indicators.baselines", _count_cells),
        ("ni_table", "indicators.ni", None),
        ("excellence_thresholds", "indicators.thresholds", None),
        ("excellence_flags", "indicators.flags", None),
        ("excellence_overlap", "indicators.overlap", None),
        ("ni_std_by_area", "indicators.std", None),
        ("write_indicators_csv", "indicators.write", None),
        ("write_baselines_csv", "indicators.write", None),
        ("write_overlap_csv", "indicators.write", None),
    ):
        setattr(indicators, attr, t.span(name, getattr(indicators, attr), after))

    netgraph.detect_communities = t.span(
        "netgraph.communities", netgraph.detect_communities, _count_graph)
    netgraph.linlog_layout = t.span("netgraph.layout", netgraph.linlog_layout, _count_iterations)

    syngen.generate_corpus = t.span("syngen.generate", syngen.generate_corpus)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_shim.py TRACE_FILE RUN_ID -- <citeclass arguments>", file=sys.stderr)
        return 2
    trace_file, run_id, cli_argv = argv[0], argv[1], argv[3:]
    from citeclass import cli

    tracer = Tracer()
    install(tracer)
    run = tracer.span("cli", cli.main)
    exit_code = 1
    try:
        exit_code = run(cli_argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(run_id, cli_argv, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
