"""Command-line pipeline: ingest -> classify (both systems) -> compare ->
indicators -> network, plus report and syngen.

Exit codes: 0 success, 1 domain/validation failure (including missing
upstream artifacts), 2 usage, I/O, or parse errors. Every output is
byte-deterministic given the same inputs and flags. A manifest maps each
figure/table dataset to its file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import asjc, citer, flow, indicators as ind, netgraph, syngen
from .assignments import (
    SYSTEM_ASJC, SYSTEM_U1, iter_assignments, read_assignments, write_assignments,
)
from .config import RunConfig, build_config, coerce_value, field_types, parse_config_file
from .corpus import (
    Corpus, ParseError, Scheme, ValidationError, build_citation_index, corpus_summary,
    load_corpus, load_scheme, low_reference_share, write_corpus, write_scheme,
)
from .weights import SUPPORT_EPS, collapse_to_areas

SCHEME_FILE = os.path.join("corpus", "scheme.csv")
JOURNALS_FILE = os.path.join("corpus", "journals.jsonl")
DOCUMENTS_FILE = os.path.join("corpus", "documents.jsonl")
STATS_FILE = "corpus_stats.json"
VALIDATION_FILE = "validation_report.json"
ASJC_FILE = "assignments_asjc-frac.jsonl"
U1_FILE = "assignments_u1-f-0.8.jsonl"
MANIFEST_FILE = "manifest.json"
REPORT_FILE = "report.json"

SYSTEM_TOKENS = {"asjc-frac": SYSTEM_ASJC, "u1f08": SYSTEM_U1}

FIG1 = "fig1_low_reference_share.csv"
FIG2 = "fig2_area_common_unique.csv"
FIG3_BASE = "fig3_network"
FIG4 = "fig4_area_exchange_pct.csv"
FIG5 = "fig5_area_single_assignment.csv"
FIG6 = "fig6_category_size_histogram.csv"
FIG7 = "fig7_ni_diff_by_year.csv"
FIG8 = "fig8_ni_std_by_area.csv"
FIG9 = "fig9_excellence_overlap_p10.csv"
FIG10 = "fig10_excellence_overlap_p01.csv"
TABLE1 = "table1_top_links_area.csv"
TABLE2 = "table2_flow_summary_category.csv"
TABLE3 = "table3_top_links_category.csv"
TABLE4 = "table4_weight_summary_category.csv"


def _fmt(v: float) -> str:
    if -1e-9 < v < 0.0:
        v = 0.0
    return "%.6f" % v


def _na(v: float | None) -> str:
    return "NA" if v is None else _fmt(v)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _update_manifest(out_dir: str, entries: dict[str, str]) -> None:
    path = os.path.join(out_dir, MANIFEST_FILE)
    data: dict[str, str] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data.update(entries)
    _write_json(path, data)


def _require_artifacts(out_dir: str, names: list[str]) -> None:
    missing = [n for n in names if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        raise ValidationError(
            [f"missing upstream artifact {os.path.join(out_dir, n)!r}" for n in missing]
        )


def _load_pipeline_corpus(out_dir: str) -> tuple[Scheme, Corpus]:
    _require_artifacts(out_dir, [SCHEME_FILE, JOURNALS_FILE, DOCUMENTS_FILE])
    scheme = load_scheme(os.path.join(out_dir, SCHEME_FILE))
    corpus = load_corpus(
        os.path.join(out_dir, JOURNALS_FILE),
        os.path.join(out_dir, DOCUMENTS_FILE),
        scheme,
    )
    return scheme, corpus


def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not (cfg.scheme and cfg.journals and cfg.documents):
        print("error: ingest needs --scheme, --journals, and --documents", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(cfg.out, "corpus"), exist_ok=True)
    try:
        scheme = load_scheme(cfg.scheme)
        corpus = load_corpus(cfg.journals, cfg.documents, scheme, cfg.year_min, cfg.year_max)
    except ValidationError as e:
        _write_json(os.path.join(cfg.out, VALIDATION_FILE),
                    {"status": "invalid", "errors": e.errors})
        print(f"validation failed: {e}", file=sys.stderr)
        return 1
    write_scheme(scheme, os.path.join(cfg.out, SCHEME_FILE))
    write_corpus(corpus, os.path.join(cfg.out, JOURNALS_FILE), os.path.join(cfg.out, DOCUMENTS_FILE))
    _write_json(os.path.join(cfg.out, STATS_FILE), corpus_summary(corpus))
    _write_json(os.path.join(cfg.out, VALIDATION_FILE), {
        "status": "ok",
        "errors": [],
        "n_documents": len(corpus),
        "n_journals": len(corpus.journals),
    })
    print(f"ingested {len(corpus)} documents, {len(corpus.journals)} journals")
    return 0


def cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    system = SYSTEM_TOKENS[args.system]
    scheme, corpus = _load_pipeline_corpus(cfg.out)
    if system == SYSTEM_ASJC:
        aset = asjc.classify_asjc(corpus, scheme)
        out_path = os.path.join(cfg.out, ASJC_FILE)
    else:
        _require_artifacts(cfg.out, [ASJC_FILE])
        asjc_set = read_assignments(os.path.join(cfg.out, ASJC_FILE), SYSTEM_ASJC)
        policy = citer.ThresholdPolicy(cfg.theta, cfg.max_categories, cfg.min_references)
        aset = citer.classify_u1f08_all(corpus, asjc_set, policy, cfg.citer_window)
        out_path = os.path.join(cfg.out, U1_FILE)
    write_assignments(out_path, aset)
    print(f"classified {len(aset)} documents under {system}")
    return 0


def _summary_rows(metrics: list[tuple[str, list[float]]]) -> list[list]:
    rows = []
    for name, values in metrics:
        if not values:
            rows.append([name, 0, "NA", "NA", "NA"])
            continue
        s = flow.summary_stats(values)
        rows.append([name, s.n, _fmt(s.mean), _fmt(s.std), _na(s.cv_pct)])
    return rows


def _histogram_rows(matrix: flow.FlowMatrix, bin_width: float) -> list[list]:
    classes = matrix.classes()
    n = len(classes)
    sizes_a = [matrix.size_a.get(c, 0.0) for c in classes]
    sizes_b = [matrix.size_b.get(c, 0.0) for c in classes]
    max_bin = 0
    for s in sizes_a + sizes_b:
        max_bin = max(max_bin, int(s // bin_width))
    counts_a = [0] * (max_bin + 1)
    counts_b = [0] * (max_bin + 1)
    for s in sizes_a:
        counts_a[int(s // bin_width)] += 1
    for s in sizes_b:
        counts_b[int(s // bin_width)] += 1
    rows = []
    for k in range(max_bin + 1):
        rows.append([
            _fmt(k * bin_width), _fmt((k + 1) * bin_width),
            counts_a[k], _fmt(100.0 * counts_a[k] / n),
            counts_b[k], _fmt(100.0 * counts_b[k] / n),
        ])
    return rows


class _SupportStats:
    """Per-class single-assignment counters for one system and level."""

    def __init__(self):
        self.n_pos: dict[str, int] = {}
        self.n_single: dict[str, int] = {}
        self.sum_w: dict[str, float] = {}

    def add(self, vec: dict[str, float]) -> None:
        pos = [(c, w) for c, w in vec.items() if w > SUPPORT_EPS]
        for c, w in pos:
            self.n_pos[c] = self.n_pos.get(c, 0) + 1
            self.sum_w[c] = self.sum_w.get(c, 0.0) + w
        if len(pos) == 1:
            c = pos[0][0]
            self.n_single[c] = self.n_single.get(c, 0) + 1

    def pct_single(self, c: str) -> float | None:
        n = self.n_pos.get(c, 0)
        return 100.0 * self.n_single.get(c, 0) / n if n else None

    def mean_weight(self, c: str) -> float | None:
        n = self.n_pos.get(c, 0)
        return self.sum_w.get(c, 0.0) / n if n else None


def _single_assignment_rows(classes: list[str], st_a: _SupportStats, st_b: _SupportStats) -> list[list]:
    return [
        [c, _na(st_a.pct_single(c)), _na(st_a.mean_weight(c)),
         _na(st_b.pct_single(c)), _na(st_b.mean_weight(c))]
        for c in classes
    ]


def cmd_compare(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require_artifacts(cfg.out, [SCHEME_FILE, STATS_FILE, ASJC_FILE, U1_FILE])
    scheme = load_scheme(os.path.join(cfg.out, SCHEME_FILE))

    acc_cat = flow.FlowAccumulator("category")
    acc_area = flow.FlowAccumulator("area")
    stats_cat_a, stats_cat_b = _SupportStats(), _SupportStats()
    stats_area_a, stats_area_b = _SupportStats(), _SupportStats()

    it_a = iter_assignments(os.path.join(cfg.out, ASJC_FILE))
    it_b = iter_assignments(os.path.join(cfg.out, U1_FILE))
    try:
        for a, b in zip(it_a, it_b, strict=True):
            if a.doc_id != b.doc_id:
                raise ValidationError(
                    [f"assignment files diverge at {a.doc_id!r} vs {b.doc_id!r}"]
                )
            if a.system != SYSTEM_ASJC or b.system != SYSTEM_U1:
                raise ValidationError(
                    [f"expected systems {SYSTEM_ASJC}/{SYSTEM_U1}, got {a.system}/{b.system}"]
                )
            acc_cat.add(a.weights, b.weights)
            area_a = collapse_to_areas(a.weights, scheme)
            area_b = collapse_to_areas(b.weights, scheme)
            acc_area.add(area_a, area_b)
            stats_cat_a.add(a.weights)
            stats_cat_b.add(b.weights)
            stats_area_a.add(area_a)
            stats_area_b.add(area_b)
    except ValueError:
        raise ValidationError(["assignment files cover different numbers of documents"]) from None

    matrix_cat = acc_cat.finish()
    matrix_area = acc_area.finish()
    if matrix_cat.n_docs == 0:
        raise ValidationError(["assignment files are empty"])

    out = cfg.out
    flow.write_flow_csv(matrix_cat, os.path.join(out, "flows_category.csv"))
    flow.write_flow_csv(matrix_area, os.path.join(out, "flows_area.csv"))
    rows_cat = flow.class_flow_stats(matrix_cat)
    rows_area = flow.class_flow_stats(matrix_area)
    flow.write_class_stats_csv(rows_cat, os.path.join(out, "class_stats_category.csv"))
    flow.write_class_stats_csv(rows_area, os.path.join(out, "class_stats_area.csv"))

    common_header = ["class", "common_weight", "only_asjc_frac", "only_u1_f08"]
    for matrix, name in ((matrix_cat, "common_unique_category.csv"), (matrix_area, FIG2)):
        rows = [
            [c, _fmt(matrix.common.get(c, 0.0)),
             _fmt(matrix.size_a.get(c, 0.0) - matrix.common.get(c, 0.0)),
             _fmt(matrix.size_b.get(c, 0.0) - matrix.common.get(c, 0.0))]
            for c in matrix.classes()
        ]
        _write_csv(os.path.join(out, name), common_header, rows)

    _write_csv(
        os.path.join(out, FIG4),
        ["area", "pct_incoming", "pct_outgoing"],
        [[r.class_code, _na(r.pct_incoming), _na(r.pct_outgoing)] for r in rows_area],
    )

    single_header = [
        "class", "pct_single_asjc_frac", "mean_weight_asjc_frac",
        "pct_single_u1_f08", "mean_weight_u1_f08",
    ]
    _write_csv(os.path.join(out, "single_assignment_category.csv"), single_header,
               _single_assignment_rows(matrix_cat.classes(), stats_cat_a, stats_cat_b))
    _write_csv(os.path.join(out, FIG5), single_header,
               _single_assignment_rows(matrix_area.classes(), stats_area_a, stats_area_b))

    hist_header = [
        "bin_low", "bin_high", "count_asjc_frac", "pct_asjc_frac",
        "count_u1_f08", "pct_u1_f08",
    ]
    _write_csv(os.path.join(out, FIG6), hist_header, _histogram_rows(matrix_cat, cfg.bin_width))
    _write_csv(os.path.join(out, "size_histogram_area.csv"), hist_header,
               _histogram_rows(matrix_area, cfg.bin_width))

    link_header = ["from_class", "to_class", "weight"]
    _write_csv(os.path.join(out, TABLE1), link_header,
               [[i, j, _fmt(w)] for i, j, w in flow.top_links(matrix_area, cfg.min_link_area)])
    _write_csv(os.path.join(out, TABLE3), link_header,
               [[i, j, _fmt(w)] for i, j, w in flow.top_links(matrix_cat, cfg.min_link_category)])

    summary_header = ["metric", "n", "mean", "std", "cv_pct"]
    for rows, st_a, st_b, flow_name, weight_name in (
        (rows_cat, stats_cat_a, stats_cat_b, TABLE2, TABLE4),
        (rows_area, stats_area_a, stats_area_b, "flow_summary_area.csv", "weight_summary_area.csv"),
    ):
        flow_metrics = [
            ("size_asjc_frac", [r.size_a for r in rows]),
            ("size_u1_f08", [r.size_b for r in rows]),
            ("incoming", [r.incoming for r in rows]),
            ("outgoing", [r.outgoing for r in rows]),
            ("pct_incoming", [r.pct_incoming for r in rows if r.pct_incoming is not None]),
            ("pct_outgoing", [r.pct_outgoing for r in rows if r.pct_outgoing is not None]),
        ]
        _write_csv(os.path.join(out, flow_name), summary_header, _summary_rows(flow_metrics))
        classes = [r.class_code for r in rows]
        weight_metrics = [
            ("pct_single_asjc_frac", [v for c in classes if (v := st_a.pct_single(c)) is not None]),
            ("mean_weight_asjc_frac", [v for c in classes if (v := st_a.mean_weight(c)) is not None]),
            ("pct_single_u1_f08", [v for c in classes if (v := st_b.pct_single(c)) is not None]),
            ("mean_weight_u1_f08", [v for c in classes if (v := st_b.mean_weight(c)) is not None]),
        ]
        _write_csv(os.path.join(out, weight_name), summary_header, _summary_rows(weight_metrics))

    with open(os.path.join(out, STATS_FILE), "r", encoding="utf-8") as fh:
        stats = json.load(fh)
    _write_csv(os.path.join(out, FIG1), ["year", "pct_below_min_refs"],
               [[y, _fmt(pct)] for y, pct in low_reference_share(stats, cfg.min_references)])

    _update_manifest(out, {
        "figure_1": FIG1, "figure_2": FIG2, "figure_4": FIG4, "figure_5": FIG5,
        "figure_6": FIG6, "table_1": TABLE1, "table_2": TABLE2, "table_3": TABLE3,
        "table_4": TABLE4,
    })
    print(f"compared {matrix_cat.n_docs} documents across both systems")
    return 0


def cmd_indicators(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require_artifacts(cfg.out, [SCHEME_FILE, JOURNALS_FILE, DOCUMENTS_FILE, ASJC_FILE, U1_FILE])
    scheme, corpus = _load_pipeline_corpus(cfg.out)
    set_a = read_assignments(os.path.join(cfg.out, ASJC_FILE), SYSTEM_ASJC)
    set_b = read_assignments(os.path.join(cfg.out, U1_FILE), SYSTEM_U1)
    index = build_citation_index(corpus, cfg.citation_window)

    out = cfg.out
    diag_report = {}
    results = {}
    for aset in (set_a, set_b):
        baselines = ind.category_baselines(corpus, aset, index)
        ni, diag = ind.ni_table(corpus, aset, baselines, index)
        exc = {}
        for p in (cfg.p10, cfg.p1):
            thresholds = ind.excellence_thresholds(corpus, aset, index, p, scheme)
            exc[p] = ind.excellence_flags(corpus, aset, thresholds, index, scheme)
        results[aset.system] = (aset, baselines, ni, exc)
        diag_report[aset.system] = {
            "zero_mean_cells": [
                {"doc_type": t, "year": y, "class": c, "documents_hit": n}
                for (t, y, c), n in sorted(diag.zero_mean_hits.items())
            ],
            "total_documents_hit": diag.total(),
        }

    set_a, base_a, ni_a, exc_a = results[SYSTEM_ASJC]
    set_b, base_b, ni_b, exc_b = results[SYSTEM_U1]

    ind.write_indicators_csv(os.path.join(out, "indicators.csv"), corpus, [
        (SYSTEM_ASJC, ni_a, exc_a[cfg.p10], exc_a[cfg.p1]),
        (SYSTEM_U1, ni_b, exc_b[cfg.p10], exc_b[cfg.p1]),
    ])
    ind.write_baselines_csv(os.path.join(out, "baselines_asjc-frac.csv"), base_a)
    ind.write_baselines_csv(os.path.join(out, "baselines_u1-f-0.8.csv"), base_b)
    _write_json(os.path.join(out, "ni_diagnostics.json"), diag_report)

    series = ind.ni_abs_diff_series(ni_a, ni_b, corpus, cfg.drop_last_year)
    _write_csv(os.path.join(out, FIG7), ["year", "mean_abs_ni_diff"],
               [[y, _fmt(v)] for y, v in series])

    std_a = dict(ind.ni_std_by_area(ni_a, set_a, scheme))
    std_b = dict(ind.ni_std_by_area(ni_b, set_b, scheme))
    _write_csv(os.path.join(out, FIG8), ["area", "ni_std_asjc_frac", "ni_std_u1_f08"],
               [[a, _na(std_a.get(a)), _na(std_b.get(a))]
                for a in sorted(set(std_a) | set(std_b))])

    ind.write_overlap_csv(os.path.join(out, FIG9),
                          ind.excellence_overlap(exc_a[cfg.p10], exc_b[cfg.p10], set_b, scheme))
    ind.write_overlap_csv(os.path.join(out, FIG10),
                          ind.excellence_overlap(exc_a[cfg.p1], exc_b[cfg.p1], set_b, scheme))

    _update_manifest(out, {
        "figure_7": FIG7, "figure_8": FIG8, "figure_9": FIG9, "figure_10": FIG10,
    })
    print(f"computed indicators for {len(corpus)} documents")
    return 0


def cmd_network(args: argparse.Namespace, cfg: RunConfig) -> int:
    flows_name = f"flows_{cfg.level}.csv"
    stats_name = f"class_stats_{cfg.level}.csv"
    _require_artifacts(cfg.out, [flows_name, stats_name])
    matrix = flow.read_flow_csv(os.path.join(cfg.out, flows_name), cfg.level)
    for r in flow.read_class_stats_csv(os.path.join(cfg.out, stats_name)):
        matrix.size_a[r.class_code] = r.size_a
        matrix.size_b[r.class_code] = r.size_b
        matrix.common[r.class_code] = r.common

    graph = netgraph.build_flow_graph(matrix, cfg.edge_epsilon)
    partition = netgraph.detect_communities(graph)
    params = netgraph.LayoutParams(cfg.iterations, cfg.step, cfg.seed, cfg.variant)
    layout = netgraph.linlog_layout(graph, params)
    name = f"{FIG3_BASE}.{cfg.format}"
    netgraph.export_graph(graph, partition, layout, cfg.format, os.path.join(cfg.out, name))
    _update_manifest(cfg.out, {"figure_3": name})
    n_comm = len(set(partition.community.values()))
    print(f"network: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{n_comm} communities, Q = {partition.q:.6f}")
    return 0


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require_artifacts(cfg.out, [STATS_FILE])
    with open(os.path.join(cfg.out, STATS_FILE), "r", encoding="utf-8") as fh:
        stats = json.load(fh)
    series = [
        {"year": y, "pct_below_min_refs": pct}
        for y, pct in low_reference_share(stats, cfg.min_references)
    ]
    manifest_path = os.path.join(cfg.out, MANIFEST_FILE)
    manifest = {}
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    _write_json(os.path.join(cfg.out, REPORT_FILE), {
        "n_documents": stats["n_documents"],
        "n_journals": stats["n_journals"],
        "year_min": stats["year_min"],
        "year_max": stats["year_max"],
        "doc_types": stats["doc_types"],
        "min_references": cfg.min_references,
        "low_reference_share": series,
        "artifacts": manifest,
    })
    print(f"report written for {stats['n_documents']} documents")
    return 0


def cmd_syngen(args: argparse.Namespace, cfg: RunConfig, file_map: dict[str, str]) -> int:
    types = field_types(syngen.SynParams)
    values: dict[str, object] = {}
    for key, raw in file_map.items():
        if key in types:
            values[key] = coerce_value(raw, types[key], key)
    for key in types:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    params = syngen.SynParams(**values)
    scheme, corpus = syngen.generate_corpus(params)
    os.makedirs(cfg.out, exist_ok=True)
    write_scheme(scheme, os.path.join(cfg.out, "scheme.csv"))
    write_corpus(corpus, os.path.join(cfg.out, "journals.jsonl"), os.path.join(cfg.out, "documents.jsonl"))
    print(f"generated {len(corpus)} documents, {len(corpus.journals)} journals (seed {params.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand. The
    # shared parent uses SUPPRESS so a subparser never overwrites a value
    # that was already parsed at the root.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value config file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for generation and layout")
    parser = argparse.ArgumentParser(
        prog="citeclass",
        description="Compare journal-based and citer-origin fractional classifications.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[common])

    p = add_parser("ingest", help="load, validate, and canonicalize a corpus")
    p.add_argument("--scheme")
    p.add_argument("--journals")
    p.add_argument("--documents")
    p.add_argument("--year-min", type=int, dest="year_min")
    p.add_argument("--year-max", type=int, dest="year_max")

    p = add_parser("classify", help="write assignments for one system")
    p.add_argument("--system", required=True, choices=sorted(SYSTEM_TOKENS))
    p.add_argument("--theta", type=float)
    p.add_argument("--max-categories", type=int, dest="max_categories")
    p.add_argument("--min-references", type=int, dest="min_references")
    p.add_argument("--citer-window", type=int, dest="citer_window")

    p = add_parser("compare", help="flow matrices, class stats, figure/table datasets")
    p.add_argument("--bin-width", type=float, dest="bin_width")
    p.add_argument("--min-link-area", type=float, dest="min_link_area")
    p.add_argument("--min-link-category", type=float, dest="min_link_category")
    p.add_argument("--min-references", type=int, dest="min_references")

    p = add_parser("indicators", help="normalized impact and excellence datasets")
    p.add_argument("--citation-window", type=int, dest="citation_window")
    p.add_argument("--p10", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--drop-last-year", action=argparse.BooleanOptionalAction,
                   default=None, dest="drop_last_year")

    p = add_parser("network", help="communities and layout of the flow graph")
    p.add_argument("--level", choices=flow.LEVELS)
    p.add_argument("--format", choices=netgraph.FORMATS)
    p.add_argument("--iterations", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--variant", choices=netgraph.VARIANTS)
    p.add_argument("--edge-epsilon", type=float, dest="edge_epsilon")

    add_parser("report", help="corpus summary JSON")

    p = add_parser("syngen", help="generate a seeded synthetic corpus")
    p.add_argument("--n-docs", type=int, dest="n_docs")
    p.add_argument("--n-journals", type=int, dest="n_journals")
    p.add_argument("--n-areas", type=int, dest="n_areas")
    p.add_argument("--cats-per-area", type=int, dest="cats_per_area")
    p.add_argument("--include-misc", action=argparse.BooleanOptionalAction,
                   default=None, dest="include_misc")
    p.add_argument("--multi-share", type=float, dest="multi_journal_share")
    p.add_argument("--misc-share", type=float, dest="misc_journal_share")
    p.add_argument("--journal-codes-max", type=int, dest="journal_codes_max")
    p.add_argument("--year-min", type=int, dest="year_min")
    p.add_argument("--year-max", type=int, dest="year_max")
    p.add_argument("--refs-min", type=int, dest="refs_min")
    p.add_argument("--refs-max", type=int, dest="refs_max")
    p.add_argument("--intra-prob", type=float, dest="intra_category_citation_prob")
    p.add_argument("--external-ref-prob", type=float, dest="external_ref_prob")
    p.add_argument("--external-citation-max", type=int, dest="external_citation_max")
    p.add_argument("--review-share", type=float, dest="review_share")
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "classify": cmd_classify,
    "compare": cmd_compare,
    "indicators": cmd_indicators,
    "network": cmd_network,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        config_path = getattr(args, "config", None)
        file_map = parse_config_file(config_path) if config_path else {}
        known = set(field_types(RunConfig)) | set(field_types(syngen.SynParams))
        unknown = sorted(set(file_map) - known)
        if unknown:
            raise ParseError(f"unknown config keys: {', '.join(unknown)}")
        overrides = {
            k: v for k, v in vars(args).items()
            if k in field_types(RunConfig) and v is not None
        }
        cfg = build_config(file_map, overrides)
        os.makedirs(cfg.out, exist_ok=True)
        if args.command == "syngen":
            return cmd_syngen(args, cfg, file_map)
        return COMMANDS[args.command](args, cfg)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
