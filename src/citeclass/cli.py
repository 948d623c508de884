"""Command-line pipeline: ingest -> classify (both systems) -> compare ->
indicators -> network, plus report and syngen.

Exit codes: 0 success, 1 domain/validation failure (including missing
upstream artifacts), 2 usage, I/O, or parse errors. Every output is
byte-deterministic given the same inputs and flags. A manifest maps each
figure/table dataset to its file.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import asjc, citer, flow, indicators as ind, netgraph, syngen
from .assignments import (
    SYSTEM_ASJC, SYSTEM_U1, AssignmentSet, collapse_to_areas, load_assignments_npz, save_assignments_npz,
    write_assignments,
)
from .assignments import iter_assignments, read_assignments  # noqa: F401 (bench/trace_shim.py patches these names)
from .config import (
    FIELD_CHOICES, FIELD_PARSERS, RunConfig, build_config, field_types, parse_config_file,
)
from .corpus import (
    Corpus, ParseError, Scheme, ValidationError, build_citation_index, corpus_summary, fmt,
    load_corpus, load_corpus_npz, load_scheme, low_reference_share, read_json, save_corpus_npz,
    sha256_of, write_corpus, write_csv, write_json, write_scheme,
)

SCHEME_FILE = os.path.join("corpus", "scheme.csv")
JOURNALS_FILE = os.path.join("corpus", "journals.jsonl")
DOCUMENTS_FILE = os.path.join("corpus", "documents.jsonl")
CORPUS_FILE = os.path.join("corpus", "corpus.npz")
STATS_FILE = "corpus_stats.json"
VALIDATION_FILE = "validation_report.json"
ASJC_FILE = "assignments_asjc-frac.jsonl"
U1_FILE = "assignments_u1-f-0.8.jsonl"
# each system's assignment JSONL and the CSR sidecar that compare and indicators read
SYSTEM_FILES = {SYSTEM_ASJC: (ASJC_FILE, "assignments_asjc-frac.npz"),
                SYSTEM_U1: (U1_FILE, "assignments_u1-f-0.8.npz")}
SIDECARS = [npz for _, npz in SYSTEM_FILES.values()]
MANIFEST_FILE = "manifest.json"
REPORT_FILE = "report.json"

SYSTEM_TOKENS = {"asjc-frac": SYSTEM_ASJC, "u1f08": SYSTEM_U1}
STATS_KEYS = ("n_documents", "n_journals", "year_min", "year_max", "doc_types")

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

# compare's per-level datasets: the file at category level, then at area level
LEVEL_FILES = {
    "flows": ("flows_category.csv", "flows_area.csv"),
    "class_stats": ("class_stats_category.csv", "class_stats_area.csv"),
    "common_unique": ("common_unique_category.csv", FIG2),
    "single_assignment": ("single_assignment_category.csv", FIG5),
    "size_histogram": (FIG6, "size_histogram_area.csv"),
    "top_links": (TABLE3, TABLE1),
    "flow_summary": (TABLE2, "flow_summary_area.csv"),
    "weight_summary": (TABLE4, "weight_summary_area.csv"),
}


def _read_manifest(out_dir: str) -> dict[str, str]:
    """The manifest so far. Stages read it before they write anything, so a
    bad manifest fails a stage while --out is as it was."""
    path = os.path.join(out_dir, MANIFEST_FILE)
    manifest = read_json(path) if os.path.exists(path) else {}
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return manifest


def _read_stats(out_dir: str) -> dict:
    """corpus_stats.json, checked for the STATS_KEYS that report copies and,
    per year, a positive document count and a histogram of reference counts."""
    path = os.path.join(out_dir, STATS_FILE)
    stats = read_json(path)
    if not (isinstance(stats, dict) and isinstance(stats.get("years"), dict) and set(STATS_KEYS) <= stats.keys()):
        raise ParseError(f"{path}: expected an object with keys {', '.join(STATS_KEYS)} and years")
    for year, info in stats["years"].items():
        hist = info.get("reference_count_hist") if isinstance(info, dict) else None
        if not (isinstance(hist, dict) and type(info.get("documents")) is int and info["documents"] > 0
                and all(k.isdecimal() and type(v) is int for k, v in [(year, 0), *hist.items()])):
            raise ParseError(f"{path}: year {year!r}: expected a positive document count and a reference histogram")
    return stats


def _require_artifacts(out_dir: str, names: list[str]) -> None:
    missing = [n for n in names if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        raise ValidationError(
            [f"missing upstream artifact {os.path.join(out_dir, n)!r}" for n in missing]
        )


def _load_pipeline_corpus(out_dir: str) -> tuple[Scheme, Corpus]:
    """The scheme and the corpus arrays that ingest wrote; the JSONL is
    only hashed, to refuse arrays it no longer matches."""
    _require_artifacts(out_dir, [SCHEME_FILE, JOURNALS_FILE, DOCUMENTS_FILE, CORPUS_FILE])
    scheme = load_scheme(os.path.join(out_dir, SCHEME_FILE))
    corpus = load_corpus_npz(os.path.join(out_dir, CORPUS_FILE), scheme,
                             os.path.join(out_dir, JOURNALS_FILE),
                             os.path.join(out_dir, DOCUMENTS_FILE))
    return scheme, corpus


def _load_assignment_sets(out_dir: str, corpus: Corpus | None = None) -> list[AssignmentSet]:
    """Both systems' sets from their sidecars, classified from one corpus: the
    corpus.npz of corpus when given, whose doc id list they then share."""
    corpus_sha256, doc_ids = (None, None) if corpus is None else (
        sha256_of(os.path.join(out_dir, CORPUS_FILE)).tobytes(), corpus.doc_ids)
    sets = []
    for system, (jsonl, npz) in SYSTEM_FILES.items():
        aset, corpus_sha256 = load_assignments_npz(os.path.join(out_dir, npz), system, os.path.join(out_dir, jsonl),
                                                   corpus_sha256, doc_ids)
        sets.append(aset)
    return sets


def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not (cfg.scheme and cfg.journals and cfg.documents):
        print("error: ingest needs --scheme, --journals, and --documents", file=sys.stderr)
        return 2
    try:
        scheme = load_scheme(cfg.scheme)
        corpus = load_corpus(cfg.journals, cfg.documents, scheme, cfg.year_min, cfg.year_max)
    except ValidationError as e:
        os.makedirs(cfg.out, exist_ok=True)
        write_json(os.path.join(cfg.out, VALIDATION_FILE),
                   {"status": "invalid", "errors": e.errors})
        print(f"validation failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(cfg.out, "corpus"), exist_ok=True)
    write_scheme(scheme, os.path.join(cfg.out, SCHEME_FILE))
    paths = [os.path.join(cfg.out, name) for name in (JOURNALS_FILE, DOCUMENTS_FILE)]
    write_corpus(corpus, *paths)
    save_corpus_npz(corpus, os.path.join(cfg.out, CORPUS_FILE), *paths)
    write_json(os.path.join(cfg.out, STATS_FILE), corpus_summary(corpus))
    write_json(os.path.join(cfg.out, VALIDATION_FILE), {
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
    else:
        aset = citer.classify_u1f08_all(corpus, scheme, cfg.threshold_policy(), cfg.citer_window)
    jsonl, npz = (os.path.join(cfg.out, name) for name in SYSTEM_FILES[system])
    write_assignments(jsonl, aset)
    save_assignments_npz(aset, npz, jsonl, os.path.join(cfg.out, CORPUS_FILE))
    print(f"classified {len(aset)} documents under {system}")
    return 0


def cmd_compare(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require_artifacts(cfg.out, [SCHEME_FILE, STATS_FILE, ASJC_FILE, U1_FILE, *SIDECARS])
    manifest = _read_manifest(cfg.out)
    fig1 = [[y, fmt(pct)] for y, pct in low_reference_share(_read_stats(cfg.out), cfg.min_references)]
    scheme = load_scheme(os.path.join(cfg.out, SCHEME_FILE))

    set_a, set_b = _load_assignment_sets(cfg.out)
    # both levels are computed before anything is written
    results = []
    for level, sets in (("category", (set_a, set_b)),
                        ("area", (collapse_to_areas(set_a, scheme), collapse_to_areas(set_b, scheme)))):
        results.append((flow.FlowAccumulator(level).add(*sets), *map(flow.SupportStats, sets)))

    out = cfg.out
    for side, (matrix, st_a, st_b) in enumerate(results):
        rows = flow.class_flow_stats(matrix)
        path = {key: os.path.join(out, names[side]) for key, names in LEVEL_FILES.items()}
        flow.write_flow_csv(matrix, path["flows"])
        flow.write_class_stats_csv(rows, path["class_stats"])
        for key, (header, table) in flow.level_tables(rows, st_a, st_b, cfg.bin_width).items():
            write_csv(path[key], header, table)
        min_link = cfg.min_link_category if matrix.level == "category" else cfg.min_link_area
        write_csv(path["top_links"], flow.FLOW_HEADER,
                  [[i, j, fmt(w)] for i, j, w in flow.top_links(matrix, min_link)])
        if matrix.level == "area":
            write_csv(os.path.join(out, FIG4), ["area", "pct_incoming", "pct_outgoing"],
                      [[r.class_code, fmt(r.pct_incoming), fmt(r.pct_outgoing)] for r in rows])

    write_csv(os.path.join(out, FIG1), ["year", "pct_below_min_refs"], fig1)

    write_json(os.path.join(out, MANIFEST_FILE), manifest | {
        "figure_1": FIG1, "figure_2": FIG2, "figure_4": FIG4, "figure_5": FIG5,
        "figure_6": FIG6, "table_1": TABLE1, "table_2": TABLE2, "table_3": TABLE3,
        "table_4": TABLE4,
    })
    print(f"compared {len(set_a)} documents across both systems")
    return 0


def cmd_indicators(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require_artifacts(cfg.out, [SCHEME_FILE, JOURNALS_FILE, DOCUMENTS_FILE, CORPUS_FILE,
                                 ASJC_FILE, U1_FILE, *SIDECARS])
    manifest = _read_manifest(cfg.out)
    scheme, corpus = _load_pipeline_corpus(cfg.out)
    sets = _load_assignment_sets(cfg.out, corpus)
    cit = build_citation_index(corpus, cfg.citation_window)

    out = cfg.out
    diag_report = {}
    results = {}
    for aset in sets:
        cats = ind.WeightColumns(corpus, aset)
        areas = ind.WeightColumns(corpus, collapse_to_areas(aset, scheme))
        baselines = ind.category_baselines(cats, cit)
        ni, zero_mean_hits = ind.ni_table(cats, baselines, cit)
        exc = {p: ind.excellence_flags(areas, ind.excellence_thresholds(areas, cit, p), cit)
               for p in (cfg.p10, cfg.p1)}
        std = dict(ind.ni_std_by_area(ni, areas))
        results[aset.system] = (areas, baselines, ni, exc, std)
        diag_report[aset.system] = {
            "zero_mean_cells": [
                {"doc_type": t, "year": y, "class": c, "documents_hit": n}
                for (t, y, c), n in sorted(zero_mean_hits.items())
            ],
            "total_documents_hit": sum(zero_mean_hits.values()),
        }

    _, base_a, ni_a, exc_a, std_a = results[SYSTEM_ASJC]
    areas_b, base_b, ni_b, exc_b, std_b = results[SYSTEM_U1]

    ind.write_indicators_csv(os.path.join(out, "indicators.csv"), corpus, [
        (SYSTEM_ASJC, ni_a, exc_a[cfg.p10], exc_a[cfg.p1]),
        (SYSTEM_U1, ni_b, exc_b[cfg.p10], exc_b[cfg.p1]),
    ])
    ind.write_baselines_csv(os.path.join(out, "baselines_asjc-frac.csv"), base_a)
    ind.write_baselines_csv(os.path.join(out, "baselines_u1-f-0.8.csv"), base_b)
    write_json(os.path.join(out, "ni_diagnostics.json"), diag_report)

    series = ind.ni_abs_diff_series(ni_a, ni_b, corpus, cfg.drop_last_year)
    write_csv(os.path.join(out, FIG7), ["year", "mean_abs_ni_diff"],
              [[y, fmt(v)] for y, v in series])
    write_csv(os.path.join(out, FIG8), ["area", "ni_std_asjc_frac", "ni_std_u1_f08"],
              [[a, fmt(std_a.get(a)), fmt(std_b.get(a))] for a in sorted(set(std_a) | set(std_b))])
    for p, name in ((cfg.p10, FIG9), (cfg.p1, FIG10)):
        ind.write_overlap_csv(os.path.join(out, name),
                              ind.excellence_overlap(exc_a[p], exc_b[p], areas_b))

    write_json(os.path.join(out, MANIFEST_FILE), manifest | {
        "figure_7": FIG7, "figure_8": FIG8, "figure_9": FIG9, "figure_10": FIG10,
    })
    print(f"computed indicators for {len(corpus)} documents")
    return 0


def cmd_network(args: argparse.Namespace, cfg: RunConfig) -> int:
    flows_name = f"flows_{cfg.level}.csv"
    stats_name = f"class_stats_{cfg.level}.csv"
    _require_artifacts(cfg.out, [flows_name, stats_name])
    manifest = _read_manifest(cfg.out)
    matrix = flow.read_flow_csv(os.path.join(cfg.out, flows_name), cfg.level)
    # node sizes are the U1-F-0.8 class sizes; the graph reads nothing else
    for r in flow.read_class_stats_csv(os.path.join(cfg.out, stats_name)):
        matrix.size_b[r.class_code] = r.size_b

    graph = netgraph.build_flow_graph(matrix, cfg.edge_epsilon)
    partition = netgraph.detect_communities(graph)
    layout = netgraph.linlog_layout(graph, cfg.layout_params())
    name = f"{FIG3_BASE}.{cfg.format}"
    netgraph.export_graph(graph, partition, layout, cfg.format, os.path.join(cfg.out, name))
    write_json(os.path.join(cfg.out, MANIFEST_FILE), manifest | {"figure_3": name})
    n_comm = len(set(partition.community.values()))
    print(f"network: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{n_comm} communities, Q = {partition.q:.6f}")
    return 0


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require_artifacts(cfg.out, [STATS_FILE])
    stats = _read_stats(cfg.out)
    manifest = _read_manifest(cfg.out)
    write_json(os.path.join(cfg.out, REPORT_FILE), {
        **{k: stats[k] for k in STATS_KEYS},
        "min_references": cfg.min_references,
        "low_reference_share": [
            {"year": y, "pct_below_min_refs": pct}
            for y, pct in low_reference_share(stats, cfg.min_references)
        ],
        "artifacts": manifest,
    })
    print(f"report written for {stats['n_documents']} documents")
    return 0


def cmd_syngen(params: syngen.SynParams, cfg: RunConfig) -> int:
    scheme, corpus = syngen.generate_corpus(params)
    os.makedirs(cfg.out, exist_ok=True)
    write_scheme(scheme, os.path.join(cfg.out, "scheme.csv"))
    write_corpus(corpus, os.path.join(cfg.out, "journals.jsonl"), os.path.join(cfg.out, "documents.jsonl"))
    print(f"generated {len(corpus)} documents, {len(corpus.journals)} journals (seed {params.seed})")
    return 0


# Global config flags, accepted both before and after the subcommand (as is
# --config): name -> help
GLOBAL_FLAGS = {
    "out": "output directory (default: out)",
    "seed": "seed for generation and layout",
}
# subcommand -> (help, the config fields it takes as flags); syngen's are SynParams'
SUBCOMMANDS = {
    "ingest": ("load, validate, and canonicalize a corpus",
               ("scheme", "journals", "documents", "year_min", "year_max")),
    "classify": ("write assignments for one system",
                 ("theta", "max_categories", "min_references", "citer_window")),
    "compare": ("flow matrices, class stats, figure/table datasets",
                ("bin_width", "min_link_area", "min_link_category", "min_references")),
    "indicators": ("normalized impact and excellence datasets",
                   ("citation_window", "p10", "p1", "drop_last_year")),
    "network": ("communities and layout of the flow graph",
                ("level", "format", "iterations", "step", "variant", "edge_epsilon")),
    "report": ("corpus summary JSON", ("min_references",)),
    "syngen": ("generate a seeded synthetic corpus",
               tuple(f for f in field_types(syngen.SynParams) if f not in GLOBAL_FLAGS)),
}
# every config key with its type: RunConfig's fields, and SynParams' for syngen
CONFIG_FIELDS = field_types(RunConfig) | field_types(syngen.SynParams)
# the documented flags that are not the field name with dashes
SHORT_FLAGS = {
    "multi_journal_share": "--multi-share",
    "misc_journal_share": "--misc-share",
    "intra_category_citation_prob": "--intra-prob",
}


def build_parser() -> argparse.ArgumentParser:
    """Every flag but --config and --system sets the config field named by
    its dest; its type, action and choices come from that field."""

    def add_flag(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
        kind = CONFIG_FIELDS[name].partition(" | ")[0]
        if kind == "bool":
            kwargs["action"] = argparse.BooleanOptionalAction
        elif kind != "str":
            kwargs["type"] = FIELD_PARSERS[kind]
        if name in FIELD_CHOICES:
            kwargs["choices"] = FIELD_CHOICES[name]
        flag = SHORT_FLAGS.get(name, "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, **kwargs)

    # The shared parent uses SUPPRESS so a subparser never overwrites a value
    # that was already parsed at the root.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="flat key = value config file")
    for name, text in GLOBAL_FLAGS.items():
        add_flag(common, name, default=argparse.SUPPRESS, help=text)
    parser = argparse.ArgumentParser(
        prog="citeclass",
        description="Compare journal-based and citer-origin fractional classifications.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, names) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=text, parents=[common])
        if command == "classify":
            p.add_argument("--system", required=True, choices=sorted(SYSTEM_TOKENS))
        for name in names:
            add_flag(p, name)
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
        unknown = sorted(set(file_map) - CONFIG_FIELDS.keys())
        if unknown:
            raise ParseError(f"unknown config keys: {', '.join(unknown)}")
        cfg = build_config(RunConfig, file_map, vars(args))
        if args.command == "syngen":
            return cmd_syngen(build_config(syngen.SynParams, file_map, vars(args)), cfg)
        return COMMANDS[args.command](args, cfg)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
