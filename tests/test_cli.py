import argparse
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from citeclass import Corpus
from citeclass.cli import build_parser, main
from citeclass.config import RunConfig, field_types
from citeclass.syngen import SynParams


def run(args):
    return main(args)


def ingest_argv(syn):
    """ingest of the corpus that syngen wrote to syn."""
    return ["ingest", "--scheme", str(syn / "scheme.csv"), "--journals", str(syn / "journals.jsonl"),
            "--documents", str(syn / "documents.jsonl")]


@pytest.fixture()
def pipeline_dir(tmp_path):
    """syngen + ingest + both classify runs in a temp directory."""
    syn = tmp_path / "syn"
    out = tmp_path / "out"
    assert run(["syngen", "--out", str(syn), "--n-docs", "400",
                "--n-journals", "40", "--seed", "42"]) == 0
    assert run([*ingest_argv(syn), "--out", str(out)]) == 0
    assert run(["classify", "--system", "asjc-frac", "--out", str(out)]) == 0
    assert run(["classify", "--system", "u1f08", "--out", str(out)]) == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_syngen_writes_corpus_files(tmp_path):
    out = tmp_path / "syn"
    assert run(["syngen", "--out", str(out), "--n-docs", "50",
                "--n-journals", "10", "--seed", "1"]) == 0
    assert (out / "scheme.csv").exists()
    assert (out / "journals.jsonl").exists()
    assert (out / "documents.jsonl").exists()


def test_ingest_writes_canonical_corpus(pipeline_dir):
    out = pipeline_dir
    assert (out / "corpus" / "scheme.csv").exists()
    assert (out / "corpus" / "journals.jsonl").exists()
    assert (out / "corpus" / "documents.jsonl").exists()
    assert (out / "corpus" / "corpus.npz").exists()
    stats = json.loads((out / "corpus_stats.json").read_text())
    assert stats["n_documents"] == 400
    report = json.loads((out / "validation_report.json").read_text())
    assert report["status"] == "ok"


def test_ingest_missing_input_exits_2(tmp_path):
    rc = run(["ingest", "--scheme", str(tmp_path / "nope.csv"),
              "--journals", str(tmp_path / "j.jsonl"),
              "--documents", str(tmp_path / "d.jsonl"),
              "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


def test_ingest_invalid_corpus_exits_1(tmp_path):
    scheme = tmp_path / "scheme.csv"
    scheme.write_text(
        "code,name,area_code,area_name,is_misc,is_multidisciplinary\n"
        "PH01,Mechanics,PH,Physics,false,false\n"
    )
    (tmp_path / "j.jsonl").write_text('{"journal_id":"J1","asjc_codes":["PH01"]}\n')
    (tmp_path / "d.jsonl").write_text(
        '{"doc_id":"D1","journal_id":"NOPE","year":2015,"doc_type":"article","references":[]}\n'
    )
    out = tmp_path / "out"
    rc = run(["ingest", "--scheme", str(scheme), "--journals", str(tmp_path / "j.jsonl"),
              "--documents", str(tmp_path / "d.jsonl"), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["status"] == "invalid"
    assert report["errors"]


@pytest.mark.parametrize("year", [3000000000, 10000, -1])
def test_ingest_rejects_year_out_of_range(tmp_path, year):
    # later stages hold years in int32 arrays
    syn = tmp_path / "syn"
    assert run(["syngen", "--out", str(syn), "--n-docs", "30", "--n-journals", "5", "--seed", "1"]) == 0
    docs = syn / "documents.jsonl"
    lines = docs.read_text().splitlines(keepends=True)
    lines[0] = json.dumps(dict(json.loads(lines[0]), year=year)) + "\n"
    docs.write_text("".join(lines))
    out = tmp_path / "out"
    rc = run(["ingest", "--scheme", str(syn / "scheme.csv"), "--journals", str(syn / "journals.jsonl"),
              "--documents", str(docs), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["status"] == "invalid"
    assert any(f"year {year} outside [0, 9999]" in e for e in report["errors"])
    assert not (out / "corpus").exists()


def test_classify_requires_ingest(tmp_path):
    rc = run(["classify", "--system", "asjc-frac", "--out", str(tmp_path / "fresh")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--system", "asjc-frac"], ["compare"], ["indicators"], ["network"], ["report"],
], ids=lambda argv: argv[0])
def test_missing_out_is_not_created(tmp_path, argv):
    # only syngen and ingest create --out; the other stages read from it
    out = tmp_path / "typo_dir"
    assert run([*argv, "--out", str(out)]) == 1
    assert not out.exists()


STORE, BOOL = argparse._StoreAction, argparse.BooleanOptionalAction
# (option strings, dest, type, choices, required, action) of every documented
# flag; the global flags come first in the root parser and in every subcommand
GLOBAL_FLAGS = [
    (("--config",), "config", None, None, False, STORE),
    (("--out",), "out", None, None, False, STORE),
    (("--seed",), "seed", int, None, False, STORE),
]
COMMAND_FLAGS = {
    "ingest": [
        (("--scheme",), "scheme", None, None, False, STORE),
        (("--journals",), "journals", None, None, False, STORE),
        (("--documents",), "documents", None, None, False, STORE),
        (("--year-min",), "year_min", int, None, False, STORE),
        (("--year-max",), "year_max", int, None, False, STORE),
    ],
    "classify": [
        (("--system",), "system", None, ["asjc-frac", "u1f08"], True, STORE),
        (("--theta",), "theta", float, None, False, STORE),
        (("--max-categories",), "max_categories", int, None, False, STORE),
        (("--min-references",), "min_references", int, None, False, STORE),
        (("--citer-window",), "citer_window", int, None, False, STORE),
    ],
    "compare": [
        (("--bin-width",), "bin_width", float, None, False, STORE),
        (("--min-link-area",), "min_link_area", float, None, False, STORE),
        (("--min-link-category",), "min_link_category", float, None, False, STORE),
        (("--min-references",), "min_references", int, None, False, STORE),
    ],
    "indicators": [
        (("--citation-window",), "citation_window", int, None, False, STORE),
        (("--p10",), "p10", float, None, False, STORE),
        (("--p1",), "p1", float, None, False, STORE),
        (("--drop-last-year", "--no-drop-last-year"), "drop_last_year", None, None, False, BOOL),
    ],
    "network": [
        (("--level",), "level", None, ("category", "area"), False, STORE),
        (("--format",), "format", None, ("json", "graphml"), False, STORE),
        (("--iterations",), "iterations", int, None, False, STORE),
        (("--step",), "step", float, None, False, STORE),
        (("--variant",), "variant", None, ("node", "edge"), False, STORE),
        (("--edge-epsilon",), "edge_epsilon", float, None, False, STORE),
    ],
    "report": [
        (("--min-references",), "min_references", int, None, False, STORE),
    ],
    "syngen": [
        (("--n-docs",), "n_docs", int, None, False, STORE),
        (("--n-journals",), "n_journals", int, None, False, STORE),
        (("--n-areas",), "n_areas", int, None, False, STORE),
        (("--cats-per-area",), "cats_per_area", int, None, False, STORE),
        (("--include-misc", "--no-include-misc"), "include_misc", None, None, False, BOOL),
        (("--multi-share",), "multi_journal_share", float, None, False, STORE),
        (("--misc-share",), "misc_journal_share", float, None, False, STORE),
        (("--journal-codes-max",), "journal_codes_max", int, None, False, STORE),
        (("--year-min",), "year_min", int, None, False, STORE),
        (("--year-max",), "year_max", int, None, False, STORE),
        (("--refs-min",), "refs_min", int, None, False, STORE),
        (("--refs-max",), "refs_max", int, None, False, STORE),
        (("--intra-prob",), "intra_category_citation_prob", float, None, False, STORE),
        (("--external-ref-prob",), "external_ref_prob", float, None, False, STORE),
        (("--external-citation-max",), "external_citation_max", int, None, False, STORE),
        (("--review-share",), "review_share", float, None, False, STORE),
    ],
}


def _flags(parser):
    """The parser's flags in order, with the default each one sets."""
    return [
        ((tuple(a.option_strings), a.dest, a.type, a.choices, a.required, type(a)), a.default)
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def test_cli_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMAND_FLAGS)
    suppressed = [(f, argparse.SUPPRESS) for f in GLOBAL_FLAGS]
    assert _flags(parser) == suppressed
    for command, flags in COMMAND_FLAGS.items():
        assert _flags(sub.choices[command]) == suppressed + [(f, None) for f in flags], command
    assert [a.help for a in parser._actions if a.dest in ("config", "out", "seed")] == [
        "flat key = value config file", "output directory (default: out)",
        "seed for generation and layout",
    ]
    # every config field, RunConfig's and SynParams', is set by some flag
    dests = {f[1] for flags in COMMAND_FLAGS.values() for f in flags} | {f[1] for f in GLOBAL_FLAGS}
    assert set(field_types(RunConfig)) | set(field_types(SynParams)) <= dests


def test_bool_flags_pass_no_type_or_choices(monkeypatch):
    # BooleanOptionalAction deprecates type, choices and metavar in Python
    # 3.12 and drops them later, so the parser must not pass them at all
    class StrictBool(argparse.BooleanOptionalAction):
        def __init__(self, *args, **kwargs):
            assert not {"type", "choices", "metavar"} & kwargs.keys(), kwargs
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "BooleanOptionalAction", StrictBool)
    build_parser()


def test_u1_requires_asjc_first(pipeline_dir, tmp_path):
    # removing the journal-based assignments breaks the citer-origin run
    out = pipeline_dir
    os.remove(out / "assignments_asjc-frac.jsonl")
    assert run(["classify", "--system", "u1f08", "--out", str(out)]) == 1


def test_unknown_system_exits_2(pipeline_dir):
    assert run(["classify", "--system", "wat", "--out", str(pipeline_dir)]) == 2


def test_assignment_files_sorted_and_normalized(pipeline_dir):
    out = pipeline_dir
    prev = None
    with open(out / "assignments_u1-f-0.8.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            assert rec["system"] == "U1-F-0.8"
            assert abs(sum(rec["weights"].values()) - 1.0) <= 1e-9
            if prev is not None:
                assert rec["doc_id"] > prev
            prev = rec["doc_id"]


def test_compare_outputs(pipeline_dir):
    out = pipeline_dir
    assert run(["compare", "--out", str(out)]) == 0
    for name in (
        "flows_category.csv", "flows_area.csv",
        "class_stats_category.csv", "class_stats_area.csv",
        "fig1_low_reference_share.csv", "fig2_area_common_unique.csv",
        "fig4_area_exchange_pct.csv", "fig5_area_single_assignment.csv",
        "fig6_category_size_histogram.csv",
        "table1_top_links_area.csv", "table2_flow_summary_category.csv",
        "table3_top_links_category.csv", "table4_weight_summary_category.csv",
    ):
        assert (out / name).exists(), name
    rows = read_csv(out / "table2_flow_summary_category.csv")
    assert rows[0] == ["metric", "n", "mean", "std", "cv_pct"]
    metrics = [r[0] for r in rows[1:]]
    assert metrics == ["size_asjc_frac", "size_u1_f08", "incoming", "outgoing",
                       "pct_incoming", "pct_outgoing"]
    # equal mean incoming and outgoing
    by_name = {r[0]: r for r in rows[1:]}
    assert by_name["incoming"][2] == by_name["outgoing"][2]


def test_compare_missing_assignments_exits_1(pipeline_dir):
    out = pipeline_dir
    os.remove(out / "assignments_u1-f-0.8.jsonl")
    assert run(["compare", "--out", str(out)]) == 1


@pytest.mark.parametrize("command", ["compare", "indicators"])
def test_non_object_assignment_line_exits_2(pipeline_dir, command):
    with open(pipeline_dir / "assignments_u1-f-0.8.jsonl", "a") as fh:
        fh.write("[1,2]\n")
    assert run([command, "--out", str(pipeline_dir)]) == 2


def snapshot(out):
    return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def assert_bad_manifest_exits_2(out, command, spoil):
    assert run(["compare", "--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    (out / "manifest.json").write_text(spoil(text))
    # without one of compare's files, a compare that writes before it fails
    # leaves a new file behind, as indicators and network would
    os.remove(out / "fig1_low_reference_share.csv")
    before = snapshot(out)
    assert run([command, "--out", str(out)]) == 2
    assert snapshot(out) == before


@pytest.mark.parametrize("command", ["report", "compare", "indicators", "network"])
def test_truncated_manifest_exits_2(pipeline_dir, command):
    assert_bad_manifest_exits_2(pipeline_dir, command, lambda text: text[: len(text) // 2])


@pytest.mark.parametrize("command", ["report", "compare", "indicators", "network"])
def test_non_object_manifest_exits_2(pipeline_dir, command):
    assert_bad_manifest_exits_2(pipeline_dir, command, lambda text: "[1, 2]\n")


ASJC = "assignments_asjc-frac.jsonl"
U1 = "assignments_u1-f-0.8.jsonl"


# a file given a byte that is not UTF-8 -> the stage that reads it
NON_UTF8 = {
    "syn/scheme.csv": lambda root: ingest_argv(root / "syn"),
    "syn/documents.jsonl": lambda root: ingest_argv(root / "syn"),
    f"out/{U1}": lambda root: ["compare"],
    "run.cfg": lambda root: ["compare", "--config", str(root / "run.cfg")],
    "out/corpus_stats.json": lambda root: ["report"],
}


@pytest.mark.parametrize("name", list(NON_UTF8))
def test_non_utf8_input_exits_2(pipeline_dir, capsys, name):
    root = pipeline_dir.parent
    (root / "run.cfg").write_text("min_references = 3\n")
    path = root / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    before = snapshot(pipeline_dir)
    capsys.readouterr()
    assert run([*NON_UTF8[name](root), "--out", str(pipeline_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    assert snapshot(pipeline_dir) == before


def zero_document_year(stats):
    stats["years"][min(stats["years"])]["documents"] = 0
    return stats


BAD_STATS = {"empty-object": lambda stats: {}, "list": lambda stats: [], "zero-document-year": zero_document_year}


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("spoil", list(BAD_STATS))
def test_bad_corpus_stats_exits_2(pipeline_dir, command, spoil):
    path = pipeline_dir / "corpus_stats.json"
    path.write_text(json.dumps(BAD_STATS[spoil](json.loads(path.read_text()))))
    before = snapshot(pipeline_dir)
    assert run([command, "--out", str(pipeline_dir)]) == 2
    assert snapshot(pipeline_dir) == before


def rewrite_records(path, edit):
    """Replace the assignment file's records by edit(records)."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(r) + "\n" for r in edit(records)))


def assert_stage_fails(out, argv, code):
    # the stage's own output is removed first, so a write before the failure shows
    if argv[0] == "classify":
        os.remove(out / U1)
    before = snapshot(out)
    assert run([*argv, "--out", str(out)]) == code
    assert snapshot(out) == before


STAGES_READING = {
    "compare": (["compare"], U1),
    "indicators": (["indicators"], U1),
    "classify-u1f08": (["classify", "--system", "u1f08"], ASJC),
}


@pytest.mark.parametrize("weights, code", [
    ('{"A": NaN, "B": 0.5}', 2), ('{"A": Infinity}', 2), ('{"A": -Infinity, "B": 1.0}', 2),
    ('{"A": 1e400}', 2), ('{"A": 1%s}' % ("0" * 400), 2),
    ('{"A": 1.5, "B": -0.5}', 1), ('{"A": 1.0, "B": 0}', 1), ('{"A": 0.5}', 1), ("{}", 1),
], ids=["nan", "inf", "-inf", "float-overflow", "int-overflow", "negative", "zero", "sum-half", "empty"])
@pytest.mark.parametrize("stage", list(STAGES_READING))
def test_bad_weights_fail_before_writing(pipeline_dir, stage, weights, code):
    # a weight that is not a finite number is malformed; a weight <= 0 or a
    # sum off 1 is invalid. A and B become codes that the file uses.
    argv, name = STAGES_READING[stage]
    path = pipeline_dir / name
    lines = path.read_text().splitlines(keepends=True)
    codes = sorted({c for line in lines for c in json.loads(line)["weights"]})
    weights = weights.replace('"A"', json.dumps(codes[0])).replace('"B"', json.dumps(codes[1]))
    first = json.loads(lines[0])
    lines[0] = '{"doc_id": %s, "system": %s, "weights": %s}\n' % (
        json.dumps(first["doc_id"]), json.dumps(first["system"]), weights)
    path.write_text("".join(lines))
    assert_stage_fails(pipeline_dir, argv, code)


def drop_first(records):
    return records[1:]


def add_outside_doc(records):
    return records + [dict(records[-1], doc_id="ZZZ-outside")]


def vary_within_journal(pipeline_dir):
    docs = [json.loads(line) for line in (pipeline_dir / "corpus" / "documents.jsonl").read_text().splitlines()]
    by_journal = {}
    for d in docs:
        by_journal.setdefault(d["journal_id"], []).append(d["doc_id"])
    target = next(ids[1] for ids in by_journal.values() if len(ids) > 1)

    def edit(records):
        weights = {r["doc_id"]: r["weights"] for r in records}
        other = next(w for w in weights.values() if w != weights[target])
        return [dict(r, weights=other) if r["doc_id"] == target else r for r in records]
    return edit


@pytest.mark.parametrize("case, argv", [
    ("missing", ["classify", "--system", "u1f08"]),
    ("missing", ["indicators"]),
    ("outside", ["classify", "--system", "u1f08"]),
    ("outside", ["indicators"]),
    ("varying", ["classify", "--system", "u1f08"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_asjc_set_must_match_the_corpus(pipeline_dir, case, argv):
    edit = {"missing": drop_first, "outside": add_outside_doc}.get(case) or vary_within_journal(pipeline_dir)
    rewrite_records(pipeline_dir / ASJC, edit)
    assert_stage_fails(pipeline_dir, argv, 1)


def to_u1_record(records):
    mid = len(records) // 2
    return records[:mid] + [dict(records[mid], system="U1-F-0.8")] + records[mid + 1:]


@pytest.mark.parametrize("name, edit", [
    (U1, drop_first), (U1, add_outside_doc), (ASJC, to_u1_record),
], ids=["u1-missing-first", "u1-extra-doc", "asjc-holds-u1-record"])
def test_compare_refuses_misaligned_assignments(pipeline_dir, name, edit):
    rewrite_records(pipeline_dir / name, edit)
    assert_stage_fails(pipeline_dir, ["compare"], 1)


def test_trace_shim_records_patched_names(pipeline_dir, tmp_path):
    # bench/trace_shim.py patches these names by import path, so renaming one
    # in src/ must fail here too
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    names, calls = {}, {}
    for label, argv, out in (
        ("ingest", ingest_argv(tmp_path / "syn"), tmp_path / "traced_ingest"),
        ("asjc-frac", ["classify", "--system", "asjc-frac"], pipeline_dir),
        ("u1f08", ["classify", "--system", "u1f08"], pipeline_dir),
        ("compare", ["compare"], pipeline_dir),
        ("indicators", ["indicators"], pipeline_dir),
        ("network", ["network"], pipeline_dir),
    ):
        trace = tmp_path / f"trace_{label}.json"
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "trace_shim.py"), str(trace), label, "--",
             *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(trace.read_text())
        names[label] = {r[1] for r in data["spans"] + data["rollups"]}
        calls[label] = {}
        for _, name, _, n, _ in data["rollups"]:
            calls[label][name] = calls[label].get(name, 0) + n
    assert {"corpus.load_corpus", "corpus.write_corpus", "corpus.validate"} <= names["ingest"]
    # parse once: only ingest reads the corpus JSONL
    for label in ("asjc-frac", "u1f08", "indicators"):
        assert "corpus.load_corpus" not in names[label], label
    assert {"indicators.baselines", "indicators.ni", "indicators.thresholds",
            "indicators.flags", "indicators.overlap", "indicators.std", "indicators.write",
            "corpus.build_citation_index", "flow.add",
            "netgraph.communities", "netgraph.layout",
            "asjc.classify_asjc", "citer.classify_u1f08_all",
            "assignments.read_assignments", "assignments.write_assignments"} <= set().union(*names.values())
    # no per-document path: one flow kernel call per level, one area collapse per system
    assert calls["compare"]["flow.add"] == 2
    for label in ("compare", "indicators"):
        assert 0 < calls[label].get("weights.collapse_to_areas", 0) <= 2, label


NPZ = Path("corpus") / "corpus.npz"
# the stages that load the corpus npz, with the output each writes first
CORPUS_READERS = {
    "classify-asjc-frac": (["classify", "--system", "asjc-frac"], ASJC),
    "classify-u1f08": (["classify", "--system", "u1f08"], U1),
    "indicators": (["indicators"], "indicators.csv"),
}


def edit_documents(out):
    path = out / "corpus" / "documents.jsonl"
    text = path.read_text()
    path.write_text(text.replace('"doc_type":"article"', '"doc_type":"review"', 1))
    assert path.read_text() != text


def truncate_npz(out):
    data = (out / NPZ).read_bytes()
    (out / NPZ).write_bytes(data[: len(data) // 2])


def shorten_year(out):
    with np.load(out / NPZ) as npz:
        arrays = dict(npz)
    arrays["year"] = arrays["year"][:-1]
    np.savez(out / NPZ, **arrays)


# spoiler -> (edit of --out, exit code): stale and missing arrays are invalid
# state, unreadable or inconsistent ones malformed input
NPZ_SPOILERS = {
    "stale": (edit_documents, 1),
    "missing": (lambda out: os.remove(out / NPZ), 1),
    "truncated": (truncate_npz, 2),
    "short-year": (shorten_year, 2),
}


@pytest.mark.parametrize("spoiler", list(NPZ_SPOILERS))
@pytest.mark.parametrize("stage", list(CORPUS_READERS))
def test_bad_corpus_npz_fails_before_writing(pipeline_dir, stage, spoiler):
    argv, own = CORPUS_READERS[stage]
    spoil, code = NPZ_SPOILERS[spoiler]
    spoil(pipeline_dir)
    (pipeline_dir / own).unlink(missing_ok=True)
    before = snapshot(pipeline_dir)
    assert run([*argv, "--out", str(pipeline_dir)]) == code
    assert snapshot(pipeline_dir) == before


def test_stages_never_build_the_documents_view(pipeline_dir, monkeypatch):
    # classify and indicators read the corpus columns only
    def refuse(corpus):
        raise AssertionError("Corpus.documents was built")

    monkeypatch.setattr(Corpus, "documents", property(refuse))
    for argv, _ in CORPUS_READERS.values():
        assert run([*argv, "--out", str(pipeline_dir)]) == 0


def test_ingest_writes_the_same_npz_twice(pipeline_dir, tmp_path):
    # zip entries carry a time stamp of 2 s resolution
    time.sleep(2.1)
    again = tmp_path / "again"
    assert run([*ingest_argv(tmp_path / "syn"), "--out", str(again)]) == 0
    assert (again / NPZ).read_bytes() == (pipeline_dir / NPZ).read_bytes()


def test_indicators_outputs(pipeline_dir):
    out = pipeline_dir
    assert run(["indicators", "--out", str(out)]) == 0
    for name in (
        "indicators.csv", "baselines_asjc-frac.csv", "baselines_u1-f-0.8.csv",
        "ni_diagnostics.json", "fig7_ni_diff_by_year.csv", "fig8_ni_std_by_area.csv",
        "fig9_excellence_overlap_p10.csv", "fig10_excellence_overlap_p01.csv",
    ):
        assert (out / name).exists(), name
    rows = read_csv(out / "indicators.csv")
    assert rows[0] == ["doc_id", "system", "ni", "exc10", "exc1"]
    # two rows per document, grouped
    assert len(rows) - 1 == 2 * 400
    assert rows[1][1] == "ASJC-FRAC" and rows[2][1] == "U1-F-0.8"
    assert rows[1][0] == rows[2][0]


def test_network_outputs_and_formats(pipeline_dir):
    out = pipeline_dir
    assert run(["compare", "--out", str(out)]) == 0
    assert run(["network", "--out", str(out), "--level", "area"]) == 0
    data = json.loads((out / "fig3_network.json").read_text())
    assert set(data) == {"nodes", "edges"}
    for node in data["nodes"]:
        assert {"id", "size", "community", "x", "y"} <= set(node)
    assert run(["network", "--out", str(out), "--level", "area",
                "--format", "graphml"]) == 0
    assert (out / "fig3_network.graphml").exists()


def test_network_requires_compare(pipeline_dir):
    assert run(["network", "--out", str(pipeline_dir), "--level", "area"]) == 1


def test_network_bad_format_exits_2(pipeline_dir):
    out = pipeline_dir
    run(["compare", "--out", str(out)])
    assert run(["network", "--out", str(out), "--format", "bogus"]) == 2


@pytest.mark.parametrize("value, code", [("inf", 2), ("nan", 2), ("-5.0", 1)])
@pytest.mark.parametrize("name, column", [("flows_area.csv", "weight"), ("class_stats_area.csv", "size_b")])
def test_network_refuses_bad_numbers(pipeline_dir, name, column, value, code):
    # a weight or size that is not a finite number is malformed, a negative one invalid
    assert run(["compare", "--out", str(pipeline_dir)]) == 0
    rows = read_csv(pipeline_dir / name)
    rows[1][rows[0].index(column)] = value
    with open(pipeline_dir / name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    before = snapshot(pipeline_dir)
    assert run(["network", "--level", "area", "--out", str(pipeline_dir)]) == code
    assert snapshot(pipeline_dir) == before


def network_refuses_rows(out, capsys, name, edit, code):
    """network after compare and an edit of one of its input CSVs: exit
    code, one error line, and --out unchanged. Returns the error line."""
    assert run(["compare", "--out", str(out)]) == 0
    rows = read_csv(out / name)
    with open(out / name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))
    before = snapshot(out)
    capsys.readouterr()
    assert run(["network", "--level", "area", "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert snapshot(out) == before
    return err[0]


def test_network_refuses_a_flow_outside_the_classes(pipeline_dir, capsys):
    err = network_refuses_rows(pipeline_dir, capsys, "flows_area.csv",
                               lambda rows: [*rows, ["ZZ", rows[1][0], "1.0"]], 1)
    assert "'ZZ'" in err


@pytest.mark.parametrize("name, repeat", [
    ("flows_area.csv", lambda row: [row[0], row[1], "999.0"]),
    ("class_stats_area.csv", lambda row: [row[0], row[1], "999.0", *row[3:]]),
])
def test_network_refuses_repeated_rows(pipeline_dir, capsys, name, repeat):
    # compare writes each flow and each class once; a repeat is malformed
    err = network_refuses_rows(pipeline_dir, capsys, name, lambda rows: [*rows, repeat(rows[1])], 2)
    assert f"line {len(read_csv(pipeline_dir / name))}" in err


def test_report_summarizes(pipeline_dir):
    out = pipeline_dir
    assert run(["report", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["n_documents"] == 400
    assert rep["low_reference_share"]


def test_fig1_matches_report(pipeline_dir, tmp_path):
    # references run 3..10, so a cut at 6 gives shares strictly inside (0, 100)
    out = pipeline_dir
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("min_references = 6\n")
    for knob in (["--config", str(cfgp)], ["--min-references", "6"]):
        assert run(["compare", *knob, "--out", str(out)]) == 0
        assert run(["report", *knob, "--out", str(out)]) == 0
        fig1 = read_csv(out / "fig1_low_reference_share.csv")
        series = json.loads((out / "report.json").read_text())["low_reference_share"]
        assert fig1[0] == ["year", "pct_below_min_refs"]
        assert fig1[1:] == [[str(r["year"]), "%.6f" % r["pct_below_min_refs"]] for r in series]
        assert all(0.0 < r["pct_below_min_refs"] < 100.0 for r in series)


def test_negative_citer_window_exits_1(pipeline_dir):
    assert run(["classify", "--system", "u1f08", "--citer-window", "-1",
                "--out", str(pipeline_dir)]) == 1


def test_bad_config_format_fails_before_layout(pipeline_dir, tmp_path, monkeypatch):
    from citeclass import netgraph

    def no_layout(*args, **kwargs):
        raise AssertionError("layout ran before the config was checked")

    monkeypatch.setattr(netgraph, "linlog_layout", no_layout)
    out = pipeline_dir
    assert run(["compare", "--out", str(out)]) == 0
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("format = bogus\n")
    assert run(["network", "--config", str(cfgp), "--out", str(out)]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--step", "inf"), ("--step", "nan"), ("--edge-epsilon", "nan"),
    ("--edge-epsilon", "inf"), ("--edge-epsilon", "-1"),
])
def test_bad_layout_knob_fails_before_layout(pipeline_dir, monkeypatch, flag, value):
    # a step of inf never ends the line search, and an edge_epsilon of nan
    # keeps no edge
    from citeclass import netgraph

    def no_layout(*args, **kwargs):
        raise AssertionError("layout ran before the config was checked")

    monkeypatch.setattr(netgraph, "linlog_layout", no_layout)
    out = pipeline_dir
    assert run(["compare", "--out", str(out)]) == 0
    assert run(["network", flag, value, "--out", str(out)]) == 1


def test_package_exports_resolve():
    import citeclass

    assert [n for n in citeclass.__all__ if not hasattr(citeclass, n)] == []


def test_manifest_covers_all_artifacts(pipeline_dir):
    out = pipeline_dir
    run(["compare", "--out", str(out)])
    run(["indicators", "--out", str(out)])
    run(["network", "--out", str(out), "--level", "area"])
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {f"figure_{i}" for i in range(1, 11)} | {f"table_{i}" for i in range(1, 5)}
    assert set(manifest) == expected
    for name in manifest.values():
        assert (out / name).exists(), name


def test_config_file_sets_defaults(tmp_path):
    syn = tmp_path / "syn"
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("n_docs = 60\nn_journals = 12\nseed = 5\n")
    assert run(["syngen", "--config", str(cfgp), "--out", str(syn)]) == 0
    n = sum(1 for _ in open(syn / "documents.jsonl"))
    assert n == 60


def test_cli_flag_overrides_config(tmp_path):
    syn = tmp_path / "syn"
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("n_docs = 60\n")
    assert run(["syngen", "--config", str(cfgp), "--out", str(syn),
                "--n-docs", "25", "--n-journals", "8", "--seed", "5"]) == 0
    n = sum(1 for _ in open(syn / "documents.jsonl"))
    assert n == 25


def test_unknown_config_key_exits_2(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("does_not_exist = 1\n")
    assert run(["syngen", "--config", str(cfgp), "--out", str(tmp_path / "x")]) == 2


def test_malformed_config_exits_2(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("just some text without equals\n")
    assert run(["syngen", "--config", str(cfgp), "--out", str(tmp_path / "x")]) == 2


def test_global_flags_accepted_before_subcommand(tmp_path):
    syn = tmp_path / "syn"
    assert run(["--out", str(syn), "--seed", "3", "syngen",
                "--n-docs", "30", "--n-journals", "8"]) == 0
    assert (syn / "documents.jsonl").exists()


def test_pipeline_rerun_is_byte_identical(tmp_path):
    syn = tmp_path / "syn"
    run(["syngen", "--out", str(syn), "--n-docs", "150", "--n-journals", "20",
         "--seed", "17"])
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run(["ingest", "--scheme", str(syn / "scheme.csv"),
             "--journals", str(syn / "journals.jsonl"),
             "--documents", str(syn / "documents.jsonl"), "--out", str(out)])
        run(["classify", "--system", "asjc-frac", "--out", str(out)])
        run(["classify", "--system", "u1f08", "--out", str(out)])
        run(["compare", "--out", str(out)])
        run(["indicators", "--out", str(out)])
        run(["network", "--out", str(out), "--level", "area"])
        run(["report", "--out", str(out)])
        outs.append(out)
    r1, r2 = outs
    names1 = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
    names2 = sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
    assert names1 == names2
    for rel in names1:
        assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes(), rel
