import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citeclass.assignments import write_assignments
from citeclass.citer import ThresholdPolicy, classify_u1f08_all
from citeclass.cli import (
    FIG1, FIG4, FIG7, LEVEL_FILES, _load_assignment_sets, _load_pipeline_corpus, build_parser, main,
)
from citeclass.config import RunConfig, field_types, parse_config_file
from citeclass.corpus import Corpus, ParseError, load_corpus, load_scheme
from citeclass.syngen import SynParams
from oracles import (
    oracle_classify, oracle_journal_vector, oracle_level_tables, oracle_low_reference_share, oracle_ni,
    oracle_ni_diff_by_year, oracle_to_areas,
)


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


@pytest.mark.parametrize("year", [3000000000, 10000, -1, 10**30])
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


def spoil_scheme_name(syn):
    path = syn / "scheme.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = 'A01C00,"Mech\ranics",A01,Area 01,true,false\n'
    path.write_bytes("".join(lines).encode())
    return "category 'A01C00': name holds a carriage return"


def spoil_doc_id(syn):
    path = syn / "documents.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = json.dumps(dict(json.loads(lines[0]), doc_id="D\r0")) + "\n"
    path.write_text("".join(lines))
    return "document 'D\\r0': doc_id holds a carriage return"


@pytest.mark.parametrize("spoil", [spoil_scheme_name, spoil_doc_id], ids=["scheme-name", "doc-id"])
def test_ingest_refuses_carriage_returns(tmp_path, spoil):
    # a CSV artifact that carried the text would split its line at the \r
    syn = tmp_path / "syn"
    assert run(["syngen", "--out", str(syn), "--n-docs", "30", "--n-journals", "5", "--seed", "1"]) == 0
    error = spoil(syn)
    out = tmp_path / "out"
    assert run([*ingest_argv(syn), "--out", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["status"] == "invalid"
    assert error in report["errors"]
    assert not (out / "corpus").exists()


def test_ingest_refuses_a_doc_id_that_is_not_utf8(tmp_path):
    # no artifact writer can encode the id, so ingest refuses it before any stage writes one
    syn = tmp_path / "syn"
    assert run(["syngen", "--out", str(syn), "--n-docs", "200", "--n-journals", "20", "--seed", "3"]) == 0
    docs = syn / "documents.jsonl"
    docs.write_text(docs.read_text().replace('"D0000000"', '"\\ud800D0000000"'))
    out = tmp_path / "out"
    assert run([*ingest_argv(syn), "--out", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["status"] == "invalid"
    assert "document '\\ud800D0000000': doc_id is not UTF-8 text" in report["errors"]
    assert not (out / "corpus").exists()


PIN_SCHEME = ("code,name,area_code,area_name,is_misc,is_multidisciplinary\n"
              "PH01,Mechanics,PH,Physics,false,false\n"
              "PH02,Optics,PH,Physics,false,false\n"
              "CH01,Organic,CH,Chemistry,false,false\n"
              ",,MD,Multidisciplinary,false,true\n")


def write_inputs(d, journals, documents):
    """Write the scheme above and the given journal and document records as JSONL; a
    record that is a string is written as it is."""
    d.mkdir()
    (d / "scheme.csv").write_text(PIN_SCHEME)
    for name, records in (("journals.jsonl", journals), ("documents.jsonl", documents)):
        lines = (r if isinstance(r, str) else json.dumps(r, ensure_ascii=False) for r in records)
        (d / name).write_bytes("".join(f"{x}\n" for x in lines).encode("utf-8", "surrogatepass"))
    return ["ingest", "--scheme", str(d / "scheme.csv"), "--journals", str(d / "journals.jsonl"),
            "--documents", str(d / "documents.jsonl")]


def doc(doc_id, journal_id="J1", year=2015, doc_type="article", references=(), **extra):
    return {"doc_id": doc_id, "journal_id": journal_id, "year": year, "doc_type": doc_type,
            "references": list(references), **extra}


# a valid corpus that is not canonical: documents out of order, references repeated, unsorted,
# cited before they appear and outside the corpus, journal codes unsorted, an explicit zero
# external_citations, and ids that JSON must escape, raw or escaped in the input
NON_CANONICAL = (
    [{"journal_id": "J2", "asjc_codes": ["PH02", "PH01"]}, {"journal_id": 'J"é', "asjc_codes": ["MD", "CH01"]},
     '{"journal_id":"J1","asjc_codes":["PH01"]}'],
    [doc("D9", "J2", 2016, "review", ["Dé", "X\\b", "D1", "Dé", 'D"q', "D𝔸", "D\x01"], external_citations=0),
     doc("D1", references=["X\\b", "Xé"], external_citations=3),
     "",
     '{"doc_id":"D\\"q","journal_id":"J\\"\\u00e9","year":2014,"doc_type":"lettre \\u00e9",'
     '"references":["D\\ud835\\udd38","D1"]}',
     doc("D𝔸", "J1", 2013, "article", ["X\x01"], external_citations=2**53),
     doc("Dé", 'J"é', 0, "lettre é", ["D1", "D1"]),
     doc("D\x01", "J2", 9999, "review", ["X\x01", "D9", "X\\b"])],
)
NON_CANONICAL_SHA256 = {
    "corpus/journals.jsonl": "59836a44a6584c9eae0a8d73721b09710ae0d9ba37ce0214188499673fc1314b",
    "corpus/documents.jsonl": "3a5cb01ccd79263bd1852ad19e75d04522ffaa8bc80fc70b5e531cb6978cca55",
    "corpus/corpus.npz": "e9bd4729b3ba8846828eb6ff662a988ff6becc3bbbecc0afc2f694ed7f0c2268",
    "corpus_stats.json": "e6d8aed63e267f65df5a99e90e50aef70977dfda6a352e53cc38258b019a6cac",
}


def test_ingest_bytes_of_a_non_canonical_corpus_are_pinned(tmp_path):
    argv = write_inputs(tmp_path / "in", *NON_CANONICAL)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in NON_CANONICAL_SHA256}
    assert got == NON_CANONICAL_SHA256


def test_ingest_builds_no_document(tmp_path, monkeypatch):
    # ingest parses, validates and writes the corpus as columns
    def refuse(*args, **kwargs):
        raise AssertionError("a Document was built")

    monkeypatch.setattr("citeclass.corpus.Document", refuse)
    monkeypatch.setattr(Corpus, "documents", property(refuse))
    argv = write_inputs(tmp_path / "in", *NON_CANONICAL)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in NON_CANONICAL_SHA256}
    assert got == NON_CANONICAL_SHA256


def test_ingest_reports_every_corpus_message_in_order(tmp_path):
    argv = write_inputs(tmp_path / "in", [
        {"journal_id": "J1", "asjc_codes": ["PH01"]}, {"journal_id": "J5", "asjc_codes": ["ZZ", "PH01", "YY"]},
        {"journal_id": "", "asjc_codes": ["PH01"]}, {"journal_id": "J3", "asjc_codes": []},
        {"journal_id": "J1", "asjc_codes": ["CH01"]}, {"journal_id": "J4", "asjc_codes": ["PH01", "PH01"]},
    ], [
        doc("D6", references=["D6", "X1"]), doc("D2"), doc("D\r7"), doc("D3", "NOPE", 1990),
        doc("D4", "NOPE", 10**30), doc("D2", "NOPE", -5), doc("D\r7", doc_type="a\rb"),
        doc("D5", year=1990), doc("D8", doc_type="a\rb"), '{"doc_id":"D9","journal_id":"J1","year":2015,'
        '"doc_type":"\\ud800","references":[]}', '{"doc_id":"\\udfffD10","journal_id":"J1","year":2030,'
        '"doc_type":"article","references":["D9"]}', doc("D11", year=2021, references=["D11", "D11"]),
    ])
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out), "--year-min", "2000", "--year-max", "2020"]) == 1
    assert (out / "validation_report.json").read_text() == json.dumps({"status": "invalid", "errors": [
        "journal with empty id",
        "duplicate journal_id 'J1'",
        "journal 'J3' has no codes",
        "journal 'J4' lists a code more than once",
        "journal 'J5' carries unknown code 'YY'",
        "journal 'J5' carries unknown code 'ZZ'",
        "duplicate doc_id 'D\\r7'",
        "document 'D11' year 2021 above period end 2020",
        "document 'D11' cites itself",
        "duplicate doc_id 'D2'",
        "document 'D3' references unknown journal 'NOPE'",
        "document 'D3' year 1990 below period start 2000",
        "document 'D4' references unknown journal 'NOPE'",
        "document 'D4' year 1000000000000000000000000000000 outside [0, 9999]",
        "document 'D4' year 1000000000000000000000000000000 above period end 2020",
        "document 'D5' year 1990 below period start 2000",
        "document 'D6' cites itself",
        "document '\\udfffD10' year 2030 above period end 2020",
        "document 'D\\r7': doc_id holds a carriage return",
        "document 'D\\r7': doc_id holds a carriage return",
        "document '\\udfffD10': doc_id is not UTF-8 text",
        "document 'D\\r7': doc_type holds a carriage return",
        "document 'D8': doc_type holds a carriage return",
        "document 'D9': doc_type is not UTF-8 text",
    ]}, indent=2, sort_keys=True) + "\n"
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


def library_u1_bytes(out, tmp_path):
    """The U1-F-0.8 file the library writes for the corpus ingested in out."""
    scheme = load_scheme(str(out / "corpus" / "scheme.csv"))
    corpus = load_corpus(str(out / "corpus" / "journals.jsonl"), str(out / "corpus" / "documents.jsonl"), scheme)
    write_assignments(str(tmp_path / "library_u1.jsonl"), classify_u1f08_all(corpus, scheme))
    return (tmp_path / "library_u1.jsonl").read_bytes()


def test_u1_reads_no_asjc_file(pipeline_dir, tmp_path):
    # the citer-origin run splits the journals itself: it needs only the corpus
    out = pipeline_dir
    os.remove(out / "assignments_asjc-frac.jsonl")
    os.remove(out / "assignments_u1-f-0.8.jsonl")
    assert run(["classify", "--system", "u1f08", "--out", str(out)]) == 0
    assert not (out / "assignments_asjc-frac.jsonl").exists()
    assert (out / "assignments_u1-f-0.8.jsonl").read_bytes() == library_u1_bytes(out, tmp_path)


def test_u1_settles_exact_ties_on_exact_weights(tmp_path):
    # Six categories of D0000706's aggregate weigh exactly 1/16, below its two
    # heaviest, so the cap of five keeps the first three of them by code. The
    # 12-digit text of the ASJC-FRAC file breaks that tie and keeps another
    # set (A02C12, A06C06, A10C16, A10C17, A11C04).
    syn, out = tmp_path / "syn", tmp_path / "out"
    assert run(["syngen", "--out", str(syn), "--n-docs", "1000", "--n-journals", "60", "--n-areas", "15",
                "--cats-per-area", "19", "--multi-share", "0.1", "--journal-codes-max", "4", "--seed", "2"]) == 0
    assert run([*ingest_argv(syn), "--out", str(out)]) == 0
    assert run(["classify", "--system", "asjc-frac", "--out", str(out)]) == 0
    assert run(["classify", "--system", "u1f08", "--out", str(out)]) == 0
    u1 = (out / "assignments_u1-f-0.8.jsonl").read_bytes()
    rec = next(json.loads(line) for line in u1.splitlines() if b'"D0000706"' in line)
    assert sorted(rec["weights"]) == ["A01C04", "A02C12", "A05C10", "A06C06", "A11C04"]
    assert u1 == library_u1_bytes(out, tmp_path)


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
ASJC_NPZ = "assignments_asjc-frac.npz"
U1_NPZ = "assignments_u1-f-0.8.npz"


# a file given a byte that is not UTF-8 -> the stage that reads it
NON_UTF8 = {
    "syn/scheme.csv": lambda root: ingest_argv(root / "syn"),
    "syn/documents.jsonl": lambda root: ingest_argv(root / "syn"),
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
    before = snapshot(out)
    assert run([*argv, "--out", str(out)]) == code
    assert snapshot(out) == before


STAGES_READING = {
    "compare": (["compare"], U1_NPZ),
    "indicators": (["indicators"], U1_NPZ),
}


def load_sidecar(path):
    with np.load(path) as npz:
        return dict(npz)


def set_first_row(path, row):
    """Give the first document of the sidecar at path the entries {column: weight} of row."""
    a = load_sidecar(path)
    lo = a["indptr"][1]
    a["indices"] = np.concatenate([np.array(list(row), np.int32), a["indices"][lo:]])
    a["data"] = np.concatenate([np.array(list(row.values()), np.float64), a["data"][lo:]])
    a["indptr"] = np.concatenate([[0], a["indptr"][1:] - lo + len(row)])
    np.savez(path, **a)


@pytest.mark.parametrize("weights, code", [
    ('{"A": NaN, "B": 0.5}', 2), ('{"A": Infinity}', 2), ('{"A": -Infinity, "B": 1.0}', 2),
    ('{"A": 1e400}', 2), ('{"A": 1%s}' % ("0" * 400), 2),
    ('{"A": 1.5, "B": -0.5}', 1), ('{"A": 1.0, "B": 0}', 1), ('{"A": 0.5}', 1), ("{}", 1),
], ids=["nan", "inf", "-inf", "float-overflow", "int-overflow", "negative", "zero", "sum-half", "empty"])
@pytest.mark.parametrize("stage", list(STAGES_READING))
def test_bad_weights_fail_before_writing(pipeline_dir, stage, weights, code):
    # a weight that is not a finite number is malformed; a weight <= 0 or a
    # sum off 1 is invalid. A and B are the sidecar's first two columns, and
    # each weight is the float64 its JSON text reads as (an overflow as inf)
    argv, name = STAGES_READING[stage]
    row = json.loads(weights, parse_int=float)
    set_first_row(pipeline_dir / name, {"AB".index(k): w for k, w in row.items()})
    assert_stage_fails(pipeline_dir, argv, code)


def drop_first(records):
    return records[1:]


def add_outside_doc(records):
    return records + [dict(records[-1], doc_id="ZZZ-outside")]


@pytest.mark.parametrize("case, argv", [
    ("missing", ["indicators"]),
    ("outside", ["indicators"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_asjc_set_must_match_the_corpus(pipeline_dir, case, argv):
    rewrite_records(pipeline_dir / ASJC, {"missing": drop_first, "outside": add_outside_doc}[case])
    assert_stage_fails(pipeline_dir, argv, 1)


def to_u1_record(records):
    mid = len(records) // 2
    return records[:mid] + [dict(records[mid], system="U1-F-0.8")] + records[mid + 1:]


@pytest.mark.parametrize("name, edit", [
    (U1, drop_first), (U1, add_outside_doc), (ASJC, to_u1_record), (U1, lambda records: []),
], ids=["u1-missing-first", "u1-extra-doc", "asjc-holds-u1-record", "u1-empty"])
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
            "assignments.write_assignments"} <= set().union(*names.values())
    # U1-F-0.8 splits the journals itself, and the stages after classify load
    # the sidecars: no stage parses an assignment file
    assert "asjc.classify_asjc" in names["u1f08"]
    for label in ("u1f08", "compare", "indicators"):
        assert "assignments.read_assignments" not in names[label], label
        assert "assignments.iter_assignments" not in names[label], label
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


def swap_first_doc_ids(out):
    # ids of equal length, so the offsets and the JSONL digests still match
    with np.load(out / NPZ) as npz:
        arrays = dict(npz)
    ids, ptr = arrays["doc_ids"], arrays["doc_ids_ptr"]
    first, second = ids[ptr[0]:ptr[1]].copy(), ids[ptr[1]:ptr[2]].copy()
    assert len(first) == len(second) and (first != second).any()
    ids[ptr[0]:ptr[1]], ids[ptr[1]:ptr[2]] = second, first
    np.savez(out / NPZ, **arrays)


# spoiler -> (edit of --out, exit code): stale and missing arrays are invalid
# state, unreadable or inconsistent ones malformed input
NPZ_SPOILERS = {
    "stale": (edit_documents, 1),
    "missing": (lambda out: os.remove(out / NPZ), 1),
    "truncated": (truncate_npz, 2),
    "short-year": (shorten_year, 2),
    "out-of-order": (swap_first_doc_ids, 2),
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


def other_corpus(out):
    a = load_sidecar(out / ASJC_NPZ)
    a["corpus_sha256"] = a["corpus_sha256"][::-1].copy()
    np.savez(out / ASJC_NPZ, **a)


def garble_columns(out):
    # the first document's first two columns in the wrong order
    a = load_sidecar(out / ASJC_NPZ)
    assert a["indptr"][1] >= 2
    a["indices"][[0, 1]] = a["indices"][[1, 0]]
    np.savez(out / ASJC_NPZ, **a)


def non_utf8_doc_id(out):
    a = load_sidecar(out / U1_NPZ)
    a["doc_ids"][0] = 0xFF
    np.savez(out / U1_NPZ, **a)


def drop_first_document(out):
    # a sidecar of one document less, still bound to its JSONL
    a = load_sidecar(out / U1_NPZ)
    ids, lo = a["doc_ids"], a["indptr"][1]
    cut = a["doc_ids_ptr"][1]
    a.update(doc_ids=ids[cut:], doc_ids_ptr=a["doc_ids_ptr"][1:] - cut, indices=a["indices"][lo:],
             data=a["data"][lo:], indptr=a["indptr"][1:] - lo)
    np.savez(out / U1_NPZ, **a)


def add_outside_document(out):
    # a sidecar of one document more, still bound to its JSONL
    a = load_sidecar(out / U1_NPZ)
    lo, hi = a["indptr"][-2:]
    extra = np.frombuffer(b"ZZZ-outside", np.uint8)
    a.update(doc_ids=np.concatenate([a["doc_ids"], extra]),
             doc_ids_ptr=np.append(a["doc_ids_ptr"], a["doc_ids_ptr"][-1] + len(extra)),
             indices=np.concatenate([a["indices"], a["indices"][lo:hi]]),
             data=np.concatenate([a["data"], a["data"][lo:hi]]), indptr=np.append(a["indptr"], hi + hi - lo))
    np.savez(out / U1_NPZ, **a)


def two_d_data(out):
    a = load_sidecar(out / U1_NPZ)
    a["data"] = a["data"].reshape(1, -1)
    np.savez(out / U1_NPZ, **a)


def other_system(out):
    a = load_sidecar(out / U1_NPZ)
    a["system"], a["system_ptr"] = np.frombuffer(b"ASJC-FRAC", np.uint8), np.array([0, 9])
    np.savez(out / U1_NPZ, **a)


# spoiler -> (edit of --out, exit code): missing, stale and mismatched sidecars
# are invalid state, unreadable or inconsistent ones malformed input
SIDECAR_SPOILERS = {
    "missing": (lambda out: os.remove(out / U1_NPZ), 1),
    "stale-jsonl": (lambda out: (out / U1).write_text((out / U1).read_text().replace("}}", "} }", 1)), 1),
    "other-corpus": (other_corpus, 1),
    "misaligned": (drop_first_document, 1),
    "extra-document": (add_outside_document, 1),
    "other-system": (other_system, 1),
    "truncated": (lambda out: (out / U1_NPZ).write_bytes((out / U1_NPZ).read_bytes()[:-100]), 2),
    "not-1d": (two_d_data, 2),
    "garbled": (garble_columns, 2),
    "non-utf8": (non_utf8_doc_id, 2),
}


@pytest.mark.parametrize("spoiler", list(SIDECAR_SPOILERS))
@pytest.mark.parametrize("stage", ["compare", "indicators"])
def test_bad_sidecar_fails_before_writing(pipeline_dir, stage, spoiler):
    spoil, code = SIDECAR_SPOILERS[spoiler]
    spoil(pipeline_dir)
    assert_stage_fails(pipeline_dir, [stage], code)


def test_stages_refuse_a_sidecar_of_an_older_corpus(pipeline_dir, tmp_path):
    # a new corpus with the same doc ids, ingested and classified by ASJC-FRAC
    # only: the U1-F-0.8 files beside it belong to the old one
    syn = tmp_path / "syn2"
    assert run(["syngen", "--out", str(syn), "--n-docs", "400", "--n-journals", "40", "--seed", "43"]) == 0
    assert run([*ingest_argv(syn), "--out", str(pipeline_dir)]) == 0
    assert run(["classify", "--system", "asjc-frac", "--out", str(pipeline_dir)]) == 0
    for stage in ("compare", "indicators"):
        assert_stage_fails(pipeline_dir, [stage], 1)
    # reclassifying U1-F-0.8 binds both sets to the new corpus again
    assert run(["classify", "--system", "u1f08", "--out", str(pipeline_dir)]) == 0
    assert run(["compare", "--out", str(pipeline_dir)]) == 0


SCIPY_PROBE = "import sys; from citeclass.cli import main; code = main(sys.argv[1:]); print('scipy' in sys.modules)"


def test_no_stage_imports_scipy(pipeline_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def loads_scipy(*argv):
        proc = subprocess.run([sys.executable, "-c", *argv], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

    assert not loads_scipy("import sys, citeclass, citeclass.cli; print('scipy' in sys.modules)")
    out = ["--out", str(pipeline_dir)]
    for argv in ([*ingest_argv(tmp_path / "syn"), "--out", str(tmp_path / "again")],
                 ["classify", "--system", "asjc-frac", *out], ["classify", "--system", "u1f08", *out],
                 ["compare", *out], ["indicators", *out], ["network", *out], ["report", *out]):
        assert not loads_scipy(SCIPY_PROBE, *argv), argv[:3]


def test_stages_never_build_the_documents_view(pipeline_dir, monkeypatch):
    # classify and indicators read the corpus columns only
    def refuse(corpus):
        raise AssertionError("Corpus.documents was built")

    monkeypatch.setattr(Corpus, "documents", property(refuse))
    for argv, _ in CORPUS_READERS.values():
        assert run([*argv, "--out", str(pipeline_dir)]) == 0


def test_stages_share_one_doc_id_list(pipeline_dir):
    # compare's second set holds the first set's doc id list, indicators' sets
    # the corpus's, instead of a decoded copy each
    set_a, set_b = _load_assignment_sets(str(pipeline_dir))
    assert set_b.doc_ids is set_a.doc_ids
    _, corpus = _load_pipeline_corpus(str(pipeline_dir))
    assert all(s.doc_ids is corpus.doc_ids for s in _load_assignment_sets(str(pipeline_dir), corpus))


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


def assert_csv_matches(path, expected):
    """The CSV's rows, header skipped, equal expected: text fields exactly,
    None as NA, and numbers within the six decimals the CSV holds."""
    rows = read_csv(path)[1:]
    assert len(rows) == len(expected), path.name
    for row, want in zip(rows, expected):
        assert len(row) == len(want), (path.name, row)
        for text, value in zip(row, want):
            if value is None or isinstance(value, str):
                assert text == ("NA" if value is None else value), (path.name, row)
            else:
                assert abs(float(text) - value) <= 0.5e-6 + 1e-9, (path.name, row, value)


def test_compare_and_indicators_match_the_oracles(syn2000, tmp_path):
    # compare's per-level datasets and figures 1, 4 and 7, from the oracles'
    # vectors of the same corpus; the link cuts fall between flows of each level,
    # so tables 1 and 3 list some flows and leave others out
    scheme, corpus = syn2000
    syn, out = tmp_path / "syn", tmp_path / "out"
    assert run(["syngen", "--n-docs", "2000", "--n-journals", "100", "--seed", "7", "--out", str(syn)]) == 0
    compare = ["compare", "--bin-width", "20", "--min-link-category", "5", "--min-link-area", "40"]
    for argv in (ingest_argv(syn), ["classify", "--system", "asjc-frac"], ["classify", "--system", "u1f08"],
                 compare, ["indicators"]):
        assert run([*argv, "--out", str(out)]) == 0
    policy = ThresholdPolicy()
    journal_vector = {jid: oracle_journal_vector(j.asjc_codes, scheme) for jid, j in corpus.journals.items()}
    asjc = {d: journal_vector[corpus.journal_ids[j]] for d, j in zip(corpus.doc_ids, corpus.journal_index.tolist())}
    u1 = oracle_classify(corpus, scheme, policy)

    # at category level, then at area level, as LEVEL_FILES lists the files
    tables = [oracle_level_tables(asjc, u1, 20.0, 5.0),
              oracle_level_tables(oracle_to_areas(asjc, scheme), oracle_to_areas(u1, scheme), 20.0, 40.0)]
    for side in (0, 1):
        assert 0 < len(tables[side]["top_links"]) < len(tables[side]["flows"])
        for key in LEVEL_FILES:
            assert_csv_matches(out / LEVEL_FILES[key][side], tables[side][key])
    assert_csv_matches(out / FIG4, tables[1]["exchange_pct"])
    assert_csv_matches(out / FIG1, list(map(list, oracle_low_reference_share(corpus, policy.min_references).items())))
    fig7 = oracle_ni_diff_by_year(corpus, oracle_ni(corpus, asjc), oracle_ni(corpus, u1))
    assert_csv_matches(out / FIG7, list(map(list, fig7.items())))


def test_negative_citer_window_exits_1(pipeline_dir):
    assert run(["classify", "--system", "u1f08", "--citer-window", "-1",
                "--out", str(pipeline_dir)]) == 1


@pytest.mark.parametrize("argv, message", [
    (["network", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["syngen", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["syngen", "--year-min", "-3"], "year_min must be in [0, 9999], got -3"),
    (["syngen", "--year-max", "10005"], "year_max must be in [0, 9999], got 10005"),
])
def test_bad_seed_or_year_exits_1_at_start_up(tmp_path, capsys, argv, message):
    # numpy's generators take no negative seed, and a corpus holds no year
    # outside [0, 9999]: both are refused before a stage reads or makes anything
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("flag, value", [
    ("--bin-width", "inf"), ("--bin-width", "nan"), ("--bin-width", "0"), ("--bin-width", "1e-6"),
    ("--bin-width", "0.5"),
    ("--min-link-area", "nan"), ("--min-link-area", "inf"), ("--min-link-area", "-1"),
    ("--min-link-category", "nan"), ("--min-link-category", "inf"), ("--min-link-category", "-5"),
])
def test_bad_compare_knob_fails_before_writing(pipeline_dir, flag, value):
    # a bin width of inf writes a nan bin, one below a document adds only empty
    # bins (1e-6 would write about a billion rows), a link cut of nan keeps no
    # link and a negative one keeps every flow
    before = snapshot(pipeline_dir)
    assert run(["compare", flag, value, "--out", str(pipeline_dir)]) == 1
    assert snapshot(pipeline_dir) == before


def readme_library_blocks():
    """The ```python blocks of the README's "Library use" section, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("\n```", 1)[0] for block in section.split("```python\n")[1:]]


def test_readme_library_example_runs(capsys):
    blocks = readme_library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    # one printed row per class of the area flow matrix, and arrays over every document
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == namespace["matrix"].classes
    assert len(namespace["ni"]) == len(namespace["flags"]) == len(namespace["corpus"])

    # the package root loads no module of the package
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    probe = "import sys, citeclass; print(sorted(m for m in sys.modules if m.startswith('citeclass.')))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_repeated_config_key_exits_2(pipeline_dir, tmp_path, capsys):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("theta = 0.9\n# a comment\n\ntheta = 0.7\n")
    with pytest.raises(ParseError, match="line 4: key 'theta' is already set on line 1"):
        parse_config_file(str(cfgp))
    before = snapshot(pipeline_dir)
    assert run(["classify", "--system", "u1f08", "--config", str(cfgp), "--out", str(pipeline_dir)]) == 2
    assert snapshot(pipeline_dir) == before


CONFIG_KEYS = st.text(st.characters(codec="utf-8", exclude_characters="=\n\r"), min_size=1, max_size=8).filter(
    lambda k: k == k.strip() and not k.startswith("#"))
CONFIG_VALUES = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=8).map(str.strip)


@given(entries=st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, max_size=6),
       noise=st.lists(st.sampled_from(["", "  ", "\t", "# a = b", "  #x", "#"]), max_size=5),
       sep=st.sampled_from(["=", " = ", "\t=  ", " ="]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_config_file_round_trip(tmp_path_factory, entries, noise, sep, data):
    # key = value lines in any order among comments and blank lines read back as written
    lines = data.draw(st.permutations([f"{k}{sep}{v}" for k, v in entries.items()] + noise))
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert parse_config_file(str(path)) == entries


@pytest.mark.parametrize("line", ["no equals sign", "theta = 0.8"])
def test_malformed_config_leaves_out_unchanged(pipeline_dir, tmp_path, line):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(f"# knobs\ntheta = 0.8\n\n{line}\n")
    before = snapshot(pipeline_dir)
    for argv in (["classify", "--system", "u1f08"], ["compare"], ["indicators"]):
        assert run([*argv, "--config", str(cfgp), "--out", str(pipeline_dir)]) == 2
        assert snapshot(pipeline_dir) == before


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
