"""Acceptance suite: one test per shipped guarantee.

Each test re-derives its expected values independently of the code under
test (brute-force recomputation, closed-form constants, or oracle routines)
and prints a single PASS line on success. Criterion 11 generates a
1,000,000-document corpus and runs the pipeline twice through
``python -m citeclass`` subprocesses, which import ``citeclass`` from the
same directory as this module did (a source checkout or an installed copy);
it is the slow test of the suite.
"""

import filecmp
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import citeclass
from citeclass.asjc import classify_asjc
from citeclass.assignments import collapse_to_areas
from citeclass.citer import ThresholdPolicy, classify_u1f08_all
from citeclass.corpus import Area, Category, Corpus, Document, Journal, Scheme, build_citation_index
from citeclass.flow import class_flow_stats, flow_matrix
from citeclass.indicators import (
    WeightColumns, category_baselines, excellence_flags, excellence_thresholds, ni_table,
)
from citeclass.netgraph import (
    LayoutParams, _distances, _energy, _gradient, _pairs, detect_communities, linlog_layout,
)
from citeclass.syngen import SplitMix64, SynParams, generate_corpus
from citeclass.cli import main
from conftest import (
    document_columns, flow_graph, one_doc_flow, partitions, plain_collapse, planted_journal_categories, vector,
    vectors,
)
from oracles import oracle_classify, oracle_flow, oracle_modularity


def _report(num: int, label: str) -> None:
    print(f"criterion {num:2d} ({label}): PASS")


def _banned_codes(scheme):
    banned = {c for c in scheme.misc_by_area.values() if c is not None}
    if scheme.multi_area is not None:
        banned.add(scheme.multi_area.code)
    return banned


def _mean_vectors(vectors):
    out = {}
    for v in vectors:
        for k, w in v.items():
            out[k] = out.get(k, 0.0) + w
    return {k: w / len(vectors) for k, w in out.items()}


def _graph(nodes, edges):
    return flow_graph(edges, dict.fromkeys(nodes, 1.0))


def test_c01_mass_conservation():
    started = time.perf_counter()
    for seed in (1, 2, 3, 4, 5):
        scheme, corpus = generate_corpus(SynParams(n_docs=1000, seed=seed))
        banned = _banned_codes(scheme)
        asjc = classify_asjc(corpus, scheme)
        u1 = classify_u1f08_all(corpus, scheme)
        for aset in (asjc, u1):
            assert set(aset.doc_ids) == {d.doc_id for d in corpus.documents}
            for vec in vectors(aset).values():
                assert abs(math.fsum(vec.values()) - 1.0) <= 1e-9
                assert not set(vec) & banned
                assert all(w > 0.0 for w in vec.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, "mass conservation")


def test_c02_multidisciplinary_split(scheme285):
    cats = scheme285.non_misc_codes
    assert len(cats) == 285
    multi = scheme285.multi_area.code
    corpus = Corpus(
        scheme285,
        [Journal("J-MULTI", (multi,))],
        document_columns([Document("D1", "J-MULTI", 2020, "article", ())]),
    )
    vec = vector(classify_asjc(corpus, scheme285), "D1")
    assert set(vec) == set(cats)
    for w in vec.values():
        assert abs(w - 1.0 / 285.0) <= 1e-12
    _report(2, "multidisciplinary split")


def test_c03_citer_system_contract(syn200):
    scheme, corpus = syn200
    asjc = classify_asjc(corpus, scheme)
    u1 = classify_u1f08_all(corpus, scheme)
    internal = {d.doc_id for d in corpus.documents}
    citers = {}
    for d in corpus.documents:
        for ref in d.references:
            citers.setdefault(ref, []).append(d.doc_id)

    thresholded = 0
    for d in corpus.documents:
        vec = vector(u1, d.doc_id)
        if len(d.references) < 3:
            assert vec == vector(asjc, d.doc_id)
            continue
        profiles = []
        for ref in d.references:
            if ref not in internal:
                continue
            others = [c for c in citers.get(ref, []) if c != d.doc_id]
            if others:
                profiles.append(_mean_vectors([vector(asjc, c) for c in others]))
            else:
                profiles.append(vector(asjc, ref))
        if not profiles:
            assert vec == vector(asjc, d.doc_id)
            continue
        thresholded += 1
        assert 1 <= len(vec) <= 5
        aggregate = _mean_vectors(profiles)
        peak = max(aggregate.values())
        for code in vec:
            assert aggregate.get(code, 0.0) >= 0.8 * peak - 1e-9
    assert thresholded > len(corpus.documents) // 2
    _report(3, "relative threshold contract")


def test_c04_oracle_equivalence(syn200, syn2000):
    started = time.perf_counter()
    for scheme, corpus in (syn200, syn2000):
        u1 = classify_u1f08_all(corpus, scheme)
        oracle = oracle_classify(corpus, scheme, ThresholdPolicy())
        assert set(u1.doc_ids) == set(oracle)
        for doc_id in u1.doc_ids:
            vec, expected = vector(u1, doc_id), oracle[doc_id]
            assert set(vec) == set(expected), doc_id
            for code, w in vec.items():
                assert abs(w - expected[code]) <= 1e-9, (doc_id, code)

    rng = SplitMix64(7)
    codes = [f"C{i}" for i in range(10)]
    for _ in range(10000):
        pair = []
        for _ in range(2):
            k = 1 + rng.randint(5)
            picks = sorted({codes[rng.randint(10)] for _ in range(k)})
            raw = {c: rng.uniform() + 1e-3 for c in picks}
            total = sum(raw.values())
            pair.append({c: v / total for c, v in raw.items()})
        got = one_doc_flow(pair[0], pair[1])
        common, moves = oracle_flow(pair[0], pair[1])
        assert set(got.flow) == set(moves)
        assert set(got.common) == set(common)
        for key, w in got.flow.items():
            assert abs(w - moves[key]) <= 1e-9
        for key, w in got.common.items():
            assert abs(w - common[key]) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(4, "oracle equivalence")


def _planted_accuracy(prob: float, seed: int) -> float:
    params = SynParams(
        n_docs=1000, n_journals=50, seed=seed,
        multi_journal_share=0.0, misc_journal_share=0.0, journal_codes_max=1,
        intra_category_citation_prob=prob, external_ref_prob=0.0,
    )
    scheme, corpus = generate_corpus(params)
    planted = planted_journal_categories(params)
    u1 = classify_u1f08_all(corpus, scheme)
    internal = set(corpus.doc_ids)
    hits = eligible = 0
    for d in corpus.documents:
        # the written fallback rule: these documents keep their ASJC-FRAC vector
        if len(d.references) < 3 or not internal.intersection(d.references):
            continue
        vec = vector(u1, d.doc_id)
        eligible += 1
        top = max(vec.items(), key=lambda kv: (kv[1], kv[0]))[0]
        hits += top == planted[d.journal_id]
    assert eligible > 0
    return hits / eligible


def test_c05_planted_recovery():
    seeds = (11, 12, 13, 14, 15)
    for seed in seeds:
        assert _planted_accuracy(1.0, seed) == 1.0
    means = [
        sum(_planted_accuracy(prob, seed) for seed in seeds) / len(seeds)
        for prob in (1.0, 0.9, 0.7, 0.5)
    ]
    for stronger, weaker in zip(means, means[1:]):
        assert stronger >= weaker - 1e-12, means
    _report(5, "planted recovery")


def test_c06_flow_balance(syn2000):
    scheme, corpus = syn2000
    asjc = classify_asjc(corpus, scheme)
    u1 = classify_u1f08_all(corpus, scheme)

    for d in corpus.documents:
        a, b = vector(asjc, d.doc_id), vector(u1, d.doc_id)
        moves = one_doc_flow(a, b).flow
        out = {}
        inn = {}
        for (i, j), w in moves.items():
            out[i] = out.get(i, 0.0) + w
            inn[j] = inn.get(j, 0.0) + w
        assert abs(math.fsum(out.values()) - math.fsum(inn.values())) <= 1e-9
        for code in set(a) | set(b):
            balance = a.get(code, 0.0) - out.get(code, 0.0) + inn.get(code, 0.0)
            assert abs(balance - b.get(code, 0.0)) <= 1e-9

    n_docs = len(corpus.documents)
    for level in ("category", "area"):
        matrix = flow_matrix(asjc, u1, level, scheme)
        rows = class_flow_stats(matrix)
        for r in rows:
            assert abs((r.size_a - r.size_b) - (r.outgoing - r.incoming)) <= 1e-9
        assert abs(math.fsum(matrix.size_a.values()) - n_docs) <= 1e-9
        assert abs(math.fsum(matrix.size_b.values()) - n_docs) <= 1e-9
        mean_in = math.fsum(r.incoming for r in rows) / len(rows)
        mean_out = math.fsum(r.outgoing for r in rows) / len(rows)
        assert abs(mean_in - mean_out) <= 1e-9
    _report(6, "flow balance")


def test_c07_ni_self_normalization(syn200):
    scheme, corpus = syn200
    index = build_citation_index(corpus)
    asjc = classify_asjc(corpus, scheme)
    u1 = classify_u1f08_all(corpus, scheme)

    for aset in (asjc, u1):
        baselines = category_baselines(WeightColumns(corpus, aset), index)
        mean_of = dict(zip(baselines.cells, baselines.mean_citations.tolist()))
        contrib = {}
        weight = {}
        for d, cit in zip(corpus.documents, index):
            for code, w in vector(aset, d.doc_id).items():
                cell = (d.doc_type, d.year, code)
                mean = mean_of[cell]
                if mean == 0.0:
                    continue
                contrib[cell] = contrib.get(cell, 0.0) + w * (cit / mean)
                weight[cell] = weight.get(cell, 0.0) + w
        assert contrib
        for cell, total in contrib.items():
            assert abs(total / weight[cell] - 1.0) <= 1e-9, cell

    cats = WeightColumns(corpus, asjc)
    baselines = category_baselines(cats, index)
    doubled = 2 * index
    baselines2 = category_baselines(cats, doubled)
    ni1, _ = ni_table(cats, baselines, index)
    ni2, _ = ni_table(cats, baselines2, doubled)
    assert len(ni1) == len(ni2) == len(corpus)
    for v1, v2 in zip(ni1, ni2):
        assert abs(v1 - v2) <= 1e-12
    _report(7, "impact self-normalization")


def _unit_weight_corpus(citations):
    scheme = Scheme([Category("PH01", "Mechanics", "PH")], [Area("PH", "Physics")])
    docs = [
        Document(f"D{i:04d}", "J1", 2020, "article", (), external_citations=c)
        for i, c in enumerate(citations)
    ]
    return scheme, Corpus(scheme, [Journal("J1", ("PH01",))], document_columns(docs))


def test_c08_excellence_cap(syn200):
    scheme, corpus = syn200
    index = build_citation_index(corpus)
    asjc = classify_asjc(corpus, scheme)
    u1 = classify_u1f08_all(corpus, scheme)

    for aset in (asjc, u1):
        for p in (0.10, 0.01):
            areas = WeightColumns(corpus, collapse_to_areas(aset, scheme))
            thresholds = dict(zip(areas.cells, excellence_thresholds(areas, index, p).tolist()))
            excellent = {}
            total = {}
            for d, cit in zip(corpus.documents, index):
                for area, w in plain_collapse(vector(aset, d.doc_id), scheme).items():
                    cell = (d.doc_type, d.year, area)
                    total[cell] = total.get(cell, 0.0) + w
                    if cit >= thresholds[cell]:
                        excellent[cell] = excellent.get(cell, 0.0) + w
            for cell, tw in total.items():
                assert excellent.get(cell, 0.0) / tw <= p + 1e-12, cell

    scheme1, corpus1 = _unit_weight_corpus(list(range(1000)))
    index1 = build_citation_index(corpus1)
    areas1 = WeightColumns(corpus1, collapse_to_areas(classify_asjc(corpus1, scheme1), scheme1))
    for p in (0.10, 0.01):
        thresholds = excellence_thresholds(areas1, index1, p)
        flags = excellence_flags(areas1, thresholds, index1)
        share = flags.sum() / len(flags)
        assert abs(share - p) <= 0.001, (p, share)

    scheme2, corpus2 = _unit_weight_corpus([5] * 100)
    index2 = build_citation_index(corpus2)
    areas2 = WeightColumns(corpus2, collapse_to_areas(classify_asjc(corpus2, scheme2), scheme2))
    for p in (0.10, 0.01):
        thresholds = excellence_thresholds(areas2, index2, p)
        flags = excellence_flags(areas2, thresholds, index2)
        assert flags.sum() == 0
    _report(8, "excellence cap")


def test_c09_community_detection():
    edges = [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
        ("a3", "b1", 1.0),
    ]
    nodes = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    g = _graph(nodes, edges)
    part = detect_communities(g)
    groups = {}
    for node, comm in part.community.items():
        groups.setdefault(comm, set()).add(node)
    assert sorted(groups.values(), key=sorted) == [
        {"a1", "a2", "a3"}, {"b1", "b2", "b3"}]
    expected_q = 6.0 / 7.0 - 0.5
    assert abs(part.q - expected_q) <= 1e-9
    assert abs(oracle_modularity(edges, part.community) - part.q) <= 1e-12

    rng = random.Random(900)
    for _ in range(50):
        n = rng.randint(3, 8)
        nodes = [f"n{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((nodes[i], nodes[j], rng.uniform(0.5, 2.0)))
        if not edges:
            edges.append((nodes[0], nodes[1], 1.0))
        g = _graph(nodes, edges)
        best = max(
            oracle_modularity(edges, {n: i for i, block in enumerate(part) for n in block})
            for part in partitions(nodes)
        )
        det = detect_communities(g)
        assert det.q <= best + 1e-9
        again = detect_communities(g)
        assert again.community == det.community
        assert again.q == det.q
    _report(9, "community detection")


def test_c10_layout_correctness():
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(3, 8))
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    w[i, j] = w[j, i] = float(rng.uniform(0.5, 2.0))
        if w.sum() == 0:
            continue
        checked += 1
        deg = w.sum(axis=1)
        rep = np.outer(deg, deg)
        np.fill_diagonal(rep, 0.0)
        att, reps = _pairs(w), _pairs(rep)
        x = rng.uniform(-1, 1, size=(n, 2))
        grad = _gradient(x, _distances(x), w, rep)
        h = 1e-6
        numeric = np.zeros_like(x)
        for i in range(n):
            for k in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i, k] += h
                xm[i, k] -= h
                numeric[i, k] = (_energy(_distances(xp), att, reps)
                                 - _energy(_distances(xm), att, reps)) / (2 * h)
        scale = max(np.abs(numeric).max(), 1.0)
        worst = max(worst, np.abs(grad - numeric).max() / scale)
    assert worst <= 1e-4

    g = _graph(["a1", "a2", "a3", "b1", "b2", "b3"], [
        ("a1", "a2", 1.0), ("a2", "a3", 1.0), ("a1", "a3", 1.0),
        ("b1", "b2", 1.0), ("b2", "b3", 1.0), ("b1", "b3", 1.0),
        ("a3", "b1", 1.0),
    ])
    layout = linlog_layout(g, LayoutParams(iterations=200, step=0.1, seed=3))
    trace = layout.energy_trace
    assert len(trace) >= 2
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-12

    pair = _graph(["u", "v"], [("u", "v", 1.0)])
    placed = linlog_layout(pair, LayoutParams(iterations=400, step=0.1, seed=1))
    (x1, y1), (x2, y2) = placed.positions["u"], placed.positions["v"]
    assert abs(math.hypot(x1 - x2, y1 - y2) - 1.0) <= 1e-3

    first = linlog_layout(g, LayoutParams(iterations=150, step=0.1, seed=17))
    second = linlog_layout(g, LayoutParams(iterations=150, step=0.1, seed=17))
    assert first.positions == second.positions
    assert first.energy_trace == second.energy_trace
    _report(10, "layout correctness")


# The directory that holds the imported ``citeclass`` package. A relative
# PYTHONPATH entry (``PYTHONPATH=src``) would not resolve from a child's cwd.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(citeclass.__file__)))


def _run_cli(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "citeclass", *argv],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, (
        f"citeclass {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")


@pytest.mark.slow
def test_c11_throughput_and_determinism():
    base = tempfile.mkdtemp(prefix="citeclass-1m-")
    try:
        src = os.path.join(base, "src")
        _run_cli([
            "syngen", "--out", src, "--seed", "7",
            "--n-docs", "1000000", "--n-journals", "20000",
            "--refs-min", "8", "--refs-max", "12",
        ], base)

        def run_pipeline(out):
            steps = [
                ["ingest",
                 "--scheme", os.path.join(src, "scheme.csv"),
                 "--journals", os.path.join(src, "journals.jsonl"),
                 "--documents", os.path.join(src, "documents.jsonl"),
                 "--out", out],
                ["classify", "--system", "asjc-frac", "--out", out],
                ["classify", "--system", "u1f08", "--out", out],
                ["compare", "--out", out],
                ["indicators", "--out", out],
            ]
            started = time.perf_counter()
            for step in steps:
                _run_cli(step, base)
            return time.perf_counter() - started

        # The two runs share nothing but the read-only corpus, so they run
        # side by side when there is a core for each; either way each run is
        # timed against the bound on its own.
        run_dirs = [os.path.join(base, name) for name in ("run1", "run2")]
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=min(len(run_dirs), cores)) as pool:
            futures = [pool.submit(run_pipeline, out) for out in run_dirs]
            for out, fut in zip(run_dirs, futures):
                elapsed = fut.result()
                assert elapsed <= 600.0, f"{out}: pipeline took {elapsed:.0f}s"

        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        assert peak_kb * 1024 <= 8 * 2**30, f"peak rss {peak_kb} KB"

        names = [
            sorted(
                os.path.relpath(os.path.join(root, f), d)
                for root, _, files in os.walk(d) for f in files
            )
            for d in run_dirs
        ]
        assert names[0] == names[1]
        assert names[0]
        for rel in names[0]:
            a = os.path.join(run_dirs[0], rel)
            b = os.path.join(run_dirs[1], rel)
            assert filecmp.cmp(a, b, shallow=False), rel
    finally:
        shutil.rmtree(base, ignore_errors=True)
    _report(11, "throughput and determinism")


CSV_SCHEMAS = {
    "fig1_low_reference_share.csv": (["year", "pct_below_min_refs"], []),
    "fig2_area_common_unique.csv": (
        ["class", "common_weight", "only_asjc_frac", "only_u1_f08"], [0]),
    "fig4_area_exchange_pct.csv": (["area", "pct_incoming", "pct_outgoing"], [0]),
    "fig5_area_single_assignment.csv": (
        ["class", "pct_single_asjc_frac", "mean_weight_asjc_frac",
         "pct_single_u1_f08", "mean_weight_u1_f08"], [0]),
    "fig6_category_size_histogram.csv": (
        ["bin_low", "bin_high", "count_asjc_frac", "pct_asjc_frac",
         "count_u1_f08", "pct_u1_f08"], []),
    "fig7_ni_diff_by_year.csv": (["year", "mean_abs_ni_diff"], []),
    "fig8_ni_std_by_area.csv": (
        ["area", "ni_std_asjc_frac", "ni_std_u1_f08"], [0]),
    "fig9_excellence_overlap_p10.csv": (
        ["area", "pct_common", "pct_only_u1", "pct_only_asjc"], [0]),
    "fig10_excellence_overlap_p01.csv": (
        ["area", "pct_common", "pct_only_u1", "pct_only_asjc"], [0]),
    "table1_top_links_area.csv": (["from_class", "to_class", "weight"], [0, 1]),
    "table2_flow_summary_category.csv": (
        ["metric", "n", "mean", "std", "cv_pct"], [0]),
    "table3_top_links_category.csv": (["from_class", "to_class", "weight"], [0, 1]),
    "table4_weight_summary_category.csv": (
        ["metric", "n", "mean", "std", "cv_pct"], [0]),
}


def _check_csv(path, header, label_cols):
    import csv as csvmod
    with open(path, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert rows and rows[0] == header, path
    for row in rows[1:]:
        assert len(row) == len(header), (path, row)
        for idx, cell in enumerate(row):
            if idx in label_cols:
                continue
            if cell != "NA":
                float(cell)


def test_c12_artifact_manifest(tmp_path):
    src = str(tmp_path / "src")
    out = str(tmp_path / "demo")
    for argv in (
        ["syngen", "--out", src, "--seed", "42", "--n-docs", "400"],
        ["ingest", "--scheme", f"{src}/scheme.csv", "--journals",
         f"{src}/journals.jsonl", "--documents", f"{src}/documents.jsonl",
         "--out", out],
        ["classify", "--system", "asjc-frac", "--out", out],
        ["classify", "--system", "u1f08", "--out", out],
        ["compare", "--out", out],
        ["indicators", "--out", out],
        ["network", "--out", out, "--level", "area", "--format", "json"],
    ):
        assert main(argv) == 0, argv

    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    expected_keys = {f"figure_{i}" for i in range(1, 11)}
    expected_keys |= {f"table_{i}" for i in range(1, 5)}
    assert set(manifest) == expected_keys

    for key, name in manifest.items():
        path = os.path.join(out, name)
        assert os.path.isfile(path), key
        if name in CSV_SCHEMAS:
            header, label_cols = CSV_SCHEMAS[name]
            _check_csv(path, header, label_cols)
        else:
            assert key == "figure_3"
            with open(path) as fh:
                graph = json.load(fh)
            assert set(graph) == {"nodes", "edges"}
            assert graph["nodes"]
            for node in graph["nodes"]:
                assert set(node) == {"id", "size", "community", "x", "y"}
            for edge in graph["edges"]:
                assert set(edge) == {"from", "to", "weight"}
                float(edge["weight"])
    _report(12, "artifact manifest")
